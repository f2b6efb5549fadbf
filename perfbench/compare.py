"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py base.jsonl change.jsonl

Each file holds the stdout of one or more ``run.py`` runs, appended one
after another.  For every workload and metric found in both files it
prints the two medians, the change as a share of the base median (positive
is worse), the base's own spread (quartile distance over median) and, for
end-to-end metrics, whether the change is worse than the metric's bound.
A metric whose base spread exceeds its bound is reported as unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import END_TO_END, PER_LAYER


def load(path: str) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    workload = None
    with open(path) as f:
        for line in f:
            doc = json.loads(line)
            if "detail" in doc:
                workload = doc["detail"]["workload"]
                continue
            for name, metric in doc["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(base_path: str, change_path: str) -> int:
    base, change = load(base_path), load(change_path)
    better = {name: b for name, _, b, *_ in (*END_TO_END, *PER_LAYER)}
    bound = {name: bd for name, _, _, bd in END_TO_END}
    print(f"{'workload':9} {'metric':40} {'base':>12} {'change':>12} {'worse by':>9} {'spread':>7}  verdict")
    for workload, name in sorted(base.keys() & change.keys()):
        a, b = base[workload, name], change[workload, name]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if ma else float("nan")
        if better.get(name) == "higher":
            worse = -worse
        verdict = ""
        if name in bound:
            if spread(a) > bound[name]:
                verdict = "unresolved"
            else:
                verdict = "REGRESSION" if worse > bound[name] else "ok"
        print(f"{workload:9} {name:40} {ma:12.6g} {mb:12.6g} {worse:+9.3f} {spread(a):7.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
