"""The descpoly benchmark: run one workload, check every output, print every
metric by name with its unit.

    python3 perfbench/run.py --workload {tables,census,cli_mix} --seed N --seconds S --trace {0,1}

It can be run from any directory: the program is imported from the
``src`` directory of the checkout that holds this file.  One client, closed loop: a single process runs the
operations one after another.  Each pass runs the workload's whole list of
operations in a fresh interpreter (``worker.py``), so the program's caches
start cold; passes repeat while another still fits in ``--seconds``, and
each metric is a median.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer numbers instead.

Stdout: one detail line (environment, sample counts, per-pass numbers),
then, as the last line, the result object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  On a broken checkout it exits
nonzero without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name, unit, better, bound (share of the parent's median).  The timings
# are scaled for host speed (see worker.py); on a shared 2-vCPU host ten
# runs of the same code still spread by up to 0.19 (quartile distance over
# median, census), so the timing bounds are the widest allowed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_rate", "ratio", "higher", 0.002),
)

_SELF_S = "s", "lower"
_CALLS = "count", "lower"
VERIFY_CHECKS = (
    "euler_identity", "ab_identity",
    "route_agreement", "cardinality", "eulerian_ceiling", "binomial_row",
    "intro_factorizations", "gf_series", "gf_convolution",
    "worked_examples", "bijection_round_trip", "count_agreement", "standardization",
    "example_sequence", "encoding", "bubble_commutation", "sorting_lemmas",
    "kernel_structure", "kernel_constructions", "kernel_multisection",
)
# name, unit, better
PER_LAYER = (
    ("polynomial.mul.calls", *_CALLS),
    ("polynomial.mul.self_s", *_SELF_S),
    ("polynomial.mul.coeff_ops", *_CALLS),
    ("polynomial.pow.self_s", *_SELF_S),
    ("polynomial.max_coeff_bits", "bits", "lower"),
    ("polynomial.add.calls", *_CALLS),
    ("polynomial.add.self_s", *_SELF_S),
    ("eulerian.eulerian_poly.self_s", *_SELF_S),
    ("eulerian.eulerian_poly.cache_hits", "count", "higher"),
    ("eulerian.eulerian_poly.cache_misses", *_CALLS),
    ("descent.closed_form.self_s", *_SELF_S),
    ("descent.recurrence.self_s", *_SELF_S),
    ("descent.enumeration.self_s", *_SELF_S),
    ("descent.kernel.self_s", *_SELF_S),
    ("descent.kernel_poly.cache_hits", "count", "higher"),
    ("descent.kernel_poly.cache_misses", *_CALLS),
    ("genfunc.series.self_s", *_SELF_S),
    ("genfunc.descent_gf.self_s", *_SELF_S),
    ("permutation.init.calls", *_CALLS),
    ("permutation.init.self_s", *_SELF_S),
    ("permutation.tail.self_s", *_SELF_S),
    ("permutation.enumerate.perms", *_CALLS),
    ("permutation.enumerate.self_s", *_SELF_S),
    ("permutation.sort.self_s", *_SELF_S),
    ("juggling.throw_sequence.calls", *_CALLS),
    ("juggling.throw_sequence.self_s", *_SELF_S),
    ("juggling.remove_ball.calls", *_CALLS),
    ("juggling.remove_ball.self_s", *_SELF_S),
    ("juggling.sequence.calls", *_CALLS),
    ("juggling.sequence.self_s", *_SELF_S),
    *((f"verify.{check}.self_s", *_SELF_S) for check in VERIFY_CHECKS),
    ("cli.self_s", *_SELF_S),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_s", *_SELF_S),
)

SETUP_ONLY_SPAWNS = 2  # per pass, on top of the pass's own set-up sample
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a worker's "ready"
    # stamp can be compared with the parent's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    git_sha = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            git = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            git_sha = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = [line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
           if line.startswith("model name")]
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "cpu_model": cpu[0] if cpu else platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": read("/proc/loadavg").strip(),
    }


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    timeout = deadline - _now()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    started = _now()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    res["setup_s"] = res.pop("ready") - started
    res["scaled_setup_s"] = res["setup_s"] * res.pop("setup_scale")
    res["traced"] = "--trace" in flags
    return res


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    start = _now()
    deadline = start + DEADLINE_S
    env = environment()
    setups: list[dict] = []
    passes: list[dict] = []
    rounds: list[float] = []
    # Rounds of set-up samples and one pass, spread over the run so that
    # both see the same machine; a round starts only if a typical round
    # still ends within --seconds (the first pass, and with --trace the
    # first traced pass, always run).
    while (
        not passes
        or (trace and len(passes) < 2)
        or _now() - start + statistics.median(rounds) <= seconds
    ):
        began = _now()
        for _ in range(SETUP_ONLY_SPAWNS):
            setups.append(spawn(workload, seed, deadline, "--setup-only"))
        traced = trace and len(passes) % 2 == 1  # untraced first, then alternate
        passes.append(spawn(workload, seed, deadline, *(["--trace"] if traced else [])))
        setups.append(passes[-1])
        rounds.append(_now() - began)

    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)

    def timings(prefix: str) -> dict:
        # every pass runs the same operations in the same order: an
        # operation's latency is its median over the untraced passes
        ops = [statistics.median(op) for op in zip(*(p[prefix + "latencies"] for p in plain))]
        return {
            "setup_s": statistics.median(s[prefix + "setup_s"] for s in setups),
            "wall_s": statistics.median(p[prefix + "wall_s"] for p in plain),
            "op_p50_ms": statistics.median(ops) * 1e3,
            "op_p99_ms": statistics.quantiles(ops, n=100, method="inclusive")[98] * 1e3,
            "ops": ops,
        }

    scaled, measured = timings("scaled_"), timings("")
    latencies = scaled.pop("ops")
    measured.pop("ops")
    end_to_end = {
        **scaled,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ok_rate": 1 - failed / attempted,
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        values = {}
        for name, _, _ in PER_LAYER:
            if name == "trace.overhead_s":
                values[name] = statistics.median(p["scaled_wall_s"] for p in traced) - scaled["wall_s"]
            elif all(name in p["trace"] for p in traced):
                values[name] = statistics.median(p["trace"][name] for p in traced)
            else:
                raise BenchError(f"traced pass did not report {name}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit, _, _ in END_TO_END}

    wrong = [w for p in passes for w in p["wrong"]]
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "samples": {
            "setup": len(setups),
            "op_latency": len(latencies),  # operations, each a median over passes
            "op_latency_beyond_p99": sum(t * 1e3 > scaled["op_p99_ms"] for t in latencies),
        },
        "pass_wall_s": [(p["scaled_wall_s"], p["wall_s"], p["traced"]) for p in passes],
        "probe_ms": [p["probe_s"] * 1e3 for p in passes],
        "end_to_end": end_to_end,
        "as_measured": measured,
        "error_rate": failed / attempted,
        "known_failures": sum(p["known_failures"] for p in passes),
        "wrong_outputs": len(wrong),
        "first_wrong": wrong[:5],
        "elapsed_s": _now() - start,
    }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "descpoly" / "__init__.py").is_file():
        print(f"no descpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
