"""One pass of a workload, in a fresh interpreter started by ``run.py``.

    python3 perfbench/worker.py --workload cli_mix --seed 1 [--trace] [--setup-only]

Imports ``descpoly`` from the checkout's ``src``, builds the workload's
operations from the seed, then calls ``descpoly.cli.main(argv)`` once per
operation with stdout and stderr captured, timing each call and checking
its output between calls.  Prints one JSON object on stdout: the monotonic
time at which set-up ended, per-operation latencies, failures, peak RSS
and, with ``--trace``, the per-layer numbers.

The speed of a shared host drifts: on the 2-vCPU host this benchmark was
built on, the same operations ran up to 1.5x slower for minutes at a time.
So the worker also times a fixed probe between operations (at least every
``PROBE_EVERY_S``, ``PROBES_AT_ONCE`` in a row), and reports each latency
both as measured and scaled to a host on which the probe takes
``PROBE_REF_S``, by the median probe within ``PROBE_WINDOW_S`` of the
operation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PROBE_EVERY_S = 0.1
PROBES_AT_ONCE = 3  # one probe alone jitters by about a third
PROBE_WINDOW_S = 0.5
PROBE_REF_S = 1e-3


def probe() -> float:
    """Seconds for a fixed piece of interpreter work: small-int arithmetic,
    tuple slices and a few big-int products, like the program's own mix.
    The cyclic collector is off meanwhile, so the program's heap does not
    change the reading."""
    gc.disable()
    try:
        t0 = perf_counter()
        w = tuple(range(256))
        acc = 0
        for i in range(1000):
            acc += len(w[i % 256 :]) + i * i % 7
        y = 3**6000
        for _ in range(8):
            acc += (y * y) & 1
        return perf_counter() - t0
    finally:
        gc.enable()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import descpoly
    from descpoly import cli

    if not Path(descpoly.__file__).resolve().is_relative_to(SRC):
        print(f"descpoly imported from {descpoly.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    checker = checks.Checker(json.loads((HERE / "digests.json").read_text()))
    result: dict = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    result["setup_scale"] = PROBE_REF_S / statistics.median(probe() for _ in range(5))
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.counts["cli.stdout_bytes"] = 0

    spans, probes, failed, known, wrong = [], [], 0, 0, []  # probes: (start, seconds)
    for op in ops:
        if not probes or perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probes += [(perf_counter(), probe()) for _ in range(PROBES_AT_ONCE)]
        out, err = io.StringIO(), io.StringIO()
        raised = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception as exc:  # every escape from main is a failed operation
            rc, raised = None, type(exc).__name__
        spans.append((t0, perf_counter()))
        text = out.getvalue()
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(text) if text.isascii() else len(text.encode())
        if raised is not None:
            failed += 1
            if (op.kind, raised) == checks.KNOWN_FAILURE:
                known += 1
            else:
                wrong.append(f"{op.key[:100]}: raised {raised}")
            continue
        try:
            checker.check(op, rc, text, err.getvalue())
        except Exception as exc:  # a malformed output fails its check too
            failed += 1
            wrong.append(f"{op.key[:100]}: {type(exc).__name__}: {exc}")

    probes += [(perf_counter(), probe()) for _ in range(PROBES_AT_ONCE)]
    latencies = [t1 - t0 for t0, t1 in spans]
    scaled = []
    for (t0, t1), latency in zip(spans, latencies):
        near = [d for t, d in probes if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
        scaled.append(latency * PROBE_REF_S / statistics.median(near))
    result.update(
        latencies=latencies,
        wall_s=sum(latencies),
        scaled_latencies=scaled,
        scaled_wall_s=sum(scaled),
        probe_s=statistics.median(d for _, d in probes),
        failed=failed,
        known_failures=known,
        wrong=wrong,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["trace"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
