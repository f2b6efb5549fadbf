"""Regenerate ``digests.json``, the pinned stdout digest of every
seed-independent operation (all of ``tables`` and ``census``).

    python3 perfbench/pin.py

CLI stdout is meant to stay byte-identical, so re-pin only for a change
that alters stdout on purpose, and say so in that change.  Each output is
also put through its semantic check before it is pinned.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import checks
    import workloads
    from descpoly import cli

    digests: dict[str, str] = {}
    checker = checks.Checker(digests)
    for make in (workloads.tables, workloads.census):
        for op in make(0):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
            digests[op.key] = checks.stdout_digest(out.getvalue())
            checker.check(op, rc, out.getvalue(), err.getvalue())
            print(f"{digests[op.key][:16]}  {op.key}")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
