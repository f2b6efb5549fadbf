"""Byte identity of the CLI over a frozen command list.

``tests/data/cli_digests.json`` holds each command line with the sha256 of
its exit code, stdout and stderr, run in process through ``cli.main``.  The
list is frozen here, not drawn from the benchmark's workloads, so a change
to those cannot move it.  It holds the seed-1 commands of the ``cli_mix``
workload, which reach every format, route and construction of ``table``,
``poly``, ``gf`` and ``juggle``, with the juggles thinned to one per drop
bound up to length 256 and one per format at 512, 1,024 and 2,048; tables
of 1,023 to 1,025 rows across the 1,024-row batch edge; ``verify`` and the
enumeration route in every format; and five usage errors.  No command line
reaches a table with no rows (every row range holds one); the JSON writer's
tests cover that.

A change that alters output on purpose re-pins the digests with
``PYTHONPATH=src python tests/test_cli_digests.py``, and says why.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from descpoly.cli import main

DATA = Path(__file__).resolve().parent / "data" / "cli_digests.json"


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def _commands() -> list[list]:
    # each item is [argv, digest]
    return json.loads(DATA.read_text())["commands"]


def test_every_frozen_command_prints_its_pinned_bytes():
    for argv, pinned in _commands():
        assert digest(argv) == pinned, f"first command whose output differs: {' '.join(argv)[:200]}"


def test_the_frozen_list_covers_what_it_claims():
    commands = [argv for argv, _ in _commands()]

    def option(argv, flag, default):
        return argv[argv.index(flag) + 1] if flag in argv else default

    reach = {(argv[0], option(argv, "--format", "plain")) for argv in commands}
    subcommands, formats = ("table", "poly", "gf", "juggle", "verify"), ("plain", "json", "csv")
    assert reach == {(command, fmt) for command in subcommands for fmt in formats}
    tables = [argv for argv in commands if argv[0] == "table"]
    assert {option(argv, "--route", "rec") for argv in tables} == {"rec", "closed", "enum", "all"}
    assert {"0:1022", "0:1023", "0:1024"} <= {option(argv, "--n", "") for argv in tables}
    polys = [argv for argv in commands if argv[0] == "poly"]
    assert {(option(argv, "--which", "P"), option(argv, "--construction", "all")) for argv in polys} == {
        (which, construction)
        for which in ("P", "PP")
        for construction in ("all", "formula", "stretch", "duplication")
    }
    lengths = {len(option(argv, "--perm", "").split(",")) for argv in commands if argv[0] == "juggle"}
    assert {8, 16, 32, 64, 128, 256, 512, 1024, 2048} <= lengths


if __name__ == "__main__":
    pinned = [[argv, digest(argv)] for argv, _ in _commands()]
    DATA.write_text(
        '{\n  "commands": [\n' + ",\n".join("    " + json.dumps(item) for item in pinned) + "\n  ]\n}\n"
    )
