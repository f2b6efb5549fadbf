"""Byte-identity guard for the CLI: each pinned command must print exactly
the stdout it printed when ``tests/data/cli_golden.json`` was generated, and
exit with the same code."""

import hashlib
import json
from pathlib import Path

import pytest

from descpoly.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["argv"] for c in CASES])
def test_cli_stdout_is_pinned(capsys, case):
    code = main(case["argv"].split())
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
