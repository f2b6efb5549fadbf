import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from descpoly import cli
from descpoly.cli import main
from descpoly.juggling import JugglingSequence
from descpoly.polynomial import IntPoly
from descpoly.verify import CheckResult


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_plain(capsys):
    code, out, err = run_cli(capsys, "table", "--n", "3", "--k", "1")
    assert code == 0
    assert out.splitlines() == ["# n k r value", "3 1 0 1", "3 1 1 3"]


def test_table_eulerian_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "4", "--k", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "k", "r", "value"]
    assert [r[3] for r in rows[1:]] == ["1", "11", "11", "1"]


def test_table_single_trivial_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2", "--k", "0", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["2,0,0,1"]


def test_table_all_routes_agree(capsys):
    code, out, err = run_cli(
        capsys, "table", "--n", "2:6", "--k", "2", "--route", "all", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert all(row["agree"] for row in doc["rows"])


def test_table_range_and_large_values_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "30", "--k", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    total = sum(int(row["value"]) for row in doc["rows"])
    assert total == 24 * 5**26  # exact, too big for a double


def test_table_enum_respects_cap(capsys):
    code, _, err = run_cli(capsys, "table", "--n", "12", "--k", "1", "--route", "enum")
    assert code == 2
    assert "cap" in err
    code, out, _ = run_cli(
        capsys, "table", "--n", "12", "--k", "1", "--route", "enum", "--nmax", "12"
    )
    assert code == 0


def test_poly_formats(capsys):
    code, out, _ = run_cli(capsys, "poly", "--k", "2", "--which", "P", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["constructions"]["formula"] == ["1", "1", "2", "1", "1"]

    code, out, _ = run_cli(capsys, "poly", "--k", "2", "--which", "PP", "--format", "json")
    doc = json.loads(out)
    assert doc["constructions"]["formula"] == ["1", "0", "1", "2", "1", "0", "1"]


def test_poly_k0(capsys):
    code, out, _ = run_cli(capsys, "poly", "--k", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["constructions"] == {"formula": ["1"]}
    code, out, err = run_cli(capsys, "poly", "--k", "0", "--construction", "stretch")
    assert code == 2
    assert out == ""
    assert err == "error: construction 'stretch' needs k >= 1\n"


def test_poly_cap(capsys):
    code, out, err = run_cli(capsys, "poly", "--k", "9")
    assert code == 2
    assert out == ""
    assert err == "error: k=9 exceeds cap 8 (raise with --kmax)\n"
    code, out, _ = run_cli(capsys, "poly", "--k", "9", "--kmax", "9", "--format", "json")
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_gf_series(capsys):
    code, out, _ = run_cli(capsys, "gf", "--k", "1", "--order", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["series"] == [["1"], ["1"], ["1", "1"], ["1", "3"]]
    assert doc["numerator"] == [["1"], ["-1"]]
    assert doc["denominator"] == [["1"], ["-2"], ["1", "-1"]]

    code, out, _ = run_cli(capsys, "gf", "--k", "0", "--order", "2", "--format", "json")
    assert json.loads(out)["series"] == [["1"], ["1"], ["1"]]

    code, out, _ = run_cli(capsys, "gf", "--k", "1", "--order", "0", "--format", "json")
    assert json.loads(out)["series"] == [["1"]]


def test_juggle(capsys):
    code, out, _ = run_cli(capsys, "juggle", "--perm", "3,2,1", "--k", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["throws"] == [4, 2, 0]
    assert doc["balls"] == 2
    assert doc["reduced"] == [2, 0, 1]
    assert doc["crosscheck"] == "ok"


def test_juggle_identity(capsys):
    code, out, _ = run_cli(capsys, "juggle", "--perm", "1,2,3", "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["throws"] == [1, 1, 1]
    assert doc["reduced"] == [0, 0, 0]


def test_juggle_zero_balls(capsys):
    code, out, _ = run_cli(capsys, "juggle", "--perm", "1,2", "--k", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] is None
    assert doc["crosscheck"] == "n/a"


def test_juggle_drop_exceeds_k(capsys):
    code, _, err = run_cli(capsys, "juggle", "--perm", "2,3,1", "--k", "1")
    assert code == 2
    assert "maxdrop" in err


def test_juggle_parse_error(capsys):
    code, _, err = run_cli(capsys, "juggle", "--perm", "1,2,x", "--k", "1")
    assert code == 2


def test_verify_structure_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "structure", "--kmax", "7", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(r["ok"] for r in doc["results"])


def test_verify_identities_plain(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--kmax", "10")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("#")


def test_verify_small_bounds_all(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--nmax", "5", "--kmax", "4", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "name", "ok", "detail"]
    assert all(r[2] == "True" for r in rows[1:])


def test_output_determinism(capsys):
    first = run_cli(capsys, "table", "--n", "2:7", "--k", "3", "--format", "json")
    second = run_cli(capsys, "table", "--n", "2:7", "--k", "3", "--format", "json")
    assert first == second
    first = run_cli(capsys, "gf", "--k", "2", "--order", "6", "--format", "csv")
    second = run_cli(capsys, "gf", "--k", "2", "--order", "6", "--format", "csv")
    assert first == second


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args",
    [("--suite", "routes", "--kmax", "-1"), ("--nmax", "-1")],
)
def test_verify_negative_bound_exits_2(capsys, args):
    code, out, err = run_cli(capsys, "verify", *args)
    assert code == 2
    assert out == ""
    assert err.startswith("error: nmax and kmax must be nonnegative")


_BOUNDS_READ = [
    (("table", "--n", "3", "--k", "1"), {"--nmax"}),
    (("poly", "--k", "2"), {"--kmax"}),
    (("gf", "--k", "1", "--order", "2"), set()),
    (("juggle", "--perm", "3,2,1", "--k", "2"), set()),
    (("verify", "--suite", "identities"), {"--nmax", "--kmax"}),
]


@pytest.mark.parametrize("argv, reads", _BOUNDS_READ, ids=[a[0] for a, _ in _BOUNDS_READ])
def test_each_subcommand_takes_only_the_bounds_it_reads(capsys, argv, reads):
    for flag in {"--nmax", "--kmax"} - reads:
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "1"])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    assert {flag for flag in ("--nmax", "--kmax") if flag in usage} == reads


def test_bad_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "table", "--n", "5:2", "--k", "1")
    assert code == 2


@pytest.mark.parametrize("text", ["3:", ":3"])
def test_empty_range_bound_exits_2(capsys, text):
    code, out, err = run_cli(capsys, "table", "--n", text, "--k", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: bad range {text!r}\n"


def test_table_route_disagreement_exits_1(capsys, monkeypatch):
    real = cli.descent_poly

    def perturbed(n, k, route="rec", cap=10):
        result = real(n, k, route, cap=cap)
        if route == "closed" and n == 4:
            return dataclasses.replace(result, poly=result.poly + IntPoly((0, 1)))
        return result

    monkeypatch.setattr(cli, "descent_poly", perturbed)
    code, out, err = run_cli(capsys, "table", "--n", "3:5", "--k", "2", "--route", "all")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "# n k r value agree"
    assert {line.split()[0]: line.split()[-1] for line in lines[1:]} == {
        "3": "true",
        "4": "false",
        "5": "true",
    }
    assert err.startswith("route disagreement at n=4 k=2: ")
    assert len(err.splitlines()) == 1


def test_poly_construction_disagreement_exits_1(capsys, monkeypatch):
    real = cli.kernel_poly_by_duplication
    monkeypatch.setattr(cli, "kernel_poly_by_duplication", lambda k: real(k) + IntPoly((0, 1)))
    code, out, err = run_cli(capsys, "poly", "--k", "3")
    assert code == 1
    assert out.splitlines()[-1] == "agree: false"
    assert err.startswith("construction disagreement for P at k=3: ")
    assert len(err.splitlines()) == 1


def test_juggle_crosscheck_mismatch_exits_1(capsys, monkeypatch):
    real = cli.remove_ball
    monkeypatch.setattr(cli, "remove_ball", lambda T: JugglingSequence(reversed(real(T).throws)))
    code, out, err = run_cli(capsys, "juggle", "--perm", "3,2,1", "--k", "2")
    assert code == 1
    assert out.splitlines()[-2:] == ["one ball removed: (1, 0, 2)", "bubble crosscheck: mismatch"]
    assert err.startswith("bubble crosscheck: mismatch")
    assert len(err.splitlines()) == 1


def test_verify_failure_exits_1(capsys, monkeypatch):
    results = [CheckResult("a claim", True), CheckResult("b claim", False, "at n=2")]
    monkeypatch.setattr(cli, "run_suite", lambda suite, nmax, kmax: results)
    code, out, err = run_cli(capsys, "verify", "--suite", "routes")
    assert code == 1
    assert out.splitlines() == [
        "PASS a claim",
        "FAIL b claim: at n=2",
        "# 1/2 checks passed (nmax=7, kmax=7)",
    ]
    assert err == "FAIL b claim: at n=2\n"


def _raise(*args, **kwargs):
    raise AssertionError("rendered a format that was not requested")


@pytest.mark.parametrize(
    "argv",
    [
        "table --n 2:6 --k 2 --route all",
        "poly --k 3",
        "gf --k 2 --order 6",
        "juggle --perm 3,2,1 --k 2",
        "verify --suite structure --kmax 4",
    ],
)
@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_plain_and_csv_never_encode_json(capsys, monkeypatch, argv, fmt):
    monkeypatch.setattr(json, "dumps", _raise)
    code, out, _ = run_cli(capsys, *argv.split(), "--format", fmt)
    assert code == 0
    assert out


def test_gf_json_never_pretty_prints(capsys, monkeypatch):
    monkeypatch.setattr(IntPoly, "pretty", _raise)
    code, out, _ = run_cli(capsys, "gf", "--k", "2", "--order", "40", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["series"]) == 41


def test_table_prints_coefficients_past_the_int_digit_limit(capsys):
    # at (7160, 3) the largest coefficient has more than 4,300 digits, the
    # default limit of CPython's int-to-string conversion
    n, k = 7160, 3
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "table", "--n", str(n), "--k", str(k), "--route", "closed")
        assert sys.get_int_max_str_digits() == 4300  # lifted for printing only
        sys.set_int_max_str_digits(0)
        values = [line.split()[3] for line in out.splitlines()[1:]]
        total = sum(map(int, values))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert max(map(len, values)) > 4300
    assert total == factorial(k) * (k + 1) ** (n - k)


# The parser is built once per process and shared by every main() call.

SRC = str(Path(cli.__file__).resolve().parents[1])
GOLDEN_TABLE = next(
    c["stdout_sha256"]
    for c in json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    if c["argv"] == "table --n 3 --k 1"
)


def _call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_across_calls(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    calls = [["table", "--n", "3", "--k", "1"], ["gf", "--k", "1", "--order", "2"], ["bogus"]]
    for argv in calls * 20:
        _call(capsys, argv)
    assert len(built) == 1


def test_shared_parser_leaks_no_state(capsys, monkeypatch):
    # each call must print and exit as it would with a parser of its own
    calls = [
        ["table", "--n", "4", "--k", "1", "--route", "enum", "--nmax", "3"],
        ["table", "--n", "4", "--k", "1", "--route", "enum"],
        ["poly", "--k", "2", "--format", "json"],
        ["table", "--k", "1"],
        ["juggle", "--perm", "3,2,1", "--k", "2", "--format", "csv"],
        ["bogus"],
        ["table", "--n", "5:2", "--k", "1"],
        ["verify", "--suite", "structure", "--kmax", "4"],
        ["table", "--n", "3", "--k", "1", "--format", "json"],
        ["poly", "--k", "9"],
        ["poly", "--k", "9", "--kmax", "9", "--construction", "formula"],
        ["poly", "--k", "9"],
        ["gf", "--k", "2", "--order", "6", "--format", "csv"],
        ["table", "--n", "3", "--k", "1"],
    ]
    shared = [_call(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_call(capsys, argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 2, 0, 2, 2, 0, 0, 2, 0, 2, 0, 0]
    out = shared[-1][1]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE


def _python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_import_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **kw):\n"
        "    built.append(1)\n"
        "    init(self, *a, **kw)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import descpoly.cli\n"
        "print(len(built))\n"
    )
    proc = _python("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_module_entry_point():
    proc = _python("-m", "descpoly.cli", "table", "--n", "3", "--k", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == GOLDEN_TABLE
    proc = _python("-m", "descpoly.cli", "table", "--n", "5:2", "--k", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: bad range '5:2'\n"
