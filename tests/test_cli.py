import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
from math import factorial
from pathlib import Path

import pytest

from descpoly import cli, verify
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


_USAGE_TABLE = (
    "usage: descpoly table [-h] [--format {plain,json,csv}] --n N --k K\n"
    "                      [--route {enum,rec,closed,all}] [--nmax NMAX]\ndescpoly table: error: "
)
_USAGE = "usage: descpoly [-h] {table,poly,gf,juggle,verify} ...\ndescpoly: error: "
# argparse's own rejections (exit 2), as it prints them at an 80-column terminal
REJECTIONS = {
    "": _USAGE + "the following arguments are required: command",
    "table": _USAGE_TABLE + "the following arguments are required: --n, --k",
    "table --n 3": _USAGE_TABLE + "the following arguments are required: --k",
    "table --n 3 --k 1 --route magic": _USAGE_TABLE
    + "argument --route: invalid choice: 'magic' (choose from 'enum', 'rec', 'closed', 'all')",
    "table --n 3 --k x": _USAGE_TABLE + "argument --k: invalid int value: 'x'",
    "table --n 3 --k": _USAGE_TABLE + "argument --k: expected one argument",
    "gf --k 1 --order 2 --nmax 1": _USAGE + "unrecognized arguments: --nmax 1",
    "bogus": _USAGE
    + "argument command: invalid choice: 'bogus' (choose from 'table', 'poly', 'gf', 'juggle', 'verify')",
}


@pytest.mark.parametrize("argv", REJECTIONS)
def test_argparse_rejections_keep_their_text(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _call(capsys, argv.split())
    expected = REJECTIONS[argv] + "\n"
    # argparse from Python 3.12.8 on lists the choices by str(), not repr()
    unquoted = re.sub(r"\(choose from .*\)", lambda m: m[0].replace("'", ""), expected)
    assert (code, out) == (2, "")
    assert err in {expected, unquoted}


def test_unknown_route_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--n", "3", "--k", "1", "--route", "magic"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'magic'" in captured.err


def test_bad_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "table", "--n", "5:2", "--k", "1")
    assert code == 2


@pytest.mark.parametrize("text", ["3:", ":3"])
def test_empty_range_bound_exits_2(capsys, text):
    code, out, err = run_cli(capsys, "table", "--n", text, "--k", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: bad range {text!r}\n"


# every usage error a user can make, with the one stderr line it prints (exit 2)
USAGE_ERRORS = {
    "table --n 3 --k -1": "n and k must be nonnegative",
    "table --n 0:4 --k -2 --route all": "n and k must be nonnegative",
    "table --n 3 --k -1 --route closed": "n and k must be nonnegative",
    "table --n x --k 1": "invalid literal for int() with base 10: 'x'",
    "table --n 3::4 --k 1": "invalid literal for int() with base 10: ':4'",
    "table --n -1 --k 1": "bad range '-1'",
    "table --n 2:12 --k 1 --route all": "enumeration for n=11 exceeds cap 10",
    "table --n 3 --k 1 --route enum --nmax -1": "enumeration for n=3 exceeds cap -1",
    "poly --k -1": "k must be nonnegative",
    "poly --k -1 --construction stretch": "stretch construction starts at k = 1",
    "poly --k -1 --which PP --construction duplication": "duplication construction starts at k = 1",
    "poly --k 3 --kmax -1": "k=3 exceeds cap -1 (raise with --kmax)",
    "gf --k -1 --order 3": "k must be nonnegative",
    "gf --k 2 --order -1": "order must be nonnegative",
    "juggle --perm 3,2,1 --k -1": "maxdrop 2 of (3, 2, 1) exceeds k=-1",
    "juggle --perm 1,1,2 --k 2": "not a permutation of 1..3: (1, 1, 2)",
    "juggle --perm , --k 1": "invalid literal for int() with base 10: ''",
    "verify --suite structure --nmax -2 --kmax -2": "nmax and kmax must be nonnegative, got -2 and -2",
}


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_print_one_line_and_exit_2(capsys, argv):
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: {USAGE_ERRORS[argv]}\n")


@pytest.mark.parametrize("exc", [ValueError("injected fault"), RuntimeError("injected fault")])
def test_a_fault_in_a_route_is_a_failure_not_a_usage_error(capsys, monkeypatch, exc):
    # a route that raises is a fault of the program (exit 1, named), never the user's error
    def injected(n, k):
        raise exc

    monkeypatch.setattr(cli, "descent_poly_by_recurrence", injected)
    code, out, err = run_cli(capsys, "table", "--n", "3", "--k", "1")
    assert (code, out) == (1, "")
    assert err == f"FAIL table: {type(exc).__name__}: injected fault\n"


def test_table_route_disagreement_exits_1(capsys, monkeypatch):
    real = cli.descent_poly_by_closed_form

    def perturbed(n, k):
        poly = real(n, k)
        return poly + IntPoly((0, 1)) if n == 4 else poly

    monkeypatch.setattr(cli, "descent_poly_by_closed_form", perturbed)
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


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_juggle_invalid_encoding_exits_1(capsys, monkeypatch, fmt):
    # (2, 2, 0) lands at 3, 4, 3: two throws land together
    monkeypatch.setattr(cli, "throw_sequence", lambda p, k: JugglingSequence((2, 2, 0)))
    monkeypatch.setattr(cli, "remove_ball", lambda T: pytest.fail("removed a ball"))
    code, out, err = run_cli(capsys, "juggle", "--perm", "3,2,1", "--k", "2", "--format", fmt)
    assert code == 1
    assert err == "encoding: not a valid juggling sequence: (2, 2, 0)\n"
    if fmt == "plain":
        assert out.splitlines() == [
            "perm: (3, 2, 1)", "throws: (2, 2, 0)", "valid: false", "bubble crosscheck: n/a"
        ]
    elif fmt == "json":
        assert json.loads(out) == {
            "command": "juggle", "perm": [3, 2, 1], "k": 2, "throws": [2, 2, 0],
            "valid": False, "balls": None, "reduced": None, "crosscheck": "n/a",
        }
    else:
        assert list(csv.reader(io.StringIO(out))) == [
            ["perm", "k", "throws", "valid", "balls", "reduced", "crosscheck"],
            ["3 2 1", "2", "2 2 0", "False", "", "", "n/a"],
        ]


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


def test_verify_check_that_raises_is_its_failure(capsys, monkeypatch):
    # a fault in the code under test is a FAIL of the checks that reach it
    # (exit 1), not a usage error (exit 2); the other checks still run
    def injected(p, spec):
        raise ValueError("injected fault")

    monkeypatch.setattr(verify, "detach_tail", injected)
    code, out, err = run_cli(capsys, "verify", "--suite", "bijections", "--nmax", "4")
    assert code == 1
    assert err == "FAIL check_worked_examples: ValueError: injected fault\n"
    lines = out.splitlines()
    assert lines[:2] == [
        "FAIL check_worked_examples: ValueError: injected fault",
        "FAIL check_bijection_round_trip: ValueError: injected fault",
    ]
    assert [line.split(" ", 1)[0] for line in lines[2:]] == ["PASS", "PASS", "#"]
    assert lines[-1] == "# 2/4 checks passed (nmax=4, kmax=7)"


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
    monkeypatch.setattr(cli, "_write_json", _raise)
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


# Every main() call parses from the same module-level command table and start namespaces.

SRC = str(Path(cli.__file__).resolve().parents[1])
GOLDEN_TABLE = next(
    c["stdout_sha256"]
    for c in json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    if c["argv"] == "table --n 3 --k 1"
)
# argparse's help for the top level ("") and each subcommand at an 80-column terminal
HELP = json.loads((Path(__file__).parent / "data" / "cli_help.json").read_text())


def _call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_leaks_no_state(capsys):
    # each call prints and exits alike in either order: the start namespaces it copies stay unchanged
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
    assert shared == [_call(capsys, argv) for argv in reversed(calls)][::-1]
    assert [code for code, _, _ in shared] == [2, 0, 0, 2, 0, 2, 2, 0, 0, 2, 0, 2, 0, 0]
    out = shared[-1][1]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE


def _python(*args):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
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


def test_main_reads_sys_argv_without_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["descpoly", "table", "--n", "3", "--k", "1"])
    code = main()
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_TABLE


def test_module_entry_point_parses_as_argparse_does():
    # the installed script's path: main() with no argv, on the fast path and on argparse's
    base = ["-m", "descpoly.cli", "table", "--n", "3"]
    exact, joined, abbreviated = (
        _python(*base, *rest) for rest in (["--k", "1"], ["--k=1"], ["--k", "1", "--rout", "rec"])
    )
    assert (exact.returncode, exact.stderr) == (0, "")
    assert hashlib.sha256(exact.stdout.encode()).hexdigest() == GOLDEN_TABLE
    assert joined.stdout == abbreviated.stdout == exact.stdout
    proc = _python("-m", "descpoly.cli", "gf", "--help")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, HELP["gf"], "")


@pytest.mark.parametrize("command", HELP, ids=lambda command: command or "descpoly")
def test_help_screens_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), "--help"])
    assert (exc.value.code, capsys.readouterr().out) == (0, HELP[command])


def test_a_closed_pipe_exits_1_in_silence():
    # the reader takes one line and goes, as `| head -1` does, while rows are still coming
    argv = [sys.executable, "-m", "descpoly.cli", "table", "--n", "0:300", "--k", "2", "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n,k,r,value\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(60), stderr) == (1, b"")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(os.listdir("/proc/self/fd"))
        code = main(["table", "--n", "0:300", "--k", "2", "--format", "csv"])
        after = len(os.listdir("/proc/self/fd"))
    assert (code, after) == (1, before)


def test_overlapping_emits_restore_the_digit_limit(capsys):
    # A enters, B enters, A leaves, B leaves: the limit stays lifted while either
    # prints, and comes back once both are done
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def lines(entered, other, text):
        entered.set()
        other.wait(10)
        seen.append(sys.get_int_max_str_digits())
        yield text

    def first():
        cli.emit("plain", cli.Record({}, [], lines(a_in, b_in, "a")))
        a_out.set()

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        a = threading.Thread(target=first)
        a.start()
        a_in.wait(10)
        b = threading.Thread(target=cli.emit, args=("plain", cli.Record({}, [], lines(b_in, a_out, "b"))))
        b.start()
        a.join(10)
        b.join(10)
        after = sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(limit)
    assert not (a.is_alive() or b.is_alive())
    assert (seen, after) == ([0, 0], 4300)
    assert capsys.readouterr().out == "a\nb\n"


def test_many_threads_printing_at_once_keep_the_digit_limit_lifted(capsys):
    seen = []

    def lines():
        seen.append(sys.get_int_max_str_digits())
        yield "x"

    def work():
        for _ in range(200):
            cli.emit("plain", cli.Record({}, [], lines()))

    interval, limit = sys.getswitchinterval(), sys.get_int_max_str_digits()
    sys.setswitchinterval(1e-6)
    sys.set_int_max_str_digits(4300)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        after = sys.get_int_max_str_digits()
    finally:
        sys.setswitchinterval(interval)
        sys.set_int_max_str_digits(limit)
    assert not any(t.is_alive() for t in threads)
    assert (set(seen), len(seen), after) == ({0}, 1600, 4300)
    assert capsys.readouterr().out == "x\n" * 1600


def test_module_entry_point():
    proc = _python("-m", "descpoly.cli", "table", "--n", "3", "--k", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == GOLDEN_TABLE
    proc = _python("-m", "descpoly.cli", "table", "--n", "5:2", "--k", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: bad range '5:2'\n"
