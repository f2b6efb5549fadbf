"""Each subcommand's text, held to the oracles and to laziness: a record's CSV
rows and plain lines are one-shot iterators, and ``emit`` advances only the one
its format asks for, so a JSON or plain run never builds the CSV (nor the other
way round).  ``verify`` quotes its own CSV; ``juggle`` renders plain and CSV
from its field table."""

import pytest
from oracles import csv_text, juggle_plain

from descpoly import cli
from descpoly.cli import main
from descpoly.juggling import JugglingSequence, remove_ball, throw_sequence
from descpoly.permutation import Permutation
from descpoly.verify import CheckResult, run_suite

# 2,048 values: blocks of six rotated left by one, each dropping its 1 by five places
LONG = tuple(6 * (i // 6) + (i + 1) % 6 + 1 for i in range(2046)) + (2047, 2048)


class Counting:
    """An iterator over ``items`` that counts the items taken from it."""

    def __init__(self, items):
        self.items, self.taken = iter(items), 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self.items)
        self.taken += 1
        return item


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        "table --n 0:6 --k 2",
        "table --n 0:6 --k 2 --route all",
        "poly --k 3",
        "gf --k 2 --order 4",
        "juggle --perm " + ",".join(map(str, LONG)) + " --k 5",
        "verify --suite all --nmax 4 --kmax 3",
    ],
    ids=["table", "table-all", "poly", "gf", "juggle-long", "verify"],
)
def test_emit_builds_only_the_format_asked_for(capsys, argv, fmt):
    args = cli._parse(argv.split())
    record = args.func(args)
    assert iter(record.rows) is record.rows
    assert iter(record.lines) is record.lines
    rows, lines = Counting(record.rows), Counting(record.lines)
    assert cli.emit(fmt, record._replace(rows=rows, lines=lines)) == 0
    out = capsys.readouterr().out
    assert out
    assert (rows.taken > 0, lines.taken > 0) == (fmt == "csv", fmt == "plain")


HEADER = ["suite", "name", "ok", "detail"]
# names and details a CSV reader could split or break: commas, double quotes, newlines
TRICKY = [
    CheckResult("a, b and c agree", True, 'says "yes", twice'),
    CheckResult('the "quoted" claim', False, "at n=2,\nk=1"),
    CheckResult("a claim\non two lines", True, ""),
    CheckResult("plain", True, "x"),
]


def test_verify_csv_quotes_as_csv_writer(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda suite, nmax, kmax: TRICKY)
    assert main(["verify", "--suite", "routes", "--format", "csv"]) == 1
    rows = [("routes", r.name, r.ok, r.detail) for r in TRICKY]
    assert capsys.readouterr().out == csv_text(HEADER, rows)


def test_verify_csv_of_its_own_results_is_csv_writers(capsys):
    assert main(["verify", "--suite", "all", "--nmax", "4", "--kmax", "3", "--format", "csv"]) == 0
    rows = [("all", r.name, r.ok, r.detail) for r in run_suite("all", 4, 3)]
    assert any("," in name for _, name, _, _ in rows)  # so the quoting is exercised
    assert capsys.readouterr().out == csv_text(HEADER, rows)


def juggle_fields(values, k, reduce=remove_ball):
    T = throw_sequence(Permutation(values), k)
    balls = T.ball_count()
    reduced = reduce(T).throws if balls else None
    expected = remove_ball(T).throws if balls else None
    crosscheck = "n/a" if reduced is None else "ok" if reduced == expected else "mismatch"
    return {
        "perm": values, "k": k, "throws": T.throws, "valid": True,
        "balls": balls, "reduced": reduced, "crosscheck": crosscheck,
    }


@pytest.mark.parametrize(
    "values, k",
    [((1, 2, 3), 0), ((2, 1, 3), 1), ((3, 2, 1), 3), (LONG, 5)],
    ids=["no-ball", "one", "three", "long"],
)
def test_juggle_plain_matches_the_hand_written_lines(capsys, values, k):
    fields = juggle_fields(values, k)
    assert fields["balls"] == k
    assert main(["juggle", "--perm", ",".join(map(str, values)), "--k", str(k)]) == 0
    assert capsys.readouterr().out == juggle_plain(fields)


def test_juggle_plain_of_a_crosscheck_mismatch(capsys, monkeypatch):
    def reversed_ball(T):
        return JugglingSequence(reversed(remove_ball(T).throws))

    monkeypatch.setattr(cli, "remove_ball", reversed_ball)
    assert main(["juggle", "--perm", "3,2,1", "--k", "2"]) == 1
    fields = juggle_fields((3, 2, 1), 2, reversed_ball)
    assert fields["crosscheck"] == "mismatch"
    assert capsys.readouterr().out == juggle_plain(fields)


def test_juggle_plain_of_an_invalid_sequence(capsys, monkeypatch):
    # (2, 2, 0) lands at 3, 4, 3: two throws land together
    monkeypatch.setattr(cli, "throw_sequence", lambda p, k: JugglingSequence((2, 2, 0)))
    assert main(["juggle", "--perm", "3,2,1", "--k", "2"]) == 1
    fields = {
        "perm": (3, 2, 1), "k": 2, "throws": (2, 2, 0), "valid": False,
        "balls": None, "reduced": None, "crosscheck": "n/a",
    }
    assert capsys.readouterr().out == juggle_plain(fields)
