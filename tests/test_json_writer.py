"""``--format json`` is streamed by ``cli._write_json``, one container at a
time; these tests hold it to the text of the standard library's pretty
printer, ``oracles.json_text``, byte for byte."""

import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import json_text, table_text

from descpoly import cli
from descpoly.descent import descent_poly_by_recurrence
from descpoly.polynomial import IntPoly

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
# a usage error prints no document
JSON_ARGVS = [c["argv"] for c in GOLDEN if "--format json" in c["argv"] and c["exit"] != 2]


def _written(doc) -> str:
    pieces: list[str] = []
    cli._write_json(doc, pieces.append)
    return "".join(pieces)


def _doc(argv: str) -> dict:
    # no document holds a one-shot iterator, so one document can be read twice
    args = cli._parse(argv.split())
    return args.func(args).doc


def test_the_golden_cases_include_json():
    assert len(JSON_ARGVS) >= 9
    assert {a.split()[0] for a in JSON_ARGVS} == {"table", "poly", "gf", "juggle", "verify"}


@pytest.mark.parametrize("argv", JSON_ARGVS)
def test_writer_matches_json_dumps_on_the_golden_documents(argv):
    doc = _doc(argv)
    assert _written(doc) == json_text(doc)


def test_one_table_document_gives_the_same_text_twice_through_either_writer():
    doc = _doc("table --n 0:6 --k 2 --route all")
    texts = [_written(doc), json_text(doc), _written(doc), json_text(doc)]
    assert texts[0].count('"value": ') == 19
    assert texts == texts[:1] * 4


class Lazy(tuple):
    """Stands for an iterator over its items, built afresh for each encoder."""


def _realise(tree):
    if isinstance(tree, Lazy):
        return iter([_realise(v) for v in tree])
    if isinstance(tree, dict):
        return {k: _realise(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(_realise(v) for v in tree)
    return tree


# quotes, backslashes, control characters, non-ASCII in and past the BMP, a lone surrogate
TEXT = st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1fé€𝄞\ud800'))
COEFF = st.integers() | st.integers(-3, 3).map(lambda c: c * 10**4400 - 7 * c)
SCALAR = (
    TEXT
    | st.booleans()
    | st.none()
    | st.integers()
    | st.floats()
    | st.lists(COEFF, max_size=6).map(IntPoly)
    # palindromes of even and odd length, whose second half of digits is mirrored
    | st.tuples(st.lists(COEFF, max_size=4), st.booleans()).map(
        lambda half_odd: IntPoly(half_odd[0] + half_odd[0][-1 - half_odd[1] :: -1])
    )
)
TREES = st.recursive(
    SCALAR,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(children, max_size=4).map(Lazy)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_writer_matches_json_dumps_on_cli_shaped_documents(tree):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as emit does: coefficients may pass 4,300 digits
    try:
        assert _written(_realise(tree)) == json_text(_realise(tree))
    finally:
        sys.set_int_max_str_digits(limit)


class Row(dict):
    """A dict subclass: a row the writer must not take for a plain dict."""


# lists of rows as ``verify`` prints them, through the writer's generic path:
# hostile strings first, braces, quotes and control characters in keys and values
HOSTILE = st.sampled_from(["}", "{", "},{", "},\n    {", "}\x00{", '"', "\x00", "\x1f", "é€𝄞", ""]) | TEXT
VALUE = HOSTILE | st.booleans() | st.none() | st.integers() | st.floats()
FLAT = st.dictionaries(HOSTILE, VALUE, max_size=4)
# a row whose value is a container is not flat: the writer must indent it a level deeper
DEEP = st.dictionaries(HOSTILE, st.lists(VALUE, max_size=2) | FLAT, min_size=1, max_size=2)
ROWS = st.lists(FLAT.filter(bool), min_size=1, max_size=5) | st.lists(
    FLAT | FLAT.map(Row) | DEEP | VALUE | st.lists(VALUE, max_size=2), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(ROWS, st.booleans())
@example([{"a": 1}, {"b": [1, "}"], "c": {"d": None}}], True)
def test_writer_matches_json_dumps_on_lists_of_rows(rows, nested):
    doc = {"rows": rows, "x": 1} if nested else rows
    assert _written(doc) == json_text(doc)


@pytest.mark.parametrize("count", [1, 50, 1024, 1025, 2500])
def test_table_rows_take_one_write_per_batch(count):
    header = ["n", "k", "r", "value", "agree"]
    rows = [(3, 2, r, 3**r, r % 3 == 0) for r in range(count)]
    writes: list[str] = []
    cli._write_json(cli._TableRows(header, rows), writes.append, "  ")
    # one template string per batch of 1,024 rows, then the closing bracket
    assert len(writes) == -(-count // 1024) + 1
    assert max(piece.count('"value": ') for piece in writes) == min(count, 1024)
    expected = json_text({"rows": cli._TableRows(header, rows)})
    assert "".join(writes) == expected[len('{\n  "rows": ') : -2]


@pytest.mark.parametrize("header", [["n", "k", "r", "value"], ["n", "k", "r", "value", "agree"]])
def test_a_table_with_no_rows_is_an_empty_list(header):
    # no batch of rows means no opening bracket from the batch loop
    for doc in [{"rows": cli._TableRows(header, [])}, {"a": 1, "rows": cli._TableRows(header, []), "z": [1]}]:
        assert _written(doc) == json_text(doc)
        assert '"rows": []' in _written(doc)


def test_a_long_table_never_writes_more_than_1024_rows_at_once(capsys, monkeypatch):
    polys = {n: {"rec": descent_poly_by_recurrence(n, 3)} for n in range(91)}
    # a JSON row has one "value" key, a plain or CSV row ends in a digit
    for fmt, row in [("json", '"value": '), ("plain", r"\d\n"), ("csv", r"\d\n")]:
        argv = f"table --n 0:90 --k 3 --format {fmt}"
        writes: list[str] = []
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        assert cli.main(argv.split()) == 0
        monkeypatch.undo()
        rows = [len(re.findall(row, piece)) for piece in writes]
        assert sum(rows) > 2048, fmt
        assert max(rows) == 1024, fmt
        assert "".join(writes) == table_text(polys, 3, "rec", fmt), fmt


class Counted(int):
    """A coefficient that counts its conversions to decimal digits."""

    conversions = 0

    def __str__(self) -> str:
        Counted.conversions += 1
        return super().__str__()


BIG = 10**4400 + 7  # past CPython's default limit of 4,300 digits


@pytest.mark.parametrize(
    "coeffs, conversions",
    [
        ((3,), 1),
        ((1, 4, 4, 1), 2),
        ((1, 4, 9, 4, 1), 3),
        ((1, 4, 6, 9, 4, 1), 6),
        ((1, 4, 9, 4, 2), 5),
        ((2, 4, 9, 4, 1), 5),
        ((BIG, -BIG, 5, -BIG, BIG), 3),
        ((BIG, 1, 1, BIG + 1), 4),
    ],
    ids=["one", "even", "odd", "middle-differs", "last-differs", "first-differs", "big", "big-ends-differ"],
)
def test_a_palindrome_converts_only_its_first_half(monkeypatch, coeffs, conversions):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as emit does
    try:
        poly = IntPoly()
        poly.coeffs = tuple(map(Counted, coeffs))
        monkeypatch.setattr(Counted, "conversions", 0)
        assert _written({"p": poly}) == json_text({"p": IntPoly(coeffs)})
        assert Counted.conversions == conversions
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "doc",
    [
        {1: "a"},
        {"a": 1, 2: "b"},
        {"a": [{None: 1}]},
        {"a": {(1, 2): IntPoly((1,))}},
        [{"a": 1}, {"b": 2, 3: "c"}],
        [{"a": 1}, {1.5: "b"}],
    ],
    ids=["int", "mixed", "nested-none", "tuple", "row-int", "row-float"],
)
def test_a_key_that_is_not_a_string_raises(doc):
    with pytest.raises(TypeError):
        _written(doc)


def test_an_object_json_cannot_encode_raises():
    with pytest.raises(TypeError):
        _written({"a": [object()]})


def test_emit_streams_the_document_in_pieces(capsys, monkeypatch):
    writes = []
    monkeypatch.setattr(sys.stdout, "write", writes.append)
    assert cli.main(["gf", "--k", "2", "--order", "60", "--format", "json"]) == 0
    text = "".join(writes)
    assert text == json_text(_doc("gf --k 2 --order 60")) + "\n"
    # no piece is the document: the largest holds one series polynomial
    assert max(map(len, writes)) < len(text) / 10


def test_emit_lifts_the_digit_limit_around_the_writer(capsys):
    big, digits = 10**5000 + 1, "1" + "0" * 4999 + "1"
    record = cli.Record({"p": IntPoly((-big, 0, big)), "n": big}, [], [])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = cli.emit("json", record)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    doc = json.loads(capsys.readouterr().out, parse_int=str)
    assert code == 0
    assert doc == {"n": digits, "p": ["-" + digits, "0", digits]}

