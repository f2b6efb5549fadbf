"""``--format csv`` of ``gf``, ``poly`` and ``juggle`` prints its rows by
``%`` templates; these tests hold it to ``csv.writer`` over the same cells
(``oracles``), byte for byte."""

import pytest
from oracles import gf_csv, juggle_csv, max_drop, poly_csv

from descpoly.cli import main
from descpoly.descent import (
    kernel_poly,
    kernel_poly_by_duplication,
    kernel_poly_by_stretch,
    stretch,
    stretched_kernel_poly,
)
from descpoly.genfunc import descent_gf
from descpoly.juggling import remove_ball, throw_sequence
from descpoly.permutation import Permutation

KERNELS = {
    ("P", "formula"): kernel_poly,
    ("P", "stretch"): kernel_poly_by_stretch,
    ("P", "duplication"): kernel_poly_by_duplication,
    ("PP", "formula"): stretched_kernel_poly,
    ("PP", "stretch"): lambda k: stretch(kernel_poly(k), k),
    ("PP", "duplication"): lambda k: stretch(kernel_poly_by_duplication(k), k),
}


@pytest.mark.parametrize("k", range(7))
def test_gf_csv_matches_csv_writer(capsys, k):
    gf = descent_gf(k)
    for order in range(13):
        parts = dict(numerator=gf.numerator, denominator=gf.denominator, series=gf.series(order))
        assert main(["gf", "--k", str(k), "--order", str(order), "--format", "csv"]) == 0
        assert capsys.readouterr().out == gf_csv(parts), (k, order)


def test_the_gf_cases_print_negative_coefficients():
    # a minus sign must go through the templates as csv.writer prints it
    for part in ("numerator", "denominator"):
        assert any(c < 0 for k in range(7) for p in getattr(descent_gf(k), part) for c in p.coeffs)


@pytest.mark.parametrize("which", ["P", "PP"])
@pytest.mark.parametrize("k", range(7))
def test_poly_csv_matches_csv_writer(capsys, k, which):
    every = ["formula"] if k == 0 else ["formula", "stretch", "duplication"]
    for construction in [*every, "all"]:
        names = every if construction == "all" else [construction]
        built = {name: KERNELS[which, name](k) for name in names}
        argv = ["poly", "--k", str(k), "--which", which, "--construction", construction, "--format", "csv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == poly_csv(k, which, built), argv


# 2,048 values: blocks of six rotated left by one, each dropping its 1 by five places
LONG = tuple(6 * (i // 6) + (i + 1) % 6 + 1 for i in range(2046)) + (2047, 2048)


@pytest.mark.parametrize(
    "values, k", [((1, 2, 3), 0), ((3, 2, 1), 2), (LONG, 5)], ids=["no-ball", "three", "long"]
)
def test_juggle_csv_matches_csv_writer(capsys, values, k):
    p = Permutation(values)
    assert max_drop(values) <= k
    T = throw_sequence(p, k)
    balls = T.ball_count()
    reduced = remove_ball(T).throws if balls else None
    fields = {
        "perm": values,
        "k": k,
        "throws": T.throws,
        "valid": True,
        "balls": balls,
        "reduced": reduced,
        "crosscheck": "n/a" if reduced is None else "ok",
    }
    assert main(["juggle", "--perm", ",".join(map(str, values)), "--k", str(k), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out == juggle_csv(fields)
    if not balls:  # None is an empty cell, the bool a word
        assert out.endswith(",True,0,,n/a\n")
