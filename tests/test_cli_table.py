"""``table`` keeps one tuple per row and prints it in every format; these
tests hold its stdout to the dict-per-row rendering it replaced,
``oracles.table_text``, byte for byte, over ranges of n, every drop bound up
to 10 and every route."""

from math import factorial

import pytest
from oracles import table_text

from descpoly.cli import main
from descpoly.descent import (
    descent_poly_by_closed_form,
    descent_poly_by_enumeration,
    descent_poly_by_recurrence,
)

ROUTES = {
    "enum": lambda n, k: descent_poly_by_enumeration(n, k, cap=12),
    "rec": descent_poly_by_recurrence,
    "closed": descent_poly_by_closed_form,
}
N_SPECS = ["0", "1", "5", "0:12", "3:9", "12", "20:24", "40"]
# enumeration visits every member of the class: k!(k+1)^(n-k) of them
ENUM_BUDGET = 50_000


def _bounds(spec: str) -> tuple[int, int]:
    lo, _, hi = spec.partition(":")
    return int(lo), int(hi or lo)


def _enumerated(lo: int, hi: int, k: int) -> int:
    return sum(factorial(n) if n <= k else factorial(k) * (k + 1) ** (n - k) for n in range(lo, hi + 1))


def _cases(route: str):
    for spec in N_SPECS:
        lo, hi = _bounds(spec)
        for k in range(11):
            if route in ("enum", "all") and (hi > 12 or _enumerated(lo, hi, k) > ENUM_BUDGET):
                continue
            yield spec, k


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("route", ["enum", "rec", "closed", "all"])
def test_table_matches_the_dict_per_row_rendering(capsys, route, fmt):
    cases = list(_cases(route))
    assert ("0:12", 0) in cases and ("0", 10) in cases
    names = list(ROUTES) if route == "all" else [route]
    for spec, k in cases:
        argv = ["table", "--n", spec, "--k", str(k), "--route", route, "--format", fmt]
        code = main([*argv, "--nmax", "12"])
        out = capsys.readouterr().out
        lo, hi = _bounds(spec)
        polys = {n: {name: ROUTES[name](n, k) for name in names} for n in range(lo, hi + 1)}
        assert code == 0, argv
        assert out == table_text(polys, k, route, fmt), argv
