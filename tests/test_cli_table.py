"""``table`` keeps one tuple per row and prints it in every format; these
tests hold its stdout to the dict-per-row rendering it replaced,
``oracles.table_text``, byte for byte, over ranges of n, every drop bound up
to 10 and every route."""

import functools
import json
from math import factorial

import pytest
from oracles import table_text

from descpoly import cli
from descpoly.cli import main
from descpoly.descent import (
    descent_poly_by_closed_form,
    descent_poly_by_enumeration,
    descent_poly_by_recurrence,
)
from descpoly.polynomial import IntPoly

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


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_a_disagreeing_route_prints_agree_false(capsys, monkeypatch, fmt):
    def perturbed(n, k):  # off by u at n = 4 and 6 only
        poly = descent_poly_by_recurrence(n, k)
        return poly + IntPoly((0, 1)) if n in (4, 6) else poly

    monkeypatch.setattr(cli, "descent_poly_by_recurrence", perturbed)
    code = main(["table", "--n", "2:7", "--k", "2", "--route", "all", "--format", fmt])
    out, err = capsys.readouterr()
    routes = {**ROUTES, "rec": perturbed}
    polys = {n: {name: route(n, 2) for name, route in routes.items()} for n in range(2, 8)}
    assert code == 1
    assert out == table_text(polys, 2, "all", fmt)
    assert {"plain": " false\n", "json": '"agree": false', "csv": ",False\n"}[fmt] in out
    first = {name: list(p.coeffs) for name, p in polys[4].items()}
    assert err == f"route disagreement at n=4 k=2: {first}\n"


def _perturbed(n, k):  # off by u at odd n, so at k = 0 the agree flags alternate row by row
    poly = descent_poly_by_recurrence(n, k)
    return poly + IntPoly((0, 1)) if n % 2 else poly


@functools.cache
def _identity_rows(count: int, route: str) -> dict:
    # at k = 0 each n has one row, the identity's, so n = 0..count-1 is count rows
    routes = {**ROUTES, "enum": lambda n, k: descent_poly_by_enumeration(n, k, cap=n)}
    if route == "perturbed":
        routes["rec"] = _perturbed
    names = [route] if route in routes else list(routes)
    return {n: {name: routes[name](n, 0) for name in names} for n in range(count)}


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("route", ["rec", "all", "perturbed"])
@pytest.mark.parametrize("count", [1023, 1024, 1025, 2049])
def test_tables_across_the_1024_row_batch_edges(capsys, monkeypatch, count, route, fmt):
    # "perturbed" is --route all with the rec route off at odd n: each batch of two or more
    # rows then prints both words, and the rows either side of a batch edge differ
    if route == "perturbed":
        monkeypatch.setattr(cli, "descent_poly_by_recurrence", _perturbed)
    shown = "rec" if route == "rec" else "all"
    argv = ["table", "--n", f"0:{count - 1}", "--k", "0", "--route", shown, "--format", fmt]
    code = main([*argv, "--nmax", str(count)])
    out, err = capsys.readouterr()
    polys = _identity_rows(count, route)
    assert out == table_text(polys, 0, shown, fmt)
    if fmt == "json":
        flags = [row.get("agree") for row in json.loads(out)["rows"]]
    else:
        assert out.count("\n") == count + 1
        flags = [line.rpartition(" " if fmt == "plain" else ",")[2] for line in out.splitlines()[1:]]
    if route != "rec":
        words = {"plain": ("false", "true"), "json": (False, True), "csv": ("False", "True")}[fmt]
        assert flags == [words[route == "all" or n % 2 == 0] for n in range(count)]
    if route == "perturbed":
        first = {name: list(p.coeffs) for name, p in polys[1].items()}
        assert (code, err) == (1, f"route disagreement at n=1 k=0: {first}\n")
    else:
        assert (code, err) == (0, "")
