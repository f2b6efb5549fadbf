import json
from math import factorial
from pathlib import Path

import pytest

from descpoly.eulerian import (
    ab_identity_residual,
    euler_identity_residual,
    eulerian_number,
    eulerian_poly,
    gen_binomial,
)
from descpoly.polynomial import IntPoly

from oracles import eulerian_number as alternating_sum, sn_descent_census

DATA = Path(__file__).parent / "data"


def test_eulerian_number_values():
    assert eulerian_number(2, 1) == 1
    assert eulerian_number(4, 1) == 11
    assert eulerian_number(0, 0) == 1


def test_eulerian_number_out_of_range_is_zero():
    assert eulerian_number(4, -1) == 0
    assert eulerian_number(4, 4) == 0
    assert eulerian_number(0, 1) == 0
    assert eulerian_number(1, 1) == 0


def test_eulerian_number_rejects_negative_order():
    with pytest.raises(ValueError):
        eulerian_number(-1, 0)


def test_eulerian_poly_small():
    assert eulerian_poly(0) == IntPoly((1,))
    assert eulerian_poly(1) == IntPoly((1,))
    assert eulerian_poly(2) == IntPoly((1, 1))
    assert eulerian_poly(4) == IntPoly((1, 11, 11, 1))


@pytest.mark.parametrize("n", range(9))
def test_eulerian_poly_matches_brute_force(n):
    assert list(eulerian_poly(n).coeffs) == sn_descent_census(n)


@pytest.mark.parametrize("n", [*range(121), 200, 300])
def test_eulerian_poly_matches_the_alternating_sum(n):
    expected = [alternating_sum(n, k) for k in range(max(n, 1))]
    assert list(eulerian_poly(n).coeffs) == expected


def test_eulerian_poly_cold_order_past_the_recursion_limit():
    # the rows are built in a loop, so a cold order above CPython's default
    # recursion limit (1000) needs no recursion
    eulerian_poly.cache_clear()
    p = eulerian_poly(1100)
    assert p.evaluate(1) == factorial(1100)
    assert p.is_symmetric()


@pytest.mark.parametrize("n", range(13))
def test_eulerian_poly_sums_to_factorial(n):
    assert eulerian_poly(n).evaluate(1) == factorial(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_eulerian_poly_symmetric(n):
    p = eulerian_poly(n)
    assert p.is_symmetric()


def test_gen_binomial():
    assert gen_binomial(5, 2) == 10
    assert gen_binomial(-1, 3) == -1
    assert gen_binomial(2, 5) == 0
    assert gen_binomial(-7, 0) == 1
    with pytest.raises(ValueError):
        gen_binomial(3, -1)


def test_euler_identity_order_zero_residual_is_documented():
    # the identity starts at order 1; the order-0 residual is 1 - x
    assert euler_identity_residual(0) == IntPoly((1, -1))


@pytest.mark.parametrize("order", range(1, 13))
def test_euler_identity_holds(order):
    assert euler_identity_residual(order).is_zero()


def test_ab_identity_examples():
    assert ab_identity_residual(1, 0).is_zero()
    assert ab_identity_residual(-2, 3).is_zero()
    assert ab_identity_residual(0, 0).is_zero()


def test_ab_identity_grid():
    for a in range(-6, 7):
        for b in range(-6, 7):
            if a + b >= 1:
                assert ab_identity_residual(a, b).is_zero(), (a, b)


def test_ab_identity_corners_match_golden():
    with open(DATA / "identity_corners.json") as fh:
        golden = json.load(fh)
    for key, coeffs in golden.items():
        a, b = map(int, key.split(","))
        assert [str(c) for c in ab_identity_residual(a, b).coeffs] == coeffs


def test_ab_identity_rejects_negative_sum():
    with pytest.raises(ValueError):
        ab_identity_residual(-3, 1)
