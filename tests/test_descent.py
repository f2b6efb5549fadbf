import json
from math import comb, factorial
from pathlib import Path

import pytest

from descpoly.descent import (
    CapExceeded,
    _kernel_sum,
    descent_coefficient,
    descent_poly_by_closed_form,
    descent_poly_by_enumeration,
    descent_poly_by_recurrence,
    kernel_poly,
    kernel_poly_by_duplication,
    kernel_poly_by_stretch,
    stretch,
    stretched_kernel_poly,
)
from descpoly.eulerian import eulerian_poly
from descpoly.genfunc import descent_gf
from descpoly.juggling import DropExceedsK, throw_sequence
from descpoly.permutation import Permutation
from descpoly.polynomial import IntPoly, NegativeExponentResidue, UsageError, geometric
from descpoly.verify import run_suite

from oracles import bounded_drop_census, is_real_rooted

DATA = Path(__file__).parent / "data"

# coefficient rows for the first kernels, pinned from the closed form and
# cross-checked against all other constructions
P3 = (1, 1, 2, 4, 4, 4, 4, 2, 1, 1)
P4 = (1, 1, 2, 4, 8, 11, 11, 14, 16, 14, 11, 11, 8, 4, 2, 1, 1)
PP2 = (1, 0, 1, 2, 1, 0, 1)
PP3 = (1, 0, 1, 2, 4, 4, 0, 4, 4, 2, 1, 0, 1)
PP4 = (1, 0, 1, 2, 4, 8, 11, 0, 11, 14, 16, 14, 11, 0, 11, 8, 4, 2, 1, 0, 1)


def test_enumeration_examples():
    assert descent_poly_by_enumeration(3, 1) == IntPoly((1, 3))
    assert descent_poly_by_enumeration(6, 0) == IntPoly((1,))
    assert descent_poly_by_enumeration(4, 3) == eulerian_poly(4)
    assert descent_poly_by_enumeration(0, 0) == IntPoly((1,))


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        descent_poly_by_enumeration(11, 1)
    assert descent_poly_by_enumeration(11, 1, cap=11).evaluate(1) == 2**10


@pytest.mark.parametrize("k", range(10))
def test_enumeration_at_its_cap(k):
    assert descent_poly_by_enumeration(10, k) == descent_poly_by_closed_form(10, k)


def test_recurrence_examples():
    assert descent_poly_by_recurrence(2, 1) == IntPoly((1, 1))
    assert descent_poly_by_recurrence(3, 1) == IntPoly((1, 3))
    for i in range(4):
        assert descent_poly_by_recurrence(i, 3) == eulerian_poly(i)


def test_closed_form_examples():
    assert descent_poly_by_closed_form(3, 1) == IntPoly((1, 3))
    for k in range(7):
        assert descent_poly_by_closed_form(k, k) == eulerian_poly(k)
    # below the drop bound the Eulerian polynomial comes back directly
    assert descent_poly_by_closed_form(2, 5) == eulerian_poly(2)


@pytest.mark.parametrize("n", range(1, 8))
def test_three_routes_match_brute_force(n):
    for k in range(n):
        expected = bounded_drop_census(n, k)
        for route in (
            descent_poly_by_enumeration,
            descent_poly_by_recurrence,
            descent_poly_by_closed_form,
        ):
            poly = route(n, k)
            assert isinstance(poly, IntPoly), route.__name__
            assert list(poly.coeffs) == expected, (n, k, route.__name__)


def test_binomial_row():
    for n in range(1, 21):
        poly = descent_poly_by_closed_form(n, 1)
        for d in range(n):
            assert poly.coefficient(d) == comb(n, 2 * d)


@pytest.mark.parametrize("k", range(7))
def test_closed_form_total_far_past_enumeration(k):
    assert descent_poly_by_closed_form(2000, k).evaluate(1) == factorial(k) * (k + 1) ** (2000 - k)


def test_binomial_row_far_past_enumeration():
    poly = descent_poly_by_closed_form(2000, 1)
    assert poly.coeffs == tuple(comb(2000, 2 * d) for d in range(1001))


# The closed form and the recurrence (the series) share no code, so agreement
# far past the enumeration cap is a real check; the grid is sized to a few
# seconds (counts as in Buhler, Eisenbud, Graham and Wright, "Juggling drops
# and descents", Amer. Math. Monthly 101, 1994).
@pytest.mark.parametrize(("n", "k"), [(300, 10), (1000, 3), (500, 8), (1000, 8), (500, 12)])
def test_closed_form_matches_recurrence_far_past_enumeration(n, k):
    assert descent_poly_by_closed_form(n, k) == descent_poly_by_recurrence(n, k)


@pytest.mark.parametrize(("n", "k"), [(2000, 12), (1000, 20)])
def test_closed_form_total_at_large_k(n, k):
    assert descent_poly_by_closed_form(n, k).evaluate(1) == factorial(k) * (k + 1) ** (n - k)


def test_descent_poly_dispatch():
    assert descent_poly_by_enumeration(4, 2) == descent_poly_by_closed_form(4, 2)
    assert descent_poly_by_recurrence(5, 2).evaluate(1) == 2 * 3**3


@pytest.mark.parametrize("k", range(9))
def test_descent_coefficient_is_every_closed_form_coefficient(k):
    for n in range(41):
        row = descent_poly_by_closed_form(n, k)
        assert [descent_coefficient(n, k, d) for d in range(n + 2)] == [
            row.coefficient(d) for d in range(n + 2)
        ], n


def test_descent_coefficient_at_the_low_end_of_a_long_row():
    row = descent_poly_by_closed_form(2000, 12)
    assert [descent_coefficient(2000, 12, d) for d in range(4)] == list(row.coeffs[:4])
    # k = 1 is the binomial row C(n, 2d), far past any whole row
    n = 10**6
    assert [descent_coefficient(n, 1, d) for d in range(4)] == [comb(n, 2 * d) for d in range(4)]


def test_descent_coefficient_at_the_top_end_of_a_long_row():
    # the mirror of a palindrome of degree kn: the top is as cheap as the bottom
    row = descent_poly_by_closed_form(2000, 12)
    top = row.degree
    assert [descent_coefficient(2000, 12, top - e) for e in range(4)] == [
        row.coefficient(top - e) for e in range(4)
    ]
    n = 10**6
    assert [descent_coefficient(n, 1, n // 2 - e) for e in range(4)] == [
        comb(n, n - 2 * e) for e in range(4)
    ]


def test_descent_coefficient_past_the_degree_is_zero_at_once():
    # unmirrored, each of these would sum about 10^8 terms or more
    assert descent_coefficient(10**6, 12, 12 * 10**6 // 13 + 1) == 0
    assert descent_coefficient(10**6, 1, 10**6) == 0
    assert descent_coefficient(10**6, 0, 1) == 0


def test_kernel_poly_small():
    assert kernel_poly(0) == IntPoly((1,))
    assert kernel_poly(1) == IntPoly((1, 1))
    assert kernel_poly(2) == IntPoly((1, 1, 2, 1, 1))
    assert kernel_poly(3).coeffs == P3
    assert kernel_poly(4).coeffs == P4


def test_kernel_sum_negative_residue_raises():
    # below modulus k+1 the negative powers of the defining sum do not cancel
    with pytest.raises(NegativeExponentResidue):
        _kernel_sum(2, 1)


def test_stretch_examples():
    assert stretch(IntPoly((1, 1)), 1) == IntPoly((1, 0, 1))
    assert stretch(kernel_poly(2), 2).coeffs == PP2
    assert stretch(kernel_poly(3), 3).coeffs == PP3
    assert stretch(kernel_poly(4), 4).coeffs == PP4
    with pytest.raises(ValueError):
        stretch(IntPoly((1, 1)), 2)


def test_stretched_kernel_formula():
    assert stretched_kernel_poly(0) == IntPoly((1,))
    assert stretched_kernel_poly(1) == IntPoly((1, 0, 1))
    for k in range(8):
        assert stretched_kernel_poly(k) == stretch(kernel_poly(k), k)


def test_kernel_by_stretch():
    assert kernel_poly_by_stretch(1) == IntPoly((1, 1))
    assert kernel_poly_by_stretch(2) == IntPoly((1, 1, 2, 1, 1))
    assert kernel_poly_by_stretch(3).coeffs == P3
    with pytest.raises(ValueError):
        kernel_poly_by_stretch(0)


def test_kernel_by_duplication_worked_sequences():
    assert kernel_poly_by_duplication(2).coeffs == (1, 1, 2, 1, 1)
    assert kernel_poly_by_duplication(3).coeffs == P3
    assert kernel_poly_by_duplication(4) == kernel_poly(4)
    with pytest.raises(ValueError):
        kernel_poly_by_duplication(0)


# the abstract's symmetry and unimodality, and the four constructions'
# agreement, far past verify's default kmax of 7
KERNEL_KS = [*range(1, 25), 32, 48]


@pytest.mark.parametrize("k", KERNEL_KS)
def test_kernel_constructions_agree(k):
    assert kernel_poly(k) == kernel_poly_by_stretch(k) == kernel_poly_by_duplication(k)
    assert stretched_kernel_poly(k) == stretch(kernel_poly(k), k)


def _multisection_is_eulerian(p, k):
    # every (k+1)-th coefficient of the kernel P_k, from u^0 up, is A_k
    return p.multisect(k + 1) == eulerian_poly(k)


@pytest.mark.parametrize("k", [0, *KERNEL_KS])
def test_kernel_structure(k):
    p = kernel_poly(k)
    assert p.degree == k * k
    assert p.coefficient(0) == 1
    assert p.is_symmetric()
    assert p.is_unimodal()
    assert _multisection_is_eulerian(p, k)
    if k >= 1:
        assert stretch(p, k).degree == k * k + k


@pytest.mark.parametrize("k", [1, 8, 24])
def test_a_perturbed_kernel_coefficient_fails_the_multisection(k):
    # one coefficient off by one fails it exactly when the multisection keeps it
    coeffs = kernel_poly(k).coeffs
    for j in range(len(coeffs)):
        perturbed = IntPoly(coeffs[:j] + (coeffs[j] + 1,) + coeffs[j + 1 :])
        assert _multisection_is_eulerian(perturbed, k) == (j % (k + 1) != 0)


def _palindromic(n, k):
    return n <= k or n % (k + 1) == 0


# P_k G^(n-k) is a palindrome of degree kn, so when (k+1) | n the coefficients
# the closed form keeps sit symmetrically; for n <= k, D_{n,k} is Eulerian
@pytest.mark.parametrize("k", range(1, 13))
def test_descent_poly_is_palindromic_exactly_when_n_le_k_or_k_plus_1_divides_n(k):
    series = descent_gf(k).series(200)
    assert [D.is_symmetric() for D in series] == [_palindromic(n, k) for n in range(201)]
    for n in range(0, 201, 7):
        assert descent_poly_by_closed_form(n, k).is_symmetric() == _palindromic(n, k)


@pytest.mark.parametrize("n", range(3, 10))
def test_palindromy_matches_enumeration(n):
    # every k at which the drop bound excludes some permutation of [n]
    for k in range(1, n - 1):
        assert descent_poly_by_enumeration(n, k).is_symmetric() == _palindromic(n, k)


@pytest.mark.parametrize("k", range(1, 13))
def test_observation_descent_poly_is_unimodal(k):
    # an observation on n <= 200, not a claim: the abstract states unimodality
    # for the kernels, not for D_{n,k}
    assert all(D.is_unimodal() for D in descent_gf(k).series(200))


def test_the_sturm_count_on_its_controls():
    assert not is_real_rooted([1, 1, 1])
    assert is_real_rooted([1, 3, 3, 1])  # (1 + y)^3: one root, three times
    # a negative leading coefficient, where scaling by lc instead of |lc| flips signs
    assert is_real_rooted([0, 1, 0, -1])
    assert not is_real_rooted([0, -1, 0, -1])
    assert is_real_rooted(eulerian_poly(10).coeffs)
    coeffs = list(descent_poly_by_closed_form(12, 3).coeffs)
    assert is_real_rooted(coeffs)
    coeffs[5] //= 50
    assert not is_real_rooted(coeffs)


def test_observation_descent_poly_is_real_rooted():
    """An observation on 1 <= k <= 12 and k < n <= 40, not a claim of the
    paper: D_{n,k} has only real roots.  With positive coefficients that
    implies log-concavity and so unimodality (Brenti, Mem. AMS 413, 1989), a
    stronger fact than the unimodality observed above; n <= k is the
    Eulerian case, real-rooted since Frobenius."""
    cases = [(n, k) for k in range(1, 13) for n in range(k + 1, 41)]
    assert len(cases) == 402
    rows = {(n, k): descent_poly_by_closed_form(n, k).coeffs for n, k in cases}
    assert [case for case, coeffs in rows.items() if not is_real_rooted(coeffs)] == []


def test_observation_kernel_is_not_log_concave():
    """P_k is unimodal, as the abstract claims, but not log-concave for any
    2 <= k <= 48, so no structure check may claim log-concavity for it."""
    assert kernel_poly(2).coeffs == (1, 1, 2, 1, 1)  # 1 * 1 < 1 * 2 at u^1
    for k in range(2, 49):
        c = kernel_poly(k).coeffs
        assert any(c[i] ** 2 < c[i - 1] * c[i + 1] for i in range(1, len(c) - 1)), k


def test_kernel_golden_table():
    with open(DATA / "kernel_polys.json") as fh:
        golden = json.load(fh)
    for k in range(9):
        assert [str(c) for c in kernel_poly(k).coeffs] == golden["P"][str(k)]
        assert [str(c) for c in stretch(kernel_poly(k), k).coeffs] == golden["PP"][str(k)]


def test_intro_factorizations():
    for n in range(1, 10):
        lhs = (IntPoly((1, 0, 1)) * geometric(2) ** (n - 1)).multisect(3)
        assert lhs == descent_poly_by_recurrence(n, 2)
    for n in range(2, 10):
        lhs = (IntPoly(PP2) * geometric(3) ** (n - 2)).multisect(4)
        assert lhs == descent_poly_by_recurrence(n, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: descent_poly_by_enumeration(3, -1),
        lambda: descent_poly_by_enumeration(11, 1),
        lambda: descent_poly_by_recurrence(-1, 2),
        lambda: descent_poly_by_closed_form(3, -1),
        lambda: descent_coefficient(3, 1, -1),
        lambda: kernel_poly(-1),
        lambda: stretched_kernel_poly(-1),
        lambda: kernel_poly_by_stretch(0),
        lambda: kernel_poly_by_duplication(0),
        lambda: descent_gf(-1),
        lambda: descent_gf(1).series(-1),
        lambda: throw_sequence(Permutation((2, 1)), 0),
        lambda: run_suite("routes", -1, 3),
    ],
    ids=[
        "enum-k", "enum-cap", "rec-n", "closed-k", "coefficient-d", "kernel-k", "stretched-k",
        "stretch-start", "duplication-start", "gf-k", "series-order", "drop", "verify-bounds",
    ],
)
def test_bounds_the_cli_reaches_raise_usage_errors(call):
    # the CLI maps UsageError, and only it, to exit 2
    with pytest.raises(UsageError):
        call()


def test_usage_errors_are_value_errors():
    assert issubclass(CapExceeded, UsageError) and issubclass(DropExceedsK, UsageError)
    assert issubclass(UsageError, ValueError)
