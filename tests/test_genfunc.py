import sys
from dataclasses import replace
from math import comb
from threading import Barrier, Thread

import pytest

from descpoly import verify
from descpoly.descent import descent_poly_by_closed_form, descent_poly_by_recurrence, kernel_poly
from descpoly.genfunc import RationalBivariateGF, descent_gf
from descpoly.polynomial import IntPoly, UsageError

from oracles import geometric_power_coefficient


def test_gf_k1_layout():
    gf = descent_gf(1)
    assert gf.numerator == (IntPoly((1,)), IntPoly((-1,)))
    # 1 - 2z - (y-1)z^2
    assert gf.denominator == (IntPoly((1,)), IntPoly((-2,)), IntPoly((1, -1)))


def test_gf_k0_layout():
    gf = descent_gf(0)
    assert gf.numerator == (IntPoly((1,)),)
    assert gf.denominator == (IntPoly((1,)), IntPoly((-1,)))
    assert [p.coeffs for p in gf.series(2)] == [(1,), (1,), (1,)]


def test_gf_k2_denominator():
    gf = descent_gf(2)
    assert gf.denominator[1] == IntPoly((-3,))
    assert gf.denominator[2] == IntPoly((3, -3))
    assert gf.denominator[3] == IntPoly((-1, 2, -1))


@pytest.mark.parametrize("k", range(13))
def test_a_new_instance_is_drop_bound_ks_with_an_empty_memo(k):
    shared, fresh = descent_gf(k), RationalBivariateGF(k)
    assert fresh is not shared and fresh == shared and fresh._terms == ()
    assert (fresh.numerator, fresh.denominator) == (shared.numerator, shared.denominator)
    assert fresh.series(40) == shared.series(40)


def test_k_is_the_only_input():
    gf = descent_gf(2)
    with pytest.raises(TypeError):
        RationalBivariateGF(2, gf.numerator, gf.denominator)
    with pytest.raises(UsageError):
        RationalBivariateGF(-1)
    assert replace(gf, k=3) == descent_gf(3)
    assert replace(gf, k=3).numerator == descent_gf(3).numerator
    assert RationalBivariateGF(2) != descent_gf(3)


def test_gf_unit_constant_terms():
    for k in range(8):
        gf = descent_gf(k)
        assert gf.numerator[0] == IntPoly((1,))
        assert gf.denominator[0] == IntPoly((1,))
        assert len(gf.numerator) == k + 1
        assert len(gf.denominator) == k + 2


def _eulerian_rows(n):
    # A(m, d) = (d+1) A(m-1, d) + (m-d) A(m-1, d-1), from the row of the empty permutation
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([(d + 1) * prev[d] + (m - d) * (prev[d - 1] if d else 0) for d in range(m)])
    return [IntPoly(row) for row in rows]


@pytest.mark.parametrize("k", range(13))
def test_numerator_is_truncated_product(k):
    # numerator = (1 - sum_i C(k+1,i) (y-1)^(i-1) z^i) * sum_t E_t z^t, up to z^k
    eulerian = _eulerian_rows(k)
    den = [IntPoly((1,))] + [
        IntPoly((-comb(k + 1, i),)) * IntPoly((-1, 1)) ** (i - 1) for i in range(1, k + 2)
    ]
    want = [sum((den[i] * eulerian[t - i] for i in range(t + 1)), IntPoly()) for t in range(k + 1)]
    gf = descent_gf(k)
    assert list(gf.denominator) == den
    assert list(gf.numerator) == want


def test_series_examples():
    assert descent_gf(3).series(0) == [IntPoly((1,))]
    assert [p.coeffs for p in descent_gf(1).series(3)] == [(1,), (1,), (1, 1), (1, 3)]
    assert descent_gf(2).series(2)[2] == IntPoly((1, 1))
    with pytest.raises(ValueError):
        descent_gf(1).series(-1)


@pytest.mark.parametrize("k", range(11))
def test_series_matches_recurrence(k):
    # the recurrence route reads this series, so the closed form is the
    # independent reference; a cold instance steps the series here, not
    # from the memo, and the denominator it no longer reads must annihilate it
    series = RationalBivariateGF(k).series(40)
    for n in range(41):
        want = descent_poly_by_closed_form(n, k)
        assert series[n] == want == descent_poly_by_recurrence(n, k), (n, k)
    assert all(r.is_zero() for r in descent_gf(k).convolution_residual(series))


@pytest.mark.parametrize("k", range(6))
def test_convolution_residual_is_zero(k):
    closed = [descent_poly_by_closed_form(n, k) for n in range(13)]
    for r in descent_gf(k).convolution_residual(closed):
        assert r.is_zero()


def _low_coefficients(m, k):
    # coefficients 0..3 of D_{m,k}, m >= k, one at a time from the closed
    # form: coefficient d is sum_t P_k[t] [u^((k+1)d - t)] G^(m-k)
    p = kernel_poly(k).coeffs
    return [
        sum(
            p[t] * geometric_power_coefficient(k, m - k, (k + 1) * d - t)
            for t in range(min(len(p), (k + 1) * d + 1))
        )
        for d in range(4)
    ]


def _low_recurrence_residual(denominator, n, k):
    # coefficients 0..3 of sum_i denominator[i] D_{n-i}, n > k, where the
    # numerator has ended; each reads only coefficients <= 3 of its rows
    rows = [_low_coefficients(n - i, k) for i in range(len(denominator))]
    return [
        sum(c * row[d - e] for w, row in zip(denominator, rows) for e, c in enumerate(w.coeffs[: d + 1]))
        for d in range(4)
    ]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_low_coefficients_match_the_closed_form(k):
    for m in range(k, 40):
        closed = descent_poly_by_closed_form(m, k)
        assert _low_coefficients(m, k) == [closed.coefficient(d) for d in range(4)], m


@pytest.mark.parametrize("k", range(13))
def test_denominator_annihilates_the_low_coefficients_at_a_million(k):
    # the library's own weights, far past any n whose whole row is formed
    assert _low_recurrence_residual(RationalBivariateGF(k).denominator, 10**6, k) == [0] * 4


@pytest.mark.parametrize("k", [1, 8, 12])
def test_a_perturbed_denominator_weight_fails_at_a_million(k):
    # C(k, 1) in place of C(k+1, 1) on z^1
    den = list(RationalBivariateGF(k).denominator)
    den[1] = den[1] + IntPoly((1,))
    assert all(_low_recurrence_residual(den, 10**6, k))


def test_convolution_residual_detects_a_perturbed_sequence():
    closed = [descent_poly_by_closed_form(n, 2) for n in range(8)]
    closed[5] = closed[5] + IntPoly((0, 1))
    residuals = descent_gf(2).convolution_residual(closed)
    assert all(r.is_zero() for r in residuals[:5])
    assert residuals[5] == IntPoly((0, 1))
    assert not any(r.is_zero() for r in residuals[6:])


def test_gf_convolution_check_can_fail(monkeypatch):
    def perturbed(n, k):
        poly = descent_poly_by_closed_form(n, k)
        return poly + IntPoly((0, 1)) if n == 4 else poly

    monkeypatch.setattr(verify, "descent_poly_by_closed_form", perturbed)
    result = verify.check_gf_convolution(6, 2)
    assert not result.ok
    assert result.detail.startswith("k=0 z^4")


def test_gf_series_check_can_fail(monkeypatch):
    def perturbed(n, k):
        poly = descent_poly_by_closed_form(n, k)
        return poly + IntPoly((0, 1)) if n == 4 else poly

    monkeypatch.setattr(verify, "descent_poly_by_closed_form", perturbed)
    result = verify.check_gf_series(6, 2)
    assert not result.ok
    assert result.detail.startswith("n=4 k=0")


def test_series_memo_serves_shorter_and_longer_orders():
    gf = RationalBivariateGF(3)
    for upto in (40, 5, 60):
        assert gf.series(upto) == RationalBivariateGF(3).series(upto)
    assert gf.series(60)[60] == descent_poly_by_closed_form(60, 3)


def test_series_returns_a_fresh_list():
    gf = descent_gf(2)
    first = gf.series(10)
    want = list(first)
    first[3] = IntPoly((99,))
    first.append(IntPoly((7,)))
    assert gf.series(10) == want


def test_series_from_concurrent_threads():
    # more threads than cores and a short switch interval, so the threads
    # interleave inside series; a torn memo would give a wrong term
    orders = (120, 40, 160, 80)
    want = {n: RationalBivariateGF(3).series(n) for n in orders}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            gf = RationalBivariateGF(3)  # one fresh memo per round, shared by its threads
            start = Barrier(len(orders))
            got = {}

            def work(n):
                start.wait(timeout=30)
                got[n] = gf.series(n)

            threads = [Thread(target=work, args=(n,)) for n in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == want
            assert gf.series(160) == want[160]
    finally:
        sys.setswitchinterval(interval)
