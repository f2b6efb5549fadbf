"""Property suites over the whole library: every claim the package rests on,
checked exhaustively up to configurable bounds, with the first counterexample
rendered on failure.

Suites: ``identities``, ``routes``, ``bijections``, ``juggling``,
``structure``, and ``all``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb

from .descent import (
    descent_poly_by_closed_form,
    descent_poly_by_enumeration,
    descent_poly_by_recurrence,
    kernel_poly,
    kernel_poly_by_duplication,
    kernel_poly_by_stretch,
    stretch,
    stretched_kernel_poly,
)
from .eulerian import ab_identity_residual, euler_identity_residual, eulerian_poly
from .genfunc import descent_gf
from .juggling import JugglingSequence, remove_ball, throw_sequence
from .permutation import (
    DescentSetSpec,
    Permutation,
    attach_tail,
    bounded_drop_count,
    count_descent_superset,
    detach_tail,
    enumerate_bounded_drop,
    standardize,
    unstandardize,
)
from .polynomial import IntPoly, geometric


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _ok(name: str) -> CheckResult:
    return CheckResult(name, True)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


# --- identities ---------------------------------------------------------


def check_euler_identity(nmax: int, kmax: int) -> CheckResult:
    name = f"Eulerian binomial identity residual is zero for orders 1..{kmax}"
    zero_x = IntPoly((1, -1))
    r0 = euler_identity_residual(0)
    if r0 != zero_x:
        return _fail(name, f"order 0 residual changed: expected 1 - x, got {r0.pretty('x')}")
    for order in range(1, kmax + 1):
        r = euler_identity_residual(order)
        if not r.is_zero():
            return _fail(name, f"order {order}: residual {r.pretty('x')}")
    return _ok(name)


def check_ab_identity(nmax: int, kmax: int) -> CheckResult:
    bound = 6
    name = f"two-parameter Eulerian identity holds on [-{bound},{bound}]^2 with a+b >= 0"
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a + b < 0:
                continue
            r = ab_identity_residual(a, b)
            if not r.is_zero():
                return _fail(name, f"a={a} b={b}: residual {r.pretty('x')}")
    return _ok(name)


# --- routes -------------------------------------------------------------


def check_route_agreement(nmax: int, kmax: int) -> CheckResult:
    name = f"enumeration, recurrence and closed form agree for 0 <= k < n <= {nmax}"
    for n in range(1, nmax + 1):
        for k in range(n):
            e = descent_poly_by_enumeration(n, k, cap=nmax).poly
            r = descent_poly_by_recurrence(n, k).poly
            c = descent_poly_by_closed_form(n, k).poly
            if not (e == r == c):
                return _fail(
                    name,
                    f"n={n} k={k}: enumeration={list(e.coeffs)} "
                    f"recurrence={list(r.coeffs)} closed_form={list(c.coeffs)}",
                )
    return _ok(name)


def check_cardinality(nmax: int, kmax: int) -> CheckResult:
    name = f"descent polynomial at 1 equals k!(k+1)^(n-k) for k <= n <= {nmax}"
    for n in range(nmax + 1):
        for k in range(n + 1):
            got = descent_poly_by_recurrence(n, k).total()
            want = bounded_drop_count(n, k)
            if got != want:
                return _fail(name, f"n={n} k={k}: got {got}, want {want}")
    return _ok(name)


def check_eulerian_ceiling(nmax: int, kmax: int) -> CheckResult:
    name = f"descent polynomial is Eulerian once k >= n-1, for n <= {nmax}"
    for n in range(nmax + 1):
        for k in (n - 1, n, n + 1):
            if k < 0:
                continue
            got = descent_poly_by_recurrence(n, k).poly
            if got != eulerian_poly(n):
                return _fail(
                    name,
                    f"n={n} k={k}: got {list(got.coeffs)}, "
                    f"want {list(eulerian_poly(n).coeffs)}",
                )
    return _ok(name)


def check_binomial_row(nmax: int, kmax: int) -> CheckResult:
    name = f"drop bound 1 gives binomial coefficients n choose 2d, for n <= {nmax}"
    for n in range(1, nmax + 1):
        poly = descent_poly_by_closed_form(n, 1).poly
        for d in range(n // 2 + 2):
            if poly.coefficient(d) != comb(n, 2 * d):
                return _fail(
                    name, f"n={n} d={d}: got {poly.coefficient(d)}, want {comb(n, 2 * d)}"
                )
    return _ok(name)


def check_intro_factorizations(nmax: int, kmax: int) -> CheckResult:
    name = f"low-order product factorizations reproduce the k=2 and k=3 polynomials, n <= {nmax}"
    base2 = IntPoly((1, 0, 1))
    base3 = IntPoly((1, 0, 1, 2, 1, 0, 1))
    for n in range(1, nmax + 1):
        got = base2.product(geometric(2) ** (n - 1), 3)
        want = descent_poly_by_recurrence(n, 2).poly
        if got != want:
            return _fail(name, f"k=2 n={n}: got {list(got.coeffs)}, want {list(want.coeffs)}")
    for n in range(2, nmax + 1):
        got = base3.product(geometric(3) ** (n - 2), 4)
        want = descent_poly_by_recurrence(n, 3).poly
        if got != want:
            return _fail(name, f"k=3 n={n}: got {list(got.coeffs)}, want {list(want.coeffs)}")
    return _ok(name)


def check_gf_series(nmax: int, kmax: int) -> CheckResult:
    name = f"generating function series matches the recurrence for n <= {nmax}, k <= {kmax}"
    for k in range(kmax + 1):
        # the recurrence route reads this series; the closed form shares no code
        series = descent_gf(k).series(nmax)
        for n in range(nmax + 1):
            want = descent_poly_by_closed_form(n, k).poly
            if series[n] != want:
                return _fail(
                    name,
                    f"n={n} k={k}: series={list(series[n].coeffs)}, "
                    f"closed_form={list(want.coeffs)}",
                )
    return _ok(name)


def check_gf_convolution(nmax: int, kmax: int) -> CheckResult:
    name = f"denominator convolution of the series returns the numerator, order <= {nmax}, k <= {kmax}"
    for k in range(kmax + 1):
        closed = [descent_poly_by_closed_form(n, k).poly for n in range(nmax + 1)]
        residuals = descent_gf(k).convolution_residual(closed)
        for n, r in enumerate(residuals):
            if not r.is_zero():
                return _fail(name, f"k={k} z^{n}: residual {r.pretty('y')}")
    return _ok(name)


# --- bijections ---------------------------------------------------------


def check_worked_examples(nmax: int, kmax: int) -> CheckResult:
    name = "worked tail-peeling examples reproduce exactly"
    sigma, xs = detach_tail(
        Permutation((1, 3, 8, 4, 2, 5, 9, 7, 6)), DescentSetSpec(9, {3, 7, 8})
    )
    if sigma.values != (1, 3, 6, 4, 2, 5) or xs != frozenset({6, 7, 9}):
        return _fail(name, f"detach gave ({sigma.values}, {sorted(xs)})")
    joined = attach_tail(Permutation((3, 1, 4, 2)), {4, 6, 7})
    if joined.values != (3, 1, 5, 2, 7, 6, 4):
        return _fail(name, f"attach gave {joined.values}")
    return _ok(name)


def _subsets(positions: frozenset[int]):
    items = sorted(positions)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


def check_bijection_round_trip(nmax: int, kmax: int) -> CheckResult:
    """Peel then reattach every (p, S), and attach then peel every (p, X),
    checking that the drop bound k survives each map.

    Neither map reads k, so each case runs once, at the least k that admits
    it: p at k = maxdrop(p), and X at k = max(maxdrop(p), n - min(X)), the
    first k whose pool [n-k, n] holds X.  A stable sort on that k visits the
    cases in the order a loop over every k first meets them, so the first
    counterexample is the one such a loop would report.
    """
    name = f"tail peeling and reattachment are mutually inverse, exhaustively for n <= {nmax}"
    for n in range(1, nmax + 1):
        for p in sorted(enumerate_bounded_drop(n, n - 1), key=Permutation.maxdrop):
            k = p.maxdrop()
            for S in _subsets(p.descent_set()):
                sigma, xs = detach_tail(p, DescentSetSpec(n, S))
                back = attach_tail(sigma, xs)
                if back != p:
                    fault = f"got {back.values}"
                elif sigma.maxdrop() > k:
                    fault = f"peeled {sigma.values} drops by more than k"
                elif min(xs) < n - k:
                    fault = f"tail {sorted(xs)} not within [{n - k}, {n}]"
                else:
                    continue
                return _fail(name, f"n={n} k={k} p={p.values} S={sorted(S)}: {fault}")
    # opposite direction: start from (sigma, X), attach, then peel
    for m in range(nmax):
        for p in map(Permutation, permutations(range(1, m + 1))):
            md = p.maxdrop()
            subsets = list(_subsets(p.descent_set()))
            cases = []
            for n in range(m + 1, nmax + 1):
                # positions m+1..n-1 are forced descents of the joined permutation
                forced = frozenset(range(m + 1, n))
                specs = [(T, DescentSetSpec(n, T | forced)) for T in subsets]
                for X in combinations(range(1, n + 1), n - m):
                    cases.append((max(md, n - X[0]), X, specs))
            cases.sort(key=lambda case: case[0])
            for k, X, specs in cases:
                joined = attach_tail(p, X)
                want = (p, frozenset(X))
                for T, spec in specs:
                    got = detach_tail(joined, spec)
                    if got != want:
                        return _fail(name, f"m={m} k={k} X={sorted(X)} T={sorted(T)}: got {got}")
                if joined.maxdrop() > k:
                    return _fail(
                        name,
                        f"m={m} k={k} X={sorted(X)}: joined {joined.values} drops by more than k",
                    )
    return _ok(name)


def check_count_agreement(nmax: int, kmax: int) -> CheckResult:
    name = f"tail-peeling count recurrence matches brute force for n <= {nmax}"
    for n in range(nmax + 1):
        for k in range(n + 1):
            classes: dict[frozenset[int], int] = {}
            for p in enumerate_bounded_drop(n, k):
                d = p.descent_set()
                classes[d] = classes.get(d, 0) + 1
            for S in _subsets(frozenset(range(1, n))):
                spec = DescentSetSpec(n, S)
                brute = sum(c for d, c in classes.items() if S <= d)
                rec = count_descent_superset(spec, k)
                if brute != rec:
                    return _fail(name, f"n={n} k={k} S={sorted(S)}: brute {brute}, recurrence {rec}")
    return _ok(name)


def check_standardization(nmax: int, kmax: int) -> CheckResult:
    bound = min(nmax, 5)
    name = f"standardization round trips and preserves descent sets, words of length <= {bound}"
    for n in range(1, bound + 1):
        # neither the permutation nor its descent set depends on the ground set
        perms = [Permutation(p) for p in permutations(range(1, n + 1))]
        cases = [(perm, perm.values, perm.descent_set()) for perm in perms]
        for ground in combinations(range(1, 2 * bound + 1), n):
            for perm, p, descents in cases:
                word = unstandardize(perm, ground)
                back = standardize(word)
                if back != perm:
                    return _fail(name, f"ground={ground} p={p}: round trip gave {back.values}")
                word_descents = frozenset(
                    i + 1 for i in range(n - 1) if word[i] > word[i + 1]
                )
                if word_descents != descents:
                    return _fail(name, f"ground={ground} p={p}: descent sets differ")
    return _ok(name)


# --- juggling -----------------------------------------------------------


def check_example_sequence(nmax: int, kmax: int) -> CheckResult:
    name = "the five-throw example sequence is a valid two-ball siteswap"
    T = JugglingSequence((3, 5, 0, 2, 0))
    if not T.is_valid():
        return _fail(name, "sequence reported invalid")
    if T.ball_count() != 2:
        return _fail(name, f"ball count {T.ball_count()} != 2")
    return _ok(name)


def check_encoding(nmax: int, kmax: int) -> CheckResult:
    name = f"permutation encoding is a valid injective k-ball siteswap, n <= {nmax}"
    for n in range(1, nmax + 1):
        for k in range(n):
            seen = set()
            for p in enumerate_bounded_drop(n, k):
                T = throw_sequence(p, k)
                try:
                    balls = T.ball_count()  # raises exactly when T is invalid
                except ValueError:
                    return _fail(name, f"n={n} k={k} p={p.values}: invalid {T.throws}")
                if balls != k:
                    return _fail(name, f"n={n} k={k} p={p.values}: balls {balls}")
                if T.throws in seen:
                    return _fail(name, f"n={n} k={k}: duplicate image {T.throws}")
                seen.add(T.throws)
    return _ok(name)


def check_bubble_commutation(nmax: int, kmax: int) -> CheckResult:
    name = f"removing a ball commutes with one bubble pass, n <= {nmax}"
    for n in range(1, nmax + 1):
        for k in range(1, n):
            for p in enumerate_bounded_drop(n, k):
                lhs = remove_ball(throw_sequence(p, k))
                rhs = throw_sequence(p.bsort(), k - 1)
                if lhs != rhs:
                    return _fail(
                        name, f"n={n} k={k} p={p.values}: {lhs.throws} != {rhs.throws}"
                    )
    return _ok(name)


def check_sorting_lemmas(nmax: int, kmax: int) -> CheckResult:
    name = f"bubble passes equal maxdrop, drop one level, and bound stack sort, n <= {nmax}"
    for n in range(nmax + 1):
        ident = Permutation.identity(n)
        for vals in permutations(range(1, n + 1)):
            p = Permutation(vals)
            md = p.maxdrop()
            if p.bsc() != md:
                return _fail(name, f"p={vals}: bsc {p.bsc()} != maxdrop {md}")
            after = p.bsort().maxdrop()
            if after > max(md - 1, 0):
                return _fail(name, f"p={vals}: maxdrop {md} -> {after} after one pass")
            q = p
            for _ in range(md):
                q = q.ssort()
            if q != ident:
                return _fail(name, f"p={vals}: {md} stack passes gave {q.values}")
    return _ok(name)


# --- structure ----------------------------------------------------------


def check_kernel_structure(nmax: int, kmax: int) -> CheckResult:
    name = f"kernel polynomials have degree k^2, symmetry, unimodality and unit ends, k <= {kmax}"
    for k in range(kmax + 1):
        p = kernel_poly(k)
        if p.degree != k * k:
            return _fail(name, f"k={k}: degree {p.degree}")
        if p.coefficient(0) != 1:
            return _fail(name, f"k={k}: constant term {p.coefficient(0)}")
        if not p.is_symmetric():
            return _fail(name, f"k={k}: not symmetric: {list(p.coeffs)}")
        if not p.is_unimodal():
            return _fail(name, f"k={k}: not unimodal: {list(p.coeffs)}")
    return _ok(name)


def check_kernel_constructions(nmax: int, kmax: int) -> CheckResult:
    name = f"all four kernel constructions agree, 1 <= k <= {kmax}"
    for k in range(1, kmax + 1):
        base = kernel_poly(k)
        via_stretch = kernel_poly_by_stretch(k)
        via_dup = kernel_poly_by_duplication(k)
        stretched = stretch(base, k)
        formula = stretched_kernel_poly(k)
        if not (base == via_stretch == via_dup):
            return _fail(
                name,
                f"k={k}: formula={list(base.coeffs)} stretch={list(via_stretch.coeffs)} "
                f"duplication={list(via_dup.coeffs)}",
            )
        if stretched != formula:
            return _fail(
                name,
                f"k={k}: stretch={list(stretched.coeffs)} formula={list(formula.coeffs)}",
            )
        if stretched.degree != k * k + k:
            return _fail(name, f"k={k}: stretched degree {stretched.degree}")
    return _ok(name)


def check_kernel_multisection(nmax: int, kmax: int) -> CheckResult:
    name = f"every (k+1)-th kernel coefficient gives the Eulerian polynomial, k <= {kmax}"
    for k in range(kmax + 1):
        got = kernel_poly(k).multisect(k + 1)
        if got != eulerian_poly(k):
            return _fail(name, f"k={k}: got {list(got.coeffs)}")
    return _ok(name)


SUITES: dict[str, list] = {
    "identities": [check_euler_identity, check_ab_identity],
    "routes": [
        check_route_agreement,
        check_cardinality,
        check_eulerian_ceiling,
        check_binomial_row,
        check_intro_factorizations,
        check_gf_series,
        check_gf_convolution,
    ],
    "bijections": [
        check_worked_examples,
        check_bijection_round_trip,
        check_count_agreement,
        check_standardization,
    ],
    "juggling": [
        check_example_sequence,
        check_encoding,
        check_bubble_commutation,
        check_sorting_lemmas,
    ],
    "structure": [
        check_kernel_structure,
        check_kernel_constructions,
        check_kernel_multisection,
    ],
}


def run_suite(suite: str, nmax: int, kmax: int) -> list[CheckResult]:
    """Run one named suite (or ``all``) and return its results in a fixed
    deterministic order; negative bounds are a usage error."""
    if nmax < 0 or kmax < 0:
        raise ValueError(f"nmax and kmax must be nonnegative, got {nmax} and {kmax}")
    if suite == "all":
        names = ["identities", "routes", "bijections", "juggling", "structure"]
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    results = []
    for name in names:
        for check in SUITES[name]:
            results.append(check(nmax, kmax))
    return results
