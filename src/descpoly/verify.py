"""Property suites over the whole library: every claim the package rests on,
checked exhaustively up to configurable bounds, with the first counterexample
rendered on failure.

Suites: ``identities``, ``routes``, ``bijections``, ``juggling``,
``structure``, and ``all``.

Each check is a case stream: a generator that yields the claim's name first,
then one verdict per case, ``True`` or the failure text, as in
``yield got == want or f"n={n}: got {got}"`` (the ``or`` builds the text only
on failure).  ``@_check("suite")`` turns it into
``check_x(nmax, kmax) -> CheckResult`` and registers it in ``SUITES`` under
that suite, so the decorator is the one place a check names its suite and
definition order is run order; the first text fails the check, and no case
after it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, wraps
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
from .polynomial import IntPoly, UsageError, geometric


@dataclass(frozen=True, slots=True)
class CheckResult:
    """One claim's verdict.  A case is one verdict its check yielded: one
    comparison, such as one (n, k) pair agreeing across routes.  ``cases``
    counts the cases that held, all of them on a pass and those before the
    counterexample on a failure; it takes no part in equality."""

    name: str
    ok: bool
    detail: str = ""
    cases: int = field(default=0, compare=False)


SUITES: dict[str, list] = {}


def _check(suite: str):
    """Wrap a case stream as a check and append it to ``SUITES[suite]``; a
    suite runs its checks in definition order, and the suites run in the
    order their first checks are defined.  A verdict that is neither
    ``True`` nor a non-empty text is a ``TypeError``."""

    def register(body):
        @wraps(body)
        def check(nmax: int, kmax: int) -> CheckResult:
            verdicts = body(nmax, kmax)
            name = next(verdicts)
            cases = 0
            for verdict in verdicts:
                if verdict is not True:
                    if not (isinstance(verdict, str) and verdict):
                        raise TypeError(f"{body.__name__} yielded {verdict!r}, not True or a text")
                    return CheckResult(name, False, verdict, cases)
                cases += 1
            return CheckResult(name, True, cases=cases)

        SUITES.setdefault(suite, []).append(check)
        return check

    return register


@_check("identities")
def check_euler_identity(nmax: int, kmax: int):
    yield f"Eulerian binomial identity residual is zero for orders 1..{kmax}"
    r0 = euler_identity_residual(0)
    yield r0 == IntPoly((1, -1)) or (
        f"order 0 residual changed: expected 1 - x, got {r0.pretty('x')}"
    )
    for order in range(1, kmax + 1):
        r = euler_identity_residual(order)
        yield r.is_zero() or f"order {order}: residual {r.pretty('x')}"


@_check("identities")
def check_ab_identity(nmax: int, kmax: int):
    bound = 6
    yield f"two-parameter Eulerian identity holds on [-{bound},{bound}]^2 with a+b >= 0"
    for a in range(-bound, bound + 1):
        for b in range(-a, bound + 1):
            r = ab_identity_residual(a, b)
            yield r.is_zero() or f"a={a} b={b}: residual {r.pretty('x')}"


@_check("routes")
def check_route_agreement(nmax: int, kmax: int):
    yield f"enumeration, recurrence and closed form agree for 0 <= k < n <= {nmax}"
    for n in range(1, nmax + 1):
        for k in range(n):
            e = descent_poly_by_enumeration(n, k, cap=nmax)
            r = descent_poly_by_recurrence(n, k)
            c = descent_poly_by_closed_form(n, k)
            yield e == r == c or (
                f"n={n} k={k}: enumeration={list(e.coeffs)} "
                f"recurrence={list(r.coeffs)} closed_form={list(c.coeffs)}"
            )


@_check("routes")
def check_cardinality(nmax: int, kmax: int):
    yield f"descent polynomial at 1 equals k!(k+1)^(n-k) for k <= n <= {nmax}"
    for n in range(nmax + 1):
        for k in range(n + 1):
            got = descent_poly_by_recurrence(n, k).evaluate(1)
            want = bounded_drop_count(n, k)
            yield got == want or f"n={n} k={k}: got {got}, want {want}"


@_check("routes")
def check_eulerian_ceiling(nmax: int, kmax: int):
    yield f"descent polynomial is Eulerian once k >= n-1, for n <= {nmax}"
    # the series, numerator terms too (n <= k); descent_gf(k) is O(k^3) cold: bound k for big nmax
    for n in range(nmax + 1):
        for k in range(max(n - 1, 0), n + 2):
            got, want = descent_gf(k).series(n)[n], eulerian_poly(n)
            yield got == want or f"n={n} k={k}: got {list(got.coeffs)}, want {list(want.coeffs)}"


@_check("routes")
def check_binomial_row(nmax: int, kmax: int):
    yield f"drop bound 1 gives binomial coefficients n choose 2d, for n <= {nmax}"
    for n in range(1, nmax + 1):
        poly = descent_poly_by_closed_form(n, 1)
        for d in range(n // 2 + 2):
            got, want = poly.coefficient(d), comb(n, 2 * d)
            yield got == want or f"n={n} d={d}: got {got}, want {want}"


@_check("routes")
def check_intro_factorizations(nmax: int, kmax: int):
    yield f"low-order product factorizations reproduce the k=2 and k=3 polynomials, n <= {nmax}"
    for k, base, n0 in (2, IntPoly((1, 0, 1)), 1), (3, IntPoly((1, 0, 1, 2, 1, 0, 1)), 2):
        for n in range(n0, nmax + 1):
            got = base.product(geometric(k) ** (n - n0), k + 1)
            want = descent_poly_by_recurrence(n, k)
            yield got == want or f"k={k} n={n}: got {list(got.coeffs)}, want {list(want.coeffs)}"


@_check("routes")
def check_gf_series(nmax: int, kmax: int):
    yield f"generating function series matches the recurrence for n <= {nmax}, k <= {kmax}"
    for k in range(kmax + 1):
        # the recurrence route reads this series; the closed form shares no code
        series = descent_gf(k).series(nmax)
        for n in range(nmax + 1):
            want = descent_poly_by_closed_form(n, k)
            yield series[n] == want or (
                f"n={n} k={k}: series={list(series[n].coeffs)}, closed_form={list(want.coeffs)}"
            )


@_check("routes")
def check_gf_convolution(nmax: int, kmax: int):
    yield f"denominator convolution of the series returns the numerator, order <= {nmax}, k <= {kmax}"
    for k in range(kmax + 1):
        closed = [descent_poly_by_closed_form(n, k) for n in range(nmax + 1)]
        for n, r in enumerate(descent_gf(k).convolution_residual(closed)):
            yield r.is_zero() or f"k={k} z^{n}: residual {r.pretty('y')}"


@_check("bijections")
def check_worked_examples(nmax: int, kmax: int):
    yield "worked tail-peeling examples reproduce exactly"
    sigma, xs = detach_tail(
        Permutation((1, 3, 8, 4, 2, 5, 9, 7, 6)), DescentSetSpec(9, {3, 7, 8})
    )
    yield (sigma.values == (1, 3, 6, 4, 2, 5) and xs == frozenset({6, 7, 9})) or (
        f"detach gave ({sigma.values}, {sorted(xs)})"
    )
    joined = attach_tail(Permutation((3, 1, 4, 2)), {4, 6, 7})
    yield joined.values == (3, 1, 5, 2, 7, 6, 4) or f"attach gave {joined.values}"


def _subsets(positions: frozenset[int]):
    items = sorted(positions)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


def _specs(n: int, forced: frozenset[int] = frozenset()):
    # (S, spec of S | forced) for each S inside a descent set; one spec per S
    pair = cache(lambda S: (S, DescentSetSpec(n, S | forced)))
    return cache(lambda ds: [pair(S) for S in _subsets(ds)])


@_check("bijections")
def check_bijection_round_trip(nmax: int, kmax: int):
    """Peel then reattach every (p, S), and attach then peel every (p, X),
    checking that the drop bound k survives each map.

    Neither map reads k, so each case runs once, at the least k that admits
    it: p at k = maxdrop(p), and X at k = max(maxdrop(p), n - min(X)), the
    first k whose pool [n-k, n] holds X.

    Each spec is built once.  ``detach_tail`` runs on every (p, S), and
    ``attach_tail`` once per distinct output of p: it is pure, and the checks
    read only p, that output and k, so a repeat would repeat the first verdict.
    """
    yield f"tail peeling and reattachment are mutually inverse, exhaustively for n <= {nmax}"
    for n in range(1, nmax + 1):
        specs = _specs(n)
        for p in enumerate_bounded_drop(n, n - 1):
            k, attached = p.maxdrop(), set()
            for S, spec in specs(p.descent_set()):
                sigma, xs = peeled = detach_tail(p, spec)
                if peeled in attached:
                    continue
                attached.add(peeled)
                back = attach_tail(sigma, xs)
                if back != p:
                    fault = f"got {back.values}"
                elif sigma.maxdrop() > k:
                    fault = f"peeled {sigma.values} drops by more than k"
                elif min(xs) < n - k:
                    fault = f"tail {sorted(xs)} not within [{n - k}, {n}]"
                else:
                    fault = ""
                yield not fault or f"n={n} k={k} p={p.values} S={sorted(S)}: {fault}"
    # opposite direction: start from (sigma, X), attach, then peel
    for m in range(nmax):
        # positions m+1..n-1 are forced descents of the joined permutation
        tables = [(n, _specs(n, frozenset(range(m + 1, n)))) for n in range(m + 1, nmax + 1)]
        for p in map(Permutation, permutations(range(1, m + 1))):
            md, descents = p.maxdrop(), p.descent_set()
            for n, specs in tables:
                for X in combinations(range(1, n + 1), n - m):
                    k, joined = max(md, n - X[0]), attach_tail(p, X)
                    want = (p, frozenset(X))
                    for T, spec in specs(descents):
                        got = detach_tail(joined, spec)
                        yield got == want or f"m={m} k={k} X={sorted(X)} T={sorted(T)}: got {got}"
                    yield joined.maxdrop() <= k or (
                        f"m={m} k={k} X={sorted(X)}: joined {joined.values} drops by more than k"
                    )


@_check("bijections")
def check_count_agreement(nmax: int, kmax: int):
    yield f"tail-peeling count recurrence matches brute force for n <= {nmax}"
    for n in range(nmax + 1):
        for k in range(n + 1):
            classes: dict[frozenset[int], int] = {}
            for p in enumerate_bounded_drop(n, k):
                d = p.descent_set()
                classes[d] = classes.get(d, 0) + 1
            for S in _subsets(frozenset(range(1, n))):
                brute = sum(c for d, c in classes.items() if S <= d)
                rec = count_descent_superset(DescentSetSpec(n, S), k)
                yield brute == rec or f"n={n} k={k} S={sorted(S)}: brute {brute}, recurrence {rec}"


@_check("bijections")
def check_standardization(nmax: int, kmax: int):
    bound = min(nmax, 5)
    yield f"standardization round trips and preserves descent sets, words of length <= {bound}"
    for n in range(1, bound + 1):
        # neither the permutation nor its descent set depends on the ground set
        perms = [Permutation(p) for p in permutations(range(1, n + 1))]
        cases = [(perm, perm.values, perm.descent_set()) for perm in perms]
        for ground in combinations(range(1, 2 * bound + 1), n):
            for perm, p, descents in cases:
                word = unstandardize(perm, ground)
                back = standardize(word)
                yield back == perm or f"ground={ground} p={p}: round trip gave {back.values}"
                word_descents = frozenset(i + 1 for i in range(n - 1) if word[i] > word[i + 1])
                yield word_descents == descents or f"ground={ground} p={p}: descent sets differ"


@_check("juggling")
def check_example_sequence(nmax: int, kmax: int):
    yield "the five-throw example sequence is a valid two-ball siteswap"
    T = JugglingSequence((3, 5, 0, 2, 0))
    yield T.is_valid() or "sequence reported invalid"
    yield T.ball_count() == 2 or f"ball count {T.ball_count()} != 2"


@_check("juggling")
def check_encoding(nmax: int, kmax: int):
    yield f"permutation encoding is a valid injective k-ball siteswap, n <= {nmax}"
    for n in range(1, nmax + 1):
        for k in range(n):
            seen = set()
            for p in enumerate_bounded_drop(n, k):
                T = throw_sequence(p, k)
                yield T.is_valid() or f"n={n} k={k} p={p.values}: invalid {T.throws}"
                yield T.ball_count() == k or f"n={n} k={k} p={p.values}: balls {T.ball_count()}"
                yield T.throws not in seen or f"n={n} k={k}: duplicate image {T.throws}"
                seen.add(T.throws)


@_check("juggling")
def check_bubble_commutation(nmax: int, kmax: int):
    yield f"removing a ball commutes with one bubble pass, n <= {nmax}"
    for n in range(1, nmax + 1):
        for k in range(1, n):
            for p in enumerate_bounded_drop(n, k):
                lhs = remove_ball(throw_sequence(p, k))
                rhs = throw_sequence(p.bsort(), k - 1)
                yield lhs == rhs or f"n={n} k={k} p={p.values}: {lhs.throws} != {rhs.throws}"


@_check("juggling")
def check_sorting_lemmas(nmax: int, kmax: int):
    yield f"bubble passes equal maxdrop, drop one level, and bound stack sort, n <= {nmax}"
    for n in range(nmax + 1):
        ident = Permutation.identity(n)
        for vals in permutations(range(1, n + 1)):
            p = Permutation(vals)
            md = p.maxdrop()
            yield p.bsc() == md or f"p={vals}: bsc {p.bsc()} != maxdrop {md}"
            after = p.bsort().maxdrop()
            yield after <= max(md - 1, 0) or f"p={vals}: maxdrop {md} -> {after} after one pass"
            q = p
            for _ in range(md):
                q = q.ssort()
            yield q == ident or f"p={vals}: {md} stack passes gave {q.values}"


@_check("structure")
def check_kernel_structure(nmax: int, kmax: int):
    yield f"kernel polynomials have degree k^2, symmetry, unimodality and unit ends, k <= {kmax}"
    for k in range(kmax + 1):
        p = kernel_poly(k)
        yield p.degree == k * k or f"k={k}: degree {p.degree}"
        yield p.coefficient(0) == 1 or f"k={k}: constant term {p.coefficient(0)}"
        yield p.is_symmetric() or f"k={k}: not symmetric: {list(p.coeffs)}"
        yield p.is_unimodal() or f"k={k}: not unimodal: {list(p.coeffs)}"


@_check("structure")
def check_kernel_constructions(nmax: int, kmax: int):
    yield f"all four kernel constructions agree, 1 <= k <= {kmax}"
    for k in range(1, kmax + 1):
        base = kernel_poly(k)
        via_stretch = kernel_poly_by_stretch(k)
        via_dup = kernel_poly_by_duplication(k)
        stretched = stretch(base, k)
        formula = stretched_kernel_poly(k)
        yield base == via_stretch == via_dup or (
            f"k={k}: formula={list(base.coeffs)} stretch={list(via_stretch.coeffs)} "
            f"duplication={list(via_dup.coeffs)}"
        )
        yield stretched == formula or (
            f"k={k}: stretch={list(stretched.coeffs)} formula={list(formula.coeffs)}"
        )
        yield stretched.degree == k * k + k or f"k={k}: stretched degree {stretched.degree}"


@_check("structure")
def check_kernel_multisection(nmax: int, kmax: int):
    yield f"every (k+1)-th kernel coefficient gives the Eulerian polynomial, k <= {kmax}"
    for k in range(kmax + 1):
        got = kernel_poly(k).multisect(k + 1)
        yield got == eulerian_poly(k) or f"k={k}: got {list(got.coeffs)}"


def run_suite(suite: str, nmax: int, kmax: int) -> list[CheckResult]:
    """Run one named suite (or ``all``) in a fixed order; negative bounds are
    a usage error, and a check that raises fails under its function's name."""
    if nmax < 0 or kmax < 0:
        raise UsageError(f"nmax and kmax must be nonnegative, got {nmax} and {kmax}")
    if suite != "all" and suite not in SUITES:
        raise UsageError(f"unknown suite {suite!r}")
    results = []
    for name in SUITES if suite == "all" else [suite]:
        for check in SUITES[name]:
            try:
                results.append(check(nmax, kmax))
            except Exception as exc:  # a fault in the code under test fails its check
                results.append(CheckResult(check.__name__, False, f"{type(exc).__name__}: {exc}"))
    return results
