"""Descent polynomials of bounded-drop permutations by three independent
routes, and the symmetric unimodal kernel polynomials behind the closed form.

For parameters (n, k), each route returns the descent polynomial as an
``IntPoly``: its coefficient r counts the permutations of [n] with maxdrop at
most k and r descents.  The three routes are direct enumeration, the
tail-peeling linear recurrence, and multisection of the kernel polynomial
times a geometric power.  The kernel itself has four constructions that must
agree: the closed-form sum, its stretched variant, iterated
stretch-and-multiply, and duplicate-insertion.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .eulerian import eulerian_poly, eulerian_rows
from .genfunc import descent_gf
from .permutation import _blocks
from .polynomial import IntPoly, NegativeExponentResidue, UsageError, geometric


class CapExceeded(UsageError):
    """Enumeration was requested beyond its configured size cap."""


def descent_poly_by_enumeration(n: int, k: int, cap: int = 10) -> IntPoly:
    """The descent polynomial (coefficient r counts the permutations with r
    descents) by an exact census, leaf by leaf, of the bounded-drop class;
    refuses n beyond ``cap`` since the work grows like k!(k+1)^(n-k)."""
    if n < 0 or k < 0:
        raise UsageError("n and k must be nonnegative")
    if n > cap:
        raise CapExceeded(f"enumeration for n={n} exceeds cap {cap}")
    counts = [0] * n if n > 1 else [1]
    table, nodes = _blocks(n, k)
    ends = [(w[-1], d) for w, d in table]
    for open_, tail, des in nodes:
        t0 = tail[0] if tail else n + 1
        for e, d in ends:
            counts[des + d + (open_[e] > t0)] += 1
    return IntPoly(counts)


def descent_poly_by_recurrence(n: int, k: int) -> IntPoly:
    """The descent polynomial (coefficient r counts the permutations with r
    descents) through the tail-peeling recurrence with Eulerian initial
    conditions: the generating function's (memoised) series for n > k, where
    the drop bound bites."""
    if n < 0 or k < 0:
        raise UsageError("n and k must be nonnegative")
    if n <= k:
        return eulerian_poly(n)
    return descent_gf(k).series(n)[n]


def _kernel_sum(k: int, mod: int) -> IntPoly:
    # sum over j of the head E_{k-j}(v) (v - 1)^j, v = u^mod, times the tail
    # sum_t C(k-t, j) u^(t-k); each head is formed in v, then spread to u, so
    # the sum costs O(k^3) coefficient ops; the tail is multiplied by u^k, so
    # the low k coefficients of the total stand for negative powers and must cancel
    if k < 0:
        raise UsageError("k must be nonnegative")
    total = IntPoly()
    for j, row in zip(range(k, -1, -1), eulerian_rows()):  # row is E_{k-j}
        head = (IntPoly(row) * IntPoly((-1, 1)) ** j).substitute_power(mod)
        total = total + head * IntPoly([comb(k - t, j) for t in range(k - j + 1)])
    for e, c in enumerate(total.coeffs[:k]):
        if c:
            raise NegativeExponentResidue(f"nonzero coefficient {c} on power {e - k}")
    p = IntPoly(total.coeffs[k:])
    if p.degree != k * (mod - 1):
        raise ValueError(f"kernel degree {p.degree} != {k * (mod - 1)}")
    return p


@cache
def kernel_poly(k: int) -> IntPoly:
    """The degree-k^2 kernel polynomial of the closed form, evaluated exactly;
    every negative power of its defining sum must cancel.

    >>> kernel_poly(2).coeffs
    (1, 1, 2, 1, 1)
    """
    return _kernel_sum(k, k + 1)


def stretched_kernel_poly(k: int) -> IntPoly:
    """The stretched kernel straight from its own closed-form sum (modulus
    k+2 in place of k+1); must equal ``stretch(kernel_poly(k), k)``."""
    return _kernel_sum(k, k + 2)


def stretch(p: IntPoly, k: int) -> IntPoly:
    """Insert zero coefficients into a degree-k^2 kernel so that the result
    has a gap after the constant term and after every further k+1 entries;
    the result has degree k^2 + k."""
    if p.degree != k * k:
        raise ValueError(f"expected degree {k * k}, got {p.degree}")
    out = [0] * (k * k + k + 1)
    out[0] = p.coeffs[0]
    for i in range(1, len(p.coeffs)):
        out[i + 1 + (i - 1) // (k + 1)] = p.coeffs[i]
    return IntPoly(out)


def kernel_poly_by_stretch(k: int) -> IntPoly:
    """Build the kernel iteratively: each next kernel is the stretch of the
    previous one times the next geometric sum."""
    if k < 1:
        raise UsageError("stretch construction starts at k = 1")
    p = IntPoly((1, 1))
    for j in range(1, k):
        p = stretch(p, j) * geometric(j + 1)
    return p


def kernel_poly_by_duplication(k: int) -> IntPoly:
    """Build the kernel by the coefficient rule of the unimodality argument:
    window-sum the previous coefficient sequence, then duplicate every entry
    whose index is a multiple of the window length.

    >>> kernel_poly_by_duplication(2).coeffs
    (1, 1, 2, 1, 1)
    """
    if k < 1:
        raise UsageError("duplication construction starts at k = 1")
    seq = [1, 1]
    for j in range(1, k):
        window = [sum(seq[max(0, i - j) : i + 1]) for i in range(j * j + j + 1)]
        grown: list[int] = []
        for i, b in enumerate(window):
            grown.append(b)
            if i % (j + 1) == 0:
                grown.append(b)
        seq = grown
    return IntPoly(seq)


def descent_poly_by_closed_form(n: int, k: int) -> IntPoly:
    """The descent polynomial (coefficient r counts the permutations with r
    descents) as every (k+1)-th coefficient of the kernel times the geometric
    power.

    The power comes from J.C.P. Miller's recurrence (``IntPoly.__pow__``),
    stepped over floor(k(n-k)/2) coefficients at k ops each and mirrored
    (the power is a palindrome); the strided product with the kernel forms
    only the kept coefficients, in O(k^2 n): this is the route for large n.
    For n < k the drop bound is vacuous and the Eulerian polynomial is
    returned directly, avoiding a negative geometric exponent.
    """
    if n < 0 or k < 0:
        raise UsageError("n and k must be nonnegative")
    if n < k:
        return eulerian_poly(n)
    return kernel_poly(k).product(geometric(k) ** (n - k), k + 1)


def descent_coefficient(n: int, k: int, d: int) -> int:
    """Coefficient d of the descent polynomial alone: the sum over j of
    P_k[j] [u^((k+1)d - j)] G^(n-k), with P_k the kernel, G = 1 + u + ... + u^k
    and [u^m] G^N = sum_i (-1)^i C(N, i) C(m - i(k+1) + N - 1, N - 1) by
    inclusion-exclusion.  The product is a palindrome of degree kn: s = (k+1)d is
    read at min(s, kn - s), 0 past it, so both ends of a row are cheap at any n,
    in (k^2 + 1)(e + 2) terms, e the distance from d to the nearer end; n <= k reads E_n.

    >>> descent_coefficient(10, 1, 2)  # C(n, 2d) at k = 1
    210
    """
    if n < 0 or k < 0 or d < 0:
        raise UsageError("n, k and d must be nonnegative")
    if n <= k:
        return eulerian_poly(n).coefficient(d)
    N, s = n - k, min((k + 1) * d, k * n - (k + 1) * d)
    if s < 0:
        return 0
    return sum(
        (-1) ** i * c * comb(N, i) * comb(s - j - i * (k + 1) + N - 1, N - 1)
        for j, c in enumerate(kernel_poly(k).coeffs[: s + 1])
        for i in range((s - j) // (k + 1) + 1)
    )
