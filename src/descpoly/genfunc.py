"""Rational bivariate generating function for the descent polynomials at a
fixed drop bound, and exact extraction of its series coefficients.

The function is a ratio of two polynomials in z whose coefficients are
integer polynomials in y.  Both constant terms are 1, so the series follows
from the denominator-induced linear recurrence with no division; that is
the tail-peeling recurrence, and the recurrence route reads its terms here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from itertools import islice, zip_longest
from math import comb

from .eulerian import eulerian_rows
from .polynomial import IntPoly, UsageError


@dataclass(frozen=True, slots=True)
class RationalBivariateGF:
    """The generating function for drop bound k, worked out from k alone:
    numerator and denominator, each a tuple of y-polynomials indexed by the
    power of z.  Instances are equal when their k is; series terms computed so
    far are memoised in ``_terms``, which starts empty in every new instance.

    The denominator is 1 minus the recurrence weights C(k+1, i) (y-1)^(i-1)
    on z^i; the numerator is the denominator times the Eulerian initial
    conditions, truncated after z^k, built by the series' own Horner step:
    num[t] = E_t - sum_{i=1}^{t} C(k+1,i) (y-1)^(i-1) E_{t-i}.
    """

    k: int
    numerator: tuple[IntPoly, ...] = field(init=False, compare=False)
    denominator: tuple[IntPoly, ...] = field(init=False, compare=False)
    _terms: tuple[IntPoly, ...] = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.k < 0:
            raise UsageError("k must be nonnegative")
        binoms, ym1 = _binomials(self.k), IntPoly((-1, 1))
        eulerian = list(map(IntPoly, islice(eulerian_rows(), self.k + 1)))
        num = (e - IntPoly(_weighted_sum(binoms, eulerian, t)) for t, e in enumerate(eulerian))
        object.__setattr__(self, "numerator", tuple(num))
        den = (IntPoly((1,)), *(-(binoms[i] * ym1 ** (i - 1)) for i in range(1, self.k + 2)))
        object.__setattr__(self, "denominator", den)

    def series(self, upto: int) -> list[IntPoly]:
        """Series coefficients of z^0 .. z^upto, each a polynomial in y, as a
        fresh list.

        The result at index n is the descent polynomial for (n, k).  The
        binomial weights step it by Horner's rule in (y-1), O(k n) coefficient
        ops a term; ``convolution_residual`` checks it against the denominator.
        """
        if upto < 0:
            raise UsageError("order must be nonnegative")
        out = list(self._terms)  # published below by one reference swap
        if len(out) <= upto:
            binoms = _binomials(self.k)
            for n in range(len(out), upto + 1):
                term = IntPoly(_weighted_sum(binoms, out, n))
                out.append(term + self.numerator[n] if n < len(self.numerator) else term)
            object.__setattr__(self, "_terms", tuple(out))
        return out[: upto + 1]

    def convolution_residual(self, seq: Sequence[IntPoly]) -> list[IntPoly]:
        """Cauchy convolution of the denominator with ``seq`` minus the
        numerator, coefficient by coefficient in z; identically zero exactly
        when ``seq`` is the start of this function's series."""
        residuals = []
        for n in range(len(seq)):
            acc = IntPoly()
            for i in range(min(n, self.k + 1) + 1):
                acc = acc + self.denominator[i] * seq[n - i]
            if n < len(self.numerator):
                acc = acc - self.numerator[n]
            residuals.append(acc)
        return residuals


def _binomials(k: int) -> list[int]:
    return [comb(k + 1, i) for i in range(k + 2)]


def _weighted_sum(binoms: list[int], terms: Sequence[IntPoly], n: int) -> list[int]:
    # sum_{i=1}^{min(n, k+1)} C(k+1,i) (y-1)^(i-1) terms[n-i] as a coefficient
    # list, by Horner's rule: acc <- acc * (y-1) + C(k+1,i) terms[n-i], i from
    # the top down; the shift and subtraction are the (y-1)
    acc: list[int] = []
    for i in range(min(n, len(binoms) - 1), 0, -1):
        columns = zip_longest([0, *acc], acc, terms[n - i].coeffs, fillvalue=0)
        acc = [lo - hi + binoms[i] * x for lo, hi, x in columns]
    return acc


@cache
def descent_gf(k: int) -> RationalBivariateGF:
    """``RationalBivariateGF(k)``, one shared instance per k, so its series
    memo lasts as long as the process.

    >>> [p.coeffs for p in descent_gf(1).series(3)]
    [(1,), (1,), (1, 1), (1, 3)]
    """
    return RationalBivariateGF(k)
