"""Rational bivariate generating function for the descent polynomials at a
fixed drop bound, and exact extraction of its series coefficients.

The function is a ratio of two polynomials in z whose coefficients are
integer polynomials in y.  Both constant terms are 1, so the series follows
from the denominator-induced linear recurrence with no division.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb

from .eulerian import eulerian_poly
from .polynomial import IntPoly


@dataclass(frozen=True, slots=True)
class RationalBivariateGF:
    """Numerator and denominator, each a tuple of y-polynomials indexed by
    the power of z."""

    k: int
    numerator: tuple[IntPoly, ...]
    denominator: tuple[IntPoly, ...]

    def series(self, upto: int) -> list[IntPoly]:
        """Series coefficients of z^0 .. z^upto, each a polynomial in y.

        The result at index n is the descent polynomial for (n, k).
        """
        if upto < 0:
            raise ValueError("order must be nonnegative")
        out: list[IntPoly] = []
        for n in range(upto + 1):
            acc = self.numerator[n] if n < len(self.numerator) else IntPoly()
            for i in range(1, min(n, self.k + 1) + 1):
                acc = acc - self.denominator[i] * out[n - i]
            out.append(acc)
        return out

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


def descent_gf(k: int) -> RationalBivariateGF:
    """Build the generating function for drop bound k.

    The denominator is 1 minus the recurrence weights attached to powers of
    z; the numerator corrects the first k coefficients to the Eulerian
    initial conditions.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    ym1 = IntPoly((-1, 1))
    den = [IntPoly((1,))]
    for i in range(1, k + 2):
        den.append(IntPoly() - comb(k + 1, i) * ym1 ** (i - 1))
    num = [IntPoly((1,))]
    for t in range(1, k + 1):
        acc = eulerian_poly(t)
        for i in range(1, t + 1):
            acc = acc - comb(k + 1, i) * ym1 ** (i - 1) * eulerian_poly(t - i)
        num.append(acc)
    return RationalBivariateGF(k, tuple(num), tuple(den))
