"""Eulerian numbers and polynomials, and two identities built from them.

The Eulerian polynomial of order n is the descent generating polynomial over
all permutations of [n]; its coefficients are the Eulerian numbers.  Both
identity checkers return the difference of the two sides as a polynomial, so
"the identity holds" means "the residual is zero".
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import count, islice
from math import comb

from .polynomial import IntPoly


def eulerian_number(n: int, k: int) -> int:
    """The number of permutations of [n] with exactly k descents, read off
    :func:`eulerian_poly`; 0 for out-of-range k, so identity sums range freely.

    >>> [eulerian_number(4, k) for k in range(4)]
    [1, 11, 11, 1]
    """
    return eulerian_poly(n).coefficient(k)


def eulerian_rows() -> Iterator[list[int]]:
    """Rows 0, 1, 2, ... of the Eulerian triangle by A(m, j) = (j+1) A(m-1, j) + (m-j) A(m-1, j-1)
    (*Concrete Mathematics*, 2nd ed., eq. 6.35): O(n^2) ops to row n, one row held at a time."""
    row = [1]
    for m in count(1):
        yield row  # order m - 1
        row = [(j + 1) * a + (m - j) * b for j, a, b in zip(range(m), row + [0], [0] + row)]


@cache
def eulerian_poly(n: int) -> IntPoly:
    """The order-n Eulerian polynomial, row n of :func:`eulerian_rows`; orders 0 and 1 are 1."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return IntPoly(next(islice(eulerian_rows(), n, None)))


def gen_binomial(a: int, j: int) -> int:
    """Binomial coefficient C(a, j) for any integer a: ``math.comb`` for
    a >= 0, and C(a, j) = (-1)^j C(j - a - 1, j) (upper negation) for a < 0.

    >>> gen_binomial(-1, 3)
    -1
    >>> gen_binomial(2, 5)
    0
    """
    if j < 0:
        raise ValueError("lower index must be nonnegative")
    return comb(a, j) if a >= 0 else (-1) ** j * comb(j - a - 1, j)


def euler_identity_residual(order: int) -> IntPoly:
    """Residual of the binomial recurrence sum against x times the Eulerian
    polynomial of the same order: the two-parameter residual at (order, 0),
    whose last term (1 - x)^(m+1) C(0, m) vanishes except at m = 0.  Zero
    for order >= 1; the order-0 residual is 1 - x and is documented rather
    than asserted away.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    return ab_identity_residual(order, 0) + IntPoly((1, -1) if order == 0 else ())


def ab_identity_residual(a: int, b: int) -> IntPoly:
    """Residual of the two-parameter Eulerian identity with generalized
    binomials; zero whenever a + b >= 0 (the a + b = 0 corner included).
    """
    m = a + b
    if m < 0:
        raise ValueError("requires a + b >= 0")
    x = IntPoly((0, 1))
    one_minus_x = IntPoly((1, -1))
    lhs = IntPoly()
    rhs = IntPoly()
    shift = IntPoly((1,))
    for j in range(m + 1):
        term = shift * eulerian_poly(m - j)
        lhs = lhs + term * ((-1) ** j * gen_binomial(a, j))
        rhs = rhs + term * gen_binomial(b, j)
        shift = shift * one_minus_x
    # after the loop, shift is (1 - x)**(m + 1)
    return lhs - x * rhs - shift * gen_binomial(b, m)
