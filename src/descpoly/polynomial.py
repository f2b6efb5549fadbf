"""Exact dense polynomial arithmetic over Python's big integers.

``IntPoly`` stores coefficients lowest degree first, so ``IntPoly((1, 0, 2))``
is ``1 + 2u^2``.  Negative powers never occur: a sum that carries ``u**-k``
terms is multiplied through by ``u**k``, and ``NegativeExponentResidue``
reports a low coefficient that should have cancelled but did not.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import index


class UsageError(ValueError):
    """A request the caller can correct (a bound, a cap, unparsable input): CLI exit 2."""


class NegativeExponentResidue(ValueError):
    """A sum over negative powers kept a nonzero coefficient on one of them."""


class IntPoly:
    """Immutable dense polynomial with arbitrary-precision integer coefficients.

    The zero polynomial is the empty coefficient tuple; the trailing stored
    coefficient is always nonzero.

    >>> IntPoly((1, 2)) * IntPoly((1, 1))
    IntPoly((1, 3, 2))
    >>> IntPoly((1, 1)) ** 3
    IntPoly((1, 3, 3, 1))
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(map(index, coeffs))  # TypeError on a non-integer
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int | None:
        """Degree of the polynomial, or ``None`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, j: int) -> int:
        """Coefficient of the ``j``-th power; zero outside the stored range."""
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            other = IntPoly((other,))
        elif not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        if not isinstance(other, (int, IntPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> IntPoly:
        return (-self) + other

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.product(other)

    __rmul__ = __mul__

    def product(self, other: IntPoly, step: int = 1) -> IntPoly:
        """Every ``step``-th coefficient of ``self * other``: the new power
        ``d`` holds the product's coefficient of power ``d*step``, so
        ``a.product(b, step) == (a * b).multisect(step)``.  Only the pairs
        of powers ``i + j`` divisible by ``step`` are multiplied, which
        costs ``len(a) * len(b) / step`` coefficient ops; step 1 is ``*``.

        >>> IntPoly((1, 1, 1)).product(IntPoly((1, 1, 1)), 2)
        IntPoly((1, 3, 1))
        """
        if step < 1:
            raise ValueError("a strided product needs step >= 1")
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * ((len(a) + len(b) - 2) // step + 1)
        for i, c in enumerate(a):
            if c:
                j = -i % step  # the least j with i + j divisible by step
                for t, d in enumerate(b[j::step], (i + j) // step):
                    out[t] += c * d
        return IntPoly(out)

    def __pow__(self, e: int) -> IntPoly:
        """Exact power by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2
        §4.7): with ``self = u^v * q`` and ``q_0 != 0``, the coefficients of
        ``q^e`` satisfy ``j q_0 c_j = sum_{i>=1} ((e+1) i - j) q_i c_{j-i}``
        from ``c_0 = q_0^e``.  Each division by ``j q_0`` is exact, and a
        remainder raises ``ArithmeticError``.  The sum runs over the nonzero
        ``q_i`` only, so a power costs O(t * deg(q) * e) coefficient ops for
        t nonzero terms, halved for a palindromic ``q``: its power is one too,
        so only ``c_1 .. c_h``, ``h = deg(q)*e // 2``, are stepped, then mirrored.

        >>> IntPoly((0, 1, -1)) ** 2
        IntPoly((0, 0, 1, -2, 1))
        """
        e = index(e)
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return IntPoly((1,))
        if self.is_zero():
            return self
        v = next(i for i, c in enumerate(self.coeffs) if c)
        q = self.coeffs[v:]
        m = len(q) - 1
        terms = [(i, qi, (e + 1) * i * qi) for i, qi in enumerate(q) if i and qi]
        c = [0] * m + [q[0] ** e]  # m zeros stand in for c_{-m} .. c_{-1}
        half = m * e // 2 if q == q[::-1] else m * e
        for j in range(1, half + 1):
            # c[-i] is c_{j-i}: c_0 .. c_{j-1} are the last j entries
            cj, r = divmod(sum((w - j * qi) * c[-i] for i, qi, w in terms), j * q[0])
            if r:
                raise ArithmeticError(f"inexact division at coefficient {j} of a power")
            c.append(cj)
        c = c[m:]
        return IntPoly([0] * (v * e) + c + c[: m * e - half][::-1])

    def substitute_power(self, m: int) -> IntPoly:
        """Return p(u^m): coefficient ``j`` of p lands on power ``m*j``."""
        if m < 1:
            raise ValueError("power substitution needs m >= 1")
        if m == 1 or self.is_zero():
            return self
        out = [0] * ((len(self.coeffs) - 1) * m + 1)
        for j, c in enumerate(self.coeffs):
            out[m * j] = c
        return IntPoly(out)

    def multisect(self, step: int) -> IntPoly:
        """Keep every ``step``-th coefficient: the new power ``d`` holds the
        old coefficient of power ``d*step``."""
        if step < 1:
            raise ValueError("multisection needs step >= 1")
        return IntPoly(self.coeffs[::step])

    def is_symmetric(self) -> bool:
        if self.is_zero():
            raise ValueError("symmetry is undefined for the zero polynomial")
        return self.coeffs == self.coeffs[::-1]

    def is_unimodal(self) -> bool:
        """True when coefficients weakly increase, then weakly decrease."""
        if self.is_zero():
            raise ValueError("unimodality is undefined for the zero polynomial")
        cs = self.coeffs
        i = 0
        while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
            i += 1
        while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
            i += 1
        return i == len(cs) - 1

    def pretty(self, var: str = "u") -> str:
        """
        >>> IntPoly((1, 0, 2, -1)).pretty()
        '1 + 2u^2 - u^3'
        """
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            term = "" if j == 0 else var if j == 1 else f"{var}^{j}"
            body = str(mag) if (j == 0 or mag != 1) else ""
            if not parts:
                parts.append(("-" if c < 0 else "") + body + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + body + term)
        return " ".join(parts)

    def __eq__(self, other: object) -> bool:
        """An ``int`` compares as a constant polynomial, as in ``+``.

        >>> IntPoly((3,)) == 3, IntPoly() == 0
        (True, True)
        """
        if isinstance(other, int):
            other = IntPoly((other,))
        elif not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # equal values hash alike: a constant polynomial hashes like its int
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(self.coefficient(0))

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"


def geometric(k: int) -> IntPoly:
    """The sum ``1 + u + ... + u^k``; ``geometric(0)`` is 1."""
    if k < 0:
        raise ValueError("geometric sum needs k >= 0")
    return IntPoly((1,) * (k + 1))
