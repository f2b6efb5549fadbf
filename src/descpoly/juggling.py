"""Periodic juggling sequences (siteswaps), the bounded-drop permutation
encoding, and the ball-removing transform induced by one bubble sort pass.

A period-n sequence of throw heights is a valid siteswap exactly when the
landing times t_i + i are pairwise distinct modulo n; the ball count is then
the mean throw height.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from operator import add, index, sub

from .permutation import Permutation, _bsort_word
from .polynomial import UsageError


class DropExceedsK(UsageError):
    """The permutation has a drop larger than the requested ball count."""


@dataclass(frozen=True, slots=True)
class JugglingSequence:
    """Throw heights (t_1, ..., t_n) for one period, n >= 1.

    The constructor passes each height through ``operator.index`` (a float
    raises ``TypeError``, a bool becomes an int) and rejects negative ones.
    Validity is computed once per sequence, by the first ``is_valid`` call,
    and kept in ``_valid``, which takes no part in equality, hashing or repr.
    """

    throws: tuple[int, ...]
    _valid: bool | None = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, throws: Iterable[int]):
        ts = tuple(map(index, throws))
        if not ts:
            raise ValueError("a juggling sequence needs period >= 1")
        if min(ts) < 0:
            raise ValueError(f"throw heights must be nonnegative integers: {ts}")
        # the slot descriptors, not object.__setattr__, which costs more per
        # call on the verify suites' tens of thousands of sequences
        _set_throws(self, ts)
        _set_valid(self, None)

    @classmethod
    def _trusted(cls, throws: tuple[int, ...]) -> JugglingSequence:
        # no check: only for a nonempty tuple of nonnegative ints built as
        # one; outside input goes through __init__
        T = object.__new__(cls)
        _set_throws(T, throws)
        _set_valid(T, None)
        return T

    @property
    def period(self) -> int:
        return len(self.throws)

    def is_valid(self) -> bool:
        """True when all landing times are distinct modulo the period.

        >>> JugglingSequence((3, 5, 0, 2, 0)).is_valid()
        True
        """
        valid = self._valid
        if valid is None:
            n = self.period
            valid = len({(t + i + 1) % n for i, t in enumerate(self.throws)}) == n
            _set_valid(self, valid)
        return valid

    def ball_count(self) -> int:
        """Mean throw height; defined only for valid sequences."""
        if not self.is_valid():
            raise ValueError(f"not a valid juggling sequence: {self.throws}")
        return sum(self.throws) // self.period


_set_throws = JugglingSequence.throws.__set__
_set_valid = JugglingSequence._valid.__set__


def throw_sequence(p: Permutation, k: int) -> JugglingSequence:
    """Encode a permutation with maxdrop <= k as the k-ball siteswap whose
    throw at time i is k - i + value(i)."""
    k, v = index(k), p.values
    if not v:
        raise ValueError("cannot encode the empty permutation")
    # throw i is k minus the drop at i, so the least throw is k - maxdrop
    throws = tuple(map(add, range(k - 1, k - 1 - len(v), -1), v))
    if min(throws) < 0:
        raise DropExceedsK(f"maxdrop {k - min(throws)} of {v} exceeds k={k}")
    return JugglingSequence._trusted(throws)


def _remove_ball_word(throws: tuple[int, ...]) -> tuple[int, ...]:
    # mirror of one bubble pass: run the pass on the landing times t_i + i + 1;
    # every throw lands one beat earlier than before, so the landing now at
    # index i belongs to a throw of height landing - i - 2
    landings = _bsort_word(tuple(map(add, throws, range(1, len(throws) + 1))))
    return tuple(map(sub, landings, range(2, len(landings) + 2)))


def remove_ball(T: JugglingSequence) -> JugglingSequence:
    """Transform a k-ball sequence arising from a bounded-drop permutation
    into the (k-1)-ball sequence of its bubble-sorted image."""
    if T.ball_count() == 0:
        raise ValueError("no ball to remove")
    return JugglingSequence(_remove_ball_word(T.throws))
