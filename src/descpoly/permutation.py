"""Permutations of [n] with descent and drop statistics, the one-pass bubble
and stack sort operators, standardization, and the tail-peeling bijection pair
that underlies the descent-polynomial recurrence.

Positions and values are 1-based throughout, matching the usual one-line
notation: ``Permutation((3, 1, 2))`` sends 1 to 3.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import product
from math import comb, factorial
from operator import gt, index, itemgetter, sub

# positions filled from one table: of 3..7, 5 ran the route at (9, 5) and the
# enumeration at (9, 8) fastest, with the product generator below
_BLOCK = 5


def _bsort_word(w: Sequence[int]) -> tuple[int, ...]:
    # one bubble pass: carry the running maximum rightwards; each smaller
    # entry steps one place left, and the carried maximum stops just before
    # the next larger entry.  A tie with the carried maximum raises.
    if not w:
        return ()
    out = []
    top = w[0]
    for x in w[1:]:
        if x < top:
            out.append(x)
        elif x > top:
            out.append(top)
            top = x
        else:
            raise ValueError(f"entry {x} ties the carried maximum in {tuple(w)}")
    out.append(top)
    return tuple(out)


def _ssort_word(w: Sequence[int]) -> tuple[int, ...]:
    # one stack pass (West's stack): before pushing an entry, pop every
    # smaller entry to the output; empty the stack at the end
    out: list[int] = []
    stack: list[int] = []
    for x in w:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    out.extend(reversed(stack))
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation.

    The constructor passes each entry through ``operator.index`` (a float
    raises ``TypeError``, a bool becomes an int) and checks that the entries
    are 1..n in some order.  The descent set is computed once per
    permutation, by the first ``descent_set`` call, and kept in
    ``_descents``, which takes no part in equality, hashing or repr.
    """

    values: tuple[int, ...]
    _descents: frozenset[int] | None = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, values: Iterable[int] = ()):
        vs = tuple(map(index, values))
        if sorted(vs) != list(range(1, len(vs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(vs)}: {vs}")
        _set_values(self, vs)
        _set_descents(self, None)

    @classmethod
    def _trusted(cls, values: tuple[int, ...]) -> Permutation:
        # no check: only for a tuple of ints that is a permutation of 1..n by
        # construction; outside input goes through __init__
        p = object.__new__(cls)
        _set_values(p, values)
        _set_descents(p, None)
        return p

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.values)

    def descent_set(self) -> frozenset[int]:
        """Positions i with value(i) > value(i+1).

        >>> sorted(Permutation((1, 3, 8, 4, 2, 5, 9, 7, 6)).descent_set())
        [3, 4, 7, 8]
        """
        descents = self._descents
        if descents is None:
            v = self.values
            descents = frozenset(i + 1 for i in range(len(v) - 1) if v[i] > v[i + 1])
            _set_descents(self, descents)
        return descents

    def maxdrop(self) -> int:
        """Largest value of position minus entry; 0 for the identity."""
        v = self.values
        return max(map(sub, range(1, len(v) + 1), v)) if v else 0

    def bsort(self) -> Permutation:
        """One bubble sort pass."""
        return Permutation._trusted(_bsort_word(self.values))

    def ssort(self) -> Permutation:
        """One stack sort pass."""
        return Permutation._trusted(_ssort_word(self.values))

    def bsc(self) -> int:
        """Number of bubble passes needed to reach the identity."""
        ident = tuple(range(1, self.n + 1))
        w = self.values
        m = 0
        while w != ident:
            w = _bsort_word(w)
            m += 1
            if m > self.n:
                raise RuntimeError(f"bubble sort failed to terminate within {self.n} passes")
        return m


# the slot descriptors, as in JugglingSequence: cheaper per call than object.__setattr__
_set_values = Permutation.values.__set__
_set_descents = Permutation._descents.__set__


def standardize(word: Sequence[int]) -> Permutation:
    """Rank-replace a word of distinct integers onto 1..len(word); the result
    is order isomorphic to the input and has the same descent set.

    >>> standardize((1, 9, 4, 5, 2)).values
    (1, 5, 3, 4, 2)
    """
    word = tuple(word)
    rank = {v: i for i, v in enumerate(sorted(word), 1)}
    if len(rank) != len(word):
        raise ValueError(f"entries must be distinct: {word}")
    return Permutation._trusted(tuple(map(rank.__getitem__, word)))


# for the prefixes detach_tail peels alone: the peels of one permutation share a
# prefix per tail length, so a repeat costs one tuple hash.  4 is the smallest
# bound with 98% of 64's hits on the round trip at n = 7 and 8
_ranks = lru_cache(maxsize=4)(standardize)


def unstandardize(p: Permutation, ground: Iterable[int]) -> tuple[int, ...]:
    """Inverse of :func:`standardize` onto the given ground set; a repeated
    ground value raises ``ValueError``.

    >>> unstandardize(Permutation((1, 5, 3, 4, 2)), {1, 2, 4, 5, 9})
    (1, 9, 4, 5, 2)
    """
    g = sorted(ground)
    if len(set(g)) != len(g):
        raise ValueError(f"ground values must be distinct: {g}")
    if len(g) != len(p.values):
        raise ValueError(f"ground set of size {len(g)} for a permutation of length {p.n}")
    return tuple([g[v - 1] for v in p.values])


@dataclass(frozen=True, slots=True)
class DescentSetSpec:
    """A required descent set: positions inside [1, n-1] for length n >= 0.
    The length and each position pass through ``operator.index``, as
    permutation entries do, so a float raises ``TypeError``."""

    n: int
    positions: frozenset[int]
    _tail: int = field(default=0, init=False, compare=False, repr=False)

    def __init__(self, n: int, positions: Iterable[int] = ()):
        n = index(n)
        if n < 0:
            raise ValueError(f"length {n} is negative")
        ps = frozenset(map(index, positions))
        if ps and not 1 <= min(ps) <= max(ps) <= n - 1:
            raise ValueError(f"positions {sorted(ps)} not within [1, {n - 1}]")
        tail = 0
        while n - 1 - tail in ps:
            tail += 1
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "positions", ps)
        object.__setattr__(self, "_tail", tail)

    def tail_length(self) -> int:
        """Length of the maximal run n-i, ..., n-1 contained in the position
        set; 0 whenever n-1 is absent."""
        return self._tail


def detach_tail(p: Permutation, spec: DescentSetSpec) -> tuple[Permutation, frozenset[int]]:
    """Peel the forced decreasing tail off ``p`` and standardize the rest.

    With i the tail length of ``spec``, returns the standardization of the
    first n-i-1 entries together with the set of the last i+1 entries.  The
    descent set of ``p`` must contain the required positions.
    """
    v = p.values
    if not v:
        raise ValueError("nothing to peel")
    if spec.n != len(v):
        raise ValueError(f"spec length {spec.n} != permutation length {len(v)}")
    descents = p.descent_set()
    if not spec.positions <= descents:
        raise ValueError(f"required descents {sorted(spec.positions - descents)} absent from {v}")
    cut = len(v) - spec.tail_length() - 1
    return _ranks(v[:cut]), frozenset(v[cut:])


def attach_tail(p: Permutation, tail: Iterable[int]) -> Permutation:
    """Inverse of :func:`detach_tail`: relabel ``p`` into the complement of
    ``tail`` inside [1, n] and append ``tail`` in decreasing order; a
    repeated tail value raises ``ValueError``.

    >>> attach_tail(Permutation((3, 1, 4, 2)), {4, 6, 7}).values
    (3, 1, 5, 2, 7, 6, 4)
    """
    xs = sorted(map(index, tail))
    xset = set(xs)
    if len(xset) != len(xs):
        raise ValueError(f"tail values must be distinct: {xs}")
    if not xs:
        raise ValueError("tail must be nonempty")
    n = len(p.values) + len(xs)
    if xs[0] < 1 or xs[-1] > n:
        raise ValueError(f"tail values {xs} not within [1, {n}]")
    # the complement, sorted by construction, has exactly p.n values
    ground = [x for x in range(1, n + 1) if x not in xset]
    xs.reverse()
    return Permutation._trusted(tuple([ground[v - 1] for v in p.values] + xs))


def bounded_drop_nodes(n: int, k: int, stop: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Yield each node of the maxdrop <= k words of [n] with positions 1..stop
    still open, in generation order, as (open, tail, des): the unused values
    sorted, the values at positions stop+1..n and their descents.  Position i
    takes one of the top min(i, k+1) of its i unused values, as a smaller one
    would drop by more than k, and that choice is free of every other
    position's: so the nodes are one product of choice ranges, position n
    varying slowest, each decoded by popping from a fresh copy of 1..n.
    """
    for choice in product(*[range(max(0, i - k - 1), i) for i in range(n, stop, -1)]):
        avail = list(range(1, n + 1))
        tail = tuple(map(avail.pop, choice))[::-1]
        yield tuple(avail), tail, sum(map(gt, tail, tail[1:]))


@cache
def _block_table(m: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # the words of [m] as 0-based indices into m sorted values, with their descents
    return tuple((tuple(v - 1 for v in w), d) for _, w, d in bounded_drop_nodes(m, k, 0))


def _blocks(n: int, k: int) -> tuple[tuple, Iterator[tuple]]:
    # the table of positions 1..m (none for n < 2; 14 at most) and the nodes that leave them open
    m = min(n, _BLOCK)
    return (_block_table(m, min(k, m - 1)) if m > 1 else ()), bounded_drop_nodes(n, k, m)


def enumerate_bounded_drop(n: int, k: int) -> Iterator[Permutation]:
    """Yield every permutation of [n] with maxdrop at most k, each exactly
    once, without filtering the full symmetric group."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    trusted = Permutation._trusted
    if n < 2:
        yield trusted(tuple(range(1, n + 1)))
    table, nodes = _blocks(n, k)
    for open_, tail, _ in nodes:
        for w, _ in table:
            yield trusted(itemgetter(*w)(open_) + tail)


def bounded_drop_count(n: int, k: int) -> int:
    """Cardinality of the maxdrop <= k class: k!(k+1)^(n-k) for n >= k,
    n! otherwise."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if k >= n:
        return factorial(n)
    return factorial(k) * (k + 1) ** (n - k)


def count_descent_superset(spec: DescentSetSpec, k: int) -> int:
    """Number of maxdrop <= k permutations whose descent set contains the
    positions of ``spec``.

    The cuts, the positions 0..n-1 that are not required, split [n] into
    blocks: a run of required descents plus the entry after it.  Peeled from
    the right while m entries remain, a block of length b takes its values in
    C(min(m, k+1), b) ways.  For m > k these are the tail-peeling binomials
    C(k+1, b); for m <= k the bound is vacuous and the C(m, b) telescope to
    the multinomial m!/prod b!.  One pass, O(n) big-integer products.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n, required, count = spec.n, spec.positions, 1
    for cut in reversed(range(n)):
        if cut not in required:
            count *= comb(min(n, k + 1), n - cut)
            n = cut
    return count
