"""Every value the library builds without validation must be one the
validating constructor accepts: rebuilding it through the public
constructor gives an equal object."""

from itertools import combinations, permutations

import pytest

from descpoly.juggling import JugglingSequence, remove_ball, throw_sequence
from descpoly.permutation import (
    DescentSetSpec,
    Permutation,
    attach_tail,
    detach_tail,
    enumerate_bounded_drop,
    standardize,
)


def _valid(q: Permutation) -> Permutation:
    assert Permutation(q.values) == q, q
    return q


def _valid_sequence(T: JugglingSequence) -> JugglingSequence:
    assert JugglingSequence(T.throws) == T, T
    return T


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


@pytest.mark.parametrize("n", range(1, 8))
def test_bounded_drop_sites(n):
    for k in range(n + 1):
        for p in enumerate_bounded_drop(n, k):
            _valid(p)
            _valid(p.bsort())
            T = _valid_sequence(throw_sequence(p, k))
            if k:
                _valid_sequence(remove_ball(T))
            if p.maxdrop() != k:
                continue  # the tail sites below see each permutation once
            _valid(p.ssort())
            for S in _subsets(p.descent_set()):
                sigma, xs = detach_tail(p, DescentSetSpec(n, S))
                _valid(attach_tail(_valid(sigma), xs))


@pytest.mark.parametrize("n", range(7))
def test_every_permutation_sites(n):
    for values in permutations(range(1, n + 1)):
        p = Permutation(values)
        _valid(p.bsort())
        _valid(p.ssort())
        _valid(standardize(tuple(3 * v - n for v in values)))
        for size in (1, 2):
            for X in combinations(range(1, n + size + 1), size):
                _valid(attach_tail(p, X))
