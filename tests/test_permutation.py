import copy
import hashlib
import pickle
import random
import sys
from itertools import combinations, permutations
from math import comb
from pathlib import Path
from threading import Barrier, Thread

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descpoly import permutation, verify
from descpoly.descent import descent_poly_by_enumeration, descent_poly_by_recurrence
from descpoly.permutation import (
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
from descpoly.polynomial import IntPoly

from oracles import (
    bounded_drop_by_filter,
    bubble_pass,
    descent_count,
    descent_superset_by_filter,
    descent_superset_multinomial,
    eulerian_number,
    max_drop,
    missing_descents,
    stack_pass,
    standardize_word,
    tail_run_length,
)
from test_juggling import _bounded_drop_sample


def test_constructor_rejects_non_permutations():
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_constructor_takes_exact_integer_entries():
    with pytest.raises(TypeError):
        Permutation((2.0, 1.0))
    with pytest.raises(TypeError):
        attach_tail(Permutation((1,)), {2.0})
    p = Permutation((True,))
    assert p.values == (1,) and type(p.values[0]) is int
    assert [type(v) for v in Permutation((2, True)).values] == [int, int]


def test_descent_set():
    assert sorted(Permutation((1, 3, 8, 4, 2, 5, 9, 7, 6)).descent_set()) == [3, 4, 7, 8]
    assert Permutation((1, 2, 3)).descent_set() == frozenset()
    p = Permutation((3, 1, 4, 2))
    assert p.descent_set() == frozenset({1, 3})
    assert len(p.descent_set()) == 2


@pytest.mark.parametrize("values", [(1, 3, 8, 4, 2, 5, 9, 7, 6), (2, 1), (1,), ()])
def test_the_kept_descent_set_is_invisible(values):
    fresh = Permutation(values)
    before = (hash(fresh), repr(fresh), pickle.loads(pickle.dumps(fresh)))
    used = Permutation(values)
    descents = used.descent_set()
    assert used.descent_set() is descents  # computed once, then kept
    twins = [used, copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))]
    for twin in twins:
        assert twin == fresh and (hash(twin), repr(twin), twin) == before
        assert repr(twin) == f"Permutation(values={values})"
    want = frozenset(i for i in range(1, len(values)) if values[i - 1] > values[i])
    assert [twin.descent_set() for twin in twins] == [want] * 4 == [fresh.descent_set()] * 4
    assert (hash(fresh), repr(fresh), pickle.loads(pickle.dumps(fresh))) == before


def test_maxdrop():
    assert Permutation.identity(5).maxdrop() == 0
    assert Permutation((3, 1, 2)).maxdrop() == 1
    assert Permutation((3, 2, 1)).maxdrop() == 2
    assert Permutation(()).maxdrop() == 0


def test_bsort_examples():
    assert Permutation((3, 2, 1)).bsort() == Permutation((2, 1, 3))
    assert Permutation.identity(4).bsort() == Permutation.identity(4)
    assert Permutation((2, 1)).bsort() == Permutation((1, 2))
    assert Permutation(()).bsort() == Permutation(())


def test_ssort_examples():
    assert Permutation((2, 3, 1)).ssort() == Permutation((2, 1, 3))
    assert Permutation.identity(4).ssort() == Permutation.identity(4)
    assert Permutation((3, 2, 1)).ssort() == Permutation((1, 2, 3))
    assert Permutation(()).ssort() == Permutation(())


def test_bsc():
    assert Permutation.identity(6).bsc() == 0
    assert Permutation((3, 2, 1)).bsc() == 2
    assert Permutation(()).bsc() == 0


@pytest.mark.parametrize("n", range(8))
def test_bsc_equals_maxdrop(n):
    for vals in permutations(range(1, n + 1)):
        p = Permutation(vals)
        assert p.bsc() == p.maxdrop()


@pytest.mark.parametrize("n", range(1, 8))
def test_bsort_lowers_maxdrop(n):
    for vals in permutations(range(1, n + 1)):
        p = Permutation(vals)
        assert p.bsort().maxdrop() <= max(p.maxdrop() - 1, 0)


@pytest.mark.parametrize("n", range(8))
def test_stack_sort_at_least_as_fast(n):
    ident = Permutation.identity(n)
    for vals in permutations(range(1, n + 1)):
        p = Permutation(vals)
        q = p
        for _ in range(p.bsc()):
            q = q.ssort()
        assert q == ident


def test_passes_match_split_at_maximum_definitions():
    for n in range(9):
        for vals in permutations(range(1, n + 1)):
            p = Permutation(vals)
            assert p.bsort().values == bubble_pass(vals), vals
            assert p.ssort().values == stack_pass(vals), vals


def test_passes_are_not_recursive_at_large_n():
    # maxdrop 1: swap each adjacent pair, so one bubble pass sorts it
    n = 10**4
    p = Permutation(v for i in range(1, n, 2) for v in (i + 1, i))
    assert p.maxdrop() == 1
    assert p.bsort() == Permutation.identity(n)
    assert p.ssort() == Permutation.identity(n)
    assert p.bsc() == 1


def test_bsc_termination_guard(monkeypatch):
    # a pass that sorts nothing must end in an exception, not a loop
    monkeypatch.setattr(permutation, "_bsort_word", lambda w: w)
    with pytest.raises(RuntimeError):
        Permutation((2, 1)).bsc()


def test_standardize():
    assert standardize((1, 9, 4, 5, 2)) == Permutation((1, 5, 3, 4, 2))
    assert standardize((1, 2, 3)) == Permutation((1, 2, 3))
    assert standardize((1, 3, 8, 4, 2, 5)) == Permutation((1, 3, 6, 4, 2, 5))
    with pytest.raises(ValueError):
        standardize((2, 2))


def test_unstandardize():
    assert unstandardize(Permutation((1, 5, 3, 4, 2)), {1, 2, 4, 5, 9}) == (1, 9, 4, 5, 2)
    p = Permutation((4, 1, 3, 2))
    assert unstandardize(p, range(1, 5)) == p.values
    assert unstandardize(Permutation((3, 1, 4, 2)), {1, 2, 3, 5}) == (3, 1, 5, 2)
    with pytest.raises(ValueError):
        unstandardize(Permutation((1, 2)), {1, 2, 3})
    # a repeated ground value is rejected, not collapsed onto a smaller set
    with pytest.raises(ValueError, match="distinct"):
        unstandardize(Permutation((2, 1)), [5, 5, 7])
    with pytest.raises(ValueError, match="distinct"):
        unstandardize(Permutation((2, 1)), [5, 5])


@given(
    st.sets(st.integers(1, 40), min_size=1, max_size=8).flatmap(
        lambda ground: st.permutations(sorted(ground))
    )
)
def test_standardize_round_trip_and_descents(word):
    word = tuple(word)
    p = standardize(word)
    assert unstandardize(p, word) == word
    word_descents = frozenset(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])
    assert word_descents == p.descent_set()


def test_tail_length():
    assert DescentSetSpec(9, {3, 7, 8}).tail_length() == 2
    assert DescentSetSpec(5, ()).tail_length() == 0
    assert DescentSetSpec(4, {1, 2, 3}).tail_length() == 3
    # worked out once, in the constructor, for every position set at n <= 8
    for n in range(9):
        for r in range(n + 1):
            for S in combinations(range(1, n), r):
                assert DescentSetSpec(n, S).tail_length() == tail_run_length(n, S), (n, S)
    # the kept length stays out of the repr, as it does out of equality and hashing
    assert repr(DescentSetSpec(4, {2, 3})) == "DescentSetSpec(n=4, positions=frozenset({2, 3}))"


def test_detach_tail_raises_exactly_when_a_required_descent_is_missing():
    for n in range(1, 7):
        specs = [DescentSetSpec(n, S) for r in range(n) for S in combinations(range(1, n), r)]
        for values in permutations(range(1, n + 1)):
            p = Permutation(values)
            for spec in specs:
                missing = missing_descents(values, spec.positions)
                if missing:
                    with pytest.raises(ValueError) as raised:
                        detach_tail(p, spec)
                    assert str(raised.value) == f"required descents {missing} absent from {values}"
                else:
                    detach_tail(p, spec)


def test_descent_set_spec_validates_positions():
    with pytest.raises(ValueError):
        DescentSetSpec(4, {4})
    with pytest.raises(ValueError):
        DescentSetSpec(3, {0})


def test_descent_set_spec_takes_exact_integer_positions():
    # a fractional position used to be ignored by the recurrence count (8)
    # and matched by no permutation in the brute count (0)
    with pytest.raises(TypeError):
        DescentSetSpec(4, {1.5})
    with pytest.raises(TypeError):
        DescentSetSpec(4, {2.0})
    spec = DescentSetSpec(3, {True})
    assert spec.positions == {1} and [type(x) for x in spec.positions] == [int]
    assert count_descent_superset(spec, 1) == descent_superset_by_filter(3, spec.positions, 1)


def test_descent_set_spec_takes_an_exact_nonnegative_length():
    # a float length used to reach the recurrence count (4) while the brute
    # count raised, and a negative one failed later inside factorial()
    with pytest.raises(TypeError):
        DescentSetSpec(4.0, {1})
    with pytest.raises(ValueError, match="negative"):
        DescentSetSpec(-2, ())
    spec = DescentSetSpec(True, ())
    assert spec.n == 1 and type(spec.n) is int
    assert count_descent_superset(DescentSetSpec(0), 0) == 1


def test_detach_tail_worked_example():
    sigma, tail = detach_tail(
        Permutation((1, 3, 8, 4, 2, 5, 9, 7, 6)), DescentSetSpec(9, {3, 7, 8})
    )
    assert sigma == Permutation((1, 3, 6, 4, 2, 5))
    assert tail == frozenset({6, 7, 9})


def test_detach_tail_empty_spec():
    p = Permutation((2, 1, 3))
    sigma, tail = detach_tail(p, DescentSetSpec(3, ()))
    assert sigma == standardize((2, 1))
    assert tail == frozenset({3})


# the bound of the standardization memo, as the README documents it
RANKS_BOUND = 4
# the memo's counts over check_bijection_round_trip(7, 7) from an empty memo:
# 105,218 peels, of which 20,308 rank a prefix
ROUND_TRIP_HITS, ROUND_TRIP_MISSES = 84_910, 20_308


def test_detach_tail_matches_the_rank_oracle_on_every_peel():
    # every (p, S) with S inside Des(p) for n <= 7, in the order that makes the
    # peels of one p repeat their prefix, so the memo's hits are checked too
    permutation._ranks.cache_clear()
    cases = 0
    for n in range(1, 8):
        for values in permutations(range(1, n + 1)):
            p = Permutation(values)
            descents = sorted(p.descent_set())
            for r in range(len(descents) + 1):
                for S in combinations(descents, r):
                    tail = 0
                    while n - 1 - tail in S:
                        tail += 1
                    cut = n - tail - 1
                    sigma, xs = detach_tail(p, DescentSetSpec(n, S))
                    assert sigma.values == standardize_word(values[:cut]), (values, S)
                    assert xs == frozenset(values[cut:])
                    cases += 1
    # a permutation with d descents has 2^d sets S: the Eulerian numbers weighted by 2^d
    assert cases == sum(eulerian_number(n, d) * 2**d for n in range(1, 8) for d in range(n))
    assert permutation._ranks.cache_info().hits > permutation._ranks.cache_info().misses


def test_the_standardization_memo_keeps_its_documented_bound():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    assert f"`functools.lru_cache(maxsize={RANKS_BOUND})` that serves `detach_tail` only" in readme
    permutation._ranks.cache_clear()
    # the first 10 * RANKS_BOUND permutations of [5] have distinct 4-entry prefixes
    perms = list(permutations(range(1, 6)))[: 10 * RANKS_BOUND]
    for values in perms:
        sigma, xs = detach_tail(Permutation(values), DescentSetSpec(5))
        assert sigma.values == standardize_word(values[:4]) and xs == {values[4]}
        info = permutation._ranks.cache_info()
        assert info.maxsize == RANKS_BOUND and info.currsize <= RANKS_BOUND
    info = permutation._ranks.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 10 * RANKS_BOUND, RANKS_BOUND)
    # the last RANKS_BOUND prefixes are still held; the one before them is not
    for values in perms[-RANKS_BOUND:]:
        detach_tail(Permutation(values), DescentSetSpec(5))
    assert permutation._ranks.cache_info().hits == RANKS_BOUND
    detach_tail(Permutation(perms[-RANKS_BOUND - 1]), DescentSetSpec(5))
    assert permutation._ranks.cache_info().misses == 10 * RANKS_BOUND + 1


def test_standardize_gives_equal_results_for_a_list_and_a_tuple():
    for first, second in [([7, 2, 9, 4], (7, 2, 9, 4)), ((8, 3, 6), [8, 3, 6])]:
        assert standardize(first) == standardize(second) == Permutation(standardize_word(first))


def test_a_repeated_entry_raises_and_standardize_leaves_the_memo_alone():
    before = permutation._ranks.cache_info()
    assert standardize((4, 9, 2)).values == (2, 3, 1)
    for word in [(4, 9, 2, 9), (4, 9, 9), [4, 4, 9, 2], (2, 2)]:
        with pytest.raises(ValueError, match="distinct"):
            standardize(word)
    # only detach_tail's prefixes go through the memo
    assert permutation._ranks.cache_info() == before
    assert standardize((4, 9, 2)).values == (2, 3, 1)


def test_detach_tail_from_concurrent_threads():
    # more threads than cores and a short switch interval, so the threads
    # interleave inside the memo; overlapping case lists make them share entries
    specs = [DescentSetSpec(5, S) for S in [(), (4,), (3, 4), (2, 4)]]
    cases = [
        (p, spec)
        for p in map(Permutation, permutations(range(1, 6)))
        for spec in specs
        if spec.positions <= p.descent_set()
    ]
    want = {}
    for p, spec in cases:
        cut = 4 - spec.tail_length()
        want[p, spec] = (standardize_word(p.values[:cut]), frozenset(p.values[cut:]))
    start, wrong = Barrier(4), []

    def work(shift):
        start.wait(timeout=30)
        for _ in range(20):
            for p, spec in cases[shift:] + cases[:shift]:
                sigma, xs = detach_tail(p, spec)
                if (sigma.values, xs) != want[p, spec]:
                    wrong.append((p, spec))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=work, args=(shift,)) for shift in (0, 3, 11, 30)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_the_memo_serves_the_round_trip_and_not_the_standardization_check():
    # deterministic counts at the verify defaults, (7, 7): a standardize sent
    # back through the memo would move both
    permutation._ranks.cache_clear()
    assert verify.check_bijection_round_trip(7, 7).ok
    info = permutation._ranks.cache_info()
    assert (info.hits, info.misses) == (ROUND_TRIP_HITS, ROUND_TRIP_MISSES)
    assert verify.check_standardization(7, 7).ok
    assert permutation._ranks.cache_info() == info


def test_detach_tail_has_nothing_to_peel_off_the_empty_permutation():
    # an empty tail would be one that attach_tail rejects
    with pytest.raises(ValueError, match="nothing to peel"):
        detach_tail(Permutation(()), DescentSetSpec(0))


def test_detach_tail_requires_descents():
    with pytest.raises(ValueError):
        detach_tail(Permutation((1, 2, 3)), DescentSetSpec(3, {1}))


def test_attach_tail_worked_example():
    assert attach_tail(Permutation((3, 1, 4, 2)), {4, 6, 7}) == Permutation(
        (3, 1, 5, 2, 7, 6, 4)
    )


def test_attach_tail_base_case():
    assert attach_tail(Permutation((1,)), {2}) == Permutation((1, 2))


def test_attach_tail_validates():
    with pytest.raises(ValueError):
        attach_tail(Permutation((1, 2)), set())
    with pytest.raises(ValueError):
        attach_tail(Permutation((1, 2)), {9})
    # a repeated tail value is rejected, not collapsed onto a shorter tail
    with pytest.raises(ValueError, match="distinct"):
        attach_tail(Permutation((1, 2)), [3, 3])
    with pytest.raises(ValueError, match="distinct"):
        attach_tail(Permutation((1,)), iter([2, 2]))


def _subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


@pytest.mark.parametrize("n", range(1, 7))
def test_detach_attach_round_trip(n):
    for k in range(n):
        for p in enumerate_bounded_drop(n, k):
            for S in _subsets(p.descent_set()):
                sigma, tail = detach_tail(p, DescentSetSpec(n, S))
                assert attach_tail(sigma, tail) == p


def test_attach_detach_round_trip_b63():
    # opposite direction on the length-3-core domain
    for m in range(0, 4):
        perms_m = [Permutation(())] if m == 0 else [
            Permutation(v) for v in permutations(range(1, m + 1))
        ]
        for p in perms_m:
            for k in range(p.maxdrop(), 6):
                for i in range(0, 6 - m):
                    n = m + i + 1
                    for X in combinations(range(max(1, n - k), n + 1), i + 1):
                        for T in _subsets(p.descent_set()):
                            S = T | frozenset(range(m + 1, m + i + 1))
                            joined = attach_tail(p, X)
                            assert detach_tail(joined, DescentSetSpec(n, S)) == (
                                p,
                                frozenset(X),
                            )


@pytest.mark.parametrize("n,k", [(4, 2), (3, 0), (3, 1), (0, 0), (5, 4)])
def test_enumerate_bounded_drop_matches_filter(n, k):
    got = sorted(p.values for p in enumerate_bounded_drop(n, k))
    assert got == sorted(bounded_drop_by_filter(n, k))


def test_enumerate_bounded_drop_examples():
    assert sum(1 for _ in enumerate_bounded_drop(4, 2)) == 18
    assert list(enumerate_bounded_drop(3, 0)) == [Permutation.identity(3)]
    assert sorted(p.values for p in enumerate_bounded_drop(3, 1)) == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (3, 1, 2),
    ]


def test_enumeration_order_and_descent_counts_are_pinned():
    # every (n, k) with 0 <= k <= n <= 8: the order enumerate_bounded_drop
    # yields, and the enumeration route's polynomial, each digested whole
    order, polys = hashlib.sha256(), hashlib.sha256()
    for n in range(9):
        for k in range(n + 1):
            order.update(b"%d %d\n" % (n, k))
            for p in enumerate_bounded_drop(n, k):
                order.update(bytes(p.values) + b"\n")
            polys.update(b"%d %d %r\n" % (n, k, descent_poly_by_enumeration(n, k).coeffs))
    assert order.hexdigest() == "e32786b6ed0bb70241bd0e9187eb0b0e4583136de075009e1da2898e558a817b"
    assert polys.hexdigest() == "f7dda1f606d16fef97ff657ef85c3d61ae5a8e918f182fc56768d2d1fef36c19"


def _counts(n, k):
    # how many words the generator yields, and how many distinct ones
    words = [bytes(p.values) for p in enumerate_bounded_drop(n, k)]
    return len(words), len(set(words))


@pytest.mark.parametrize("n", range(10))
def test_enumeration_count_formula(n):
    for k in range(n + 1):
        assert _counts(n, k) == (bounded_drop_count(n, k),) * 2


def _in_generation_order(words):
    # positions are filled right to left, each from its smallest choice up
    return sorted(words, key=lambda w: w[::-1])


@pytest.mark.parametrize("m", range(2, 6))
def test_block_table_is_the_bounded_drop_class(m):
    for k in range(m + 1):
        table = permutation._block_table(m, min(k, m - 1))
        got = [tuple(i + 1 for i in w) for w, _ in table]
        assert got == _in_generation_order(bounded_drop_by_filter(m, k)), k
        assert [d for _, d in table] == [len(Permutation(w).descent_set()) for w in got], k


def test_block_tables_stay_few():
    permutation._block_table.cache_clear()
    for n in range(10):
        for k in range(n + 1):
            next(enumerate_bounded_drop(n, k))
            descent_poly_by_enumeration(n, k)
    assert permutation._block_table.cache_info().currsize == 14


def test_a_wrong_block_table_fails(monkeypatch):
    real = permutation._block_table

    def one_word_swapped(m, k):
        # the first word in generation order replaced by the last
        table = real(m, k)
        return table[-1:] + table[1:]

    monkeypatch.setattr(permutation, "_block_table", one_word_swapped)
    result = verify.check_route_agreement(7, 7)
    assert not result.ok
    assert result.detail == "n=2 k=1: enumeration=[2] recurrence=[1, 1] closed_form=[1, 1]"
    # the table keeps its length, so the swapped word shows as a repeat
    words, distinct = _counts(9, 5)
    assert words == bounded_drop_count(9, 5) != distinct


def _nodes_by_filter(words, stop):
    # words of the class in generation order, grouped by the values at positions
    # stop+1..n in first-seen order: each group's open values and tail descents
    groups = {}
    for w in words:
        groups.setdefault(w[stop:], w[:stop])
    return [(tuple(sorted(head)), tail, descent_count(tail)) for tail, head in groups.items()]


@pytest.mark.parametrize("n", range(9))
def test_bounded_drop_nodes_at_every_stop(n):
    # the symmetric group in generation order, each word with its drop, so
    # that the class at each k is a filter of it
    ordered = [(w, max_drop(w)) for w in _in_generation_order(bounded_drop_by_filter(n, n))]
    for k in range(n + 1):
        words = [w for w, drop in ordered if drop <= k]
        for stop in range(n + 1):
            got = list(permutation.bounded_drop_nodes(n, k, stop))
            assert got == _nodes_by_filter(words, stop), (k, stop)


def test_enumeration_far_past_the_route_cap():
    # 2,995 one-choice ranges past the table, then 2^13 words at (14, 1)
    assert list(enumerate_bounded_drop(3000, 0)) == [Permutation.identity(3000)]
    assert _counts(14, 1) == (2**13, 2**13)


def test_count_descent_superset_examples():
    assert count_descent_superset(DescentSetSpec(3, ()), 1) == 4
    spec = DescentSetSpec(5, {4})
    assert count_descent_superset(spec, 2) == descent_superset_by_filter(5, {4}, 2)


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_count_descent_superset_far_past_recursion_limit(k):
    n = 10**4
    assert count_descent_superset(DescentSetSpec(n, ()), k) == bounded_drop_count(n, k)


def test_count_descent_superset_at_scale_with_required_positions():
    # 2,000 blocks of length 2; the leftmost has C(2, 2) = 1 choice, the rest
    # C(4, 2) = 6 at k = 3, and none can descend at k = 0
    spec = DescentSetSpec(4000, range(1, 4000, 2))
    assert count_descent_superset(spec, 3) == 6**1999
    assert count_descent_superset(spec, 0) == 0


@pytest.mark.parametrize("n", range(7))
def test_count_descent_superset_exhaustive(n):
    for k in range(n + 2):
        for S in _subsets(range(1, n)):
            spec = DescentSetSpec(n, S)
            want = descent_superset_by_filter(n, S, k)
            assert count_descent_superset(spec, k) == want, (n, k, sorted(S))
            if k >= n - 1:
                assert descent_superset_multinomial(n, S) == want, (n, k, sorted(S))


def _descent_polys_by_superset_counts(n, ks):
    # D_{n,k}(y) = sum over S in [n-1] of beta_k(S) (y - 1)^|S|, as every
    # permutation p has sum over S in Des(p) of (y - 1)^|S| = y^des(p)
    by_size = {k: [0] * max(n, 1) for k in ks}
    for S in _subsets(range(1, n)):
        spec = DescentSetSpec(n, S)
        for k in ks:
            by_size[k][len(S)] += count_descent_superset(spec, k)
    y_minus_1 = IntPoly((-1, 1))
    return {k: sum((y_minus_1**j * b for j, b in enumerate(bs)), IntPoly()) for k, bs in by_size.items()}


@pytest.mark.parametrize("n", range(1, 15))
def test_descent_set_identity_gives_the_descent_polynomial(n):
    got = _descent_polys_by_superset_counts(n, range(n))
    for k in range(n):
        assert got[k] == descent_poly_by_recurrence(n, k), k


def test_descent_set_identity_can_fail(monkeypatch):
    # C(4, 3) one too large: a block of three peeled at k = 3
    monkeypatch.setattr(permutation, "comb", lambda a, b: comb(a, b) + ((a, b) == (4, 3)))
    assert _descent_polys_by_superset_counts(10, [3])[3] != descent_poly_by_recurrence(10, 3)


@pytest.mark.parametrize("n,k", [(10**4, 1), (10**4, 5), (2000, 12)])
def test_detach_attach_round_trip_at_scale(n, k):
    # seeded samples, each peeled at its whole descent set and at a random half of it
    rng = random.Random(n + k)
    for _ in range(10):
        p = Permutation(_bounded_drop_sample(n, k, rng))
        descents = p.descent_set()
        for S in (descents, frozenset(i for i in descents if rng.random() < 0.5)):
            sigma, tail = detach_tail(p, DescentSetSpec(n, S))
            assert attach_tail(sigma, tail) == p
            assert sigma.maxdrop() <= k and min(tail) >= n - k, sorted(tail)


@pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 128, 300])
def test_count_descent_superset_vacuous_bound_is_the_multinomial(n):
    # at k >= n-1 no permutation of [n] drops by more than k
    rng = random.Random(n)
    for positions in [
        (),
        range(1, n),
        range(1, n, 2),
        [i for i in range(1, n) if rng.random() < 0.5],
    ]:
        spec = DescentSetSpec(n, positions)
        want = descent_superset_multinomial(n, spec.positions)
        for k in (n - 1, n, n + 5):
            assert count_descent_superset(spec, k) == want, (n, k, sorted(spec.positions))


def test_standardization_check_can_fail(monkeypatch):
    real = verify.standardize
    monkeypatch.setattr(
        verify, "standardize", lambda w: Permutation.identity(3) if len(w) == 3 else real(w)
    )
    result = verify.check_standardization(5, 0)
    assert not result.ok
    assert result.detail == "ground=(1, 2, 3) p=(1, 3, 2): round trip gave (1, 2, 3)"

    # an increasing word has no descents; hand back the permutation it came from
    last = []
    monkeypatch.setattr(verify, "standardize", lambda w: last[-1])
    monkeypatch.setattr(verify, "unstandardize", lambda p, g: last.append(p) or tuple(sorted(g)))
    result = verify.check_standardization(5, 0)
    assert not result.ok
    assert result.detail == "ground=(1, 2) p=(2, 1): descent sets differ"
