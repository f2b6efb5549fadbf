import copy
import csv
import io
import pickle
import random
import sys
from itertools import permutations

import pytest

from descpoly import juggling
from descpoly.cli import main
from descpoly.juggling import (
    DropExceedsK,
    JugglingSequence,
    _remove_ball_word,
    remove_ball,
    throw_sequence,
)
from descpoly.permutation import Permutation, _bsort_word, enumerate_bounded_drop

from oracles import bubble_pass, json_text, max_drop, remove_ball_word


def test_constructor_validates():
    with pytest.raises(ValueError):
        JugglingSequence(())
    with pytest.raises(ValueError):
        JugglingSequence((1, -1))


def test_constructor_takes_exact_integer_heights():
    with pytest.raises(TypeError):
        JugglingSequence((2.0, 0))
    with pytest.raises(TypeError):
        throw_sequence(Permutation((1,)), 1.0)
    T = JugglingSequence((True, False))
    assert T.throws == (1, 0) and [type(t) for t in T.throws] == [int, int]


def test_five_throw_example_sequence():
    T = JugglingSequence((3, 5, 0, 2, 0))
    assert T.is_valid()
    assert T.ball_count() == 2


def test_validity():
    assert JugglingSequence((1, 1)).is_valid()
    assert not JugglingSequence((2, 1)).is_valid()
    assert JugglingSequence((0, 0, 0)).is_valid()
    assert JugglingSequence((0, 0, 0)).ball_count() == 0


def test_ball_count_requires_validity():
    # the kept verdict is False, and every call still raises
    T = JugglingSequence((2, 1))
    for _ in range(3):
        assert not T.is_valid()
        with pytest.raises(ValueError, match=r"not a valid juggling sequence: \(2, 1\)"):
            T.ball_count()


@pytest.mark.parametrize("throws", [(3, 5, 0, 2, 0), (2, 1), (0,)])
def test_validity_memo_is_invisible(throws):
    used = JugglingSequence(throws)
    verdict = used.is_valid()
    fresh = JugglingSequence(throws)
    twins = [used, copy.copy(used), copy.deepcopy(used), pickle.loads(pickle.dumps(used))]
    for twin in twins:
        assert twin == fresh and hash(twin) == hash(fresh)
        assert repr(twin) == repr(fresh) == f"JugglingSequence(throws={throws})"
    assert [twin.is_valid() for twin in twins] == [verdict] * 4 == [fresh.is_valid()] * 4


def test_one_juggle_command_computes_validity_once(capsys, monkeypatch):
    # the landing-set test is the module's one enumerate call; record each
    seen = []

    def counted(throws):
        seen.append(throws)
        return enumerate(throws)

    monkeypatch.setattr(juggling, "enumerate", counted, raising=False)
    for fmt in ("plain", "json", "csv"):
        seen.clear()
        assert main(["juggle", "--perm", "3,2,1", "--k", "2", "--format", fmt]) == 0
        assert seen == [(4, 2, 0)], fmt


def test_throw_sequence_examples():
    assert throw_sequence(Permutation((2, 1)), 1).throws == (2, 0)
    assert throw_sequence(Permutation.identity(4), 3).throws == (3, 3, 3, 3)
    assert throw_sequence(Permutation((3, 2, 1)), 2).throws == (4, 2, 0)


def test_throw_sequence_rejects_large_drop():
    for k in (1, -1):
        with pytest.raises(DropExceedsK) as exc:
            throw_sequence(Permutation((2, 3, 1)), k)
        assert str(exc.value) == f"maxdrop 2 of (2, 3, 1) exceeds k={k}"
    with pytest.raises(ValueError):
        throw_sequence(Permutation(()), 1)


def test_remove_ball_examples():
    assert remove_ball(JugglingSequence((2, 0))).throws == (0, 0)
    assert remove_ball(JugglingSequence((4, 2, 0))).throws == (2, 0, 1)


def test_remove_ball_constant_cascade():
    for n in range(1, 6):
        for k in range(1, 5):
            T = throw_sequence(Permutation.identity(n), k)
            assert remove_ball(T) == throw_sequence(Permutation.identity(n), k - 1)


def test_remove_ball_needs_a_ball():
    with pytest.raises(ValueError):
        remove_ball(JugglingSequence((0, 0)))


def test_remove_ball_rejects_invalid_sequence():
    with pytest.raises(ValueError):
        remove_ball(JugglingSequence((2, 1)))


def test_remove_ball_tie_guard():
    # distinct landings are forced for valid sequences, so the ambiguity
    # guard only fires on raw words: (2, 1) lands at 3 and 3
    with pytest.raises(ValueError):
        _bsort_word((3, 3))
    with pytest.raises(ValueError):
        _remove_ball_word((2, 1))


def test_remove_ball_matches_split_at_maximum_definition():
    for n in range(1, 9):
        for vals in permutations(range(1, n + 1)):
            p = Permutation(vals)
            T = throw_sequence(p, max(p.maxdrop(), 1))
            assert remove_ball(T).throws == remove_ball_word(T.throws), vals


def test_remove_ball_word_raises_exactly_as_the_definition_does():
    rng = random.Random(7)
    for _ in range(5000):
        word = tuple(rng.randrange(6) for _ in range(rng.randrange(1, 7)))
        try:
            want = remove_ball_word(word)
        except ValueError:
            with pytest.raises(ValueError):
                _remove_ball_word(word)
        else:
            assert _remove_ball_word(word) == want, word


def test_remove_ball_at_large_n(capsys):
    n = 10**4
    p = Permutation(v for i in range(1, n, 2) for v in (i + 1, i))
    assert remove_ball(throw_sequence(p, 1)) == throw_sequence(Permutation.identity(n), 0)
    assert main(["juggle", "--perm", ",".join(map(str, p.values)), "--k", "1"]) == 0
    assert capsys.readouterr().out.endswith("bubble crosscheck: ok\n")


def test_remove_ball_outside_contract_raises():
    # valid one-ball sequence that is not a permutation encoding; the
    # transform would need a negative throw and refuses
    T = JugglingSequence((0, 3, 0))
    assert T.is_valid() and T.ball_count() == 1
    with pytest.raises(ValueError):
        remove_ball(T)


@pytest.mark.parametrize("n", range(1, 8))
def test_encoding_valid_with_k_balls(n):
    for k in range(n):
        images = set()
        for p in enumerate_bounded_drop(n, k):
            T = throw_sequence(p, k)
            assert T.is_valid()
            assert T.ball_count() == k
            images.add(T.throws)
        # injectivity: as many distinct images as permutations
        assert len(images) == sum(1 for _ in enumerate_bounded_drop(n, k))


@pytest.mark.parametrize("n", range(1, 8))
def test_remove_ball_commutes_with_bubble_pass(n):
    for k in range(1, n):
        for p in enumerate_bounded_drop(n, k):
            lhs = remove_ball(throw_sequence(p, k))
            rhs = throw_sequence(p.bsort(), k - 1)
            assert lhs == rhs, (p.values, k)


def _bounded_drop_sample(n, k, rng):
    # right to left, position i may hold any of the min(k + 1, i) largest
    # unused values, and only those keep the drop at i within k
    unused = list(range(1, n + 1))
    picked = [unused.pop(len(unused) - 1 - rng.randrange(min(k + 1, i))) for i in range(n, 0, -1)]
    return tuple(reversed(picked))


@pytest.mark.parametrize("k", [1, 5, 10])
def test_juggle_at_benchmark_scale(capsys, k):
    n = 2048
    values = _bounded_drop_sample(n, k, random.Random(1000 + k))
    assert max_drop(values) == k
    throws = tuple(k - i + v for i, v in enumerate(values, 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * n)  # the oracles recurse once per element
    try:
        reduced = remove_ball_word(throws)
        sorted_once = bubble_pass(values)
    finally:
        sys.setrecursionlimit(limit)
    assert reduced == tuple(k - 1 - i + v for i, v in enumerate(sorted_once, 1))

    argv = ["juggle", "--perm", ",".join(map(str, values)), "--k", str(k)]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"perm: {values}",
        f"throws: {throws}",
        "valid: true",
        f"balls: {k}",
        f"one ball removed: {reduced}",
        "bubble crosscheck: ok",
    ]
    assert main([*argv, "--format", "json"]) == 0
    doc = {
        "command": "juggle",
        "perm": values,
        "k": k,
        "throws": throws,
        "valid": True,
        "balls": k,
        "reduced": reduced,
        "crosscheck": "ok",
    }
    assert capsys.readouterr().out == json_text(doc) + "\n"
    assert main([*argv, "--format", "csv"]) == 0
    spaced = [" ".join(map(str, w)) for w in (values, throws, reduced)]
    assert list(csv.reader(io.StringIO(capsys.readouterr().out))) == [
        ["perm", "k", "throws", "valid", "balls", "reduced", "crosscheck"],
        [spaced[0], str(k), spaced[1], "True", str(k), spaced[2], "ok"],
    ]
