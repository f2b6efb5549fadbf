import random
from itertools import permutations

import pytest

from descpoly.cli import main
from descpoly.juggling import (
    DropExceedsK,
    JugglingSequence,
    _remove_ball_word,
    remove_ball,
    throw_sequence,
)
from descpoly.permutation import Permutation, _bsort_word, enumerate_bounded_drop

from oracles import remove_ball_word


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
    with pytest.raises(ValueError):
        JugglingSequence((2, 1)).ball_count()


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
