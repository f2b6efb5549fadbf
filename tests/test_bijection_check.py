"""The tail-peeling round-trip check of ``verify``: what it reports when the
maps are wrong, and which cases it runs."""

from collections import Counter
from itertools import combinations, permutations
from math import factorial

from descpoly import verify
from descpoly.permutation import DescentSetSpec, Permutation, attach_tail, enumerate_bounded_drop

_attach, _detach = verify.attach_tail, verify.detach_tail


def _swapped_attach(p, xs):
    # reattaches a two-value tail to (2, 3, 1) with its last two entries swapped
    q = _attach(p, xs)
    if p.values == (2, 3, 1) and len(set(xs)) == 2:
        v = q.values
        return Permutation(v[:-2] + (v[-1], v[-2]))
    return q


def _tuple_detach(p, spec):
    # hands back a sorted tuple, not a set, for tails of three or more values
    # peeled off a non-identity prefix; attach_tail takes any iterable, so only
    # the attach-then-peel half can see it
    sigma, xs = _detach(p, spec)
    if len(xs) >= 3 and sigma.maxdrop() >= 1:
        return sigma, tuple(sorted(xs))
    return sigma, xs


def test_bijection_round_trip_check_can_fail(monkeypatch):
    monkeypatch.setattr(verify, "attach_tail", _swapped_attach)
    result = verify.check_bijection_round_trip(7, 0)
    assert not result.ok
    assert result.detail == "n=5 k=4 p=(4, 5, 3, 2, 1) S=[4]: got (4, 5, 3, 1, 2)"

    monkeypatch.setattr(verify, "attach_tail", _attach)
    monkeypatch.setattr(verify, "detach_tail", _tuple_detach)
    for nmax in (6, 7):
        result = verify.check_bijection_round_trip(nmax, 0)
        assert not result.ok
        assert result.detail == (
            "m=2 k=4 X=[1, 2, 3] T=[]: got (Permutation(values=(2, 1)), (1, 2, 3))"
        )


def _reversed(p):
    return Permutation(p.values[::-1])


def _reversing_detach(p, spec):
    sigma, xs = _detach(p, spec)
    return _reversed(sigma), xs


def _reversing_attach(sigma, xs):
    return _attach(_reversed(sigma), xs)


def _mirror(xs, n):
    return frozenset(n + 1 - x for x in xs)


def _mirroring_detach(p, spec):
    sigma, xs = _detach(p, spec)
    return sigma, _mirror(xs, spec.n)


def _mirroring_attach(sigma, xs):
    xs = set(xs)
    return _attach(sigma, _mirror(xs, len(sigma.values) + len(xs)))


# Each pair below is still a bijection, so both round trips hold; only the
# drop bound of the peeled prefix, the tail or the joined permutation breaks.


def test_bijection_check_fails_when_the_peeled_prefix_breaks_the_bound(monkeypatch):
    monkeypatch.setattr(verify, "detach_tail", _reversing_detach)
    monkeypatch.setattr(verify, "attach_tail", _reversing_attach)
    result = verify.check_bijection_round_trip(6, 0)
    assert not result.ok
    assert result.detail == "n=3 k=0 p=(1, 2, 3) S=[]: peeled (2, 1) drops by more than k"


def test_bijection_check_fails_when_the_tail_leaves_the_pool(monkeypatch):
    monkeypatch.setattr(verify, "detach_tail", _mirroring_detach)
    monkeypatch.setattr(verify, "attach_tail", _mirroring_attach)
    result = verify.check_bijection_round_trip(6, 0)
    assert not result.ok
    assert result.detail == "n=2 k=0 p=(1, 2) S=[]: tail [1] not within [2, 2]"


def test_bijection_check_fails_when_the_joined_permutation_breaks_the_bound(monkeypatch):
    # While both round trips hold, a forward half that keeps the bound forces
    # the reverse half to keep it too (detach is then a bijection between two
    # sets of equal size), so no fault breaks the reverse bound alone.  Empty
    # the forward half to reach the reverse assertion.
    monkeypatch.setattr(verify, "detach_tail", _reversing_detach)
    monkeypatch.setattr(verify, "attach_tail", _reversing_attach)
    monkeypatch.setattr(verify, "enumerate_bounded_drop", lambda n, k: iter(()))
    result = verify.check_bijection_round_trip(6, 0)
    assert not result.ok
    assert result.detail == "m=2 k=0 X=[3]: joined (2, 1, 3) drops by more than k"


def _subsets(items):
    items = sorted(items)
    return [frozenset(c) for r in range(len(items) + 1) for c in combinations(items, r)]


def _cases_over_every_k(nmax):
    """The check's cases as a loop over every k lists them, repeats and all:
    forward peels (p, S) and the outputs (p, peeled) that reattachment undoes,
    then reverse attachments (p, X) and the peels (joined, T) that undo them."""
    forward, forward_attach, reverse_attach, reverse_detach = [], [], [], []
    for n in range(1, nmax + 1):
        for k in range(n):
            for p in enumerate_bounded_drop(n, k):
                for S in _subsets(p.descent_set()):
                    sigma, xs = _detach(p, DescentSetSpec(n, S))
                    forward.append((p.values, S))
                    forward_attach.append((p.values, (sigma.values, xs)))
    for m in range(nmax):
        for values in permutations(range(1, m + 1)):
            p = Permutation(values)
            for k in range(p.maxdrop(), nmax):
                for i in range(nmax - m):
                    n = m + i + 1
                    forced = frozenset(range(m + 1, m + i + 1))
                    for X in combinations(range(max(1, n - k), n + 1), i + 1):
                        reverse_attach.append((values, frozenset(X)))
                        joined = attach_tail(p, X).values
                        reverse_detach += [(joined, T | forced) for T in _subsets(p.descent_set())]
    return forward, forward_attach, reverse_attach, reverse_detach


def test_bijection_round_trip_runs_each_case_once(monkeypatch):
    # A peel of the permutation attach_tail just built belongs to the reverse
    # half, and a reattachment of the prefix detach_tail just peeled to the
    # forward half, where it is recorded with the permutation it came from.
    # Every S of one tail length peels p alike, and the forward half
    # reattaches each distinct output of p once.
    last = {"peeled": (None, None), "attached": None}
    forward_detach, forward_attach, reverse_attach, reverse_detach = [], [], [], []

    def recording_detach(p, spec):
        out = _detach(p, spec)
        case = (p.values, spec.positions)
        (reverse_detach if p is last["attached"] else forward_detach).append(case)
        last["peeled"] = out
        return out

    def recording_attach(sigma, xs):
        out = _attach(sigma, xs)
        if sigma is last["peeled"][0]:
            forward_attach.append((forward_detach[-1][0], (sigma.values, xs)))
        else:
            reverse_attach.append((sigma.values, frozenset(xs)))
        last["attached"] = out
        return out

    monkeypatch.setattr(verify, "detach_tail", recording_detach)
    monkeypatch.setattr(verify, "attach_tail", recording_attach)
    assert verify.check_bijection_round_trip(6, 0).ok
    recorded = (forward_detach, forward_attach, reverse_attach, reverse_detach)
    for got, want in zip(recorded, _cases_over_every_k(6)):
        # each case once: the same cases as a loop over every k, with no repeat
        assert Counter(got) == Counter(set(want))
    # p = (2, 1, 4, 3) has four descent subsets but two tail lengths
    assert [peel for p, peel in forward_attach if p == (2, 1, 4, 3)] == [
        ((2, 1, 3), frozenset({3})),
        ((2, 1), frozenset({3, 4})),
    ]


def test_bijection_check_reports_a_peel_fault_past_the_first_of_its_tail_length(monkeypatch):
    # S = [2] is the second descent subset of p with tail length 0 (after []),
    # so its peel is not the one the check reattached first for p
    def faulty_detach(p, spec):
        sigma, xs = _detach(p, spec)
        if p.values == (2, 5, 1, 4, 3) and spec.positions == {2}:
            return _reversed(sigma), xs
        return sigma, xs

    monkeypatch.setattr(verify, "detach_tail", faulty_detach)
    for nmax in (5, 7):
        result = verify.check_bijection_round_trip(nmax, 0)
        assert not result.ok
        assert result.detail == "n=5 k=2 p=(2, 5, 1, 4, 3) S=[2]: got (4, 1, 5, 2, 3)"


def test_bijection_round_trip_draws_each_permutation_once(monkeypatch):
    # the forward half needs every permutation of [n] once, for each n <= nmax
    drawn = []

    def counting_enumerate(n, k):
        for p in enumerate_bounded_drop(n, k):
            drawn.append(p)
            yield p

    monkeypatch.setattr(verify, "enumerate_bounded_drop", counting_enumerate)
    assert verify.check_bijection_round_trip(7, 0).ok
    assert len(drawn) == sum(factorial(n) for n in range(1, 8)) == 5913


def test_bijection_round_trip_peels_each_permutation_as_it_is_drawn(monkeypatch):
    # the forward half holds one permutation at a time: it peels the one just
    # drawn while enumerate_bounded_drop(n, n - 1) is still running
    drawn, running, peeled_while_running = [], set(), set()

    def drawing_enumerate(n, k):
        running.add(n)
        for p in enumerate_bounded_drop(n, k):
            drawn.append(p)
            yield p
        running.discard(n)

    def recording_detach(p, spec):
        if running:
            assert p is drawn[-1]
            peeled_while_running.add(spec.n)
        return _detach(p, spec)

    monkeypatch.setattr(verify, "enumerate_bounded_drop", drawing_enumerate)
    monkeypatch.setattr(verify, "detach_tail", recording_detach)
    assert verify.check_bijection_round_trip(6, 0).ok
    assert not running
    assert peeled_while_running == set(range(1, 7))
