"""Independent brute-force oracles used only by the tests.

Everything here goes through the full symmetric group, so it stays honest at
the cost of n! work; the library must never call into this module.
"""

from itertools import permutations


def descent_count(values) -> int:
    return sum(values[i] > values[i + 1] for i in range(len(values) - 1))


def max_drop(values) -> int:
    return max((i + 1 - v for i, v in enumerate(values)), default=0)


def sn_descent_census(n: int) -> list[int]:
    """Coefficient list of the order-n Eulerian polynomial by direct count."""
    counts = [0] * max(n, 1)
    for p in permutations(range(1, n + 1)):
        counts[descent_count(p)] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def bounded_drop_by_filter(n: int, k: int) -> list[tuple[int, ...]]:
    """All maxdrop <= k permutations, found by filtering the symmetric group."""
    if n == 0:
        return [()]
    return [p for p in permutations(range(1, n + 1)) if max_drop(p) <= k]


def bounded_drop_census(n: int, k: int) -> list[int]:
    counts = [0] * max(n, 1)
    for p in bounded_drop_by_filter(n, k):
        counts[descent_count(p)] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def bubble_pass(w: tuple) -> tuple:
    """One bubble pass by its split-at-maximum definition: pass over the
    part left of the maximum, then the part right of it, then the maximum."""
    if not w:
        return w
    m = w.index(max(w))
    return bubble_pass(w[:m]) + w[m + 1 :] + (w[m],)


def stack_pass(w: tuple) -> tuple:
    """One stack pass: both sides of the maximum, each passed, then the
    maximum."""
    if not w:
        return w
    m = w.index(max(w))
    return stack_pass(w[:m]) + stack_pass(w[m + 1 :]) + (w[m],)


def remove_ball_word(seg: tuple) -> tuple:
    """Ball removal as the mirror of ``bubble_pass``: the latest-landing throw
    moves to the end of the segment, shortened by the segment length plus
    one; a tie for the latest landing raises ``ValueError``."""
    if not seg:
        return seg
    landings = [t + i + 1 for i, t in enumerate(seg)]
    top = max(landings)
    if landings.count(top) > 1:
        raise ValueError(f"ambiguous latest landing in {seg}")
    j = landings.index(top)
    return remove_ball_word(seg[:j]) + seg[j + 1 :] + (top - len(seg) - 1,)
