"""Each documented argument check raises its exception with its own text."""

import pytest

from descpoly.eulerian import euler_identity_residual
from descpoly.permutation import (
    DescentSetSpec,
    Permutation,
    bounded_drop_count,
    count_descent_superset,
    detach_tail,
    enumerate_bounded_drop,
)
from descpoly.polynomial import IntPoly, UsageError
from descpoly.verify import run_suite

BAD_CALLS = {
    "unknown suite": (lambda: run_suite("nope", 7, 7), UsageError, "unknown suite 'nope'"),
    "spec length": (
        lambda: detach_tail(Permutation((2, 1)), DescentSetSpec(3)),
        ValueError,
        "spec length 3 != permutation length 2",
    ),
    "enumerate n": (
        lambda: next(enumerate_bounded_drop(-1, 0)), ValueError, "n and k must be nonnegative"
    ),
    "count n": (lambda: bounded_drop_count(-1, 0), ValueError, "n and k must be nonnegative"),
    "superset k": (
        lambda: count_descent_superset(DescentSetSpec(3), -1), ValueError, "k must be nonnegative"
    ),
    "substitute 0": (
        lambda: IntPoly((1, 1)).substitute_power(0), ValueError, "power substitution needs m >= 1"
    ),
    "multisect 0": (
        lambda: IntPoly((1, 1)).multisect(0), ValueError, "multisection needs step >= 1"
    ),
    # its own message, not that of the two-parameter identity it calls
    "euler order": (lambda: euler_identity_residual(-1), ValueError, "order must be nonnegative"),
}


@pytest.mark.parametrize("call, exc, text", BAD_CALLS.values(), ids=BAD_CALLS)
def test_a_bad_argument_raises_its_documented_error(call, exc, text):
    with pytest.raises(exc) as raised:
        call()
    assert str(raised.value) == text
