import inspect

from descpoly import verify
from descpoly.polynomial import IntPoly


def test_every_check_is_registered_once():
    # run_suite and the traced benchmark both reach the checks only through
    # SUITES, so a check left out of it, or listed twice, goes unreported
    defined = sorted(
        name
        for name, value in vars(verify).items()
        if name.startswith("check_") and inspect.isfunction(value)
    )
    listed = [check for checks in verify.SUITES.values() for check in checks]
    assert sorted(check.__name__ for check in listed) == defined
    for check in listed:
        assert getattr(verify, check.__name__) is check


def test_intro_factorizations_check_can_fail(monkeypatch):
    real = verify.descent_poly_by_recurrence

    def wrong_at_one_case(n, k):
        poly = real(n, k)
        return poly + IntPoly((0, 1)) if (n, k) == (4, 3) else poly

    monkeypatch.setattr(verify, "descent_poly_by_recurrence", wrong_at_one_case)
    result = verify.check_intro_factorizations(9, 0)
    assert not result.ok
    assert result.detail == "k=3 n=4: got [1, 11, 11, 1], want [1, 12, 11, 1]"
