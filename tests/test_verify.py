import inspect

import pytest

from descpoly import eulerian, verify
from descpoly.genfunc import RationalBivariateGF
from descpoly.polynomial import IntPoly


def test_every_check_is_registered_once():
    # run_suite and the traced benchmark both reach the checks only through
    # SUITES, and @_check registers each check there where it is defined; a
    # check_* function left undecorated would go unrun and unreported
    defined = sorted(
        name
        for name, value in vars(verify).items()
        if name.startswith("check_") and inspect.isfunction(value)
    )
    listed = [check for checks in verify.SUITES.values() for check in checks]
    assert sorted(check.__name__ for check in listed) == defined
    for check in listed:
        assert getattr(verify, check.__name__) is check
        # a case stream wrapped by _check, not a hand-rolled loop
        assert inspect.isgeneratorfunction(check.__wrapped__)


# cases each check runs at the CLI defaults nmax = kmax = 7; a loop that has
# silently gone empty, or lost a level, shows here
CASES_AT_DEFAULTS = {
    "check_euler_identity": 8,
    "check_ab_identity": 91,
    "check_route_agreement": 28,
    "check_cardinality": 36,
    "check_eulerian_ceiling": 23,
    "check_binomial_row": 26,
    "check_intro_factorizations": 13,
    "check_gf_series": 64,
    "check_gf_convolution": 64,
    "check_worked_examples": 2,
    "check_bijection_round_trip": 72925,
    "check_count_agreement": 897,
    "check_standardization": 72200,
    "check_example_sequence": 2,
    "check_encoding": 50097,
    "check_bubble_commutation": 16692,
    "check_sorting_lemmas": 17742,
    "check_kernel_structure": 32,
    "check_kernel_constructions": 21,
    "check_kernel_multisection": 8,
}


def test_every_check_passes_with_its_case_count_at_the_cli_defaults():
    results = {check.__name__: check(7, 7) for checks in verify.SUITES.values() for check in checks}
    assert all(r.ok for r in results.values())
    assert {name: r.cases for name, r in results.items()} == CASES_AT_DEFAULTS
    assert min(CASES_AT_DEFAULTS.values()) > 0


def test_a_check_counts_the_cases_before_its_counterexample(monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {})

    @verify._check("identities")
    def check_three_cases(nmax, kmax):
        yield "a claim"
        yield from (True, nmax == 0 or f"nmax={nmax}", True)

    assert check_three_cases(0, 0) == verify.CheckResult("a claim", True)
    assert check_three_cases(0, 0).cases == 3
    failed = check_three_cases(2, 0)
    assert failed == verify.CheckResult("a claim", False, "nmax=2")
    assert failed.cases == 1


@pytest.mark.parametrize("verdict", [False, "", None, 1, ["text"]])
def test_a_verdict_neither_true_nor_text_fails_its_check_by_name(monkeypatch, verdict):
    monkeypatch.setattr(verify, "SUITES", {})

    @verify._check("identities")
    def check_forgot_its_text(nmax, kmax):
        yield "a claim"
        yield True
        yield verdict

    with pytest.raises(TypeError, match="check_forgot_its_text yielded"):
        check_forgot_its_text(7, 7)
    assert verify.SUITES == {"identities": [check_forgot_its_text]}
    [result] = verify.run_suite("identities", 7, 7)
    assert result == verify.CheckResult(
        "check_forgot_its_text",
        False,
        f"TypeError: check_forgot_its_text yielded {verdict!r}, not True or a text",
    )


def test_intro_factorizations_check_can_fail(monkeypatch):
    real = verify.descent_poly_by_recurrence

    def wrong_at_one_case(n, k):
        poly = real(n, k)
        return poly + IntPoly((0, 1)) if (n, k) == (4, 3) else poly

    monkeypatch.setattr(verify, "descent_poly_by_recurrence", wrong_at_one_case)
    result = verify.check_intro_factorizations(9, 0)
    assert not result.ok
    assert result.detail == "k=3 n=4: got [1, 11, 11, 1], want [1, 12, 11, 1]"



# --- one fault per failure site of the checks above without a test of their own

_U = IntPoly((0, 1))
_real = dict(vars(verify))  # the names verify imports, before any monkeypatch


def _off_at(name, case, delta=_U):
    # the real function, with delta added to its value at one argument tuple
    real = _real[name]

    def fake(*args):
        got = real(*args)
        return got + delta if args == case else got

    return fake


def _kernel_at_2(*coeffs):
    return lambda k: IntPoly(coeffs) if k == 2 else _real["kernel_poly"](k)


def _encoding_at_2(fault):
    # the real encoding, except on the permutations of length 2
    real = _real["throw_sequence"]
    return lambda p, k: fault(p, k) if len(p.values) == 2 else real(p, k)


_SEQ, _THROW = _real["JugglingSequence"], _real["throw_sequence"]
_SERIES = RationalBivariateGF.series

# check, owner, attribute, fake, detail at the CLI defaults nmax = kmax = 7
_FAULTS = [
    ("euler_identity", verify, "euler_identity_residual",
     lambda order: IntPoly((1,)) if order == 0 else _real["euler_identity_residual"](order),
     "order 0 residual changed: expected 1 - x, got 1"),
    ("euler_identity", verify, "euler_identity_residual",
     _off_at("euler_identity_residual", (3,)),
     "order 3: residual x"),
    ("ab_identity", verify, "ab_identity_residual",
     _off_at("ab_identity_residual", (-2, 3)),
     "a=-2 b=3: residual x"),
    ("route_agreement", verify, "descent_poly_by_closed_form",
     _off_at("descent_poly_by_closed_form", (4, 2)),
     "n=4 k=2: enumeration=[1, 10, 7] recurrence=[1, 10, 7] closed_form=[1, 11, 7]"),
    ("binomial_row", verify, "descent_poly_by_closed_form",
     _off_at("descent_poly_by_closed_form", (5, 1)),
     "n=5 d=1: got 11, want 10"),
    ("cardinality", verify, "bounded_drop_count",
     _off_at("bounded_drop_count", (3, 2), 1),
     "n=3 k=2: got 6, want 7"),
    ("eulerian_ceiling", verify, "eulerian_poly",
     _off_at("eulerian_poly", (4,)),
     "n=4 k=3: got [1, 11, 11, 1], want [1, 12, 11, 1]"),
    ("kernel_multisection", verify, "eulerian_poly",
     _off_at("eulerian_poly", (2,)),
     "k=2: got [1, 1]"),
    ("worked_examples", verify, "detach_tail",
     lambda p, spec: (p, frozenset()),
     "detach gave ((1, 3, 8, 4, 2, 5, 9, 7, 6), [])"),
    ("worked_examples", verify, "attach_tail",
     lambda sigma, xs: sigma,
     "attach gave (3, 1, 4, 2)"),
    ("count_agreement", verify, "count_descent_superset",
     lambda spec, k: _real["count_descent_superset"](spec, k) + (spec.n == 3 and k == 1),
     "n=3 k=1 S=[]: brute 4, recurrence 5"),
    ("example_sequence", verify, "JugglingSequence",
     lambda throws: _SEQ(throws[:-1] + (1,)),
     "sequence reported invalid"),
    ("example_sequence", verify, "JugglingSequence",
     lambda throws: _SEQ((3,) * len(throws)),
     "ball count 3 != 2"),
    ("encoding", verify, "throw_sequence",
     _encoding_at_2(lambda p, k: _SEQ((1, 0))),
     "n=2 k=0 p=(1, 2): invalid (1, 0)"),
    ("encoding", verify, "throw_sequence",
     _encoding_at_2(lambda p, k: _THROW(p, k + 1)),
     "n=2 k=0 p=(1, 2): balls 1"),
    ("encoding", verify, "throw_sequence",
     _encoding_at_2(lambda p, k: _THROW(verify.Permutation((1, 2)), k)),
     "n=2 k=1: duplicate image (1, 1)"),
    ("bubble_commutation", verify, "remove_ball",
     lambda T: T,
     "n=2 k=1 p=(2, 1): (2, 0) != (0, 0)"),
    ("sorting_lemmas", verify.Permutation, "bsc",
     lambda self: 0,
     "p=(2, 1): bsc 0 != maxdrop 1"),
    ("sorting_lemmas", verify.Permutation, "bsort",
     lambda self: self,
     "p=(2, 1): maxdrop 1 -> 1 after one pass"),
    ("sorting_lemmas", verify.Permutation, "ssort",
     lambda self: self,
     "p=(2, 1): 1 stack passes gave (2, 1)"),
    ("kernel_structure", verify, "kernel_poly",
     _kernel_at_2(1, 1, 2, 1, 1, 1),
     "k=2: degree 5"),
    ("kernel_structure", verify, "kernel_poly",
     _kernel_at_2(2, 1, 2, 1, 2),
     "k=2: constant term 2"),
    ("kernel_structure", verify, "kernel_poly",
     _kernel_at_2(1, 2, 2, 1, 1),
     "k=2: not symmetric: [1, 2, 2, 1, 1]"),
    ("kernel_structure", verify, "kernel_poly",
     _kernel_at_2(1, 3, 1, 3, 1),
     "k=2: not unimodal: [1, 3, 1, 3, 1]"),
    ("kernel_constructions", verify, "kernel_poly_by_duplication",
     _off_at("kernel_poly_by_duplication", (2,)),
     "k=2: formula=[1, 1, 2, 1, 1] stretch=[1, 1, 2, 1, 1] duplication=[1, 2, 2, 1, 1]"),
    ("kernel_constructions", verify, "stretched_kernel_poly",
     _off_at("stretched_kernel_poly", (3,)),
     "k=3: stretch=[1, 0, 1, 2, 4, 4, 0, 4, 4, 2, 1, 0, 1] "
     "formula=[1, 1, 1, 2, 4, 4, 0, 4, 4, 2, 1, 0, 1]"),
    # only the terms at n <= k, which the series takes from its numerator; the
    # recurrence route answers those with eulerian_poly and never reads them
    ("eulerian_ceiling", RationalBivariateGF, "series",
     lambda gf, upto: [t + _U if n <= gf.k else t for n, t in enumerate(_SERIES(gf, upto))],
     "n=0 k=0: got [1, 1], want [1]"),
]


@pytest.mark.parametrize(
    "check, owner, attr, fake, detail",
    _FAULTS,
    ids=[f"{check}-{attr}-{i}" for i, (check, _, attr, *_) in enumerate(_FAULTS)],
)
def test_each_check_can_fail(monkeypatch, check, owner, attr, fake, detail):
    monkeypatch.setattr(owner, attr, fake)
    result = getattr(verify, "check_" + check)(7, 7)
    assert not result.ok
    assert result.detail == detail


def test_a_wrong_eulerian_row_fails_both_identity_checks(monkeypatch):
    # the Euler identity is the two-parameter identity at b = 0, so both
    # checks read eulerian_poly through one loop; each must still fail
    real = eulerian.eulerian_poly
    monkeypatch.setattr(eulerian, "eulerian_poly", lambda n: real(n) + _U if n == 4 else real(n))
    euler, ab = verify.check_euler_identity(7, 7), verify.check_ab_identity(7, 7)
    assert (euler.ok, euler.detail) == (False, "order 4: residual x - x^2")
    assert (ab.ok, ab.detail) == (False, "a=-2 b=6: residual x - x^2")
