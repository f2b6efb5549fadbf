"""Acceptance suite: every top-level claim at its full bounds, one criterion
per test, with a PASS/FAIL line printed for each (run with ``pytest -v -s``).

All comparisons are exact integer equalities.  Stated runtime budgets are
asserted too; they have an order of magnitude of headroom on current
hardware.
"""

import time

from descpoly.verify import (
    CheckResult,
    check_ab_identity,
    check_bijection_round_trip,
    check_binomial_row,
    check_bubble_commutation,
    check_cardinality,
    check_count_agreement,
    check_encoding,
    check_euler_identity,
    check_eulerian_ceiling,
    check_example_sequence,
    check_gf_convolution,
    check_gf_series,
    check_intro_factorizations,
    check_kernel_constructions,
    check_kernel_structure,
    check_route_agreement,
    check_sorting_lemmas,
    check_worked_examples,
)


def _report(criterion: int, results: list[CheckResult], elapsed: float, budget: float | None):
    ok = all(r.ok for r in results)
    names = "; ".join(r.name for r in results)
    budget_note = f", budget {budget:.0f}s" if budget else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion} ({elapsed:.1f}s{budget_note}): {names}")
    for r in results:
        assert r.ok, f"criterion {criterion}: {r.name}: {r.detail}"
    if budget is not None:
        assert elapsed <= budget, f"criterion {criterion} took {elapsed:.1f}s > {budget}s"


def test_criterion_01_three_route_agreement():
    t0 = time.monotonic()
    results = [check_route_agreement(9, 0)]
    _report(1, results, time.monotonic() - t0, 30)


def test_criterion_02_cardinality():
    t0 = time.monotonic()
    results = [check_cardinality(20, 0)]
    _report(2, results, time.monotonic() - t0, 5)


def test_criterion_03_eulerian_ceiling():
    t0 = time.monotonic()
    results = [check_eulerian_ceiling(10, 0)]
    _report(3, results, time.monotonic() - t0, None)


def test_criterion_04_intro_factorizations():
    t0 = time.monotonic()
    results = [check_intro_factorizations(9, 0), check_binomial_row(20, 0)]
    _report(4, results, time.monotonic() - t0, None)


def test_criterion_05_kernel_structure_and_constructions():
    t0 = time.monotonic()
    results = [check_kernel_structure(0, 8), check_kernel_constructions(0, 7)]
    _report(5, results, time.monotonic() - t0, 10)


def test_criterion_06_identities():
    t0 = time.monotonic()
    results = [check_euler_identity(0, 12), check_ab_identity(0, 6)]
    _report(6, results, time.monotonic() - t0, 10)


def test_criterion_07_generating_function():
    t0 = time.monotonic()
    results = [check_gf_series(12, 5), check_gf_convolution(12, 5)]
    _report(7, results, time.monotonic() - t0, None)


def test_criterion_08_sorting_lemmas():
    t0 = time.monotonic()
    results = [check_sorting_lemmas(8, 0)]
    _report(8, results, time.monotonic() - t0, 60)


def test_criterion_09_bijections_and_counts():
    t0 = time.monotonic()
    results = [
        check_worked_examples(0, 0),
        check_bijection_round_trip(7, 0),
        check_count_agreement(7, 0),
    ]
    _report(9, results, time.monotonic() - t0, 10)


def test_criterion_10_juggling():
    t0 = time.monotonic()
    results = [
        check_example_sequence(0, 0),
        check_encoding(8, 0),
        check_bubble_commutation(8, 0),
    ]
    _report(10, results, time.monotonic() - t0, None)
