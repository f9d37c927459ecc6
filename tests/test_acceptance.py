"""Acceptance gate: every numbered reproduction check must pass within its
time budget.

Each test prints the one-line PASS/FAIL summary for its check (visible under
pytest -s or on failure), asserts the check passed, and asserts it stayed
inside a per-check wall-clock budget.  All comparisons inside the checks are
exact; there are no tolerances to tune."""
import time
from types import SimpleNamespace

from hyperpoly import repro

BUDGET_SECONDS = {1: 5, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 5, 9: 5,
                  10: 20, 11: 20, 12: 1, 13: 1, 14: 1}


def run_criterion(number: int) -> repro.ReproResult:
    result = repro.CRITERIA[number - 1]()
    print(str(result))
    assert result.number == number
    assert result.passed, result.detail
    assert result.seconds < BUDGET_SECONDS[number], (
        f"criterion {number} took {result.seconds:.2f}s, "
        f"budget {BUDGET_SECONDS[number]}s")
    return result


def test_criterion_01_hyperfield_axioms():
    run_criterion(1)


def test_criterion_02_double_distributivity_verdicts():
    run_criterion(2)


def test_criterion_03_tropical_piecewise_evaluation():
    run_criterion(3)


def test_criterion_04_viro_bracketings_differ():
    run_criterion(4)


def test_criterion_05_phase_quotient_multiplicity():
    run_criterion(5)


def test_criterion_06_weak_sign_factorization_obstruction():
    run_criterion(6)


def test_criterion_07_sign_membership_and_unequal_bracketings():
    run_criterion(7)


def test_criterion_08_krasner_counterexample_and_scan():
    run_criterion(8)


def test_criterion_09_one_plus_one_criterion():
    run_criterion(9)


def test_criterion_10_tropical_box_equivalence():
    run_criterion(10)


def test_criterion_11_tropical_factorization_round_trip():
    run_criterion(11)


def test_criterion_12_tropical_reducibility():
    run_criterion(12)


def test_criterion_13_multiplicities_at_points_and_regions():
    run_criterion(13)


def test_criterion_14_pointwise_products():
    run_criterion(14)


def test_full_suite_under_one_minute():
    started = time.perf_counter()
    results = repro.run_all()
    elapsed = time.perf_counter() - started
    print(repro.format_table(results))
    assert all(r.passed for r in results)
    assert len(results) == 14
    assert elapsed < 60.0, f"full run took {elapsed:.1f}s"


def test_a_failing_criterion_keeps_its_title(monkeypatch):
    passing = {n: repro.CRITERIA[n - 1]() for n in (10, 11)}
    monkeypatch.setattr(repro, "box_equivalence",
                        lambda roots: SimpleNamespace(equal=False))
    monkeypatch.setattr(repro, "root_multiset",
                        lambda p: SimpleNamespace(roots=()))
    for number, good in passing.items():
        failed = repro.CRITERIA[number - 1]()
        assert good.passed and not failed.passed
        assert failed.title == good.title
