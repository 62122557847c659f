"""Acceptance suite: runs the full verification matrix once and asserts
every numbered check, printing one pass/fail line per criterion.

Budgeted checks report their wall-clock limits as verdicts of their own,
apart from the mathematical one (cycle oracle under 10 s, abelian sweep
under 5 min, dedup search under 60 s, expansion trials under 5 min,
nilpotent sweep under 10 min); the tests below assert both.
"""

import json
from pathlib import Path

import pytest

from schreierlab.sweeps import run_all

REFERENCE = Path(__file__).parent / "data" / "sweep_reference.json"


@pytest.fixture(scope="module")
def matrix():
    results = {r.key: r for r in run_all()}
    return results


def _assert_criterion(matrix, key):
    result = matrix[key]
    print(result.line())
    assert result.passed, f"{key} failed: {result.details}"
    assert result.budget is None or result.budget.passed, result.budget
    return result


def test_01_cycle_gap_oracle(matrix):
    result = _assert_criterion(matrix, "cycle-gap")
    assert result.details["cases"] == 62
    assert result.details["worst_error"] <= 1e-8
    assert result.seconds < 10.0


def test_02_spectrum_containment(matrix):
    result = _assert_criterion(matrix, "spectrum-containment")
    assert result.details["instances"] >= 50
    assert result.details["worst_distance"] <= 1e-6


def test_03_abelian_bound_sweep(matrix):
    result = _assert_criterion(matrix, "abelian-bound")
    assert result.details["violations"] == 0
    assert result.details["instances"] >= result.details["groups"] * 200
    assert result.seconds < 300.0


def test_04_induced_monotonicity(matrix):
    result = _assert_criterion(matrix, "induced-monotonicity")
    assert result.details["instances"] >= 500
    assert result.details["gap_violations"] == 0
    assert result.details["lambda_violations"] == 0


def test_05_dedup_counterexample(matrix):
    result = _assert_criterion(matrix, "dedup-counterexample")
    assert result.details["witnesses"] >= 1
    assert result.details["multiset_violations"] == 0
    assert result.seconds < 60.0


def test_06_random_expansion(matrix):
    result = _assert_criterion(matrix, "random-expansion")
    assert result.details["sample_size"] == 86
    assert result.details["trials"] == 400
    assert result.details["empirical_tail"] <= result.details["tail_budget"]
    assert result.details["empirical_mean"] <= 0.5
    assert result.seconds < 300.0


def test_07_set_size_bounds(matrix):
    result = _assert_criterion(matrix, "set-size-bound")
    assert result.details["bound_violations"] == 0
    assert result.details["size_violations"] == 0
    assert result.details["instances"] > 20_000


def test_08_nilpotent_bound_sweep(matrix):
    result = _assert_criterion(matrix, "nilpotent-bound")
    assert result.details["violations"] == 0
    assert result.details["classes"] == {
        "heisenberg:3": 2,
        "heisenberg:5": 2,
        "dihedral:8": 2,
        "dihedral:16": 3,
    }
    assert result.seconds < 600.0


def test_09_derived_index(matrix):
    result = _assert_criterion(matrix, "derived-index")
    assert result.details["violations"] == 0
    assert result.details["applicable"] > 0
    assert result.details["closed_form_ok"]
    assert result.details["exponent_floors_ok"]


def test_10_bipartite_equivalence(matrix):
    result = _assert_criterion(matrix, "bipartite-criterion")
    assert result.details["disagreements"] == 0
    assert result.details["groups_short_of_quota"] == []
    assert result.details["instances"] >= 100 * 25


def test_11_induction_laws(matrix):
    result = _assert_criterion(matrix, "induction-laws")
    assert result.details["failures"] == 0
    assert result.details["size_checks"] > 600


def test_12_rayleigh_range(matrix):
    result = _assert_criterion(matrix, "rayleigh-range")
    assert result.details["worst_overshoot"] <= 1e-9
    assert result.details["vectors_per_matrix"] == 1000


def _same(got, want) -> bool:
    """Exact agreement, except floats, which agree within 1e-8 of the
    larger of 1 and their magnitudes, so figures that are round-off (such
    as -1.1e-16) agree whatever rounding the eigensolver makes."""
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, (int, float))
            and not isinstance(got, bool)
            and abs(got - want) <= 1e-8 * max(1.0, abs(got), abs(want))
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_same(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(_same(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


def test_sweep_matches_the_reference(matrix):
    """The matrix's key, title, verdict and details, timings aside, are
    those recorded in tests/data/sweep_reference.json."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert list(matrix) == [entry["key"] for entry in reference]
    for entry in reference:
        result = matrix[entry["key"]]
        got = {"title": result.title, "passed": result.passed, "details": result.details}
        want = {k: entry[k] for k in ("title", "passed", "details")}
        assert _same(got, want), f"{entry['key']}: {got} != {want}"
