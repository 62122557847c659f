"""The ledger of named inequalities against the inline comparisons it
replaced, its folds, and the rule that tolerances are compared only there."""

import json
import math
import re
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierlab import inequalities
from schreierlab.inequalities import (
    ABELIAN_BOUND,
    BUDGET,
    CYCLE_GAP,
    DERIVED_INDEX,
    EMPIRICAL_MEAN,
    EMPIRICAL_TAIL,
    EXPONENT_CLOSED_FORM,
    INDUCED_GAP,
    INDUCED_LAMBDA,
    NILPOTENT_BOUND,
    RAYLEIGH_RANGE,
    SET_SIZE,
    SIZE_LAW,
    SPECTRUM_CONTAINMENT,
    SUBGROUP_BOUND,
    THETA_CEILING,
    THETA_FLOOR,
    Inequality,
    Tally,
    Verdict,
    theta_range,
)
from schreierlab.spectral import CONTAINMENT_TOL, GAP_TOL, LOG_TOL, ROUNDOFF_TOL

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schreierlab"

# each entry next to the expression it replaced, written as it was inline
REPLACED = [
    (ABELIAN_BOUND, lambda gap, bound: gap <= bound + GAP_TOL),
    (SUBGROUP_BOUND, lambda gap, bound: gap <= bound + GAP_TOL),
    (NILPOTENT_BOUND, lambda gap, bound: gap <= bound + GAP_TOL),
    (SET_SIZE, lambda size, needed: size >= needed - LOG_TOL),
    (DERIVED_INDEX, lambda log_lhs, log_rhs: log_lhs >= log_rhs - LOG_TOL),
    (EMPIRICAL_TAIL, lambda tail, budget: tail <= budget),
    (EMPIRICAL_MEAN, lambda mean, budget: mean <= budget),
    (THETA_FLOOR, lambda theta, one: one - ROUNDOFF_TOL <= theta),
    (THETA_CEILING, lambda theta, omega: theta <= omega + LOG_TOL),
    (INDUCED_GAP, lambda child, parent: not child < parent - GAP_TOL),
    (INDUCED_LAMBDA, lambda child, parent: not child > parent + GAP_TOL),
    (BUDGET, lambda seconds, budget: seconds < budget),
]
# the oracles compared an error with their tolerance: the right side is 0
ERRORS = [
    (CYCLE_GAP, lambda worst: worst <= GAP_TOL),
    (SPECTRUM_CONTAINMENT, lambda worst: worst <= CONTAINMENT_TOL),
    (RAYLEIGH_RANGE, lambda worst: worst <= LOG_TOL),
    (EXPONENT_CLOSED_FORM, lambda error: error < ROUNDOFF_TOL),
]


def _near(value: float, offset: float, ulps: int) -> float:
    """value + offset, moved by ``ulps`` units in the last place."""
    x = value + offset
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@pytest.mark.parametrize("inequality, replaced", REPLACED, ids=lambda v: getattr(v, "name", ""))
@settings(max_examples=150, deadline=None)
@given(
    rhs=st.floats(min_value=-50.0, max_value=50.0),
    side=st.sampled_from([-1.0, 0.0, 1.0]),
    ulps=st.integers(min_value=-3, max_value=3),
)
def test_entry_passes_exactly_where_the_inline_expression_did(inequality, replaced, rhs, side, ulps):
    lhs = _near(rhs, side * inequality.tol, ulps)
    verdict = inequality.check(lhs, rhs)
    assert verdict.passed == replaced(lhs, rhs)
    assert verdict.margin == (lhs - rhs if inequality.direction == ">=" else rhs - lhs)


@pytest.mark.parametrize("inequality, replaced", ERRORS, ids=lambda v: getattr(v, "name", ""))
@settings(max_examples=100, deadline=None)
@given(side=st.sampled_from([0.0, 1.0, 2.0]), ulps=st.integers(min_value=-3, max_value=3))
def test_oracle_entry_passes_exactly_where_its_error_did(inequality, replaced, side, ulps):
    error = abs(_near(0.0, side * inequality.tol, ulps))
    assert inequality.check(error, 0.0).passed == replaced(error)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_size_law_passes_exactly_on_equal_sizes(induced, expected):
    assert SIZE_LAW.check(abs(induced - expected), 0).passed == (induced == expected)


def test_theta_range_folds_both_ends():
    inside = theta_range(4.0, 4, "at the ceiling")
    assert inside == Verdict("theta-range", True, "at the ceiling", 4.0, 4.0, 0.0)
    assert not theta_range(1.0 - 2 * ROUNDOFF_TOL, 4, "").passed
    assert not theta_range(4.0 + 2 * LOG_TOL, 4, "").passed


def test_tally_counts_violations_and_keeps_the_tightest():
    tally = Tally(ABELIAN_BOUND.name)
    assert tally.passed and tally.margin is None
    empty = tally.verdict("no instances")
    assert json.loads(json.dumps(asdict(empty)))["margin"] is None
    for gap, bound in ((0.1, 0.5), (0.3, 0.35), (0.2, 0.9)):
        tally.add(ABELIAN_BOUND.check(gap, bound))
    assert (tally.count, tally.violations) == (3, 0)
    assert tally.margin == pytest.approx(0.05)
    tally.add(ABELIAN_BOUND.check(0.5, 0.4))
    folded = tally.verdict("4 instances")
    assert (tally.violations, folded.passed) == (1, False)
    assert (folded.name, folded.lhs, folded.rhs) == (ABELIAN_BOUND.name, 0.5, 0.4)


def test_every_entry_is_pinned_and_named_once():
    ledger = [q for q in vars(inequalities).values() if isinstance(q, Inequality)]
    pinned = [q for q, _ in REPLACED + ERRORS] + [SIZE_LAW]
    assert sorted(q.name for q in ledger) == sorted(q.name for q in pinned)
    assert len({q.name for q in ledger}) == len(ledger)
    assert all(q.direction in ("<=", "<", ">=") for q in ledger)


def test_tolerances_are_compared_only_in_the_ledger():
    """Each tolerance is defined in spectral.py and compared in the ledger;
    no other module of the package may name one."""
    offenders = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("spectral.py", "inequalities.py")
        and re.search(r"\w*_TOL\b", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
