"""The ledger of named inequalities that the CLI and the sweep both check.

Each ``Inequality`` is one statement of the paper or one oracle of the
sweep, with its tolerance (from ``spectral.py``) and direction: ``lhs <=
rhs + tol``, the strict ``lhs < rhs + tol``, or ``lhs >= rhs - tol``; an
identity is checked as its worst error against 0.  ``check`` returns a
``Verdict`` with both sides and the margin, how far inside the inequality
the measured side lies before the tolerance (``rhs - lhs`` for an upper
bound, ``lhs - rhs`` for a lower one), so a near miss shows.  A ``Tally``
folds verdicts into a count, the violations and the tightest verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .spectral import CONTAINMENT_TOL, GAP_TOL, LOG_TOL, ROUNDOFF_TOL


@dataclass(frozen=True)
class Verdict:
    """One checked inequality, or a fold of several: whether it held, a
    readable detail, the two sides and the margin (None where there is no
    single inequality, as for a sweep criterion)."""

    name: str
    passed: bool
    detail: str = ""
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    margin: Optional[float] = None


@dataclass(frozen=True)
class Inequality:
    name: str
    statement: str
    tol: float
    direction: str  # "<=", "<" or ">="

    def check(self, lhs: float, rhs: float, detail: str = "") -> Verdict:
        lhs, rhs = float(lhs), float(rhs)
        if self.direction == ">=":
            return Verdict(self.name, lhs >= rhs - self.tol, detail, lhs, rhs, lhs - rhs)
        strict = self.direction == "<"
        passed = lhs < rhs + self.tol if strict else lhs <= rhs + self.tol
        return Verdict(self.name, passed, detail, lhs, rhs, rhs - lhs)


@dataclass
class Tally:
    """A fold over verdicts: how many, how many failed, and the tightest
    (least margin).  Over no verdicts it passes, with margin None."""

    name: str
    count: int = 0
    violations: int = 0
    tightest: Optional[Verdict] = None

    def add(self, verdict: Verdict) -> Verdict:
        self.count += 1
        self.violations += not verdict.passed
        if self.tightest is None or verdict.margin < self.tightest.margin:
            self.tightest = verdict
        return verdict

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def margin(self) -> Optional[float]:
        return None if self.tightest is None else self.tightest.margin

    def verdict(self, detail: str) -> Verdict:
        """The fold as one verdict, at the tightest verdict's sides and margin."""
        t = self.tightest or Verdict(self.name, True)
        return Verdict(self.name, self.passed, detail, t.lhs, t.rhs, t.margin)


# the paper's bounds, against a measured gap or set size
ABELIAN_BOUND = Inequality("gap-under-abelian-bound", "gap <= 5 |G|^(-2/|S|)", GAP_TOL, "<=")
SUBGROUP_BOUND = Inequality(
    "gap-under-subgroup-bound", "gap <= 5 |H/H'Y|^(-2/(|S| |G:H|)), Y <= H <= G", GAP_TOL, "<="
)
NILPOTENT_BOUND = Inequality(
    "gap-under-nilpotent-bound", "gap <= 5 |Omega|^(-f(|S|, c))", GAP_TOL, "<="
)
SET_SIZE = Inequality(
    "expanding-set-large-enough", "gap >= eps: |S| >= 2 log Theta / log(5/eps)", LOG_TOL, ">="
)
DERIVED_INDEX = Inequality(
    "derived-index-inequality", "|G : G'Y| >= |G : Y|^beta(|S|, c), in logs", LOG_TOL, ">="
)
THETA_FLOOR = Inequality("theta-at-least-one", "Theta >= 1", ROUNDOFF_TOL, ">=")
THETA_CEILING = Inequality("theta-at-most-omega", "Theta <= |Omega|", LOG_TOL, "<=")
# random multisets, against the Monte Carlo budgets of TrialStats
EMPIRICAL_TAIL = Inequality("empirical-tail", "P(lambda >= eps) <= delta", 0.0, "<=")
EMPIRICAL_MEAN = Inequality("empirical-mean", "E lambda <= eps + delta", 0.0, "<=")
# rewriting into a subgroup
SIZE_LAW = Inequality("size-law", "|S_H| = |G:H| |S|", 0.0, "<=")
INDUCED_GAP = Inequality("induced-gap", "gap(S_H) >= gap(S)", GAP_TOL, ">=")
INDUCED_LAMBDA = Inequality("induced-lambda", "lambda(S_H) <= lambda(S)", GAP_TOL, "<=")
# oracles
CYCLE_GAP = Inequality("cycle-gap", "gap(C_n) = 1 - cos(2 pi / n)", GAP_TOL, "<=")
SPECTRUM_CONTAINMENT = Inequality(
    "spectrum-containment", "Schreier spectrum within the Cayley spectrum", CONTAINMENT_TOL, "<="
)
RAYLEIGH_RANGE = Inequality(
    "rayleigh-range", "lambda_min <= <Mv, v> / <v, v> <= lambda_max", LOG_TOL, "<="
)
EXPONENT_CLOSED_FORM = Inequality(
    "exponent-closed-form", "f(2, 1) = 1, f(2, 2) = beta(2, 2) = 1/5", ROUNDOFF_TOL, "<"
)
# a sweep criterion's wall-clock seconds, apart from its mathematics
BUDGET = Inequality("wall-clock-budget", "seconds < budget", 0.0, "<")


def theta_range(theta: float, omega: int, detail: str) -> Verdict:
    """Theta lies between 1 and the number of points: both ends, folded."""
    fold = Tally("theta-range")
    fold.add(THETA_FLOOR.check(theta, 1.0))
    fold.add(THETA_CEILING.check(theta, omega))
    return fold.verdict(detail)
