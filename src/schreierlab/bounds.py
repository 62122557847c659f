"""Closed-form expansion bounds and the invariants they are built from.

All comparisons of the form 5 * q^(-e) against a measured gap run in log
space; the exponents can be far below 0.01 and plain powers would invite
underflow and needless round-off.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from .inequalities import DERIVED_INDEX, NILPOTENT_BOUND, Verdict
from .permutations import (
    DEFAULT_SUBGROUP_LIMIT,
    FiniteGroup,
    derived_subgroup,
    intermediate_subgroups,
    lower_central_series,
)
from .schreier import SymmetricMultiset, schreier_graph
from .spectral import DEFAULT_DIM_CAP, spectral_summary

# A bound on the spectral gap can never bite above this value, since the
# gap itself lives in [0, 2]; such bounds are flagged instead of hidden.
VACUOUS_THRESHOLD = 2.0


@dataclass(frozen=True)
class IntervalEntry:
    """One subgroup H between the stabilizer and the group.

    ``members`` and ``generators`` are H's element indices in the group and
    the generator indices ``intermediate_subgroups`` recorded for it.
    ``section`` is the order of H modulo the join of its commutator subgroup
    with the stabilizer, the abelian section size that drives both the
    invariant and the subgroup bound.  ``index`` is |G : H|.
    """

    members: frozenset[int]
    generators: tuple[int, ...]
    index: int
    section: int


class IntervalData(list):
    """``interval_data``'s entries; ``best`` is log Θ, their largest
    log(section) / index, and the position of the first entry attaining it
    (or None)."""

    def __init__(self, entries=()):
        super().__init__(entries)
        scored = ((math.log(e.section) / e.index, i) for i, e in enumerate(self))
        self.best = max(scored, key=lambda pair: pair[0], default=(-math.inf, None))


def interval_data(
    group: FiniteGroup,
    stabilizer: FiniteGroup,
    limit: int = DEFAULT_SUBGROUP_LIMIT,
) -> IntervalData:
    """Abelian section data for every subgroup between stabilizer and group,
    in the canonical order of ``intermediate_subgroups``.

    Computed in the group's index space on the interval's (members,
    generators) pairs: H' is the commutator closure of H's generators with
    themselves, and H'Y is grown from H' by the floor's greedy generators,
    the first pair's, which normalise H' because Y <= H.  G, the last
    subgroup, goes first: when G' <= Y (as in every abelian group), each
    H'Y is Y and each other section |H : Y|.  The interval is read through
    ``intermediate_subgroups`` on every call, so a cached interval is still
    checked against ``limit``.
    """
    subgroups = intermediate_subgroups(group, stabilizer, limit=limit)
    stab_idx, stab_gens = subgroups[0]
    key = ("interval-data", stab_idx)
    cached = group._cache.get(key)
    if cached is None:
        entries, inside = [], False  # inside: whether G' <= Y
        for members, gens in reversed(subgroups):  # G first
            join, order = stab_idx, len(members)
            if not inside:
                derived, _ = group._commutator_closure(gens, gens)
                join = group._closure(stab_gens, base=derived)
                inside = order == group.order and join == stab_idx
            entries.append(IntervalEntry(members, gens, group.order // order, order // len(join)))
        cached = group._cache[key] = IntervalData(reversed(entries))
    return cached


def log_theta(
    group: FiniteGroup,
    stabilizer: FiniteGroup,
    limit: int = DEFAULT_SUBGROUP_LIMIT,
) -> float:
    return interval_data(group, stabilizer, limit=limit).best[0]


def theta(
    group: FiniteGroup,
    stabilizer: FiniteGroup,
    limit: int = DEFAULT_SUBGROUP_LIMIT,
) -> float:
    """Largest abelian-section size above the stabilizer, index-discounted.

    Maximum over intermediate subgroups H of section(H)^(1/|G:H|).  The value
    does not depend on which point's stabilizer is used; it lies between 1
    and the number of cosets.
    """
    return math.exp(log_theta(group, stabilizer, limit=limit))


def theta_min_set_size(theta_value: float, epsilon: float) -> float:
    """Least connection-multiset size compatible with a gap of epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if epsilon >= 5:
        raise ValueError("epsilon must be below 5, or the bound degenerates")
    if theta_value < 1:
        raise ValueError("theta is never below 1")
    return 2.0 * math.log(theta_value) / math.log(5.0 / epsilon)


def subgroup_gap_bound(
    group: FiniteGroup,
    stabilizer: FiniteGroup,
    multiset: SymmetricMultiset | int,
    limit: int = DEFAULT_SUBGROUP_LIMIT,
) -> tuple[float, FiniteGroup]:
    """Tightest value of 5 * section(H)^(-2 / (|S| |G:H|)) over the interval.

    Returns the minimum together with the subgroup attaining it (ties go to
    the canonically first subgroup), built from that entry's members and
    generators.  Accepts the multiset itself or just its size.
    """
    size = multiset if isinstance(multiset, int) else multiset.size
    entries = interval_data(group, stabilizer, limit=limit)
    log_value, position = entries.best
    assert position is not None
    best = entries[position]
    return _subgroup_bound(log_value, size), group.subgroup_from_indices(best.members, best.generators)


def _subgroup_bound(log_theta_value: float, size: int) -> float:
    if size < 1:
        raise ValueError("multiset size must be positive")
    # min_H [log 5 - 2 log section(H) / (|S| |G:H|)] = log 5 - 2 log Θ / |S|
    return math.exp(math.log(5.0) - 2.0 * log_theta_value / size)


def abelian_gap_bound(group_order: int, set_size: int) -> float:
    """Gap bound 5 * |G|^(-2/|S|) for abelian Cayley graphs."""
    if group_order < 1 or set_size < 1:
        raise ValueError("orders and sizes must be at least 1")
    return math.exp(math.log(5.0) - 2.0 * math.log(group_order) / set_size)


def nilpotent_exponents(d: int, c: int) -> tuple[float, float]:
    """The pair (f, beta) of exponents for class-c groups on d elements.

    f(d, c) = 2(d-1) / (d (d^(c+1) - d^2 + d - 1)) governs the gap bound;
    beta(d, c) = (d-1) / (d^(c+1) - d^2 + d - 1) governs the derived-index
    inequality.  Both respect the floor bounds f >= d^(-c-1) and
    beta >= 1/(2 d^c).
    """
    if d < 2 or c < 1:
        raise ValueError("need d >= 2 and c >= 1")
    denom = d ** (c + 1) - d * d + d - 1
    f = 2.0 * (d - 1) / (d * denom)
    beta = (d - 1) / denom
    if f < d ** (-c - 1.0) or beta < 1.0 / (2.0 * d**c):
        raise AssertionError(f"exponent floor violated at d={d}, c={c}")
    return f, beta


def nilpotent_gap_bound(omega_size: int, set_size: int, class_c: int) -> float:
    """Gap bound 5 * |Omega|^(-f(|S|, c)) for class-c transitive actions."""
    if omega_size < 1:
        raise ValueError("the vertex set cannot be empty")
    f, _ = nilpotent_exponents(set_size, class_c)
    return math.exp(math.log(5.0) - f * math.log(omega_size))


def nilpotent_bound(
    group: FiniteGroup, stabilizer: FiniteGroup, set_size: int
) -> tuple[Optional[float], Optional[int]]:
    """The bound 5 |Omega|^(-f(|S|, c)) on the action and the group's class c,
    or (None, None) where it does not apply.  The one rule: the group is
    nilpotent of class c >= 1 and |S| >= 2, since f's denominator
    d^(c+1) - d^2 + d - 1 is 0 at d = 1."""
    class_c = lower_central_series(group)[1]
    if class_c is None or class_c < 1 or set_size < 2:
        return None, None
    return nilpotent_gap_bound(group.order // stabilizer.order, set_size, class_c), class_c


@dataclass(frozen=True)
class DerivedIndexReport:
    """``verdict`` compares the logarithms of ``lhs`` and ``rhs``."""

    hypotheses_hold: bool
    lhs: Optional[int] = None
    rhs: Optional[float] = None
    verdict: Optional[Verdict] = None
    class_c: Optional[int] = None
    set_size: Optional[int] = None


def derived_index_check(
    group: FiniteGroup,
    stabilizer: FiniteGroup,
    multiset: SymmetricMultiset,
) -> DerivedIndexReport:
    """Check |G : G'Y| >= |G : Y|^beta(d, c) when the hypotheses hold.

    Hypotheses, evaluated rather than assumed: the multiset size d is at
    least 2, some term of the lower central series lands inside the
    stabilizer, and the stabilizer together with the multiset generates the
    group.  The least such c >= 1 is used, which gives the strongest form of
    the check.  That c, |G : G'Y| and |G : Y| are computed once per action
    and cached on the group under Y's index set, as ints alone, which tie no
    group to its cache; per multiset only d and the generation closure remain.
    """
    members = group.indices_of(stabilizer)
    key = ("derived-index", members)
    if key not in group._cache:
        terms, _ = lower_central_series(group)
        inside = (i for i in range(1, len(terms)) if group.indices_of(terms[i]) <= members)
        # G' is normal, so the join G'Y grows from G' without generators for G'
        join = group._closure(members, base=group.indices_of(derived_subgroup(group)))
        lhs, index = group.order // len(join), group.order // len(members)
        group._cache[key] = (next(inside, None), lhs, index)
    class_c, lhs, index = group._cache[key]
    d, seed = multiset.size, members.union(multiset.support())
    if d < 2 or class_c is None or len(group._closure(seed)) < group.order:
        return DerivedIndexReport(hypotheses_hold=False)
    _, beta = nilpotent_exponents(d, class_c)
    rhs = math.exp(beta * math.log(index)) if index > 1 else 1.0
    return DerivedIndexReport(
        hypotheses_hold=True,
        lhs=lhs,
        rhs=rhs,
        verdict=DERIVED_INDEX.check(math.log(lhs), beta * math.log(index)),
        class_c=class_c,
        set_size=d,
    )


def nilpotent_verdicts(
    group: FiniteGroup, stabilizer: FiniteGroup, multiset: SymmetricMultiset, gap: float
) -> tuple[Optional[Verdict], Optional[Verdict]]:
    """The nilpotent estimate for one multiset on one action: the verdict of
    gap <= 5 |Omega|^(-f(|S|, c)) at the measured gap and the derived-index
    verdict, each None where its hypotheses fail."""
    bound, _ = nilpotent_bound(group, stabilizer, multiset.size)
    verdict = None if bound is None else NILPOTENT_BOUND.check(gap, bound)
    return verdict, derived_index_check(group, stabilizer, multiset).verdict


@dataclass
class BoundReport:
    """Every closed-form bound evaluated against the measured spectrum.

    Optional fields stay None when their hypotheses do not apply (a
    non-abelian group has no abelian bound, and so on).  ``vacuous`` lists
    the bounds that exceed 2 and therefore cannot constrain any gap.
    """

    theta: float
    glwi_bound: float
    glwi_argmin_order: int
    glwi_argmin_index: int
    measured_gap: float
    measured_lambda: float
    abelian_bound: Optional[float] = None
    nilpotent_bound: Optional[float] = None
    nilpotent_class: Optional[int] = None
    epsilon_used: Optional[float] = None
    min_set_size: Optional[float] = None
    vacuous: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def build_bound_report(
    group: FiniteGroup,
    stabilizer: FiniteGroup,
    multiset: SymmetricMultiset,
    epsilon: Optional[float] = None,
    limit: int = DEFAULT_SUBGROUP_LIMIT,
    dim_cap: Optional[int] = None,
) -> BoundReport:
    """Assemble every applicable bound next to the measured spectrum."""
    summary = spectral_summary(
        schreier_graph(group, stabilizer, multiset),
        dim_cap=DEFAULT_DIM_CAP if dim_cap is None else dim_cap,
    )
    entries = interval_data(group, stabilizer, limit=limit)
    log_value, position = entries.best
    theta_value = math.exp(log_value)
    report = BoundReport(
        theta=theta_value,
        glwi_bound=_subgroup_bound(log_value, multiset.size),
        glwi_argmin_order=len(entries[position].members),
        glwi_argmin_index=position,
        measured_gap=summary.gap,
        measured_lambda=summary.two_sided_lambda,
    )
    if group.is_abelian() and stabilizer.order == 1:
        report.abelian_bound = abelian_gap_bound(group.order, multiset.size)
    report.nilpotent_bound, report.nilpotent_class = nilpotent_bound(
        group, stabilizer, multiset.size
    )
    if epsilon is not None:
        report.epsilon_used = epsilon
        report.min_set_size = theta_min_set_size(theta_value, epsilon)
    for name in ("glwi_bound", "abelian_bound", "nilpotent_bound"):
        value = getattr(report, name)
        if value is not None and value >= VACUOUS_THRESHOLD:
            report.vacuous.append(name)
    return report
