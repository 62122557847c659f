"""The verification matrix: one function per numbered acceptance check.

Each check returns a CriterionResult with the pass verdict, a few summary
figures, and its wall-clock time.  ``run_all`` wires the shared instance
collections together (the abelian and randomized sweeps feed the set-size
check, the nilpotent sweep feeds the derived-index check) and is what both
the ``sweep`` CLI command and the acceptance tests call.

All randomness is seeded per criterion, so a rerun reproduces the exact
same instances and figures.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .bounds import (
    abelian_gap_bound,
    derived_index_check,
    log_theta,
    nilpotent_exponents,
    nilpotent_gap_bound,
    subgroup_gap_bound,
    theta_min_set_size,
)
from .catalog import abelian_names_up_to, catalog_group
from .inequalities import (
    ABELIAN_BOUND,
    BUDGET,
    CYCLE_GAP,
    DERIVED_INDEX,
    EXPONENT_CLOSED_FORM,
    INDUCED_GAP,
    INDUCED_LAMBDA,
    NILPOTENT_BOUND,
    RAYLEIGH_RANGE,
    SET_SIZE,
    SIZE_LAW,
    SPECTRUM_CONTAINMENT,
    SUBGROUP_BOUND,
    Tally,
    Verdict,
)
from .montecarlo import run_expansion_trials, sample_symmetric_multiset
from .permutations import (
    FiniteGroup,
    Transversal,
    intermediate_subgroups,
    lower_central_series,
)
from .schreier import (
    SymmetricMultiset,
    bipartite_criterion,
    connectivity_and_bipartiteness,
    dedup_counterexample_search,
    induce_with_laws,
    schreier_graph,
    symmetric_subsets,
    symmetrize,
)
from .spectral import rayleigh_quotient, spectral_summary, sym_eigenvalues


@dataclass
class CriterionResult:
    """``passed`` is the mathematical verdict; ``budget``, when the check has
    a wall-clock budget, is its own verdict, and both count toward the
    ``sweep`` command's exit code."""

    key: str
    title: str
    passed: bool
    details: dict
    seconds: float
    budget: Optional[Verdict] = None

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        over = "" if self.budget is None or self.budget.passed else ", over budget"
        return f"[{verdict}] {self.key}: {self.title} ({self.seconds:.1f}s{over})"


def _result(key, title, start, details, checks, passed=True, budget=None) -> CriterionResult:
    """A criterion that passes when ``passed`` holds and every check (a
    Verdict or a Tally) does.  The details gain the tightest margin of each
    check, and a budget in seconds becomes the verdict ``<key>-budget``."""
    seconds = time.perf_counter() - start
    spent = None
    if budget is not None:
        detail = f"{seconds:.1f}s vs {budget:g}s"
        spent = replace(BUDGET.check(seconds, budget, detail), name=f"{key}-budget")
    return CriterionResult(
        key=key,
        title=title,
        passed=passed and all(check.passed for check in checks),
        details={**details, "margins": {check.name: check.margin for check in checks}},
        seconds=seconds,
        budget=spent,
    )


@dataclass
class Instance:
    """One measured Schreier graph, kept for cross-criterion checks."""

    group: FiniteGroup
    stabilizer: FiniteGroup
    multiset: SymmetricMultiset
    gap: float


def _measure(group, stabilizer, multiset):
    return spectral_summary(schreier_graph(group, stabilizer, multiset))


# ---------------------------------------------------------------------------
# shared instance pools


_MIDSIZE_POOL = [
    "sym:3",
    "sym:4",
    "alt:4",
    "dihedral:6",
    "dihedral:8",
    "dihedral:10",
    "dihedral:12",
    "dihedral:16",
    "cyclic:5",
    "cyclic:7",
    "cyclic:8",
    "cyclic:12",
    "cyclic:24",
    "cyclic:48",
    "elem-abelian:2^3",
    "elem-abelian:2^4",
    "elem-abelian:3^2",
    "heisenberg:3",
    "cyclic:2xcyclic:4",
    "cyclic:4xcyclic:4",
    "cyclic:2xsym:3",
    "cyclic:3xcyclic:9",
]

_SMALL_POOL = (
    [f"cyclic:{n}" for n in range(2, 17)]
    + [f"dihedral:{n}" for n in range(6, 17, 2)]
    + ["elem-abelian:2^2", "elem-abelian:2^3", "elem-abelian:2^4", "elem-abelian:3^2"]
    + ["sym:3", "alt:4", "cyclic:2xcyclic:4", "cyclic:2xcyclic:6", "cyclic:4xcyclic:4"]
)


def _group_pool(names: list[str]) -> list[tuple[str, FiniteGroup]]:
    return [(name, catalog_group(name)) for name in names]


def _midsize_pool() -> list[tuple[str, FiniteGroup]]:
    """The midsize pool's groups of order at most 48."""
    return [(name, group) for name, group in _group_pool(_MIDSIZE_POOL) if group.order <= 48]


def _stabilizer_candidates(
    group: FiniteGroup, rng: np.random.Generator, count: int = 3
) -> list[FiniteGroup]:
    """A deterministic small family of subgroups to act as stabilizers."""
    candidates = {frozenset((0,)): group.trivial_subgroup()}
    for _ in range(count):
        k = int(rng.integers(1, 3))
        picks = [group.elements[int(i)] for i in rng.integers(0, group.order, size=k)]
        sub = group.subgroup_generated(picks)
        candidates.setdefault(group.indices_of(sub), sub)
    return list(candidates.values())


def _random_size(i: int) -> int:
    return 2 + (i % 7)


def _random_transversal(
    group: FiniteGroup,
    subgroup: FiniteGroup,
    members: list[list[int]],
    rng: np.random.Generator,
) -> Transversal:
    """A transversal with one uniform member of each coset as representative."""
    reps = [slot[int(rng.integers(0, len(slot)))] for slot in members]
    return Transversal.from_reps(group, subgroup, reps)


# ---------------------------------------------------------------------------
# 1. cycle graphs against the circulant gap formula


def check_cycle_gap() -> CriterionResult:
    start = time.perf_counter()
    worst = 0.0
    for n in range(3, 65):
        group = catalog_group(f"cyclic:{n}")
        multiset = symmetrize(group, [(1, 1)])
        summary = _measure(group, group.trivial_subgroup(), multiset)
        worst = max(worst, abs(summary.gap - (1.0 - math.cos(2.0 * math.pi / n))))
    return _result(
        "cycle-gap",
        "cycle Cayley gap matches 1 - cos(2 pi / n) for n in 3..64",
        start,
        {"worst_error": worst, "cases": 62},
        [CYCLE_GAP.check(worst, 0.0)],
        budget=10.0,
    )


# ---------------------------------------------------------------------------
# 2. Schreier spectra sit inside Cayley spectra


def check_spectrum_containment() -> CriterionResult:
    start = time.perf_counter()
    rng = np.random.default_rng(20250801)
    pool = _midsize_pool()
    worst = 0.0
    instances = 60
    for i in range(instances):
        name, group = pool[i % len(pool)]
        candidates = _stabilizer_candidates(group, rng)
        stabilizer = candidates[int(rng.integers(0, len(candidates)))]
        multiset = sample_symmetric_multiset(group, 2 + (i % 5), rng)
        schreier_eigs = np.array(_measure(group, stabilizer, multiset).eigenvalues)
        cayley_eigs = np.array(
            _measure(group, group.trivial_subgroup(), multiset).eigenvalues
        )
        distance = np.abs(schreier_eigs[:, None] - cayley_eigs[None, :]).min(axis=1)
        worst = max(worst, float(distance.max()))
    return _result(
        "spectrum-containment",
        "every Schreier eigenvalue appears in the Cayley spectrum",
        start,
        {"instances": instances, "worst_distance": worst},
        [SPECTRUM_CONTAINMENT.check(worst, 0.0)],
    )


# ---------------------------------------------------------------------------
# 3. abelian Cayley gap bound sweep


def check_abelian_bound() -> tuple[CriterionResult, list[Instance]]:
    start = time.perf_counter()
    rng = np.random.default_rng(20250803)
    instances: list[Instance] = []
    gaps = Tally(ABELIAN_BOUND.name)
    names = abelian_names_up_to(64)
    for name in names:
        group = catalog_group(name)
        trivial = group.trivial_subgroup()
        for i in range(200):
            multiset = sample_symmetric_multiset(group, _random_size(i), rng)
            summary = _measure(group, trivial, multiset)
            bound = abelian_gap_bound(group.order, multiset.size)
            gaps.add(ABELIAN_BOUND.check(summary.gap, bound))
            instances.append(Instance(group, trivial, multiset, summary.gap))
    result = _result(
        "abelian-bound",
        "abelian Cayley gap <= 5 |G|^(-2/|S|) over all types of order <= 64",
        start,
        {
            "groups": len(names),
            "instances": len(instances),
            "violations": gaps.violations,
            "tightest_margin": gaps.margin,
        },
        [gaps],
        budget=300.0,
    )
    return result, instances


# ---------------------------------------------------------------------------
# 4. induced multisets never lose gap and never gain two-sided lambda


def check_induced_monotonicity() -> tuple[CriterionResult, list[Instance], Tally]:
    start = time.perf_counter()
    rng = np.random.default_rng(20250804)
    pool = _midsize_pool()
    candidates = {
        name: _stabilizer_candidates(group, rng) for name, group in pool
    }
    gaps, lambdas = Tally(INDUCED_GAP.name), Tally(INDUCED_LAMBDA.name)
    laws = Tally(SIZE_LAW.name)
    instances: list[Instance] = []
    for i in range(520):
        name, group = pool[i % len(pool)]
        stabs = candidates[name]
        stabilizer = stabs[int(rng.integers(0, len(stabs)))]
        extras = [
            group.elements[int(j)]
            for j in rng.integers(0, group.order, size=int(rng.integers(0, 3)))
        ]
        subgroup = group.subgroup_generated(list(stabilizer.elements) + extras)
        multiset = sample_symmetric_multiset(group, _random_size(i), rng)

        parent = _measure(group, stabilizer, multiset)
        induction = induce_with_laws(Transversal(group, subgroup), multiset)
        laws.add(induction.size_law)

        child = _measure(subgroup, stabilizer, induction.multiset)
        gaps.add(INDUCED_GAP.check(child.gap, parent.gap))
        lambdas.add(INDUCED_LAMBDA.check(child.two_sided_lambda, parent.two_sided_lambda))
        instances.append(Instance(group, stabilizer, multiset, parent.gap))
    result = _result(
        "induced-monotonicity",
        "induced multisets keep the gap and the two-sided lambda",
        start,
        {
            "instances": len(instances),
            "gap_violations": gaps.violations,
            "lambda_violations": lambdas.violations,
        },
        [gaps, lambdas],
    )
    return result, instances, laws


# ---------------------------------------------------------------------------
# 5. collapsing multiplicities can genuinely lose the gap


def check_dedup_search() -> tuple[CriterionResult, dict]:
    start = time.perf_counter()
    group = catalog_group("dihedral:8")
    rotation = group.generators[0]
    subgroup = group.subgroup_generated([rotation])
    result = dedup_counterexample_search(group, subgroup, group.trivial_subgroup())
    criterion = _result(
        "dedup-counterexample",
        "dihedral order 8 yields dedup witnesses, none with multiplicities",
        start,
        {
            "sets_examined": result.sets_examined,
            "connected_sets": result.connected_count,
            "witnesses": len(result.witnesses),
            "multiset_violations": result.monotonicity.violations,
            "default_transversal": result.used_default_transversal,
            "transversals_scanned": result.transversals_scanned,
        },
        [result.monotonicity],
        passed=len(result.witnesses) >= 1,
        budget=60.0,
    )
    return criterion, {"group": group, "subgroup": subgroup}


# ---------------------------------------------------------------------------
# 6. random multiset expansion on the degree-6 symmetric group


def check_random_expansion() -> CriterionResult:
    start = time.perf_counter()
    group = catalog_group("sym:6")
    stabilizer = group.point_stabilizer(0)
    epsilon = delta = 0.25
    stats = run_expansion_trials(group, stabilizer, epsilon, delta, 400, seed=2025)
    return _result(
        "random-expansion",
        "random multisets of the prescribed size expand with high probability",
        start,
        {
            "sample_size": stats.sample_size,
            "trials": stats.trials,
            "empirical_tail": stats.empirical_tail,
            "tail_budget": stats.tail_budget(),
            "empirical_mean": stats.empirical_mean,
            "mean_budget": stats.mean_budget(),
            "bound_tail": stats.bound_tail,
        },
        stats.verdicts(),
        budget=300.0,
    )


# ---------------------------------------------------------------------------
# 7. subgroup bound and the set-size lower bound, over earlier instances


def check_set_size_bounds(instances: list[Instance]) -> CriterionResult:
    start = time.perf_counter()
    gaps, sizes = Tally(SUBGROUP_BOUND.name), Tally(SET_SIZE.name)
    pairs = {(id(inst.group), inst.group.indices_of(inst.stabilizer)) for inst in instances}
    for inst in instances:
        ltheta = log_theta(inst.group, inst.stabilizer)
        bound, _ = subgroup_gap_bound(inst.group, inst.stabilizer, inst.multiset)
        gaps.add(SUBGROUP_BOUND.check(inst.gap, bound))
        for epsilon in (0.1, 0.3, 0.5):
            if inst.gap >= epsilon:
                needed = theta_min_set_size(math.exp(ltheta), epsilon)
                sizes.add(SET_SIZE.check(inst.multiset.size, needed))
    return _result(
        "set-size-bound",
        "gap <= tightest subgroup bound; expanding sets are large enough",
        start,
        {
            "instances": len(instances),
            "pairs_with_theta": len(pairs),
            "bound_violations": gaps.violations,
            "size_checks": sizes.count,
            "size_violations": sizes.violations,
        },
        [gaps, sizes],
    )


# ---------------------------------------------------------------------------
# 8. nilpotent gap bound over all coset actions


_NILPOTENT_GROUPS = ["heisenberg:3", "heisenberg:5", "dihedral:8", "dihedral:16"]


def check_nilpotent_bound() -> tuple[CriterionResult, list[Instance]]:
    start = time.perf_counter()
    rng = np.random.default_rng(20250808)
    gaps = Tally(NILPOTENT_BOUND.name)
    instances: list[Instance] = []
    actions = 0
    classes = {}
    for name in _NILPOTENT_GROUPS:
        group = catalog_group(name)
        class_c = lower_central_series(group)[1]
        assert class_c is not None and class_c >= 1
        classes[name] = class_c
        for stabilizer in intermediate_subgroups(group, group.trivial_subgroup()):
            actions += 1
            omega = group.order // stabilizer.order
            for i in range(100):
                multiset = sample_symmetric_multiset(group, _random_size(i), rng)
                summary = _measure(group, stabilizer, multiset)
                bound = nilpotent_gap_bound(omega, multiset.size, class_c)
                gaps.add(NILPOTENT_BOUND.check(summary.gap, bound))
                instances.append(Instance(group, stabilizer, multiset, summary.gap))
    result = _result(
        "nilpotent-bound",
        "nilpotent actions obey gap <= 5 |Omega|^(-f(|S|, c))",
        start,
        {
            "groups": len(_NILPOTENT_GROUPS),
            "classes": classes,
            "actions": actions,
            "instances": len(instances),
            "violations": gaps.violations,
        },
        [gaps],
        budget=600.0,
    )
    return result, instances


# ---------------------------------------------------------------------------
# 9. derived-index inequality on the nilpotent instances


def check_derived_index(instances: list[Instance]) -> CriterionResult:
    start = time.perf_counter()
    derived = Tally(DERIVED_INDEX.name)
    for inst in instances:
        report = derived_index_check(inst.group, inst.stabilizer, inst.multiset)
        if report.hypotheses_hold:
            derived.add(report.verdict)

    (f21, _), (f22, beta22) = nilpotent_exponents(2, 1), nilpotent_exponents(2, 2)
    error = max(abs(f21 - 1.0), abs(f22 - 0.2), abs(beta22 - 0.2))
    closed_form = EXPONENT_CLOSED_FORM.check(error, 0.0)
    for d, c in itertools.product(range(2, 11), range(1, 9)):
        nilpotent_exponents(d, c)  # raises AssertionError below either floor
    return _result(
        "derived-index",
        "|G : G'Y| >= |G : Y|^beta(d, c) whenever Y and S generate",
        start,
        {
            "instances": len(instances),
            "applicable": derived.count,
            "violations": derived.violations,
            "closed_form_ok": closed_form.passed,
            "exponent_floors_ok": True,
        },
        [derived, closed_form],
    )


# ---------------------------------------------------------------------------
# 10. index-2 avoidance agrees with BFS bipartiteness


def check_bipartite_equivalence() -> CriterionResult:
    """Cayley instances only: the equivalence is a theorem of the regular
    action.  With a nontrivial stabilizer only the avoidance direction
    survives; see test_bipartite_criterion_limits for a degree-4
    counterexample to the converse."""
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    disagreements = 0
    total = 0
    short_groups = []
    quota = 100
    for name, group in _group_pool(_SMALL_POOL):
        if group.order > 16:
            continue
        stabilizer = group.trivial_subgroup()
        classes = group.inverse_classes()
        found = 0
        attempts = 0
        while found < quota and attempts < 200 * quota:
            attempts += 1
            k = int(rng.integers(1, min(6, len(classes)) + 1))
            chosen = rng.choice(len(classes), size=k, replace=False)
            multiset = SymmetricMultiset(
                group, ((i, 1) for c in chosen for i in classes[int(c)])
            )
            graph = schreier_graph(group, stabilizer, multiset)
            report = connectivity_and_bipartiteness(graph)
            if not report.connected:
                continue
            found += 1
            total += 1
            if bipartite_criterion(graph).criterion_holds != report.bipartite:
                disagreements += 1
        if found < quota:
            short_groups.append(name)
    return _result(
        "bipartite-criterion",
        "connected Cayley graphs: bipartite iff an avoiding index-2 subgroup exists",
        start,
        {
            "instances": total,
            "disagreements": disagreements,
            "groups_short_of_quota": short_groups,
        },
        [],
        passed=(disagreements == 0 and not short_groups),
    )


# ---------------------------------------------------------------------------
# 11. the induction size law, everywhere


def check_induction_laws(laws: Tally, dedup: dict) -> CriterionResult:
    """``laws`` holds the size-law verdicts of check 4; this check adds
    those of the dedup-search pair ``dedup`` and of random pool pairs."""
    start = time.perf_counter()

    # revisit the dedup-search pair with several transversals
    group = dedup["group"]
    subgroup = dedup["subgroup"]
    rng = np.random.default_rng(20250811)
    base = Transversal(group, subgroup)
    members = base.coset_members()
    transversals = [base] + [
        _random_transversal(group, subgroup, members, rng) for _ in range(3)
    ]
    for multiset in symmetric_subsets(group):
        for transversal in transversals:
            laws.add(induce_with_laws(transversal, multiset).size_law)

    # randomized pairs across the pool, with random transversals
    pool = _midsize_pool()
    for i in range(100):
        name, group = pool[i % len(pool)]
        picks = [
            group.elements[int(j)]
            for j in rng.integers(0, group.order, size=int(rng.integers(0, 3)))
        ]
        subgroup = group.subgroup_generated(picks)
        members = Transversal(group, subgroup).coset_members()
        transversal = _random_transversal(group, subgroup, members, rng)
        multiset = sample_symmetric_multiset(group, _random_size(i), rng)
        laws.add(induce_with_laws(transversal, multiset).size_law)

    return _result(
        "induction-laws",
        "induced multisets: exact size law",
        start,
        {"size_checks": laws.count, "failures": laws.violations},
        [laws],
    )


# ---------------------------------------------------------------------------
# 12. Rayleigh quotients stay inside the spectrum


def check_rayleigh() -> CriterionResult:
    start = time.perf_counter()
    rng = np.random.default_rng(20250812)
    matrices = []

    c6 = catalog_group("cyclic:6")
    matrices.append(schreier_graph(c6, c6.trivial_subgroup(), symmetrize(c6, [(1, 1)])).walk)
    s3 = catalog_group("sym:3")
    transpositions = [
        (i, 1) for i, p in enumerate(s3.elements) if sorted(len(c) for c in p.cycles()) == [2]
    ]
    matrices.append(
        schreier_graph(s3, s3.trivial_subgroup(), SymmetricMultiset(s3, transpositions)).walk
    )
    for name in ("sym:4", "heisenberg:3", "elem-abelian:2^3", "dihedral:12"):
        group = catalog_group(name)
        stabs = _stabilizer_candidates(group, rng)
        stabilizer = stabs[int(rng.integers(0, len(stabs)))]
        multiset = sample_symmetric_multiset(group, 4, rng)
        matrices.append(schreier_graph(group, stabilizer, multiset).walk)

    worst_overshoot = -math.inf
    vectors_per_matrix = 1000
    for matrix in matrices:
        eigs = sym_eigenvalues(matrix)
        lo, hi = eigs[-1], eigs[0]
        vectors = rng.standard_normal((vectors_per_matrix, matrix.shape[0]))
        for v in vectors:
            q = rayleigh_quotient(matrix, v)
            worst_overshoot = max(worst_overshoot, float(q - hi), float(lo - q))
    return _result(
        "rayleigh-range",
        "Rayleigh quotients lie between the extreme eigenvalues",
        start,
        {
            "matrices": len(matrices),
            "vectors_per_matrix": vectors_per_matrix,
            "worst_overshoot": worst_overshoot,
        },
        [RAYLEIGH_RANGE.check(worst_overshoot, 0.0)],
    )


# ---------------------------------------------------------------------------


def run_all(progress: Optional[Callable[[CriterionResult], None]] = None) -> list[CriterionResult]:
    """Run the whole matrix; criteria that share instances are chained."""

    results: list[CriterionResult] = []

    def record(result: CriterionResult) -> CriterionResult:
        results.append(result)
        if progress is not None:
            progress(result)
        return result

    record(check_cycle_gap())
    record(check_spectrum_containment())
    abelian_result, abelian_instances = check_abelian_bound()
    record(abelian_result)
    mono_result, mono_instances, laws = check_induced_monotonicity()
    record(mono_result)
    dedup_result, dedup_carry = check_dedup_search()
    record(dedup_result)
    record(check_random_expansion())
    record(check_set_size_bounds(abelian_instances + mono_instances))
    nilpotent_result, nilpotent_instances = check_nilpotent_bound()
    record(nilpotent_result)
    record(check_derived_index(nilpotent_instances))
    record(check_bipartite_equivalence())
    record(check_induction_laws(laws, dedup_carry))
    record(check_rayleigh())
    return results
