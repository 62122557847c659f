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
from dataclasses import dataclass
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
from .montecarlo import required_sample_size, run_expansion_trials, sample_symmetric_multiset
from .permutations import (
    FiniteGroup,
    Transversal,
    intermediate_subgroups,
    lower_central_series,
)
from .schreier import (
    Induction,
    SymmetricMultiset,
    bipartite_criterion,
    connectivity_and_bipartiteness,
    dedup_counterexample_search,
    induce_with_laws,
    schreier_graph,
    symmetric_subsets,
)
from .spectral import (
    CONTAINMENT_TOL,
    GAP_TOL,
    LOG_TOL,
    ROUNDOFF_TOL,
    gap_obeys,
    rayleigh_quotient,
    spectral_summary,
    sym_eigenvalues,
)


@dataclass
class CriterionResult:
    key: str
    title: str
    passed: bool
    details: dict
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.key}: {self.title} ({self.seconds:.1f}s)"


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
    reps = [group.elements[slot[int(rng.integers(0, len(slot)))]] for slot in members]
    return Transversal.from_reps(group, subgroup, reps)


def _tally_laws(laws: dict, induction: Induction) -> None:
    laws["size_law"] += 1
    laws["inverse_law"] += 1
    laws["failures"] += (not induction.size_law) + (not induction.inverse_law)


# ---------------------------------------------------------------------------
# 1. cycle graphs against the circulant gap formula


def check_cycle_gap() -> CriterionResult:
    start = time.perf_counter()
    worst = 0.0
    for n in range(3, 65):
        group = catalog_group(f"cyclic:{n}")
        g = group.elements[1]
        multiset = SymmetricMultiset.from_elements([g, g.inverse()])
        summary = _measure(group, group.trivial_subgroup(), multiset)
        worst = max(worst, abs(summary.gap - (1.0 - math.cos(2.0 * math.pi / n))))
    seconds = time.perf_counter() - start
    return CriterionResult(
        key="cycle-gap",
        title="cycle Cayley gap matches 1 - cos(2 pi / n) for n in 3..64",
        passed=(worst <= GAP_TOL and seconds < 10.0),
        details={"worst_error": worst, "cases": 62},
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# 2. Schreier spectra sit inside Cayley spectra


def check_spectrum_containment(instances_wanted: int = 60) -> CriterionResult:
    start = time.perf_counter()
    rng = np.random.default_rng(20250801)
    pool = _midsize_pool()
    worst = 0.0
    checked = 0
    for i in range(instances_wanted):
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
        checked += 1
    seconds = time.perf_counter() - start
    return CriterionResult(
        key="spectrum-containment",
        title="every Schreier eigenvalue appears in the Cayley spectrum",
        passed=(worst <= CONTAINMENT_TOL),
        details={"instances": checked, "worst_distance": worst},
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# 3. abelian Cayley gap bound sweep


def check_abelian_bound(
    multisets_per_group: int = 200,
) -> tuple[CriterionResult, list[Instance]]:
    start = time.perf_counter()
    rng = np.random.default_rng(20250803)
    instances: list[Instance] = []
    violations = 0
    tightest = math.inf
    names = abelian_names_up_to(64)
    for name in names:
        group = catalog_group(name)
        trivial = group.trivial_subgroup()
        for i in range(multisets_per_group):
            multiset = sample_symmetric_multiset(group, _random_size(i), rng)
            summary = _measure(group, trivial, multiset)
            bound = abelian_gap_bound(group.order, multiset.size)
            if not gap_obeys(summary.gap, bound):
                violations += 1
            tightest = min(tightest, bound - summary.gap)
            instances.append(Instance(group, trivial, multiset, summary.gap))
    seconds = time.perf_counter() - start
    result = CriterionResult(
        key="abelian-bound",
        title="abelian Cayley gap <= 5 |G|^(-2/|S|) over all types of order <= 64",
        passed=(violations == 0 and seconds < 300.0),
        details={
            "groups": len(names),
            "instances": len(instances),
            "violations": violations,
            "tightest_margin": tightest,
        },
        seconds=seconds,
    )
    return result, instances


# ---------------------------------------------------------------------------
# 4. induced multisets never lose gap and never gain two-sided lambda


def check_induced_monotonicity(
    instances_wanted: int = 520,
) -> tuple[CriterionResult, list[Instance], dict]:
    start = time.perf_counter()
    rng = np.random.default_rng(20250804)
    pool = _midsize_pool()
    candidates = {
        name: _stabilizer_candidates(group, rng) for name, group in pool
    }
    gap_violations = 0
    lambda_violations = 0
    law_checks = {"size_law": 0, "inverse_law": 0, "failures": 0}
    instances: list[Instance] = []
    for i in range(instances_wanted):
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
        induction = induce_with_laws(
            group, subgroup, Transversal(group, subgroup), multiset
        )
        _tally_laws(law_checks, induction)

        child = _measure(subgroup, stabilizer, induction.multiset)
        if child.gap < parent.gap - GAP_TOL:
            gap_violations += 1
        if child.two_sided_lambda > parent.two_sided_lambda + GAP_TOL:
            lambda_violations += 1
        instances.append(Instance(group, stabilizer, multiset, parent.gap))
    seconds = time.perf_counter() - start
    result = CriterionResult(
        key="induced-monotonicity",
        title="induced multisets keep the gap and the two-sided lambda",
        passed=(gap_violations == 0 and lambda_violations == 0),
        details={
            "instances": len(instances),
            "gap_violations": gap_violations,
            "lambda_violations": lambda_violations,
        },
        seconds=seconds,
    )
    return result, instances, law_checks


# ---------------------------------------------------------------------------
# 5. collapsing multiplicities can genuinely lose the gap


def check_dedup_search() -> tuple[CriterionResult, dict]:
    start = time.perf_counter()
    group = catalog_group("dihedral:8")
    rotation = group.generators[0]
    subgroup = group.subgroup_generated([rotation])
    result = dedup_counterexample_search(group, subgroup, group.trivial_subgroup())
    seconds = time.perf_counter() - start
    law_extra = {"group": group, "subgroup": subgroup}
    criterion = CriterionResult(
        key="dedup-counterexample",
        title="dihedral order 8 yields dedup witnesses, none with multiplicities",
        passed=(
            len(result.witnesses) >= 1
            and len(result.multiset_violations) == 0
            and seconds < 60.0
        ),
        details={
            "sets_examined": result.sets_examined,
            "connected_sets": result.connected_count,
            "witnesses": len(result.witnesses),
            "multiset_violations": len(result.multiset_violations),
            "default_transversal": result.used_default_transversal,
            "transversals_scanned": result.transversals_scanned,
        },
        seconds=seconds,
    )
    return criterion, law_extra


# ---------------------------------------------------------------------------
# 6. random multiset expansion on the degree-6 symmetric group


def check_random_expansion(trials: int = 400) -> CriterionResult:
    start = time.perf_counter()
    group = catalog_group("sym:6")
    stabilizer = group.point_stabilizer(0)
    epsilon = delta = 0.25
    stats = run_expansion_trials(group, stabilizer, epsilon, delta, trials, seed=2025)
    seconds = time.perf_counter() - start
    expected_m = required_sample_size(epsilon, delta, 6)
    return CriterionResult(
        key="random-expansion",
        title="random multisets of the prescribed size expand with high probability",
        passed=(
            stats.sample_size == expected_m
            and stats.empirical_tail <= stats.tail_budget()
            and stats.empirical_mean <= stats.mean_budget()
            and seconds < 300.0
        ),
        details={
            "sample_size": stats.sample_size,
            "trials": stats.trials,
            "empirical_tail": stats.empirical_tail,
            "tail_budget": stats.tail_budget(),
            "empirical_mean": stats.empirical_mean,
            "mean_budget": stats.mean_budget(),
            "bound_tail": stats.bound_tail,
        },
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# 7. subgroup bound and the set-size lower bound, over earlier instances


def check_set_size_bounds(instances: list[Instance]) -> CriterionResult:
    start = time.perf_counter()
    theta_cache: dict[tuple[int, frozenset], float] = {}
    bound_violations = 0
    size_violations = 0
    checked_sizes = 0
    for inst in instances:
        key = (id(inst.group), inst.group.indices_of(inst.stabilizer))
        ltheta = theta_cache.get(key)
        if ltheta is None:
            ltheta = log_theta(inst.group, inst.stabilizer)
            theta_cache[key] = ltheta
        bound, _ = subgroup_gap_bound(inst.group, inst.stabilizer, inst.multiset)
        if not gap_obeys(inst.gap, bound):
            bound_violations += 1
        for epsilon in (0.1, 0.3, 0.5):
            if inst.gap >= epsilon:
                checked_sizes += 1
                needed = theta_min_set_size(math.exp(ltheta), epsilon)
                if inst.multiset.size < needed - LOG_TOL:
                    size_violations += 1
    seconds = time.perf_counter() - start
    return CriterionResult(
        key="set-size-bound",
        title="gap <= tightest subgroup bound; expanding sets are large enough",
        passed=(bound_violations == 0 and size_violations == 0),
        details={
            "instances": len(instances),
            "pairs_with_theta": len(theta_cache),
            "bound_violations": bound_violations,
            "size_checks": checked_sizes,
            "size_violations": size_violations,
        },
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# 8. nilpotent gap bound over all coset actions


_NILPOTENT_GROUPS = ["heisenberg:3", "heisenberg:5", "dihedral:8", "dihedral:16"]


def check_nilpotent_bound(
    multisets_per_action: int = 100,
) -> tuple[CriterionResult, list[Instance]]:
    start = time.perf_counter()
    rng = np.random.default_rng(20250808)
    violations = 0
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
            for i in range(multisets_per_action):
                multiset = sample_symmetric_multiset(group, _random_size(i), rng)
                summary = _measure(group, stabilizer, multiset)
                bound = nilpotent_gap_bound(omega, multiset.size, class_c)
                if not gap_obeys(summary.gap, bound):
                    violations += 1
                instances.append(Instance(group, stabilizer, multiset, summary.gap))
    seconds = time.perf_counter() - start
    result = CriterionResult(
        key="nilpotent-bound",
        title="nilpotent actions obey gap <= 5 |Omega|^(-f(|S|, c))",
        passed=(violations == 0 and seconds < 600.0),
        details={
            "groups": len(_NILPOTENT_GROUPS),
            "classes": classes,
            "actions": actions,
            "instances": len(instances),
            "violations": violations,
        },
        seconds=seconds,
    )
    return result, instances


# ---------------------------------------------------------------------------
# 9. derived-index inequality on the nilpotent instances


def check_derived_index(instances: list[Instance]) -> CriterionResult:
    start = time.perf_counter()
    applied = 0
    violations = 0
    for inst in instances:
        report = derived_index_check(inst.group, inst.stabilizer, inst.multiset)
        applied += report.hypotheses_hold
        violations += report.ok is False

    closed_form_ok = (
        abs(nilpotent_exponents(2, 1)[0] - 1.0) < ROUNDOFF_TOL
        and abs(nilpotent_exponents(2, 2)[0] - 0.2) < ROUNDOFF_TOL
        and abs(nilpotent_exponents(2, 2)[1] - 0.2) < ROUNDOFF_TOL
    )
    floors_ok = True
    for d in range(2, 11):
        for c in range(1, 9):
            f, beta = nilpotent_exponents(d, c)
            if f < d ** (-c - 1.0) or beta < 1.0 / (2.0 * d**c):
                floors_ok = False
    seconds = time.perf_counter() - start
    return CriterionResult(
        key="derived-index",
        title="|G : G'Y| >= |G : Y|^beta(d, c) whenever Y and S generate",
        passed=(violations == 0 and closed_form_ok and floors_ok),
        details={
            "instances": len(instances),
            "applicable": applied,
            "violations": violations,
            "closed_form_ok": closed_form_ok,
            "exponent_floors_ok": floors_ok,
        },
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# 10. index-2 avoidance agrees with BFS bipartiteness


def check_bipartite_equivalence(instances_per_group: int = 100) -> CriterionResult:
    """Cayley instances only: the equivalence is a theorem of the regular
    action.  With a nontrivial stabilizer only the avoidance direction
    survives; see test_bipartite_criterion_limits for a degree-4
    counterexample to the converse."""
    start = time.perf_counter()
    rng = np.random.default_rng(20250810)
    disagreements = 0
    total = 0
    short_groups = []
    for name, group in _group_pool(_SMALL_POOL):
        if group.order > 16:
            continue
        stabilizer = group.trivial_subgroup()
        classes = group.inverse_classes()
        found = 0
        attempts = 0
        while found < instances_per_group and attempts < 200 * instances_per_group:
            attempts += 1
            k = int(rng.integers(1, min(6, len(classes)) + 1))
            chosen = rng.choice(len(classes), size=k, replace=False)
            indices = sorted(
                set(itertools.chain.from_iterable(classes[int(c)] for c in chosen))
            )
            multiset = SymmetricMultiset.from_elements(
                group.elements[i] for i in indices
            )
            graph = schreier_graph(group, stabilizer, multiset)
            report = connectivity_and_bipartiteness(graph)
            if not report.connected:
                continue
            found += 1
            total += 1
            criterion = bipartite_criterion(group, stabilizer, multiset)
            if criterion.criterion_holds != report.bipartite:
                disagreements += 1
        if found < instances_per_group:
            short_groups.append(name)
    seconds = time.perf_counter() - start
    return CriterionResult(
        key="bipartite-criterion",
        title="connected Cayley graphs: bipartite iff an avoiding index-2 subgroup exists",
        passed=(disagreements == 0 and not short_groups),
        details={
            "instances": total,
            "disagreements": disagreements,
            "groups_short_of_quota": short_groups,
        },
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# 11. induction size law and inverse-compatibility, everywhere


def check_induction_laws(carry: dict, extra_instances: int = 100) -> CriterionResult:
    start = time.perf_counter()
    laws = {key: carry.get(key, 0) for key in ("size_law", "inverse_law", "failures")}

    # revisit the dedup-search pair with several transversals
    group = carry["dedup"]["group"]
    subgroup = carry["dedup"]["subgroup"]
    rng = np.random.default_rng(20250811)
    base = Transversal(group, subgroup)
    members = base.coset_members()
    transversals = [base] + [
        _random_transversal(group, subgroup, members, rng) for _ in range(3)
    ]
    for multiset in symmetric_subsets(group):
        for transversal in transversals:
            _tally_laws(laws, induce_with_laws(group, subgroup, transversal, multiset))

    # randomized pairs across the pool, with random transversals
    pool = _midsize_pool()
    for i in range(extra_instances):
        name, group = pool[i % len(pool)]
        picks = [
            group.elements[int(j)]
            for j in rng.integers(0, group.order, size=int(rng.integers(0, 3)))
        ]
        subgroup = group.subgroup_generated(picks)
        members = Transversal(group, subgroup).coset_members()
        transversal = _random_transversal(group, subgroup, members, rng)
        multiset = sample_symmetric_multiset(group, _random_size(i), rng)
        _tally_laws(laws, induce_with_laws(group, subgroup, transversal, multiset))

    seconds = time.perf_counter() - start
    return CriterionResult(
        key="induction-laws",
        title="induced multisets: exact size law and inverse-compatibility",
        passed=(laws["failures"] == 0),
        details={
            "size_checks": laws["size_law"],
            "inverse_checks": laws["inverse_law"],
            "failures": laws["failures"],
        },
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# 12. Rayleigh quotients stay inside the spectrum


def check_rayleigh(vectors_per_matrix: int = 1000) -> CriterionResult:
    start = time.perf_counter()
    rng = np.random.default_rng(20250812)
    matrices = []

    c6 = catalog_group("cyclic:6")
    g = c6.elements[1]
    matrices.append(
        schreier_graph(
            c6, c6.trivial_subgroup(), SymmetricMultiset.from_elements([g, g.inverse()])
        ).walk
    )
    s3 = catalog_group("sym:3")
    transpositions = [
        p for p in s3.elements if sorted(len(c) for c in p.cycles()) == [2]
    ]
    matrices.append(
        schreier_graph(
            s3, s3.trivial_subgroup(), SymmetricMultiset.from_elements(transpositions)
        ).walk
    )
    for name in ("sym:4", "heisenberg:3", "elem-abelian:2^3", "dihedral:12"):
        group = catalog_group(name)
        stabs = _stabilizer_candidates(group, rng)
        stabilizer = stabs[int(rng.integers(0, len(stabs)))]
        multiset = sample_symmetric_multiset(group, 4, rng)
        matrices.append(schreier_graph(group, stabilizer, multiset).walk)

    worst_overshoot = -math.inf
    for matrix in matrices:
        eigs = sym_eigenvalues(matrix)
        lo, hi = eigs[-1], eigs[0]
        vectors = rng.standard_normal((vectors_per_matrix, matrix.shape[0]))
        for v in vectors:
            q = rayleigh_quotient(matrix, v)
            worst_overshoot = max(worst_overshoot, float(q - hi), float(lo - q))
    seconds = time.perf_counter() - start
    return CriterionResult(
        key="rayleigh-range",
        title="Rayleigh quotients lie between the extreme eigenvalues",
        passed=(worst_overshoot <= LOG_TOL),
        details={
            "matrices": len(matrices),
            "vectors_per_matrix": vectors_per_matrix,
            "worst_overshoot": worst_overshoot,
        },
        seconds=seconds,
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
    mono_result, mono_instances, law_carry = check_induced_monotonicity()
    record(mono_result)
    dedup_result, dedup_carry = check_dedup_search()
    record(dedup_result)
    record(check_random_expansion())
    record(check_set_size_bounds(abelian_instances + mono_instances))
    nilpotent_result, nilpotent_instances = check_nilpotent_bound()
    record(nilpotent_result)
    record(check_derived_index(nilpotent_instances))
    record(check_bipartite_equivalence())
    law_carry["dedup"] = dedup_carry
    record(check_induction_laws(law_carry))
    record(check_rayleigh())
    return results
