"""Symmetric connection multisets and Schreier graphs.

A connection multiset holds element indices of one group with their
multiplicities; permutations appear only where the CLI parses or prints
one.  The walk matrix keeps loops and multiple edges: entry (w, w') counts
the connection elements moving w to w', with multiplicity, divided by the
total multiset size.  Collapsing multiplicities is done only inside the
explicit counterexample search, because the gap monotonicity of induced
multisets is false for plain sets.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DisconnectedGraphError, SearchSpaceError
from .inequalities import INDUCED_GAP, SIZE_LAW, Tally, Verdict
from .notation import permutation_to_text
from .permutations import CosetAction, FiniteGroup, Transversal, _orbit_minima, index2_overgroups
from .spectral import spectral_summary


class SymmetricMultiset:
    """A multiset of elements of one group, inverse-closed with multiplicities.

    ``entries`` holds (element index, multiplicity) pairs in ascending index
    order, so two multisets of the same group are equal exactly when they
    agree element by element with multiplicity.
    """

    def __init__(self, group: FiniteGroup, entries: Iterable[tuple[int, int]]):
        counts: Counter = Counter()
        for i, mult in entries:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            counts[i] += mult
        if not counts:
            raise ValueError("a connection multiset cannot be empty")
        if min(counts) < 0 or max(counts) >= group.order:
            raise ValueError(f"element indices must lie in range({group.order})")
        inv = group.inverse_indices()
        for i, mult in counts.items():
            if counts[inv[i]] != mult:
                raise ValueError(
                    f"multiset is not symmetric at {permutation_to_text(group.elements[i])}: "
                    f"multiplicity {mult} vs {counts[inv[i]]} for the inverse"
                )
        self.group = group
        self.entries: tuple[tuple[int, int], ...] = tuple(sorted(counts.items()))
        self.size = sum(counts.values())

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    def as_set(self) -> "SymmetricMultiset":
        """The same support with every multiplicity collapsed to 1."""
        return SymmetricMultiset(self.group, ((i, 1) for i, _ in self.entries))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymmetricMultiset)
            and self.group is other.group
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(self.entries)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"SymmetricMultiset(size={self.size}, support={len(self.entries)})"


def symmetrize(group: FiniteGroup, entries: Iterable[tuple[int, int]]) -> SymmetricMultiset:
    """Return S joined with S^-1, sizes adding up.

    Takes (element index, multiplicity) pairs, repeats allowed.  Every
    element contributes itself and its inverse, so an involution appears
    twice.
    """
    inv = group.inverse_indices()
    counts: Counter = Counter()
    for i, mult in entries:
        counts[i] += mult
        counts[inv[i]] += mult
    if not counts:
        raise ValueError("cannot symmetrize an empty multiset")
    return SymmetricMultiset(group, counts.items())


@dataclass
class SchreierGraph:
    """A Schreier graph, carried by its slot table.

    ``slots[w, c]`` is the image of point w under the c-th distinct element
    of the multiset, and ``weights[c]`` its multiplicity; they sum to
    ``degree``.  Symmetry is exact: the column of s^-1 undoes that of s.
    The dense ``counts`` and ``walk = counts / degree`` are built when read.
    ``action`` is the coset action the graph was built from.
    """

    vertex_count: int
    degree: int
    slots: np.ndarray
    weights: np.ndarray
    group: FiniteGroup
    stabilizer: FiniteGroup
    multiset: SymmetricMultiset
    action: CosetAction

    def __post_init__(self):
        support, inv = self.multiset.support(), self.group.inverse_indices()
        inverse = np.searchsorted(support, [inv[i] for i in support])
        undone = self.slots[self.slots, inverse] == np.arange(self.vertex_count)[:, None]
        if not (undone.all() and np.array_equal(self.weights[inverse], self.weights)):
            raise ValueError("edge counts are not symmetric")

    def _edge_weights(self) -> np.ndarray:
        """The n x n edge multiplicities, as floats: one weighted bincount
        over the slot cells (w, slots[w, c])."""
        n = self.vertex_count
        cells = self.slots + n * np.arange(n)[:, None]
        edges = np.bincount(cells.ravel(), np.tile(self.weights, n), minlength=n * n)
        return edges.reshape(n, n)

    @property
    def counts(self) -> np.ndarray:
        return self._edge_weights().astype(np.int64)

    @property
    def walk(self) -> np.ndarray:
        walk = self._edge_weights()
        walk /= self.degree
        return walk


def _require_group(multiset: SymmetricMultiset, group: FiniteGroup) -> None:
    if multiset.group is not group:
        raise ValueError("the connection multiset belongs to another group")


def schreier_graph(
    group: FiniteGroup, stabilizer: FiniteGroup, multiset: SymmetricMultiset
) -> SchreierGraph:
    """Graph of the action on right cosets of the stabilizer, its slot
    table one ``permutation_of_index`` call for the whole support.  The
    Cayley graph is the special case of a trivial stabilizer; a multiset
    of another group raises ValueError."""
    _require_group(multiset, group)
    action = CosetAction(group, stabilizer)
    return SchreierGraph(
        vertex_count=action.n_points,
        degree=multiset.size,
        slots=action.permutation_of_index(multiset.support()),
        weights=np.array([mult for _, mult in multiset.entries], dtype=np.int64),
        group=group,
        stabilizer=stabilizer,
        multiset=multiset,
        action=action,
    )


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    bipartite: bool
    classes: Optional[tuple[int, ...]]


def connectivity_and_bipartiteness(graph: SchreierGraph) -> ConnectivityReport:
    """Components and 2-colorability in array passes, by min-label
    propagation (``_orbit_minima``) over the bipartite double cover: point
    v with bit b is b n + v, and each edge v -> w joins (v, b) to (w, 1 -
    b).  The least point c of v's component labels (v, 0) or (v, 1), and v
    gets color 0 when (v, 0) carries it: on a bipartite component, the
    2-coloring that gives c color 0.  The graph is bipartite when every
    edge then joins two colors, which a loop, an odd closed walk, never
    does."""
    n = graph.vertex_count
    cover = _orbit_minima(np.concatenate([graph.slots.T + n, graph.slots.T], axis=1), 2 * n)
    least = np.minimum(cover[:n], cover[n:])
    color = (cover[:n] != least).astype(np.int64)
    bipartite = bool(np.all(color[graph.slots] != color[:, None]))
    return ConnectivityReport(
        connected=bool((least == 0).all()),
        bipartite=bipartite,
        classes=tuple(color.tolist()) if bipartite else None,
    )


@dataclass(frozen=True)
class BipartiteCriterion:
    criterion_holds: bool
    witness: Optional[FiniteGroup]


def bipartite_criterion(graph: SchreierGraph) -> BipartiteCriterion:
    """Index-2 avoidance test for bipartiteness of connected Schreier graphs.

    Holds exactly when some index-2 subgroup containing the stabilizer is
    disjoint from the connection multiset.  Avoidance always forces the
    graph bipartite.  The converse is an equivalence for the regular action
    (trivial stabilizer); with a nontrivial stabilizer a connected coset
    graph can be bipartite without any avoiding index-2 subgroup (smallest
    example: the degree-4 alternating group on cosets of a point stabilizer
    with two double transpositions, a 4-cycle).  The candidates are member
    index sets; a ``FiniteGroup`` is built only for the witness, the first
    avoiding one.
    """
    if not connectivity_and_bipartiteness(graph).connected:
        raise DisconnectedGraphError(
            "the index-2 avoidance criterion is stated for connected graphs only"
        )
    group, support = graph.group, graph.multiset.support()
    for candidate in index2_overgroups(group, graph.stabilizer):
        if candidate.isdisjoint(support):
            return BipartiteCriterion(criterion_holds=True, witness=group.subgroup_from_indices(candidate))
    return BipartiteCriterion(criterion_holds=False, witness=None)


def rs_induce(transversal: Transversal, multiset: SymmetricMultiset) -> SymmetricMultiset:
    """Rewrite a connection multiset of the transversal's parent group into
    one of its subgroup.

    Every pair (t, s) of a coset representative and a connection element
    contributes t s (bar(t s))^-1, where bar maps an element to its coset
    representative.  Sizes multiply: the result has |G:H| * |S| members with
    multiplicity, all inside the subgroup, and stays symmetric.  The pairs
    are two ``products`` calls, their multiplicities one bincount.
    """
    group, subgroup = transversal.parent, transversal.subgroup
    _require_group(multiset, group)
    inv = np.array(group.inverse_indices())
    ts = group.products(transversal.rep_indices, multiset.support(), outer=True)
    rewritten = group.products(ts, inv[transversal.rep_of[ts]]).ravel()
    counts = np.bincount(rewritten, np.tile([m for _, m in multiset.entries], len(ts))).astype(int)
    found = np.flatnonzero(counts)
    if (transversal.slot_of[found] != transversal.slot_of[0]).any():
        raise AssertionError("rewritten element escaped the subgroup")
    entries = subgroup._find(group.images[found])
    return SymmetricMultiset(subgroup, zip(entries, counts[found].tolist()))


@dataclass(frozen=True)
class Induction:
    """An induced multiset and the verdict of its size law."""

    multiset: SymmetricMultiset
    size_law: Verdict


def induce_with_laws(transversal: Transversal, multiset: SymmetricMultiset) -> Induction:
    """``rs_induce`` together with its size law, |S_H| = |G:H| |S|, with
    |G:H| from the orders, not from the transversal's coset count.  The
    induced multiset is symmetric because ``SymmetricMultiset`` checks it."""
    induced = rs_induce(transversal, multiset)
    index = transversal.parent.order // transversal.subgroup.order
    detail = f"{induced.size} == {index} * {multiset.size}"
    return Induction(induced, SIZE_LAW.check(abs(induced.size - index * multiset.size), 0, detail))


@dataclass(frozen=True)
class DedupWitness:
    """A connection set whose induced multiset loses its gap when collapsed."""

    connection_set: SymmetricMultiset
    transversal_reps: tuple[int, ...]
    parent_gap: float
    induced_multiset_gap: float
    induced_set_gap: float


@dataclass(frozen=True)
class DedupSearchResult:
    """``monotonicity`` folds the induced-gap test of every rewriting with
    multiplicities; its violations must be 0."""

    witnesses: tuple[DedupWitness, ...]
    sets_examined: int
    connected_count: int
    used_default_transversal: bool
    transversals_scanned: int
    monotonicity: Tally


def symmetric_subsets(group: FiniteGroup) -> Iterable[SymmetricMultiset]:
    """Every nonempty inverse-closed subset of the group, multiplicities 1:
    the unions of inverse classes, fewest classes first."""
    classes = group.inverse_classes()
    for r in range(1, len(classes) + 1):
        for combo in itertools.combinations(classes, r):
            yield SymmetricMultiset(group, ((i, 1) for members in combo for i in members))


def _all_transversals(base: Transversal, cap: int) -> Iterable[Transversal]:
    slots = base.coset_members()
    total = 1
    for members in slots:
        total *= len(members)
        if total > cap:
            raise SearchSpaceError(
                f"more than {cap} transversals to enumerate; raise the cap"
            )
    for choice in itertools.product(*slots):
        yield base.with_reps(choice)


def dedup_counterexample_search(
    group: FiniteGroup,
    subgroup: FiniteGroup,
    stabilizer: FiniteGroup,
    class_cap: int = 22,
    transversal_cap: int = 10_000,
) -> DedupSearchResult:
    """Exhaustive search for connection sets that lose expansion when
    the induced multiset is collapsed to a plain set.

    Enumerates all symmetric subsets S of the group with a connected
    Schreier graph, rewrites each into the subgroup, and reports every S
    whose deduplicated rewriting fails the induced-gap inequality.  The
    rewriting with multiplicities is checked against the same inequality;
    it can never lose gap, so any violation there is an error signal.

    Tries the deterministic transversal first and falls back to scanning
    the other transversals when no witness shows up.  The result says
    whether the witnesses came from the deterministic transversal and how
    many transversals were scanned.
    """
    group.indices_of(subgroup)  # NotASubgroupError before any work
    subgroup.indices_of(stabilizer)
    class_count = len(group.inverse_classes())
    if class_count > class_cap:
        raise SearchSpaceError(
            f"{class_count} inverse classes exceed the cap of {class_cap}"
        )

    connected_sets: list[tuple[SymmetricMultiset, float]] = []
    examined = 0
    for multiset in symmetric_subsets(group):
        examined += 1
        graph = schreier_graph(group, stabilizer, multiset)
        if not connectivity_and_bipartiteness(graph).connected:
            continue
        connected_sets.append((multiset, spectral_summary(graph).gap))

    monotonicity = Tally(INDUCED_GAP.name)

    def scan(transversal: Transversal) -> list[DedupWitness]:
        witnesses = []
        for multiset, parent_gap in connected_sets:
            induced = rs_induce(transversal, multiset)
            gap_multi = spectral_summary(
                schreier_graph(subgroup, stabilizer, induced)
            ).gap
            gap_dedup = spectral_summary(
                schreier_graph(subgroup, stabilizer, induced.as_set())
            ).gap
            monotonicity.add(INDUCED_GAP.check(gap_multi, parent_gap))
            if not INDUCED_GAP.check(gap_dedup, parent_gap).passed:
                witnesses.append(
                    DedupWitness(
                        connection_set=multiset,
                        transversal_reps=tuple(transversal.rep_indices.tolist()),
                        parent_gap=parent_gap,
                        induced_multiset_gap=gap_multi,
                        induced_set_gap=gap_dedup,
                    )
                )
        return witnesses

    default = Transversal(group, subgroup)
    witnesses = scan(default)
    scanned = 1
    if not witnesses:
        for transversal in _all_transversals(default, transversal_cap):
            if np.array_equal(transversal.rep_indices, default.rep_indices):
                continue
            witnesses = scan(transversal)
            scanned += 1
            if witnesses:
                break
    return DedupSearchResult(
        witnesses=tuple(witnesses),
        sets_examined=examined,
        connected_count=len(connected_sets),
        used_default_transversal=bool(witnesses) and scanned == 1,
        transversals_scanned=scanned,
        monotonicity=monotonicity,
    )
