"""Helpers shared by the tests: group constructions that only the tests
need, and conversions between permutations and the element indices that
connection multisets hold."""

import math

import numpy as np

from schreierlab import (
    CosetAction,
    GroupTooLargeError,
    Permutation,
    SubgroupLimitError,
    derived_subgroup,
    group_from_generators,
    interval_data,
    lower_central_series,
    nilpotent_exponents,
)
from schreierlab.bounds import DerivedIndexReport
from schreierlab.inequalities import DERIVED_INDEX
from schreierlab.permutations import DEFAULT_ORDER_CAP, DEFAULT_SUBGROUP_LIMIT, Transversal
from schreierlab.schreier import ConnectivityReport

# small catalog groups, abelian and not, of orders 12 to 48
SMALL_GROUPS = ["sym:4", "dihedral:16", "cyclic:2xsym:4", "elem-abelian:2^4", "heisenberg:3", "alt:4"]


def indexed(group, entries):
    """(permutation, multiplicity) pairs as (element index, multiplicity)
    pairs of the group."""
    return [(group.index_of(p), m) for p, m in entries]


def ones(group, perms):
    """Permutations of the group as (element index, 1) pairs."""
    return [(group.index_of(p), 1) for p in perms]


def permutation_entries(multiset):
    """A multiset's entries as (permutation, multiplicity) pairs."""
    return [(multiset.group.elements[i], m) for i, m in multiset.entries]


def conjugate_subgroup(group, sub, g):
    """The subgroup g^-1 * sub * g inside the group."""
    gi = group.index_of(g)
    inv = group.inverse_indices()
    members = [group.mult(group.mult(inv[gi], i), gi) for i in group.indices_of(sub)]
    return group.subgroup_from_indices(members)


def normal_core(group, subgroup):
    """Largest normal subgroup of the parent contained in the subgroup."""
    inv = group.inverse_indices()
    core = set(group.indices_of(subgroup))
    transversal = Transversal(group, subgroup)
    for t in transversal.rep_indices:
        conj = {group.mult(group.mult(inv[t], y), t) for y in core}
        core &= conj
        if len(core) == 1:
            break
    return group.subgroup_from_indices(core)


def coset_permutation(action: CosetAction, p: Permutation) -> Permutation:
    """The group element p acting on the cosets, as a Permutation of slots."""
    return Permutation(action.permutation_of_index(action.group.index_of(p)).tolist())


def faithful_reduction(group, stabilizer, cap=DEFAULT_ORDER_CAP):
    """Permutation image of the action on right cosets of the stabilizer.

    Returns the image group (degree = subgroup index) together with the
    base point, the coset of the stabilizer itself.  The image is faithful:
    its order is the parent order divided by the normal core of the
    stabilizer.
    """
    action = CosetAction(group, stabilizer)
    images = [coset_permutation(action, g) for g in group.generators]
    return group_from_generators(images, cap=cap), action.base_point


def all_members_series(group):
    """Member sets of the lower central series and the nilpotency class,
    seeded from every member: gamma_(i+1) is the normal closure of [x, g]
    for every member x of gamma_i and every generator g of the group,
    closed by adding whole conjugate sets."""
    gens = [group.index_of(g) for g in group.generators]
    inv = group.inverse_indices()
    current = frozenset(range(group.order))
    terms = [current]
    while True:
        members = group._closure({group.commutator(x, g) for x in current for g in gens})
        while True:
            conjugates = {group.mult(group.mult(inv[g], x), g) for x in members for g in gens}
            if conjugates <= members:
                break
            members = group._closure(members | conjugates)
        if members == current:
            return terms, 0 if len(current) == 1 else None
        terms.append(members)
        if len(members) == 1:
            return terms, len(terms) - 1
        current = members


def subgroup_bound_by_minimum(group, stabilizer, size):
    """The subgroup bound as the minimum of log 5 - 2 log(section) /
    (|S| |G:H|) over the interval, with the first entry attaining it."""
    best_log, best_entry = math.inf, None
    for entry in interval_data(group, stabilizer):
        value = math.log(5.0) - 2.0 * math.log(entry.section) / (size * entry.index)
        if value < best_log:
            best_log, best_entry = value, entry
    return math.exp(best_log), best_entry


def derived_index_by_series(group, stabilizer, multiset):
    """The derived-index report with every figure found again for this one
    multiset: the oracle for ``derived_index_check``, which reads its
    per-action figures from a cache."""
    stab_idx = group.indices_of(stabilizer)
    d = multiset.size
    if d < 2:
        return DerivedIndexReport(hypotheses_hold=False)
    if len(group._closure(stab_idx.union(multiset.support()))) != group.order:
        return DerivedIndexReport(hypotheses_hold=False)
    terms, _ = lower_central_series(group)
    class_c = None
    for i, term in enumerate(terms[1:], start=1):
        if group.indices_of(term) <= stab_idx:
            class_c = i
            break
    if class_c is None:
        return DerivedIndexReport(hypotheses_hold=False)
    join = group._closure(stab_idx, base=group.indices_of(derived_subgroup(group)))
    lhs = group.order // len(join)
    index = group.order // stabilizer.order
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


def tuple_closure(generators, cap=DEFAULT_ORDER_CAP):
    """Image tuples of the breadth-first closure of the generators, one
    product at a time: the oracle for the level-by-level array closure of
    ``group_from_generators``."""
    identity = tuple(range(generators[0].degree))
    elements, seen = [identity], {identity}
    for current in elements:
        for g in generators:
            nxt = tuple(g.images[x] for x in current)
            if nxt not in seen:
                if len(elements) >= cap:
                    raise GroupTooLargeError(f"group exceeds the configured cap of {cap} elements")
                seen.add(nxt)
                elements.append(nxt)
    return elements


def lattice_over_every_cyclic_rep(group, floor, limit=DEFAULT_SUBGROUP_LIMIT):
    """The interval above the floor as (members, generator indices) pairs in
    canonical order, each subgroup found extended by every cyclic subgroup
    it does not contain: the oracle for ``intermediate_subgroups``, which
    tries one cyclic subgroup per orbit under conjugation, only <z> with
    z^p in H, and skips what its prime-index joins hold."""
    floor_idx = group.indices_of(floor)
    floor_gens = group._greedy_generators(floor_idx)
    known = {floor_idx: floor_gens}
    frontier = [(floor_idx, floor_gens)]
    while frontier:
        members, gens = frontier.pop()
        for z in group._cyclic_classes()[0]:
            if z in members:
                continue
            grown = group._closure((z,), base=members, base_gens=gens)
            if grown not in known:
                if len(known) >= limit:
                    raise SubgroupLimitError(f"more than {limit} subgroups")
                known[grown] = gens + (z,)
                frontier.append((grown, gens + (z,)))
    ordered = sorted(known, key=lambda s: (len(s), tuple(sorted(s))))
    return [(tuple(sorted(s)), known[s]) for s in ordered]


def bfs_connectivity(graph):
    """Components and 2-colorability by breadth-first search over the slot
    table: each component's least point gets color 0 and every point found
    the other color than its finder; bipartite when every edge then joins
    two colors.  The oracle for the array passes of
    ``connectivity_and_bipartiteness``."""
    neighbours = graph.slots.tolist()
    color = [-1] * graph.vertex_count
    components = 0
    for start in range(graph.vertex_count):
        if color[start] >= 0:
            continue
        components += 1
        color[start] = 0
        queue = [start]
        for v in queue:
            for w in neighbours[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    queue.append(w)
    color = np.array(color)
    bipartite = bool(np.all(color[graph.slots] != color[:, None]))
    return ConnectivityReport(
        connected=(components == 1),
        bipartite=bipartite,
        classes=tuple(color.tolist()) if bipartite else None,
    )
