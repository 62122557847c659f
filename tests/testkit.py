"""Helpers shared by the tests: group constructions that only the tests
need, and conversions between permutations and the element indices that
connection multisets hold."""

import math

from schreierlab import (
    CosetAction,
    GroupTooLargeError,
    Permutation,
    group_from_generators,
    interval_data,
)
from schreierlab.permutations import DEFAULT_ORDER_CAP, Transversal


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
    (|S| |G:H|) over the interval, with the first subgroup attaining it."""
    best_log, best_entry = math.inf, None
    for entry in interval_data(group, stabilizer):
        value = math.log(5.0) - 2.0 * math.log(entry.section) / (size * entry.index)
        if value < best_log:
            best_log, best_entry = value, entry
    return math.exp(best_log), best_entry.subgroup


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
