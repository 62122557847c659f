"""Helpers shared by the tests: group constructions that only the tests
need, and conversions between permutations and the element indices that
connection multisets hold."""

from schreierlab import CosetAction, Permutation, group_from_generators
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
