"""Differential tests of the subgroup lattice, its interval data and the
Cayley table against the straightforward algorithms they replace.

The oracles below are the earlier implementations: the lattice adjoins
every element to every known subgroup and closes the result from scratch,
and each section comes from the subgroup's own Cayley table, its derived
subgroup closed from the commutators of all pairs of its elements.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierlab import (
    FiniteGroup,
    SubgroupLimitError,
    catalog_group,
    interval_data,
    intermediate_subgroups,
)

# every catalog group of order <= 128 in the theta-intervals benchmark
THETA_GROUPS = ["heisenberg:5", "sym:5", "elem-abelian:2^5", "cyclic:2xsym:4", "dihedral:16"]
SMALL_GROUPS = ["sym:4", "dihedral:16", "cyclic:2xsym:4", "elem-abelian:2^4", "heisenberg:3", "alt:4"]


def closure_from_scratch(group, seed):
    """Breadth-first closure of element indices under right multiplication."""
    rows = group._rows()
    gens = sorted(set(seed) - {0})
    members = {0, *gens}
    frontier = list(members)
    while frontier:
        row = rows(frontier.pop())
        for g in gens:
            j = row[g]
            if j not in members:
                members.add(j)
                frontier.append(j)
    return frozenset(members)


def lattice_by_adjoining_every_element(group, floor):
    """The interval above the floor, in canonical order."""
    floor_idx = frozenset(group.index_of(p) for p in floor.elements)
    known = {floor_idx: tuple(sorted(floor_idx - {0}))}
    frontier = [(floor_idx, known[floor_idx])]
    while frontier:
        members, gens = frontier.pop()
        for g in range(group.order):
            if g in members:
                continue
            grown = closure_from_scratch(group, gens + (g,))
            if grown not in known:
                known[grown] = gens + (g,)
                frontier.append((grown, gens + (g,)))
    return [tuple(sorted(s)) for s in sorted(known, key=lambda s: (len(s), tuple(sorted(s))))]


def member_indices(group, subgroups):
    return [tuple(sorted(group.index_of(p) for p in s.elements)) for s in subgroups]


def sections_by_own_commutators(group, stabilizer):
    """(index, section) per interval member, from each member's own table."""
    stab_idx = [group.index_of(p) for p in stabilizer.elements]
    out = []
    for sub in intermediate_subgroups(group, stabilizer):
        pairs = range(sub.order)
        derived = closure_from_scratch(sub, {sub.commutator(a, b) for a in pairs for b in pairs})
        seed = set(derived)
        seed.update(sub.index_of(group.elements[i]) for i in stab_idx)
        out.append((group.order // sub.order, sub.order // len(closure_from_scratch(sub, seed))))
    return out


def assert_matches_oracle(group, floor):
    subgroups = intermediate_subgroups(group, floor)
    assert member_indices(group, subgroups) == lattice_by_adjoining_every_element(group, floor)
    for sub in subgroups:
        gens = [group.index_of(p) for p in sub.generators]
        assert closure_from_scratch(group, gens) == frozenset(group.index_of(p) for p in sub.elements)
        # each generator at least doubles the subgroup generated so far
        assert len(gens) <= max(1, math.log2(sub.order))


# ---------------------------------------------------------------------------
# the lattice


@pytest.mark.parametrize("name", THETA_GROUPS)
def test_full_lattice_matches_oracle(name):
    group = catalog_group(name)
    assert_matches_oracle(group, group.trivial_subgroup())


@pytest.mark.parametrize(
    "name, point",
    [("sym:5", 0), ("sym:5", 3), ("dihedral:16", 0), ("cyclic:2xsym:4", 2), ("elem-abelian:2^5", 0)],
)
def test_interval_above_point_stabilizer_matches_oracle(name, point):
    group = catalog_group(name)
    assert_matches_oracle(group, group.point_stabilizer(point))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.lists(st.integers(min_value=0), max_size=2))
def test_interval_above_random_floor_matches_oracle(name, picks):
    group = catalog_group(name)
    floor = group.subgroup_generated([group.elements[i % group.order] for i in picks])
    assert_matches_oracle(group, floor)


def test_perfect_subgroup_is_found():
    # A5 is not reached by adjoining only cyclic subgroups that normalise
    # the current subgroup; the complete cyclic extension finds it
    sym5 = catalog_group("sym:5")
    alt5 = {p.images for p in catalog_group("alt:5").elements}
    of_order_60 = [s for s in intermediate_subgroups(sym5, sym5.trivial_subgroup()) if s.order == 60]
    assert [{p.images for p in s.elements} for s in of_order_60] == [alt5]


@pytest.mark.parametrize("name", ["sym:4", "dihedral:16", "elem-abelian:2^5"])
def test_limit_error_exactly_one_below_the_count(name):
    count = len(lattice_by_adjoining_every_element(*_trivial(name)))
    with pytest.raises(SubgroupLimitError):
        intermediate_subgroups(*_trivial(name), limit=count - 1)
    group, floor = _trivial(name)
    assert len(intermediate_subgroups(group, floor, limit=count)) == count
    # the cached interval is held to the limit too
    with pytest.raises(SubgroupLimitError):
        intermediate_subgroups(group, floor, limit=count - 1)


def _trivial(name):
    group = catalog_group(name)
    return group, group.trivial_subgroup()


# ---------------------------------------------------------------------------
# interval data


@pytest.mark.parametrize("name", THETA_GROUPS)
def test_sections_match_own_commutators(name):
    group = catalog_group(name)
    floors = [group.trivial_subgroup(), group.point_stabilizer(0)]
    for floor in floors:
        got = [(e.index, e.section) for e in interval_data(group, floor)]
        assert got == sections_by_own_commutators(group, floor)


# ---------------------------------------------------------------------------
# the Cayley table


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(SMALL_GROUPS + ["heisenberg:5", "sym:5", "cyclic:7xdihedral:8", "alt:5"]))
def test_table_matches_permutation_products(name):
    group = catalog_group(name)
    expected = [[group.index_of(p * q) for q in group.elements] for p in group.elements]
    assert group._table().tolist() == expected


def test_table_rejects_elements_that_are_not_closed():
    group = FiniteGroup([[0, 1, 2], [1, 2, 0]], [[1, 2, 0]])
    with pytest.raises(ValueError, match="not closed"):
        group._table()
