"""The block-circulant spectrum against dense eigvalsh and closed forms.

``block_eigenvalues`` solves one Hermitian block per Fourier mode of a
cyclic symmetry from N_G(H)/H; every test here compares its spectrum with
an independent one, eigenvalue by eigenvalue.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierlab import (
    Permutation,
    SchreierGraph,
    SymmetricMultiset,
    catalog_group,
    connectivity_and_bipartiteness,
    sample_symmetric_multiset,
    schreier_graph,
    spectral_summary,
    symmetrize,
)
from schreierlab import spectral
from schreierlab.catalog import abelian_names_up_to
from schreierlab.spectral import block_eigenvalues
from testkit import indexed, ones, permutation_entries

AGREEMENT = 1e-12


def dense(graph):
    return np.linalg.eigvalsh(graph.walk)[::-1]


def drawn_multiset(group, rng, count):
    return symmetrize(group, [(int(i), 1) for i in rng.integers(1, group.order, size=count)])


def normaliser_coset_orders(group, stabilizer):
    """Brute force: for each element index y normalising H, the least t
    with y^t in H, by Permutation products."""
    members = {p.images for p in stabilizer.elements}
    orders = {}
    for i, g in enumerate(group.elements):
        if all((g.inverse() * h * g).images in members for h in stabilizer.elements):
            t, power = 1, g
            while power.images not in members:
                t, power = t + 1, power * g
            orders[i] = t
    return orders


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(
        ["sym:4", "alt:4", "dihedral:16", "cyclic:2xsym:4", "heisenberg:3", "cyclic:15", "alt:5"]
    ),
    stabilizer_gens=st.lists(st.integers(min_value=0), max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_spectrum_matches_dense(name, stabilizer_gens, seed):
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(group.elements[i % group.order] for i in stabilizer_gens)
    graph = schreier_graph(group, stabilizer, drawn_multiset(group, np.random.default_rng(seed), 3))
    y, k = graph.action.cyclic_symmetry()
    orders = normaliser_coset_orders(group, stabilizer)
    assert k == max(orders.values())
    assert y == min(i for i, t in orders.items() if t == k)
    if k > 1:
        eigenvalues = block_eigenvalues(graph, graph.action.left_action_of_index(y))
        assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


# (group, stabilizer generators as cycles, expected k): odd and even k,
# regular actions and stabilizers with a nontrivial N_G(H)/H
SYMMETRIES = [
    ("cyclic:9", [], 9),
    ("sym:4", [], 4),
    ("alt:5", [], 5),
    ("sym:4", [[[0, 1]]], 2),
    ("cyclic:2xsym:4", [[[0, 1]]], 4),
    ("alt:5", [[[0, 1, 2]]], 2),
    ("dihedral:16", [[[0, 4], [1, 3], [5, 7]]], 2),
]


@pytest.mark.parametrize("name,stabilizer_cycles,expected_k", SYMMETRIES)
def test_block_spectrum_on_chosen_symmetries(name, stabilizer_cycles, expected_k):
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(
        Permutation.from_cycles(cycles, group.degree) for cycles in stabilizer_cycles
    )
    graph = schreier_graph(group, stabilizer, drawn_multiset(group, np.random.default_rng(5), 2))
    y, k = graph.action.cyclic_symmetry()
    assert k == expected_k
    eigenvalues = block_eigenvalues(graph, graph.action.left_action_of_index(y))
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


def test_self_normalising_stabilizer_takes_the_dense_path(monkeypatch):
    # a point stabilizer of sym:5 is its own normaliser: no symmetry to use
    group = catalog_group("sym:5")
    graph = schreier_graph(
        group, group.point_stabilizer(0), symmetrize(group, ones(group, group.generators))
    )
    assert graph.action.cyclic_symmetry() == (0, 1)
    monkeypatch.setattr(spectral, "BLOCK_FLOOR", 1)
    calls = []
    monkeypatch.setattr(spectral, "block_eigenvalues", lambda *args: calls.append(args))
    eigenvalues = spectral_summary(graph).eigenvalues
    assert calls == []
    assert np.max(np.abs(np.array(eigenvalues) - dense(graph))) < AGREEMENT


def test_summary_uses_blocks_from_the_floor_on(monkeypatch):
    group = catalog_group("dihedral:16")
    graph = schreier_graph(
        group, group.trivial_subgroup(), symmetrize(group, ones(group, group.generators))
    )
    solved = []
    solve = spectral.sym_eigenvalues

    def counted(matrix, dim_cap=spectral.DEFAULT_DIM_CAP):
        solved.append(len(matrix))
        return solve(matrix, dim_cap)

    monkeypatch.setattr(spectral, "sym_eigenvalues", counted)
    monkeypatch.setattr(spectral, "BLOCK_FLOOR", 16)
    summary = spectral_summary(graph)
    # dihedral:16 has an element of order 8: modes 0..4 of one 2 x 2 block each
    assert solved == [2] * 5
    assert np.max(np.abs(np.array(summary.eigenvalues) - dense(graph))) < AGREEMENT
    monkeypatch.setattr(spectral, "BLOCK_FLOOR", 17)
    solved.clear()
    spectral_summary(graph)
    assert solved == [16]


def test_non_normalising_element_is_refused():
    # (0 1 2) does not normalise <(0 1)(2 3)> in alt:4; on the default
    # transversal its left map is still a 6-cycle of the cosets, so only
    # the exact commutation check can refuse it
    group = catalog_group("alt:4")
    stabilizer = group.subgroup_generated([Permutation.from_cycles([[0, 1], [2, 3]], 4)])
    graph = schreier_graph(
        group, stabilizer, symmetrize(group, ones(group, group.generators))
    )
    y = group.index_of(Permutation.from_cycles([[0, 1, 2]], 4))
    left = graph.action.left_action_of_index(y)
    assert sorted(left.tolist()) == list(range(6))
    with pytest.raises(ValueError, match="does not commute"):
        block_eigenvalues(graph, left)


def test_symmetry_that_is_not_free_or_not_a_permutation_is_refused():
    group = catalog_group("cyclic:6")
    graph = schreier_graph(
        group, group.trivial_subgroup(), symmetrize(group, ones(group, group.generators))
    )
    # the reflection x -> -x of the 6-cycle commutes with the walk but fixes 0 and 3
    with pytest.raises(ValueError, match="cycles of other lengths"):
        block_eigenvalues(graph, -np.arange(6) % 6)
    with pytest.raises(ValueError, match="not a permutation"):
        block_eigenvalues(graph, np.zeros(6, dtype=int))


def test_walk_symmetry_that_swaps_columns_is_accepted():
    # x -> 1 - x on the 8-cycle is free (2x = 1 has no solution mod 8) and
    # preserves the walk, but it sends the column of g to that of g^-1
    group = catalog_group("cyclic:8")
    graph = schreier_graph(
        group, group.trivial_subgroup(), symmetrize(group, ones(group, group.generators))
    )
    g = group.generators[0]
    powers = [Permutation.identity(group.degree)]
    for _ in range(7):
        powers.append(powers[-1] * g)
    point = [graph.action.transversal.slot_of[group.index_of(x)] for x in powers]
    left = np.empty(8, dtype=int)
    left[point] = [point[(1 - e) % 8] for e in range(8)]
    assert not np.array_equal(graph.slots[left], left[graph.slots])
    eigenvalues = block_eigenvalues(graph, left)
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


def test_summary_above_the_floor_builds_no_dense_matrix(monkeypatch):
    group = catalog_group("alt:7")
    graph = schreier_graph(
        group, group.trivial_subgroup(), symmetrize(group, ones(group, group.generators))
    )

    def refuse(graph):
        raise AssertionError("a dense n x n view was built")

    monkeypatch.setattr(SchreierGraph, "counts", property(refuse))
    monkeypatch.setattr(SchreierGraph, "walk", property(refuse))
    assert connectivity_and_bipartiteness(graph).connected
    summary = spectral_summary(graph)
    assert len(summary.eigenvalues) == graph.vertex_count == 2520


# the shapes of the large-actions benchmark workload, above the floor
@pytest.mark.parametrize(
    "name,stabilizer_cycles,expected_k",
    [("sym:7", [[[1, 6]]], 6), ("alt:7", [], 7), ("cyclic:1024", [], 1024)],
)
def test_large_action_shapes_match_dense(name, stabilizer_cycles, expected_k):
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(
        Permutation.from_cycles(cycles, group.degree) for cycles in stabilizer_cycles
    )
    graph = schreier_graph(group, stabilizer, drawn_multiset(group, np.random.default_rng(7), 3))
    assert graph.vertex_count >= spectral.BLOCK_FLOOR
    assert graph.action.cyclic_symmetry()[1] == expected_k
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


# -- the abelian character-sum oracle ------------------------------------------


def character_sums(name, multiset):
    """Walk eigenvalues of a Cayley graph of Z_n1 x ... x Z_nr in closed form.

    The catalog builds ``cyclic:n1x...xcyclic:nr`` as rotations of disjoint
    blocks of n_i points, so an element's coordinate on block i is the image
    of the block's first point less that point.  The eigenvalue of the
    character a is (1/|S|) sum_s m_s cos(2 pi sum_i a_i s_i / n_i), the
    multiset being symmetric.
    """
    moduli = np.array([int(part.split(":")[1]) for part in name.split("x")])
    offsets = np.concatenate(([0], np.cumsum(moduli)[:-1]))
    entries = permutation_entries(multiset)
    coords = np.array([[p.images[o] - o for o in offsets] for p, _ in entries])
    mults = np.array([m for _, m in entries], dtype=float)
    characters = np.array(list(itertools.product(*(range(n) for n in moduli))))
    phases = 2.0 * np.pi * (characters / moduli) @ coords.T
    return np.sort(np.cos(phases) @ mults / multiset.size)[::-1]


def test_character_sums_over_the_abelian_sweep_types():
    names = abelian_names_up_to(64)
    rng = np.random.default_rng(20250803)
    for name in names:
        group = catalog_group(name)
        for size in (2, 3, 5):
            multiset = sample_symmetric_multiset(group, size, rng)
            graph = schreier_graph(group, group.trivial_subgroup(), multiset)
            eigenvalues = np.array(spectral_summary(graph).eigenvalues)
            assert np.max(np.abs(eigenvalues - character_sums(name, multiset))) < AGREEMENT, name


@pytest.mark.parametrize("name,expected_k", [("cyclic:1024", 1024), ("cyclic:16xcyclic:32", 32)])
def test_character_sums_above_the_floor(name, expected_k):
    group = catalog_group(name)
    multiset = drawn_multiset(group, np.random.default_rng(11), 3)
    graph = schreier_graph(group, group.trivial_subgroup(), multiset)
    assert graph.vertex_count >= spectral.BLOCK_FLOOR
    assert graph.action.cyclic_symmetry()[1] == expected_k
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert np.max(np.abs(eigenvalues - character_sums(name, multiset))) < AGREEMENT


def test_character_sums_with_multiplicities():
    group = catalog_group("cyclic:4xcyclic:8")
    g, h = group.generators
    multiset = SymmetricMultiset(
        group, indexed(group, [(g, 2), (g.inverse(), 2), (h, 1), (h.inverse(), 1)])
    )
    graph = schreier_graph(group, group.trivial_subgroup(), multiset)
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert np.max(np.abs(eigenvalues - character_sums("cyclic:4xcyclic:8", multiset))) < AGREEMENT
