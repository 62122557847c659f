"""The block spectra against dense eigvalsh and closed forms.

One engine builds and solves every block from each point's orbit, its
name and a list of representations, each front end from a subgroup of K
= N_G(H)/H.  ``block_eigenvalues`` names the points by a cyclic symmetry,
with the characters of C_k (``fourier_representations``);
``symmetric_block_eigenvalues`` names them by a symmetric group on the
points H fixes, with Young's orthogonal form; ``quotient_block_eigenvalues``
names them by the whole of K (``normalizer_quotient``), with its real
irreducible representations found by Dixon's method
(``real_representations``).  Every spectrum test here
compares a spectrum with an independent one, eigenvalue by eigenvalue;
the representation tables are checked against the group laws, the
planner's one price (``_price``) against the closed forms of each block
family, and each refusal names the condition that failed.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schreierlab import (
    CosetAction,
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
from schreierlab.notation import permutation_to_text
from schreierlab.permutations import _partitions
from schreierlab.permutations import FiniteGroup
from schreierlab.spectral import (
    block_eigenvalues,
    fourier_representations,
    normalizer_quotient,
    quotient_block_eigenvalues,
    quotient_table,
    real_representations,
    reduced_words,
    symmetric_block_eigenvalues,
    symmetric_group,
    young_forms,
    young_matrices,
)
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


def cost(n, k):
    """Sum of dim^3 over the blocks solved, a complex block counted 3 times."""
    real, complex_ = 1 + (k % 2 == 0), (k - 1) // 2
    return real * (n / k) ** 3 + 3 * complex_ * (n / k) ** 3


def taken_maps(monkeypatch):
    """The list that records each left map the planner passes to
    ``block_eigenvalues``."""
    taken = []
    monkeypatch.setattr(
        spectral, "block_eigenvalues",
        lambda graph, left, dim_cap: taken.append(left) or block_eigenvalues(graph, left, dim_cap),
    )
    return taken


def force_cyclic(monkeypatch):
    """Make the planner take cyclic blocks, from one point on, wherever K
    is nontrivial: no symmetric group is found and every family but the
    cyclic one is priced out.  Returns ``taken_maps``' list."""
    price = spectral._price
    monkeypatch.setattr(spectral, "BLOCK_FLOOR", 1)
    monkeypatch.setattr(spectral, "symmetric_group", lambda action: None)
    monkeypatch.setattr(
        spectral, "_price",
        lambda n, order, families: price(n, order, families) if families == spectral._fourier_families(order) else math.inf,
    )
    return taken_maps(monkeypatch)


def cycle_length(left):
    return len(left) // len(Permutation(left.tolist()).cycles(include_fixed=True))


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    name=st.sampled_from(
        ["sym:4", "alt:4", "dihedral:16", "cyclic:2xsym:4", "heisenberg:3", "cyclic:15", "alt:5",
         "sym:5"]
    ),
    stabilizer_gens=st.lists(st.integers(min_value=0), max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_spectrum_matches_dense(monkeypatch, name, stabilizer_gens, seed):
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(group.elements[i % group.order] for i in stabilizer_gens)
    graph = schreier_graph(group, stabilizer, drawn_multiset(group, np.random.default_rng(seed), 3))
    orders = normaliser_coset_orders(group, stabilizer)
    # the cyclic symmetry: the least y of the largest order in K
    top = max(orders.values())
    y = min(i for i, t in orders.items() if t == top)
    with monkeypatch.context() as forced:
        taken = force_cyclic(forced)
        eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert [left.tolist() for left in taken] == ([] if top == 1 else [graph.action.left_action_of_index(y).tolist()])
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT
    monkeypatch.setattr(spectral, "BLOCK_FLOOR", 1)
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


def assert_coset_orders_match_brute_force(group, stabilizer):
    # the planner's element orders of K: a regular action reads G's images,
    # any other the rows of K's table, one per coset of H in N_G(H) by its
    # least member, in ascending order
    expected = normaliser_coset_orders(group, stabilizer)
    if stabilizer.order == 1:
        assert spectral._permutation_orders(group.images).tolist() == [expected[i] for i in range(group.order)]
        return
    action = CosetAction(group, stabilizer)
    slot_of, least = action.transversal.slot_of, {}
    for y in sorted(expected):
        least.setdefault(slot_of[y], y)
    got = spectral._permutation_orders(quotient_table(normalizer_quotient(action)))
    assert got.tolist() == [expected[y] for y in least.values()]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(
        ["sym:4", "dihedral:16", "cyclic:2xsym:4", "heisenberg:3", "cyclic:15", "alt:5", "sym:5",
         "cyclic:4xcyclic:6"]
    ),
    stabilizer_gens=st.lists(st.integers(min_value=0), max_size=2),
)
def test_coset_orders_are_the_least_power_in_the_stabilizer(name, stabilizer_gens):
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(group.elements[i % group.order] for i in stabilizer_gens)
    assert_coset_orders_match_brute_force(group, stabilizer)


@pytest.mark.parametrize(
    "name, stabilizer_cycles", [("alt:7", []), ("sym:7", [[[1, 6]]]), ("sym:6", [[[0, 1], [2, 3]]])]
)
def test_coset_orders_above_the_table_limit(name, stabilizer_cycles):
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(
        Permutation.from_cycles(cycles, group.degree) for cycles in stabilizer_cycles
    )
    assert_coset_orders_match_brute_force(group, stabilizer)


def test_regular_orders_stop_at_an_element_of_order_n(monkeypatch):
    # element 1 of cyclic:1024 generates it: the first batch is the last
    batches = []
    orders = spectral._permutation_orders
    monkeypatch.setattr(spectral, "_permutation_orders", lambda images: batches.append(len(images)) or orders(images))
    taken = taken_maps(monkeypatch)
    spectral_summary(stabilized_graph("cyclic:1024", []))
    assert batches == [1] and cycle_length(taken[0]) == 1024


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
def test_block_spectrum_on_chosen_symmetries(monkeypatch, name, stabilizer_cycles, expected_k):
    graph = stabilized_graph(name, stabilizer_cycles, multiset_seed=5, draws=2)
    taken = force_cyclic(monkeypatch)
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert [cycle_length(left) for left in taken] == [expected_k]
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


def test_self_normalising_stabilizer_takes_the_dense_path(monkeypatch):
    # a point stabilizer of sym:5 is its own normaliser: no symmetry to use
    group = catalog_group("sym:5")
    graph = schreier_graph(
        group, group.point_stabilizer(0), symmetrize(group, ones(group, group.generators))
    )
    assert len(normalizer_quotient(graph.action)) == 1
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
    taken = taken_maps(monkeypatch)
    summary = spectral_summary(graph)
    # dihedral:16 has a rotation of order 8, element 1, with two cycles:
    # each of the modes 0..4 is one 2 x 2 block, real at 0 and 4
    assert [left.tolist() for left in taken] == [graph.action.left_action_of_index(1).tolist()]
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
    with pytest.raises(ValueError, match="not a permutation"):
        block_eigenvalues(graph, np.zeros(6, dtype=int))
    # g^2 alone makes two 3-cycles: fixing one and turning the other along
    # g^2 commutes with every column, but the map has three fixed points
    g = group.generators[0]
    graph = schreier_graph(group, group.trivial_subgroup(), symmetrize(group, ones(group, [g * g])))
    turn = graph.slots[:, 0]
    still = np.isin(np.arange(6), [0, turn[0], turn[turn[0]]])
    with pytest.raises(ValueError, match="do not act freely"):
        block_eigenvalues(graph, np.where(still, np.arange(6), turn))


def test_walk_symmetry_that_swaps_columns_is_refused():
    # x -> 1 - x on the 8-cycle is free (2x = 1 has no solution mod 8) and
    # preserves the walk, but it sends the column of g to that of g^-1: no
    # left map by N_G(H) does that, and the check is column by column
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
    with pytest.raises(ValueError, match="does not commute"):
        block_eigenvalues(graph, left)


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


# the shapes of the large-actions benchmark workload, above the floor: the
# stabilizer of sym:7 is a transposition, a double or a triple transposition
# by seed.  Each shape's cyclic symmetry (y, k), by group and number of
# stabilizer cycles, is pinned: a faster search must choose the same y, not
# only the same k.  Only cyclic:1024 takes it unforced; the planner takes
# Young's form or N_G(H)/H on the others (LARGE_PATHS)
LARGE_SYMMETRIES = {
    ("sym:7", 1): (543, 6),
    ("alt:7", 0): (2, 7),
    ("cyclic:1024", 0): (1, 1024),
    ("sym:7", 3): (2866, 4),
}


@pytest.mark.parametrize(
    "name,stabilizer_cycles,expected_k",
    [
        ("sym:7", [[[1, 6]]], 6),
        ("alt:7", [], 7),
        ("cyclic:1024", [], 1024),
        ("sym:7", [[[1, 6], [2, 3], [4, 5]]], 4),
    ],
)
def test_large_action_shapes_match_dense(monkeypatch, name, stabilizer_cycles, expected_k):
    graph = stabilized_graph(name, stabilizer_cycles)
    assert graph.vertex_count >= spectral.BLOCK_FLOOR
    expected = dense(graph)
    y, k = LARGE_SYMMETRIES[name, sum(map(len, stabilizer_cycles))]
    with monkeypatch.context() as forced:
        taken = force_cyclic(forced)
        eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert k == expected_k and [left.tolist() for left in taken] == [graph.action.left_action_of_index(y).tolist()]
    assert np.max(np.abs(eigenvalues - expected)) < AGREEMENT
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert np.max(np.abs(eigenvalues - expected)) < AGREEMENT


def test_many_draws_with_repeats_match_dense(monkeypatch):
    # the verify-thm1 shape: 150 draws symmetrized to degree 300, repeated
    # draws and involutions giving multiplicities, by Young's form and by
    # cyclic blocks of order 6
    group = catalog_group("sym:6")
    multiset = drawn_multiset(group, np.random.default_rng(3), 150)
    assert multiset.size == 300 and max(m for _, m in multiset.entries) > 1
    graph = schreier_graph(group, group.trivial_subgroup(), multiset)
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT
    taken = force_cyclic(monkeypatch)
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert [cycle_length(left) for left in taken] == [6]
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


def test_odd_cyclic_blocks_without_a_flip_match_dense():
    # heisenberg:5 has exponent 5: a generator's left map has 25 cycles of
    # length 5, so modes 1 and 2 are complex 25 x 25 blocks and mode 0 real
    group = catalog_group("heisenberg:5")
    graph = schreier_graph(
        group, group.trivial_subgroup(), drawn_multiset(group, np.random.default_rng(9), 3)
    )
    left = graph.action.left_action_of_index(group.index_of(group.generators[0]))
    eigenvalues = block_eigenvalues(graph, left)
    assert len(eigenvalues) == 125
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


@pytest.mark.parametrize("k", range(2, 13))
def test_fourier_representations_are_the_irreducible_representations(k):
    families = fourier_representations(np.arange(k), k)
    # a block's spectrum counts once per copy, a conjugate pair q, k - q as
    # one representation with 2 copies: the dimensions per orbit add up to |K|
    assert sum(len(matrices) * copies * matrices.shape[-1] for matrices, copies in families) == k
    a, b = np.random.default_rng(k).integers(k, size=(2, 60))
    characters = []
    for matrices, copies in families:
        eye = np.eye(matrices.shape[-1])
        assert np.allclose(matrices[:, a] @ matrices[:, b], matrices[:, (a + b) % k])
        assert np.allclose(matrices.conj().swapaxes(-1, -2) @ matrices, eye)  # unitary or orthogonal
        assert np.allclose(matrices[:, 0], eye)
        characters.extend(np.trace(matrices, axis1=-2, axis2=-1))
    characters = np.array(characters)
    assert np.allclose(characters @ characters.conj().T / k, np.eye(len(characters)))


def test_price_of_cyclic_blocks_is_the_closed_form():
    # the families counted from the mode lists are those the engine solves,
    # and their price is exactly cost() for every k up to 64
    for k in range(1, 65):
        families = spectral._fourier_families(k)
        listed = fourier_representations(np.arange(k), k)
        assert [(len(m), m.shape[-1], np.iscomplexobj(m)) for m, _ in listed] == families
        for n in (k, 6 * k, 35 * k):
            assert spectral._price(n, k, families) == cost(n, k)


def test_representations_that_miss_a_dimension_are_refused(monkeypatch):
    # one family dropped from the characters of C_9 (cyclic:9) and of C_8
    # (dihedral:16's rotation): the blocks no longer cover every point
    full = spectral.fourier_representations
    monkeypatch.setattr(spectral, "fourier_representations", lambda *args, **kwargs: full(*args, **kwargs)[1:])
    for name in ["cyclic:9", "dihedral:16"]:
        group = catalog_group(name)
        graph = schreier_graph(
            group, group.trivial_subgroup(), symmetrize(group, ones(group, group.generators))
        )
        with pytest.raises(ValueError, match="do not add up"):
            block_eigenvalues(graph, graph.action.left_action_of_index(1))


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
def test_character_sums_above_the_floor(monkeypatch, name, expected_k):
    group = catalog_group(name)
    multiset = drawn_multiset(group, np.random.default_rng(11), 3)
    graph = schreier_graph(group, group.trivial_subgroup(), multiset)
    assert graph.vertex_count >= spectral.BLOCK_FLOOR
    taken = taken_maps(monkeypatch)
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert [cycle_length(left) for left in taken] == [expected_k]
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


# -- symmetric-group blocks ------------------------------------------------------


def hook_dimension(shape):
    """The hook-length formula: r! over the product of the hook lengths."""
    columns = [sum(1 for part in shape if part > c) for c in range(shape[0])]
    hooks = [shape[i] - j + columns[j] - i - 1 for i in range(len(shape)) for j in range(shape[i])]
    return math.factorial(sum(shape)) // math.prod(hooks)


def all_matrices(form, r):
    """Young's form at every permutation of range(r), in lexicographic order."""
    perms = np.array(list(itertools.permutations(range(r))))
    return perms, young_matrices(form, reduced_words(perms))


@pytest.mark.parametrize("r", range(1, 7))
def test_young_forms_are_the_irreducible_representations(r):
    forms = young_forms(r)
    shapes = list(_partitions(r))
    assert [form.shape[-1] for form in forms] == [hook_dimension(shape) for shape in shapes]
    assert sum(form.shape[-1] ** 2 for form in forms) == math.factorial(r)
    characters = []
    for form in forms:
        eye = np.eye(form.shape[-1])
        for i, s in enumerate(form):  # the Coxeter relations; s symmetric, so orthogonal
            assert np.allclose(s, s.T) and np.allclose(s @ s, eye)
            if i + 1 < r - 1:
                assert np.allclose(np.linalg.matrix_power(s @ form[i + 1], 3), eye)
            for far in form[i + 2 :]:
                assert np.allclose(s @ far, far @ s)
        perms, matrices = all_matrices(form, r)
        characters.append(np.trace(matrices, axis1=1, axis2=2))
    gram = np.array(characters) @ np.array(characters).T / math.factorial(r)
    assert np.allclose(gram, np.eye(len(forms)))


@settings(max_examples=40, deadline=None)
@given(r=st.integers(min_value=2, max_value=6), data=st.data())
def test_young_matrices_multiply_like_the_permutations(r, data):
    # rho(p * q) = rho(p) rho(q), with (p * q)[x] = q[p[x]], and rho(s_i) is the form's s_i
    picks = st.permutations(range(r)).map(list)
    p, q = np.array(data.draw(picks)), np.array(data.draw(picks))
    for form in young_forms(r):
        rho = young_matrices(form, reduced_words(np.array([p, q, q[p]])))
        assert np.allclose(rho[0] @ rho[1], rho[2])
        assert np.allclose(rho[0].T @ rho[0], np.eye(form.shape[-1]))
        swaps = np.array([np.r_[: i, i + 1, i, i + 2 : r] for i in range(r - 1)])
        assert np.allclose(young_matrices(form, reduced_words(swaps)), form)


@pytest.mark.parametrize("r", range(2, 8))
def test_price_of_symmetric_blocks_is_the_sum_of_cubed_rows(r):
    # d from the hook-length formula, not from young_forms
    dimensions = [hook_dimension(shape) for shape in _partitions(r)]
    families = [(1, form.shape[-1], False) for form in young_forms(r)]
    for m in (1, 2, 21):
        expected = sum((m * d) ** 3 for d in dimensions)
        assert spectral._price(m * math.factorial(r), math.factorial(r), families) == expected


@pytest.mark.parametrize("r", range(2, 8))
def test_young_blocks_cost_no_more_than_any_cyclic_subgroup_of_sym_r(r):
    # where K is S_r no cyclic subgroup is searched: at every element order
    # k of S_r, the lcm of a partition of r, Young's blocks cost no more
    families = [(1, form.shape[-1], False) for form in young_forms(r)]
    for k in {math.lcm(*shape) for shape in _partitions(r)}:
        for m in (1, 2, 21, 105):
            n = m * math.factorial(r)
            assert spectral._price(n, math.factorial(r), families) <= spectral._price(n, k, spectral._fourier_families(k))


# (group, stabilizer cycles, r): S5 on sym:5 regular (m = 1); the twisted
# S4 of alt:6 regular, (f_i f_i+1)(4 5); S4 on the points 2-5 of sym:6 over
# <(0 1)> (m = 15); S2 on the points 3, 4 of sym:5 over <(0 1 2)>
SYMMETRIC_CASES = [
    ("sym:5", [], 5),
    ("alt:6", [], 4),
    ("sym:6", [[[0, 1]]], 4),
    ("sym:5", [[[0, 1, 2]]], 2),
]


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(SYMMETRIC_CASES),
    picks=st.lists(st.integers(min_value=0), min_size=1, max_size=6),
)
def test_symmetric_blocks_match_dense(case, picks):
    name, stabilizer_cycles, r = case
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(
        Permutation.from_cycles(cycles, group.degree) for cycles in stabilizer_cycles
    )
    # repeats and the identity give multiplicities and loops
    graph = schreier_graph(group, stabilizer, symmetrize(group, [(i % group.order, 1) for i in picks]))
    generators, points = symmetric_group(graph.action)
    assert len(points) == r
    eigenvalues = symmetric_block_eigenvalues(graph, generators, points)
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


def test_symmetric_group_that_does_not_commute_is_refused(monkeypatch):
    # c's left map composed with a shift of the slots: still a permutation
    # of the cosets, no longer one that commutes with the walk
    group = catalog_group("sym:6")
    stabilizer = group.subgroup_generated([Permutation.from_cycles([[0, 1]], 6)])
    graph = schreier_graph(group, stabilizer, drawn_multiset(group, np.random.default_rng(2), 3))
    (t, c), points = symmetric_group(graph.action)
    left = graph.action.left_action_of_index
    monkeypatch.setattr(
        graph.action, "left_action_of_index", lambda y: np.roll(left(y), 1) if y == c else left(y)
    )
    with pytest.raises(ValueError, match="does not commute"):
        symmetric_block_eigenvalues(graph, [t, c], points)


def test_symmetric_group_that_is_not_free_or_misnamed_is_refused():
    # over <(0 1)(2 3)> in sym:6, (4 5)(0 1) and (4 5)(0 2)(1 3) normalise
    # H and both swap the names on the points 4 and 5, but modulo H they
    # generate a Klein four-group, not S_2: orbits of 4 cosets, not 2
    group = catalog_group("sym:6")
    stabilizer = group.subgroup_generated([Permutation.from_cycles([[0, 1], [2, 3]], 6)])
    graph = schreier_graph(group, stabilizer, drawn_multiset(group, np.random.default_rng(2), 3))
    t, c = (
        group.index_of(Permutation.from_cycles(cycles, 6)) for cycles in ([[4, 5], [0, 1]], [[4, 5], [0, 2], [1, 3]])
    )
    with pytest.raises(ValueError, match="do not act freely"):
        symmetric_block_eigenvalues(graph, [t, c], [4, 5])
    group = catalog_group("sym:5")
    # t and c exchanged: a free S5 of sym:5 regular, but not named by the points
    graph = schreier_graph(group, group.trivial_subgroup(), drawn_multiset(group, np.random.default_rng(2), 3))
    (t, c), points = symmetric_group(graph.action)
    with pytest.raises(ValueError, match="do not act on the fixed points"):
        symmetric_block_eigenvalues(graph, [c, t], points)


def test_no_symmetric_group_without_its_generators_in_the_group():
    # cyclic:1024 holds no transposition and 1024! does not divide 1024;
    # the point stabilizer of sym:5 fixes one point only
    group = catalog_group("cyclic:1024")
    assert symmetric_group(CosetAction(group, group.trivial_subgroup())) is None
    group = catalog_group("sym:5")
    assert symmetric_group(CosetAction(group, group.point_stabilizer(0))) is None


@pytest.mark.parametrize("degree", range(1, 13))
def test_least_degree_admits_the_divisors_of_permutation_orders(degree):
    # brute force: the orders of the permutations of degree points are the
    # lcms of the partitions of the degree, and k is possible when it
    # divides one of them
    orders = {math.lcm(*shape) for shape in _partitions(degree)}
    for k in range(1, 200):
        assert (spectral._least_degree(k) <= degree) == any(order % k == 0 for order in orders)


def test_large_degree_with_a_symmetric_group_takes_the_cheapest_path(monkeypatch):
    # sym:4 x cyclic:96 over <c^48>, c^48 fixed-point-free on the 96 cyclic
    # points: S4 on the points 0-3, 24 divides n = 1152, and a degree of
    # 100 allows orders of every divisor of n up to 576, so N_G(H) is
    # searched; cyclic blocks of order 48 cost less than S4 with m = 48
    group = catalog_group("sym:4xcyclic:96")
    half_turn = Permutation.from_cycles([[4 + i, 52 + i] for i in range(48)], group.degree)
    graph = schreier_graph(
        group, group.subgroup_generated([half_turn]), drawn_multiset(group, np.random.default_rng(4), 3)
    )
    generators, points = symmetric_group(graph.action)
    assert (points, graph.vertex_count) == ([0, 1, 2, 3], 1152)
    taken = taken_maps(monkeypatch)
    expected = dense(graph)
    assert np.max(np.abs(np.array(spectral_summary(graph).eigenvalues) - expected)) < AGREEMENT
    assert [cycle_length(left) for left in taken] == [48]
    assert np.max(np.abs(symmetric_block_eigenvalues(graph, generators, points) - expected)) < AGREEMENT


# the path spectral_summary takes on each large-actions shape and on sym:6
# regular: (symmetric group: its t in 1-based cycles, twisted by (6 7) on
# alt:7, and the number m of orbits), (cyclic: k) or (N_G(H)/H: its order
# and m).  K = N_G(H)/H is S4 over
# the triple transposition (2 7)(3 4)(5 6) and C2 x C2 x S3 over the double
# transposition (2 5)(3 6); QUOTIENT_ROWS gives the rows of its blocks
LARGE_PATHS = [
    ("sym:7", [[[1, 6]]], ("symmetric", "(1 3)", 21)),
    ("alt:7", [], ("symmetric", "(1 2)(6 7)", 21)),
    ("sym:7", [[[1, 6], [2, 3], [4, 5]]], ("quotient", 24, 105)),
    ("cyclic:1024", [], ("blocks", 1024)),
    ("sym:6", [], ("symmetric", "(1 2)", 1)),
    ("sym:7", [[[1, 4], [2, 5]]], ("quotient", 24, 105)),
]
# by the number of stabilizer cycles: S4 has representations of dimension
# 1, 1, 2, 3, 3; C2 x C2 x S3 has eight of dimension 1 and four of dimension 2
QUOTIENT_ROWS = {3: [105, 105, 210, 315, 315], 2: [105] * 8 + [210] * 4}


@pytest.mark.parametrize("name,stabilizer_cycles,path", LARGE_PATHS)
def test_large_action_paths_are_pinned(monkeypatch, name, stabilizer_cycles, path):
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(
        Permutation.from_cycles(cycles, group.degree) for cycles in stabilizer_cycles
    )
    graph = schreier_graph(group, stabilizer, drawn_multiset(group, np.random.default_rng(7), 3))
    taken, solved = [], []
    symmetric, blocks, solve = spectral.symmetric_block_eigenvalues, block_eigenvalues, spectral.sym_eigenvalues
    quotient = quotient_block_eigenvalues

    def by_symmetric(graph, generators, points, dim_cap):
        r = len(points)
        taken.append(("symmetric", permutation_to_text(group.elements[generators[0]]), graph.vertex_count // math.factorial(r)))
        return symmetric(graph, generators, points, dim_cap)

    def by_blocks(graph, left, dim_cap):
        taken.append(("blocks", cycle_length(left)))
        return blocks(graph, left, dim_cap)

    def by_quotient(graph, maps, families, dim_cap):
        taken.append(("quotient", len(maps), graph.vertex_count // len(maps)))
        return quotient(graph, maps, families, dim_cap)

    def counted(matrix, dim_cap=spectral.DEFAULT_DIM_CAP):
        solved.append(len(matrix))
        return solve(matrix, dim_cap)

    monkeypatch.setattr(spectral, "symmetric_block_eigenvalues", by_symmetric)
    monkeypatch.setattr(spectral, "block_eigenvalues", by_blocks)
    monkeypatch.setattr(spectral, "quotient_block_eigenvalues", by_quotient)
    monkeypatch.setattr(spectral, "sym_eigenvalues", counted)
    eigenvalues = np.array(spectral_summary(graph).eigenvalues)
    assert taken == [path]
    if path[0] == "symmetric":  # one block of m d rows per irreducible representation, 1 x 1 read off
        r = {1: 6, 21: 5}[path[2]]
        assert solved == [path[2] * form.shape[-1] for form in young_forms(r) if path[2] * form.shape[-1] > 1]
    if path[0] == "quotient":  # one block per class of representations, not per copy
        assert sorted(solved) == QUOTIENT_ROWS[len(stabilizer_cycles[0])]
    assert np.max(np.abs(eigenvalues - dense(graph))) < AGREEMENT


# -- blocks from N_G(H)/H ------------------------------------------------------


def quotient_spectrum(graph, maps):
    return quotient_block_eigenvalues(graph, maps, real_representations(quotient_table(maps)))


def stabilized_graph(name, stabilizer_cycles, multiset_seed=7, draws=3):
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(
        Permutation.from_cycles(cycles, group.degree) for cycles in stabilizer_cycles
    )
    return schreier_graph(group, stabilizer, drawn_multiset(group, np.random.default_rng(multiset_seed), draws))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["sym:5", "sym:6", "alt:6"]),
    stabilizer_gens=st.lists(st.integers(min_value=0), min_size=1, max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_quotient_blocks_match_dense(name, stabilizer_gens, seed):
    # below the floor, called directly: every subgroup generated by one or
    # two non-identity elements, self-normalising ones (K trivial) and the
    # whole group (one point) among them
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(group.elements[1 + i % (group.order - 1)] for i in stabilizer_gens)
    graph = schreier_graph(group, stabilizer, drawn_multiset(group, np.random.default_rng(seed), 3))
    maps = normalizer_quotient(graph.action)
    # Hx h = Hx for every h in H just when x normalises H: |K| cosets are fixed by H
    moved = graph.action.permutation_of_index(np.array(group._find(stabilizer.generator_images)))
    assert len(maps) == (moved == np.arange(graph.vertex_count)[:, None]).all(axis=1).sum()
    assert np.max(np.abs(quotient_spectrum(graph, maps) - dense(graph))) < AGREEMENT


def quaternion_table():
    """The multiplication table of Q8 = {+-1, +-i, +-j, +-k}, 1 first, from
    Hamilton's product of unit quaternions (a, b, c, d) = a + b i + c j + d k."""
    units = np.concatenate([np.eye(4), -np.eye(4)])

    def product(p, q):
        a, b, c, d = p
        e, f, g, h = q
        return [a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e]

    return np.array([[np.flatnonzero((units == product(p, q)).all(axis=1))[0] for q in units] for p in units])


def regular_table(name):
    group = catalog_group(name)
    return group.products(np.arange(group.order), np.arange(group.order), outer=True)


# (group, each class as (dimension, copies, <chi, chi> / |K|)), the last 1,
# 2 or 4 for a real, complex or quaternionic class: C5 has the trivial
# character and two complex pairs, each a real rotation of dimension 2; Q8
# has four real characters and one quaternionic representation of real
# dimension 4; every representation of S4 is real
FROBENIUS_SCHUR = [
    ("cyclic:5", [(1, 1, 1), (2, 1, 2), (2, 1, 2)]),
    ("quaternion", [(1, 1, 1)] * 4 + [(4, 1, 4)]),
    ("sym:4", [(1, 1, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1), (3, 3, 1)]),
]


@pytest.mark.parametrize("name,expected", FROBENIUS_SCHUR)
def test_real_representations_of_each_frobenius_schur_type(name, expected):
    table = quaternion_table() if name == "quaternion" else regular_table(name)
    order = len(table)
    classes = [(rho, copies) for rhos, copies in real_representations(table) for rho in rhos]
    assert sum(rho.shape[-1] * copies for rho, copies in classes) == order
    found = []
    for rho, copies in classes:
        eye = np.eye(rho.shape[-1])
        assert np.allclose(rho[0], eye)
        assert np.allclose(rho.swapaxes(1, 2) @ rho, eye)  # orthogonal
        a, b = np.divmod(np.arange(order**2), order)
        assert np.allclose(rho[a] @ rho[b], rho[table[a, b]])  # a homomorphism
        character = np.trace(rho, axis1=1, axis2=2)
        found.append((rho.shape[-1], copies, round(float(character @ character) / order)))
    assert sorted(found) == sorted(expected)


def test_quotient_blocks_agree_with_young_blocks():
    # over <(0 1)> in sym:6 and <(1 6)> in sym:7, K = N_G(H)/H is the
    # symmetric group on the fixed points: S4 with m = 15, S5 with m = 21
    for name, cycles in [("sym:6", [[[0, 1]]]), ("sym:7", [[[1, 6]]])]:
        graph = stabilized_graph(name, cycles)
        generators, points = symmetric_group(graph.action)
        maps = normalizer_quotient(graph.action)
        assert len(maps) == math.factorial(len(points))
        young = symmetric_block_eigenvalues(graph, generators, points)
        assert np.max(np.abs(quotient_spectrum(graph, maps) - young)) < AGREEMENT


def test_quotient_map_that_does_not_commute_is_refused():
    graph = stabilized_graph("sym:6", [[[0, 1]]])
    maps = normalizer_quotient(graph.action)
    families = real_representations(quotient_table(maps))
    maps[1] = np.roll(maps[1], 1)
    with pytest.raises(ValueError, match="does not commute"):
        quotient_block_eigenvalues(graph, maps, families)


def test_eigenspace_that_is_not_invariant_is_refused(monkeypatch):
    # a negative gap cuts every eigenvector apart: a single vector of an
    # eigenspace of S4's representations of dimension 2 or 3 is not invariant
    table = quotient_table(normalizer_quotient(stabilized_graph("sym:6", [[[0, 1]]]).action))
    monkeypatch.setattr(spectral, "SPLIT_GAP", -1.0)
    with pytest.raises(ValueError, match="not invariant"):
        real_representations(table)


def test_maps_that_do_not_move_the_names_as_elements_are_refused():
    # with S = {s, s^-1} the right map by s commutes with the walk, and so
    # does a left map followed by it; put in K's list, it breaks K's table
    group = catalog_group("sym:6")
    stabilizer = group.subgroup_generated([Permutation.from_cycles([[0, 1]], 6)])
    s = group.index_of(Permutation.from_cycles([[1, 2, 3, 4, 5]], 6))
    graph = schreier_graph(group, stabilizer, symmetrize(group, [(s, 1)]))
    maps = normalizer_quotient(graph.action)
    families = real_representations(quotient_table(maps))
    assert np.max(np.abs(quotient_block_eigenvalues(graph, maps, families) - dense(graph))) < AGREEMENT
    maps[1] = graph.action.permutation_of_index(s)[maps[1]]
    with pytest.raises(ValueError, match="do not move the names"):
        quotient_block_eigenvalues(graph, maps, families)


def test_quotient_table_is_read_off_one_orbit():
    # the left maps of sym:4 regular are the group itself: k (l o) = (k l) o
    group = catalog_group("sym:4")
    graph = schreier_graph(group, group.trivial_subgroup(), symmetrize(group, ones(group, group.generators)))
    maps = normalizer_quotient(graph.action)
    table = quotient_table(maps)
    for a in range(len(maps)):
        for b in range(len(maps)):
            assert np.array_equal(maps[a][maps[b]], maps[table[a, b]])


HALF_TURN = [[[4 + i, 52 + i] for i in range(48)]]


@pytest.mark.parametrize(
    "name,stabilizer_cycles",
    [("sym:7", [[[1, 6]]]), ("alt:7", []), ("sym:6", []), ("cyclic:1024", []), ("sym:4xcyclic:96", HALF_TURN)],
)
def test_quotient_search_is_skipped_where_it_cannot_win(monkeypatch, name, stabilizer_cycles):
    # over (2 7), |N_G(H) : H| <= 5! 2! / 2 = 5!, so K is the S5 Young's
    # form already uses; over a trivial H, K is G, and Dixon's |K|^3 is n^3:
    # none of these searches N_G(H), cyclic:1024 reading its cyclic blocks
    # off G's images.  Over the central c^48 of sym:4 x cyclic:96, N_G(H) is
    # searched once and the cyclic blocks, of its element 3 of order 48, come
    # from K's table.  LARGE_PATHS checks these spectra
    graph = stabilized_graph(name, stabilizer_cycles)
    assert graph.vertex_count >= spectral.BLOCK_FLOOR
    called = []
    normaliser = FiniteGroup.normaliser
    monkeypatch.setattr(FiniteGroup, "normaliser", lambda *args: called.append("normaliser") or normaliser(*args))
    quotient = spectral.normalizer_quotient
    monkeypatch.setattr(spectral, "normalizer_quotient", lambda *args: called.append("K") or quotient(*args))
    taken = taken_maps(monkeypatch)
    spectral_summary(graph)
    assert called == (["K", "normaliser"] if name == "sym:4xcyclic:96" else [])
    if name == "sym:4xcyclic:96":
        assert [left.tolist() for left in taken] == [graph.action.left_action_of_index(3).tolist()]
