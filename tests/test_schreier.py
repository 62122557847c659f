import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierlab import (
    DisconnectedGraphError,
    Permutation,
    SymmetricMultiset,
    bipartite_criterion,
    catalog_group,
    connectivity_and_bipartiteness,
    dedup_counterexample_search,
    derived_subgroup,
    index2_overgroups,
    rs_induce,
    sample_multiset,
    sample_symmetric_multiset,
    schreier_graph,
    spectral_summary,
    symmetrize,
)
from schreierlab import schreier
from schreierlab.cli import main
from schreierlab.inequalities import INDUCED_GAP
from schreierlab.permutations import CosetAction, FiniteGroup, Transversal
from schreierlab.schreier import induce_with_laws
from testkit import bfs_connectivity, indexed, ones, permutation_entries


def cycle_pair(group):
    g = group.elements[1]
    return SymmetricMultiset(group, ones(group, [g, g.inverse()]))


# ---------------------------------------------------------------------------
# symmetric multisets


def test_symmetrize_order_four_element(c4):
    g = c4.elements[1]
    s = symmetrize(c4, ones(c4, [g]))
    assert s.size == 2
    assert dict((p.images, m) for p, m in permutation_entries(s)) == {
        g.images: 1,
        g.inverse().images: 1,
    }


def test_symmetrize_involution_doubles():
    t = Permutation([1, 0])
    c2 = catalog_group("cyclic:2")
    s = symmetrize(c2, ones(c2, [t]))
    assert s.size == 2
    assert permutation_entries(s) == [(t, 2)]


def test_symmetrize_keeps_multiplicities(c4):
    g = c4.elements[1]
    s = symmetrize(c4, ones(c4, [g, g]))
    assert s.size == 4
    counts = {p.images: m for p, m in permutation_entries(s)}
    assert counts == {g.images: 2, g.inverse().images: 2}


def test_asymmetric_multiset_rejected(c4):
    g = c4.elements[1]
    with pytest.raises(ValueError):
        SymmetricMultiset(c4, indexed(c4, [(g, 1)]))
    with pytest.raises(ValueError):
        SymmetricMultiset(c4, indexed(c4, [(g, 2), (g.inverse(), 1)]))


@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=6))
def test_symmetrize_always_symmetric_and_doubles(images):
    elements = [Permutation(im) for im in images]
    s4 = catalog_group("sym:4")
    s = symmetrize(s4, ones(s4, elements))
    assert s.size == 2 * len(elements)
    counts = {p.images: m for p, m in permutation_entries(s)}
    for p, m in permutation_entries(s):
        assert counts[p.inverse().images] == m


# ---------------------------------------------------------------------------
# graph construction


def test_cycle_graph_rows(c6):
    graph = schreier_graph(c6, c6.trivial_subgroup(), cycle_pair(c6))
    assert graph.vertex_count == 6 and graph.degree == 2
    for row in graph.walk:
        assert sorted(row) == [0, 0, 0, 0, 0.5, 0.5]
    assert np.array_equal(graph.counts, graph.counts.T)


def test_sym3_natural_all_third(s3):
    transpositions = [
        p for p in s3.elements if sorted(len(c) for c in p.cycles()) == [2]
    ]
    graph = schreier_graph(
        s3, s3.point_stabilizer(0), SymmetricMultiset(s3, ones(s3, transpositions))
    )
    assert np.allclose(graph.walk, 1.0 / 3.0)


def test_identity_multiset_gives_loops(s3):
    e = s3.identity
    s = SymmetricMultiset(s3, indexed(s3, [(e, 2)]))
    graph = schreier_graph(s3, s3.trivial_subgroup(), s)
    assert np.array_equal(graph.walk, np.eye(6))


def test_multiset_element_outside_group_rejected(c4, tmp_path, capsys):
    # a multiset holds element indices, so an element outside the group is
    # refused where it would get one: where the multiset is parsed
    outsider = Permutation([1, 0, 2, 3])
    with pytest.raises(ValueError):
        symmetrize(c4, ones(c4, [outsider]))
    spec = tmp_path / "outsider.txt"
    spec.write_text("(1 2)\n", encoding="utf-8")
    assert main(["spectrum", "--group", "cyclic:4", "--set", str(spec), "--symmetrize"]) == 2
    assert "error: multiset element (1 2) lies outside the group" in capsys.readouterr().err


def test_index_outside_the_group_rejected(c4):
    for index in (-1, c4.order):
        with pytest.raises(ValueError, match="range"):
            SymmetricMultiset(c4, [(index, 1)])


def test_multiset_of_another_group_refused(d8):
    # the rotation subgroup has order 4, so its index 1 is an index of d8 too
    h = d8.subgroup_generated([d8.generators[0]])
    rotations = symmetrize(h, [(1, 1)])
    assert rotations != symmetrize(d8, [(1, 1)])
    with pytest.raises(ValueError, match="another group"):
        schreier_graph(d8, d8.trivial_subgroup(), rotations)
    with pytest.raises(ValueError, match="another group"):
        rs_induce(Transversal(d8, h), rotations)


def test_row_sums_and_exact_symmetry_randomized():
    rng = np.random.default_rng(77)
    for name in ("sym:4", "dihedral:12", "heisenberg:3"):
        group = catalog_group(name)
        for size in (2, 3, 5, 8):
            s = sample_symmetric_multiset(group, size, rng)
            y = group.subgroup_generated(
                [group.elements[int(rng.integers(0, group.order))]]
            )
            graph = schreier_graph(group, y, s)
            assert np.all(graph.counts.sum(axis=1) == s.size)
            assert np.abs(graph.walk.sum(axis=1) - 1.0).max() < 1e-12
            assert np.array_equal(graph.counts, graph.counts.T)


# ---------------------------------------------------------------------------
# connectivity and bipartiteness


def test_six_cycle_connected_bipartite(c6):
    report = connectivity_and_bipartiteness(
        schreier_graph(c6, c6.trivial_subgroup(), cycle_pair(c6))
    )
    assert report.connected and report.bipartite
    colors = report.classes
    assert colors is not None and set(colors) == {0, 1}


def test_loop_breaks_bipartiteness(c6):
    g = c6.elements[1]
    s = SymmetricMultiset(c6, ones(c6, [g, g.inverse(), c6.identity]))
    report = connectivity_and_bipartiteness(
        schreier_graph(c6, c6.trivial_subgroup(), s)
    )
    assert report.connected and not report.bipartite


def test_square_multiset_disconnects(c4):
    g = c4.elements[1]
    s = SymmetricMultiset(c4, indexed(c4, [(g * g, 2)]))
    report = connectivity_and_bipartiteness(
        schreier_graph(c4, c4.trivial_subgroup(), s)
    )
    assert not report.connected


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["cyclic:6", "cyclic:8", "dihedral:16", "sym:4", "cyclic:2xsym:4", "alt:5"]),
    stabilizer_gen=st.integers(min_value=0),
    picks=st.lists(st.integers(min_value=0), min_size=1, max_size=3),
    trivial=st.booleans(),
)
def test_connectivity_matches_breadth_first_search(name, stabilizer_gen, picks, trivial):
    # few picks leave many graphs disconnected; index 0 (the identity) and
    # stabilizer members put loops on some or all points
    group = catalog_group(name)
    stabilizer = group.trivial_subgroup() if trivial else group.subgroup_generated_by(
        [stabilizer_gen % group.order]
    )
    multiset = symmetrize(group, [(i % group.order, 1) for i in picks])
    graph = schreier_graph(group, stabilizer, multiset)
    assert connectivity_and_bipartiteness(graph) == bfs_connectivity(graph)


def test_connectivity_above_the_floor_matches_breadth_first_search():
    # sym:7 on the cosets of the even (1 6)(2 3), 2520 points: (0 1) with a
    # 7-cycle connects them, with the odd (1 2 3 4 5 6) also 2-colours them,
    # and with (2 3) leaves them disconnected and bipartite
    group = catalog_group("sym:7")
    stabilizer = group.subgroup_generated([Permutation.from_cycles([[1, 6], [2, 3]], 7)])
    expected = [(True, False), (True, True), (False, True)]
    for second, shape in zip([[0, 1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6], [2, 3]], expected):
        multiset = symmetrize(group, ones(group, [Permutation.from_cycles(c, 7) for c in [[[0, 1]], [second]]]))
        graph = schreier_graph(group, stabilizer, multiset)
        report = connectivity_and_bipartiteness(graph)
        assert (report.connected, report.bipartite) == shape
        assert report == bfs_connectivity(graph)


# ---------------------------------------------------------------------------
# the slot table against the dense assembly it replaced


def dense_counts(group, stabilizer, multiset):
    """The old assembly: a dense count matrix filled one connection element
    at a time."""
    action = CosetAction(group, stabilizer)
    n = action.n_points
    counts = np.zeros((n, n), dtype=np.int64)
    rows = np.arange(n)
    for p, mult in permutation_entries(multiset):
        counts[rows, action.permutation_of_index(group.index_of(p))] += mult
    return counts


def dense_bfs(counts):
    """The old search over dense rows: (connected, bipartite, classes), a
    loop poisoning its component."""
    n = len(counts)
    neighbors = [np.nonzero(counts[v])[0] for v in range(n)]
    color = [-1] * n
    components = 0
    bipartite = True
    for start in range(n):
        if color[start] >= 0:
            continue
        components += 1
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            if counts[v, v] > 0:
                bipartite = False
            for w in neighbors[v]:
                w = int(w)
                if w == v:
                    continue
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    bipartite = False
    return components == 1, bipartite, tuple(color) if bipartite else None


# orders on both sides of the 512-element table limit
ORACLE_GROUPS = ["dihedral:16", "alt:5", "heisenberg:3", "cyclic:2xsym:4", "sym:6", "cyclic:1024"]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(ORACLE_GROUPS),
    stabilizer_gens=st.lists(st.integers(min_value=0), max_size=2),
    draws=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=4,
    ),
    involution=st.one_of(st.none(), st.tuples(st.integers(min_value=0), st.integers(1, 3))),
)
def test_slot_table_matches_the_dense_assembly(name, stabilizer_gens, draws, involution):
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(group.elements[i % group.order] for i in stabilizer_gens)
    # multiplicities on x and x^-1 alike; index 0 is the identity, a loop
    inv = group.inverse_indices()
    counts = Counter()
    for i, mult in draws:
        for j in {i % group.order, inv[i % group.order]}:
            counts[j] += mult
    if involution is not None:
        self_inverse = group.self_inverse_indices()
        counts[self_inverse[involution[0] % len(self_inverse)]] += involution[1]
    multiset = SymmetricMultiset(group, counts.items())
    graph = schreier_graph(group, stabilizer, multiset)
    expected = dense_counts(group, stabilizer, multiset)
    assert np.array_equal(graph.counts, expected)
    assert np.array_equal(graph.walk, graph.counts / graph.degree)
    report = connectivity_and_bipartiteness(graph)
    assert (report.connected, report.bipartite, report.classes) == dense_bfs(expected)


# ---------------------------------------------------------------------------
# index multisets against the permutation multisets they replaced


class PermutationMultiset:
    """The old multiset: (Permutation, multiplicity) entries in image-tuple
    order, its symmetry checked by inverting permutations."""

    def __init__(self, entries):
        counts = Counter()
        for p, mult in entries:
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            counts[p] += mult
        if not counts:
            raise ValueError("a connection multiset cannot be empty")
        for p, mult in counts.items():
            if counts[p.inverse()] != mult:
                raise ValueError(f"multiset is not symmetric at {p!r}")
        self.entries = tuple(sorted(counts.items(), key=lambda item: item[0].images))

    def as_set(self):
        return PermutationMultiset((p, 1) for p, _ in self.entries)


def permutation_symmetrize(entries):
    counts = Counter()
    for p, mult in entries:
        counts[p] += mult
        counts[p.inverse()] += mult
    return PermutationMultiset(counts.items())


def permutation_rs_induce(group, transversal, multiset):
    """t s (bar(t s))^-1 over every pair, by Permutation products."""
    counts = Counter()
    for t in transversal.rep_indices:
        for p, mult in multiset.entries:
            ts = group.elements[t] * p
            bar = group.elements[transversal.rep_of[group.index_of(ts)]]
            counts[ts * bar.inverse()] += mult
    return PermutationMultiset(counts.items())


def permutation_sample_multiset(group, m, rng):
    return [group.elements[int(i)] for i in rng.integers(0, group.order, size=m)]


def permutation_sample_symmetric(group, size, rng):
    pool = [p for p in group.elements if p.inverse() == p]
    picked = []
    while len(picked) < size:
        if size - len(picked) == 1:
            picked.append(pool[rng.integers(0, len(pool))])
            continue
        p = group.elements[int(rng.integers(0, group.order))]
        picked.extend([p] if p.inverse() == p else [p, p.inverse()])
    return PermutationMultiset((p, 1) for p in picked)


def in_image_order(multiset):
    return tuple(sorted(permutation_entries(multiset), key=lambda item: item[0].images))


# both sides of the table limit again; cyclic:1024 makes rs_induce too slow
MULTISET_GROUPS = ["dihedral:16", "alt:5", "heisenberg:3", "cyclic:2xsym:4", "sym:6"]


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(MULTISET_GROUPS),
    draws=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=5,
    ),
    subgroup_gens=st.lists(st.integers(min_value=0), max_size=2),
)
def test_index_multisets_match_the_permutation_multisets(name, draws, subgroup_gens):
    group = catalog_group(name)
    entries = [(i % group.order, m) for i, m in draws]
    multiset = symmetrize(group, entries)
    oracle = permutation_symmetrize((group.elements[i], m) for i, m in entries)
    assert in_image_order(multiset) == oracle.entries
    assert in_image_order(multiset.as_set()) == oracle.as_set().entries
    subgroup = group.subgroup_generated(group.elements[i % group.order] for i in subgroup_gens)
    transversal = Transversal(group, subgroup)
    induced = rs_induce(transversal, multiset)
    oracle_induced = permutation_rs_induce(group, transversal, oracle)
    assert induced.group is subgroup
    assert all(p in subgroup for p, _ in oracle_induced.entries)
    assert in_image_order(induced) == oracle_induced.entries


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ORACLE_GROUPS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    size=st.integers(min_value=1, max_value=9),
)
def test_samplers_match_the_permutation_samplers(name, seed, size):
    """Same seed, same draws, and the generators end in the same state."""
    group = catalog_group(name)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = sample_multiset(group, size, rng)
    oracle_drawn = permutation_sample_multiset(group, size, oracle_rng)
    assert [group.elements[i] for i in drawn] == oracle_drawn
    multiset = sample_symmetric_multiset(group, size, rng)
    oracle = permutation_sample_symmetric(group, size, oracle_rng)
    assert in_image_order(multiset) == oracle.entries
    assert rng.integers(0, 2**62) == oracle_rng.integers(0, 2**62)


# ---------------------------------------------------------------------------
# index-2 avoidance criterion


def test_criterion_on_even_cycle(c6):
    result = bipartite_criterion(schreier_graph(c6, c6.trivial_subgroup(), cycle_pair(c6)))
    assert result.criterion_holds
    g = c6.elements[1]
    assert result.witness is not None
    assert g * g in result.witness and g not in result.witness


def test_criterion_on_transposition_cayley(s3):
    transpositions = [
        p for p in s3.elements if sorted(len(c) for c in p.cycles()) == [2]
    ]
    result = bipartite_criterion(
        schreier_graph(s3, s3.trivial_subgroup(), SymmetricMultiset(s3, ones(s3, transpositions)))
    )
    assert result.criterion_holds
    assert s3.indices_of(result.witness) == s3.indices_of(derived_subgroup(s3))


def test_criterion_on_odd_cycle():
    c5 = catalog_group("cyclic:5")
    result = bipartite_criterion(schreier_graph(c5, c5.trivial_subgroup(), cycle_pair(c5)))
    assert not result.criterion_holds and result.witness is None


def test_criterion_requires_connected(c4):
    g = c4.elements[1]
    graph = schreier_graph(
        c4, c4.trivial_subgroup(), SymmetricMultiset(c4, indexed(c4, [(g * g, 2)]))
    )
    with pytest.raises(DisconnectedGraphError, match="connected graphs only"):
        bipartite_criterion(graph)


def test_criterion_matches_bfs_on_cayley_instances():
    rng = np.random.default_rng(5150)
    for name in ("cyclic:12", "dihedral:12", "sym:3", "elem-abelian:2^3"):
        group = catalog_group(name)
        trivial = group.trivial_subgroup()
        inv = group.inverse_indices()
        classes = sorted({tuple(sorted({i, inv[i]})) for i in range(group.order)})
        for _ in range(60):
            k = int(rng.integers(1, len(classes) + 1))
            chosen = rng.choice(len(classes), size=k, replace=False)
            indices = sorted(
                set(itertools.chain.from_iterable(classes[int(c)] for c in chosen))
            )
            s = SymmetricMultiset(group, ones(group, (group.elements[i] for i in indices)))
            graph = schreier_graph(group, trivial, s)
            report = connectivity_and_bipartiteness(graph)
            if not report.connected:
                continue
            assert bipartite_criterion(graph).criterion_holds == report.bipartite


def test_bipartite_criterion_limits():
    """With a nontrivial stabilizer only one direction survives: avoidance
    forces bipartiteness, but a bipartite coset graph need not admit any
    avoiding index-2 subgroup.  The degree-4 alternating group on cosets of
    a point stabilizer with two double transpositions is a 4-cycle, yet the
    group has no index-2 subgroup at all."""
    a4 = catalog_group("alt:4")
    y = a4.point_stabilizer(0)
    s = SymmetricMultiset(a4, ones(a4, [Permutation([1, 0, 3, 2]), Permutation([2, 3, 0, 1])]))
    graph = schreier_graph(a4, y, s)
    report = connectivity_and_bipartiteness(graph)
    assert report.connected and report.bipartite
    assert index2_overgroups(a4, y) == []
    assert not bipartite_criterion(graph).criterion_holds


def test_no_index2_transfer_to_induced_sets():
    """Groups without index-2 subgroups induce non-bipartite Cayley graphs
    in every subgroup, whenever the parent graph is connected."""
    rng = np.random.default_rng(909)
    for name in ("alt:4", "heisenberg:3", "alt:5"):
        group = catalog_group(name)
        assert index2_overgroups(group, group.trivial_subgroup()) == []
        trivial = group.trivial_subgroup()
        for trial in range(25):
            subgroup = group.subgroup_generated(
                [group.elements[int(rng.integers(0, group.order))] for _ in range(2)]
            )
            s = sample_symmetric_multiset(group, 2 + trial % 5, rng)
            parent_graph = schreier_graph(group, trivial, s)
            if not connectivity_and_bipartiteness(parent_graph).connected:
                continue
            induced = rs_induce(Transversal(group, subgroup), s)
            child = schreier_graph(subgroup, trivial, induced)
            child_report = connectivity_and_bipartiteness(child)
            assert child_report.connected
            assert not child_report.bipartite


# ---------------------------------------------------------------------------
# induction to subgroups


def test_rs_induce_c4_example(c4):
    g = c4.elements[1]
    h = c4.subgroup_generated([g * g])
    t = Transversal(c4, h)
    s = SymmetricMultiset(c4, ones(c4, [g, g * g * g]))
    induced = rs_induce(t, s)
    # four (t, s) pairs by hand: e*g -> e, e*g^3 -> g^2, g*g -> g^2, g*g^3 -> e
    assert {(p.images, m) for p, m in permutation_entries(induced)} == {
        (c4.identity.images, 2),
        ((g * g).images, 2),
    }
    assert induced.size == 4


def test_rs_induce_whole_group_is_identity_map(s3):
    t = Transversal(s3, s3)
    s = sample_symmetric_multiset(s3, 4, np.random.default_rng(3))
    assert rs_induce(t, s) == s


def test_rs_induce_identity_multiset(s3):
    h = s3.subgroup_generated([Permutation.from_cycles([[0, 1]], 3)])
    t = Transversal(s3, h)
    s = SymmetricMultiset(s3, indexed(s3, [(s3.identity, 2)]))
    induced = rs_induce(t, s)
    assert permutation_entries(induced) == [(s3.identity, 6)]


def test_rs_size_law_and_symmetry_randomized():
    rng = np.random.default_rng(42)
    for name in ("sym:4", "dihedral:16", "heisenberg:3"):
        group = catalog_group(name)
        for trial in range(20):
            picks = [
                group.elements[int(rng.integers(0, group.order))]
                for _ in range(int(rng.integers(0, 3)))
            ]
            subgroup = group.subgroup_generated(picks)
            t = Transversal(group, subgroup)
            s = sample_symmetric_multiset(group, 2 + trial % 6, rng)
            induced = rs_induce(t, s)
            assert induced.size == (group.order // subgroup.order) * s.size
            assert induced.group is subgroup
            assert all(p in subgroup for p, _ in permutation_entries(induced))


def test_size_law_fails_for_a_truncated_transversal(d8):
    rotations = d8.subgroup_generated([d8.generators[0]])
    s = cycle_pair(d8)
    assert all(d8.elements[i] in rotations for i, _ in s.entries)
    transversal = Transversal(d8, rotations)
    law = induce_with_laws(transversal, s).size_law
    assert law.passed and law.detail == "4 == 2 * 2"
    # with one representative dropped rs_induce loops over one coset, so
    # the induced size is 1 * |S|, not |G:H| |S|
    transversal.rep_indices = transversal.rep_indices[:1]
    law = induce_with_laws(transversal, s).size_law
    assert not law.passed and law.detail == "2 == 2 * 2"


def test_generation_transfers_to_subgroup():
    rng = np.random.default_rng(1234)
    group = catalog_group("sym:4")
    for trial in range(30):
        subgroup = group.subgroup_generated(
            [group.elements[int(rng.integers(0, group.order))] for _ in range(2)]
        )
        y = group.trivial_subgroup()
        s = sample_symmetric_multiset(group, 2 + trial % 5, rng)
        generated = group.subgroup_generated(p for p, _ in permutation_entries(s))
        if generated.order != group.order:
            continue
        induced = rs_induce(Transversal(group, subgroup), s)
        assert subgroup.subgroup_generated(
            p for p, _ in permutation_entries(induced)
        ).order == subgroup.order


@pytest.mark.parametrize("name", ["dihedral:16", "heisenberg:5", "alt:6"])
def test_products_below_the_table_limit_are_table_reads(name, monkeypatch):
    """Below the table limit a graph, a left action and a rewriting look
    no row up and call no ``mult``, once the group's tables are built."""
    group = catalog_group(name)
    stabilizer = group.subgroup_generated(group.generators[:1])
    transversal = Transversal(group, stabilizer)
    multiset = sample_symmetric_multiset(group, 5, np.random.default_rng(5))

    def run():
        graph = schreier_graph(group, stabilizer, multiset)
        graph.action.left_action_of_index(multiset.support()[-1])
        return rs_induce(transversal, multiset)

    run()  # the Cayley table, inverse tables and element dicts
    calls = Counter()
    for attr in ("_indices_of_rows", "mult"):
        method = getattr(FiniteGroup, attr)

        def counted(self, *args, _method=method, _attr=attr):
            calls[_attr] += 1
            return _method(self, *args)

        monkeypatch.setattr(FiniteGroup, attr, counted)
    assert run() == rs_induce(transversal, multiset)
    assert not calls


def test_rs_induce_with_custom_transversal(d8):
    rotation = d8.generators[0]
    h = d8.subgroup_generated([rotation])
    base = Transversal(d8, h)
    other_members = [p for p in d8.elements if p not in h]
    custom = base.with_reps([d8.index_of(p) for p in [rotation, other_members[-1]]])
    s = sample_symmetric_multiset(d8, 4, np.random.default_rng(8))
    induced = rs_induce(custom, s)
    assert induced.size == 2 * s.size


# ---------------------------------------------------------------------------
# the dedup counterexample search


def test_dedup_search_trivial_when_subgroup_is_whole_group(c4):
    result = dedup_counterexample_search(c4, c4, c4.trivial_subgroup())
    assert result.witnesses == ()
    assert result.monotonicity.violations == 0
    assert not result.used_default_transversal
    # one coset, so each of the four elements is a transversal on its own
    assert result.transversals_scanned == 4
    trivial = catalog_group("cyclic:1")
    result = dedup_counterexample_search(trivial, trivial, trivial)
    assert result.witnesses == ()
    assert not result.used_default_transversal
    assert result.transversals_scanned == 1


def test_dedup_search_without_witness_reports_every_transversal(c4, monkeypatch):
    # no gap can drop by more than 2, so this tolerance rules every witness out
    monkeypatch.setattr(schreier, "INDUCED_GAP", replace(INDUCED_GAP, tol=2.0))
    h = c4.subgroup_generated([c4.elements[2]])
    result = dedup_counterexample_search(c4, h, c4.trivial_subgroup())
    assert result.witnesses == ()
    assert not result.used_default_transversal
    # two cosets of two elements each: 2 * 2 transversals, the default among them
    assert result.transversals_scanned == 4


def test_dedup_search_dihedral_finds_witnesses(d8):
    rotation = d8.generators[0]
    h = d8.subgroup_generated([rotation])
    result = dedup_counterexample_search(d8, h, d8.trivial_subgroup())
    assert len(result.witnesses) >= 1
    assert result.used_default_transversal
    assert result.transversals_scanned == 1
    assert result.monotonicity.violations == 0
    for witness in result.witnesses:
        assert all(m == 1 for _, m in witness.connection_set.entries)
        assert witness.induced_set_gap < witness.parent_gap - 1e-9
        assert witness.induced_multiset_gap >= witness.parent_gap - 1e-8


def test_dedup_witness_is_reproducible(d8):
    rotation = d8.generators[0]
    h = d8.subgroup_generated([rotation])
    result = dedup_counterexample_search(d8, h, d8.trivial_subgroup())
    w = result.witnesses[0]
    trivial = d8.trivial_subgroup()
    parent = spectral_summary(schreier_graph(d8, trivial, w.connection_set))
    t = Transversal(d8, h).with_reps(w.transversal_reps)
    induced = rs_induce(t, w.connection_set)
    dedup = spectral_summary(schreier_graph(h, trivial, induced.as_set()))
    assert parent.gap == pytest.approx(w.parent_gap, abs=1e-12)
    assert dedup.gap == pytest.approx(w.induced_set_gap, abs=1e-12)


def test_dedup_search_class_cap():
    from schreierlab import SearchSpaceError

    group = catalog_group("sym:4")
    with pytest.raises(SearchSpaceError):
        dedup_counterexample_search(
            group, group, group.trivial_subgroup(), class_cap=3
        )
