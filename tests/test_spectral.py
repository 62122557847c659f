import math

import numpy as np
import pytest

from schreierlab import (
    MatrixTooLargeError,
    SymmetricMultiset,
    catalog_group,
    dump_matrix,
    rayleigh_quotient,
    sample_symmetric_multiset,
    schreier_graph,
    spectral_summary,
    sym_eigenvalues,
)


def cycle_walk(n):
    group = catalog_group(f"cyclic:{n}")
    g = group.elements[1]
    s = SymmetricMultiset.from_elements([g, g.inverse()])
    return schreier_graph(group, group.trivial_subgroup(), s)


def test_identity_spectrum():
    eigs = sym_eigenvalues(np.eye(5))
    assert np.allclose(eigs, 1.0)


def test_cycle_spectrum_matches_circulant_formula():
    for n in (3, 4, 6, 9, 12):
        eigs = sym_eigenvalues(cycle_walk(n).walk)
        expected = sorted(
            (math.cos(2.0 * math.pi * k / n) for k in range(n)), reverse=True
        )
        assert np.allclose(eigs, expected, atol=1e-10)


def test_rank_one_projection_spectrum():
    n = 7
    eigs = sym_eigenvalues(np.full((n, n), 1.0 / n))
    assert eigs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(eigs[1:], 0.0, atol=1e-12)


def test_asymmetric_matrix_rejected():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        sym_eigenvalues(m)


def test_hermitian_matrix_spectrum():
    # [[2, i], [-i, 2]] has eigenvalues 3 and 1
    eigs = sym_eigenvalues(np.array([[2.0, 1j], [-1j, 2.0]]))
    assert np.allclose(eigs, [3.0, 1.0], atol=1e-12)


def test_non_hermitian_matrix_rejected():
    # symmetric but not Hermitian: the conjugate transpose is checked
    with pytest.raises(ValueError, match="not Hermitian"):
        sym_eigenvalues(np.array([[2.0, 1j], [1j, 2.0]]))


def test_dimension_cap_is_enforced():
    with pytest.raises(MatrixTooLargeError):
        sym_eigenvalues(np.eye(10), dim_cap=5)


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        sym_eigenvalues(np.zeros((2, 3)))


def test_summary_on_complete_bipartite():
    s3 = catalog_group("sym:3")
    transpositions = [
        p for p in s3.elements if sorted(len(c) for c in p.cycles()) == [2]
    ]
    graph = schreier_graph(
        s3, s3.trivial_subgroup(), SymmetricMultiset.from_elements(transpositions)
    )
    summary = spectral_summary(graph)
    assert summary.gap == pytest.approx(1.0, abs=1e-10)
    assert summary.two_sided_lambda == pytest.approx(1.0, abs=1e-10)
    assert summary.lambda_min == pytest.approx(-1.0, abs=1e-10)


def test_summary_on_natural_action():
    s3 = catalog_group("sym:3")
    transpositions = [
        p for p in s3.elements if sorted(len(c) for c in p.cycles()) == [2]
    ]
    graph = schreier_graph(
        s3, s3.point_stabilizer(0), SymmetricMultiset.from_elements(transpositions)
    )
    summary = spectral_summary(graph)
    assert summary.gap == pytest.approx(1.0, abs=1e-10)
    assert summary.two_sided_lambda == pytest.approx(0.0, abs=1e-10)


def test_disconnected_graph_has_zero_gap():
    c4 = catalog_group("cyclic:4")
    g = c4.elements[1]
    graph = schreier_graph(c4, c4.trivial_subgroup(), SymmetricMultiset([(g * g, 2)]))
    assert spectral_summary(graph).gap == pytest.approx(0.0, abs=1e-10)


def test_single_vertex_convention():
    s3 = catalog_group("sym:3")
    s = sample_symmetric_multiset(s3, 3, np.random.default_rng(0))
    summary = spectral_summary(schreier_graph(s3, s3, s))
    assert summary.eigenvalues == (pytest.approx(1.0),)
    assert summary.two_sided_lambda == 0.0
    assert summary.gap == 2.0


def test_trace_equals_loop_mass():
    rng = np.random.default_rng(99)
    for name in ("sym:4", "dihedral:12", "cyclic:15"):
        group = catalog_group(name)
        s = sample_symmetric_multiset(group, 5, rng)
        graph = schreier_graph(group, group.trivial_subgroup(), s)
        summary = spectral_summary(graph)
        assert sum(summary.eigenvalues) == pytest.approx(
            float(np.trace(graph.walk)), abs=1e-8
        )


def test_quotient_invariance_of_spectra():
    rng = np.random.default_rng(17)
    from schreierlab import CosetAction, faithful_reduction

    for name in ("sym:4", "dihedral:16", "heisenberg:3"):
        group = catalog_group(name)
        y = group.subgroup_generated(
            [group.elements[int(rng.integers(0, group.order))] for _ in range(1)]
        )
        s = sample_symmetric_multiset(group, 4, rng)
        direct = spectral_summary(schreier_graph(group, y, s)).eigenvalues
        image, base = faithful_reduction(group, y)
        action = CosetAction(group, y)
        mapped = SymmetricMultiset((action.permutation_of(p), m) for p, m in s.entries)
        reduced = spectral_summary(
            schreier_graph(image, image.point_stabilizer(base), mapped)
        ).eigenvalues
        assert np.allclose(direct, reduced, atol=1e-8)


def test_rayleigh_on_eigenvector_and_constant():
    walk = cycle_walk(6).walk
    ones = np.ones(6)
    assert rayleigh_quotient(walk, ones) == pytest.approx(1.0, abs=1e-12)
    # an explicit eigenvector of the 6-cycle: alternating signs, eigenvalue -1
    alternating = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    assert rayleigh_quotient(walk, alternating) == pytest.approx(-1.0, abs=1e-12)


def test_rayleigh_rejects_zero_vector():
    with pytest.raises(ValueError):
        rayleigh_quotient(np.eye(3), np.zeros(3))


def test_rayleigh_stays_in_range():
    rng = np.random.default_rng(123)
    walk = cycle_walk(6).walk
    eigs = sym_eigenvalues(walk)
    for _ in range(200):
        v = rng.standard_normal(6)
        q = rayleigh_quotient(walk, v)
        assert eigs[-1] - 1e-9 <= q <= eigs[0] + 1e-9


def test_matrix_dump_round_trip():
    walk = cycle_walk(5).walk
    text = dump_matrix(walk)
    lines = text.strip().splitlines()
    assert lines[0] == "5"
    parsed = np.array([[float(x) for x in line.split()] for line in lines[1:]])
    assert np.array_equal(parsed, walk)
