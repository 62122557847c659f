import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierlab import (
    FiniteGroup,
    Permutation,
    SubgroupLimitError,
    SymmetricMultiset,
    abelian_gap_bound,
    bipartite_criterion,
    build_bound_report,
    catalog_group,
    derived_index_check,
    intermediate_subgroups,
    interval_data,
    nilpotent_exponents,
    nilpotent_gap_bound,
    resolve_action,
    sample_symmetric_multiset,
    schreier_graph,
    spectral_summary,
    subgroup_gap_bound,
    theta,
    theta_min_set_size,
)
from schreierlab import bounds
from schreierlab.bounds import log_theta, nilpotent_verdicts
from testkit import (
    conjugate_subgroup,
    derived_index_by_series,
    indexed,
    ones,
    subgroup_bound_by_minimum,
)


def test_theta_c4_regular(c4):
    # the three subgroups give 1^(1/4), 2^(1/2), 4^1
    assert theta(c4, c4.trivial_subgroup()) == pytest.approx(4.0, abs=1e-9)


def test_theta_s3_natural(s3):
    assert theta(s3, s3.point_stabilizer(0)) == pytest.approx(1.0, abs=1e-12)


def test_theta_abelian_regular_is_group_order():
    for name in ("cyclic:12", "elem-abelian:2^3", "cyclic:2xcyclic:4"):
        group = catalog_group(name)
        assert theta(group, group.trivial_subgroup()) == pytest.approx(
            group.order, rel=1e-9
        )


def test_theta_range_invariant():
    rng = np.random.default_rng(31)
    for name in ("sym:4", "dihedral:16", "heisenberg:3"):
        group = catalog_group(name)
        for _ in range(4):
            y = group.subgroup_generated(
                [group.elements[int(rng.integers(0, group.order))]]
            )
            omega = group.order // y.order
            value = theta(group, y)
            assert 1.0 - 1e-12 <= value <= omega + 1e-9


def test_theta_base_point_independence():
    rng = np.random.default_rng(47)
    for name in ("sym:4", "dihedral:12", "heisenberg:3"):
        group = catalog_group(name)
        y = group.subgroup_generated(
            [group.elements[int(rng.integers(0, group.order))]]
        )
        base = math.log(theta(group, y))
        for _ in range(3):
            g = group.elements[int(rng.integers(0, group.order))]
            conjugate = conjugate_subgroup(group, y, g)
            assert math.log(theta(group, conjugate)) == pytest.approx(base, abs=1e-12)


def test_min_set_size_values():
    assert theta_min_set_size(4.0, 0.5) == pytest.approx(
        2.0 * math.log(4.0) / math.log(10.0), abs=1e-12
    )
    assert theta_min_set_size(1.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        theta_min_set_size(4.0, 5.0)
    with pytest.raises(ValueError):
        theta_min_set_size(4.0, 0.0)


def test_min_set_size_matches_abelian_log_regime():
    # abelian regular actions: the requirement grows like a multiple of log|G|
    epsilon = 0.4
    for n in (8, 16, 32, 64):
        group = catalog_group(f"cyclic:{n}")
        needed = theta_min_set_size(theta(group, group.trivial_subgroup()), epsilon)
        assert needed == pytest.approx(
            2.0 * math.log(n) / math.log(5.0 / epsilon), rel=1e-9
        )


def test_subgroup_bound_c4(c4):
    g = c4.elements[1]
    s = SymmetricMultiset(c4, ones(c4, [g, g * g * g]))
    value, argmin = subgroup_gap_bound(c4, c4.trivial_subgroup(), s)
    # per-subgroup values are 5, 5*2^(-1/2), 5*4^(-1); the whole group wins
    assert value == pytest.approx(5.0 * 4.0 ** (-2.0 / 2.0), abs=1e-12)
    assert argmin.order == 4
    gap = spectral_summary(schreier_graph(c4, c4.trivial_subgroup(), s)).gap
    assert gap <= value + 1e-8


def test_subgroup_bound_vacuous_when_sections_trivial(s3):
    s = sample_symmetric_multiset(s3, 4, np.random.default_rng(2))
    value, _ = subgroup_gap_bound(s3, s3.point_stabilizer(0), s)
    assert value == pytest.approx(5.0, abs=1e-12)


def test_subgroup_bound_reduces_to_abelian_bound():
    for name in ("cyclic:16", "elem-abelian:2^3"):
        group = catalog_group(name)
        for size in (2, 4, 6):
            value, argmin = subgroup_gap_bound(group, group.trivial_subgroup(), size)
            assert argmin.order == group.order
            assert value == pytest.approx(abelian_gap_bound(group.order, size), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        ["sym:4", "sym:5", "alt:5", "dihedral:8", "dihedral:16", "heisenberg:3",
         "heisenberg:5", "cyclic:2xsym:4", "elem-abelian:2^5", "cyclic:2xcyclic:4xcyclic:8"]
    ),
    st.lists(st.integers(min_value=0), max_size=2),
    st.integers(min_value=1, max_value=40),
)
def test_subgroup_bound_matches_the_minimum_over_the_interval(name, picks, size):
    # 5 Θ^(-2/|S|) is the minimum of 5 section(H)^(-2/(|S| |G:H|)): the
    # same float and the same first subgroup attaining it
    group = catalog_group(name)
    stabilizer = group.subgroup_generated([group.elements[i % group.order] for i in picks])
    value, argmin = subgroup_gap_bound(group, stabilizer, size)
    expected, expected_entry = subgroup_bound_by_minimum(group, stabilizer, size)
    assert value == expected
    assert group.indices_of(argmin) == expected_entry.members
    assert log_theta(group, stabilizer) == max(
        math.log(e.section) / e.index for e in interval_data(group, stabilizer)
    )


@pytest.mark.parametrize(
    "read",
    [
        interval_data,
        log_theta,
        lambda group, floor, limit: subgroup_gap_bound(group, floor, 4, limit=limit),
    ],
    ids=["interval_data", "log_theta", "subgroup_gap_bound"],
)
def test_a_cached_interval_honours_a_smaller_limit(read):
    group = catalog_group("sym:4")
    floor = group.trivial_subgroup()
    assert len(interval_data(group, floor)) == 30
    with pytest.raises(SubgroupLimitError, match="more than 5 subgroups"):
        read(group, floor, limit=5)
    read(group, floor, limit=30)


@pytest.mark.parametrize(
    "name, cycles",
    [("sym:5", [[(0, 1)], [(1, 2)], [(2, 3)], [(3, 4)]]), ("elem-abelian:2^5", None)],
)
def test_a_subgroup_is_built_only_where_one_is_handed_out(monkeypatch, name, cycles):
    # the lattice and the index-2 overgroups are member sets; a FiniteGroup
    # is built for subgroup_gap_bound's maximiser and a criterion's witness
    group = catalog_group(name)  # a fresh group, with nothing cached
    trivial = group.trivial_subgroup()
    # odd permutations and the hypercube's generators: both graphs are
    # bipartite, each avoiding an index-2 subgroup
    perms = group.generators if cycles is None else [Permutation.from_cycles(c, 5) for c in cycles]
    graph = schreier_graph(group, trivial, SymmetricMultiset(group, ones(group, perms)))
    built = []
    from_indices = FiniteGroup.subgroup_from_indices

    def counted(self, *args, **kwargs):
        built.append(args)
        return from_indices(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "subgroup_from_indices", counted)
    entries = interval_data(group, trivial)
    assert built == []
    assert bipartite_criterion(graph).criterion_holds
    assert len(built) == 1
    _, argmin = subgroup_gap_bound(group, trivial, 4)
    best = entries[entries.best[1]]
    assert group.indices_of(argmin) == best.members and best.generators
    assert np.array_equal(argmin.generator_images, group.images[list(best.generators)])


def test_abelian_bound_values():
    assert abelian_gap_bound(256, 4) == pytest.approx(0.3125, abs=1e-12)
    assert abelian_gap_bound(1, 3) == pytest.approx(5.0, abs=1e-12)
    assert abelian_gap_bound(16, 4) == pytest.approx(1.25, abs=1e-12)


def test_nilpotent_exponent_values():
    f, beta = nilpotent_exponents(2, 1)
    assert f == pytest.approx(1.0, abs=1e-12)
    assert beta == pytest.approx(1.0, abs=1e-12)
    f, beta = nilpotent_exponents(2, 2)
    assert f == pytest.approx(0.2, abs=1e-12)
    assert beta == pytest.approx(0.2, abs=1e-12)
    assert nilpotent_exponents(2, 2)[0] >= 2.0**-3


def test_nilpotent_exponent_floors():
    for d in range(2, 11):
        for c in range(1, 9):
            f, beta = nilpotent_exponents(d, c)
            assert f >= d ** (-c - 1.0)
            assert beta >= 1.0 / (2.0 * d**c)


def test_nilpotent_bound_values():
    assert nilpotent_gap_bound(27, 4, 2) == pytest.approx(
        5.0 * 27.0 ** (-6.0 / 204.0), rel=1e-12
    )
    # class 1 on four elements matches the abelian bound shape
    assert nilpotent_gap_bound(81, 4, 1) == pytest.approx(
        5.0 * 81.0 ** (-0.5), rel=1e-12
    )
    assert nilpotent_gap_bound(1, 4, 2) == pytest.approx(5.0, abs=1e-12)


def test_derived_index_heisenberg(heis3):
    y = heis3.trivial_subgroup()
    gens = SymmetricMultiset(
        heis3,
        ones(heis3, [heis3.generators[0], heis3.generators[0].inverse(),
                     heis3.generators[1], heis3.generators[1].inverse()]),
    )
    report = derived_index_check(heis3, y, gens)
    assert report.hypotheses_hold
    assert report.lhs == 9
    assert report.class_c == 2
    assert report.rhs == pytest.approx(27.0 ** nilpotent_exponents(4, 2)[1], rel=1e-9)
    assert report.verdict.passed


def test_derived_index_abelian_equality():
    group = catalog_group("elem-abelian:2^3")
    s = SymmetricMultiset(
        group, ones(group, [group.generators[0], group.generators[1], group.generators[2]])
    )
    report = derived_index_check(group, group.trivial_subgroup(), s)
    assert report.hypotheses_hold and report.class_c == 1
    assert report.lhs == 8
    assert report.rhs == pytest.approx(8.0, rel=1e-12)
    assert report.verdict.passed


def test_derived_index_hypotheses_checked(s3, heis3):
    # non-generating multiset
    g = heis3.generators[0]
    s = SymmetricMultiset(heis3, ones(heis3, [g, g.inverse()]))
    sub = heis3.subgroup_generated([g])
    assert sub.order < heis3.order
    report = derived_index_check(heis3, heis3.trivial_subgroup(), s)
    assert not report.hypotheses_hold
    # size below two
    tiny = SymmetricMultiset(heis3, indexed(heis3, [(heis3.identity, 1)]))
    assert not derived_index_check(heis3, heis3.trivial_subgroup(), tiny).hypotheses_hold
    # series never inside the stabilizer
    transposition = Permutation.from_cycles([[0, 1]], 3)
    s = SymmetricMultiset(
        s3,
        ones(s3, [transposition, Permutation.from_cycles([[0, 1, 2]], 3),
                  Permutation.from_cycles([[0, 2, 1]], 3)]),
    )
    assert not derived_index_check(s3, s3.trivial_subgroup(), s).hypotheses_hold


_DERIVED_GROUPS = {
    name: catalog_group(name)
    for name in ("heisenberg:3", "heisenberg:5", "dihedral:8", "dihedral:16", "sym:3", "alt:4")
}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(_DERIVED_GROUPS)),
    st.integers(min_value=0),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_derived_index_check_matches_the_per_multiset_oracle(name, pick, size, seed):
    # the groups are shared across examples, so the per-action figures are
    # computed on an action's first example and read from the cache after
    group = _DERIVED_GROUPS[name]
    lattice = intermediate_subgroups(group, group.trivial_subgroup())
    stabilizer = group.subgroup_from_indices(*lattice[pick % len(lattice)])
    multiset = sample_symmetric_multiset(group, size, np.random.default_rng(seed))
    assert derived_index_check(group, stabilizer, multiset) == derived_index_by_series(
        group, stabilizer, multiset
    )


def test_a_repeated_derived_index_check_makes_one_lookup(monkeypatch):
    group = catalog_group("dihedral:16")
    stabilizer = group.subgroup_generated([group.elements[3]])
    multiset = sample_symmetric_multiset(group, 6, np.random.default_rng(4))
    first = derived_index_check(group, stabilizer, multiset)
    lookups = []
    indices_of = FiniteGroup.indices_of

    def counted(self, subgroup):
        lookups.append(subgroup)
        return indices_of(self, subgroup)

    monkeypatch.setattr(FiniteGroup, "indices_of", counted)
    assert derived_index_check(group, stabilizer, multiset) == first
    assert len(lookups) == 1


def test_the_nilpotent_bound_needs_class_and_two_elements(heis3, s3):
    # f(d, c) has the denominator d^(c+1) - d^2 + d - 1, which is 0 at d = 1
    one = SymmetricMultiset(heis3, [(0, 1)])
    assert nilpotent_verdicts(heis3, heis3.trivial_subgroup(), one, 0.0) == (None, None)
    report = build_bound_report(heis3, heis3.trivial_subgroup(), one)
    assert report.nilpotent_bound is None and report.nilpotent_class is None
    s = sample_symmetric_multiset(s3, 4, np.random.default_rng(1))
    assert nilpotent_verdicts(s3, s3.trivial_subgroup(), s, 0.5)[0] is None
    two = SymmetricMultiset(heis3, [(0, 2)])
    bound, _ = nilpotent_verdicts(heis3, heis3.trivial_subgroup(), two, 0.0)
    assert bound.passed and bound.rhs == nilpotent_gap_bound(27, 2, 2)


def test_bound_report_fields(c4):
    g = c4.elements[1]
    s = SymmetricMultiset(c4, ones(c4, [g, g * g * g]))
    report = build_bound_report(c4, c4.trivial_subgroup(), s, epsilon=0.5)
    data = report.to_dict()
    assert data["theta"] == pytest.approx(4.0)
    assert data["abelian_bound"] == pytest.approx(1.25)
    assert data["nilpotent_class"] == 1
    assert data["measured_gap"] == pytest.approx(1.0, abs=1e-9)
    assert data["measured_lambda"] == pytest.approx(1.0, abs=1e-9)
    assert data["epsilon_used"] == 0.5
    assert data["min_set_size"] == pytest.approx(theta_min_set_size(4.0, 0.5))
    assert data["vacuous"] == []
    assert data["glwi_bound"] <= 5.0


@pytest.mark.parametrize(
    "name, action", [("cyclic:16", "regular"), ("sym:4", "natural"), ("heisenberg:3", "regular")]
)
def test_bound_report_reads_its_interval_once(name, action, monkeypatch):
    group = catalog_group(name)
    stabilizer = resolve_action(group, action)
    s = sample_symmetric_multiset(group, 4, np.random.default_rng(5))
    expected_bound, expected_argmin = subgroup_gap_bound(group, stabilizer, s)
    entries = interval_data(group, stabilizer)
    reads = []

    def recorded(*args, **kwargs):
        reads.append(args)
        return entries

    monkeypatch.setattr(bounds, "interval_data", recorded)
    report = build_bound_report(group, stabilizer, s)
    assert len(reads) == 1
    assert report.theta == theta(group, stabilizer)
    assert report.glwi_bound == expected_bound
    assert entries[report.glwi_argmin_index].members == group.indices_of(expected_argmin)
    assert report.glwi_argmin_order == expected_argmin.order


def test_bound_report_flags_vacuous_bounds():
    group = catalog_group("cyclic:2")
    g = group.elements[1]
    s = SymmetricMultiset(group, indexed(group, [(g, 2)]))
    report = build_bound_report(group, group.trivial_subgroup(), s)
    # 5 * 2^(-1) = 2.5 exceeds any possible gap
    assert "glwi_bound" in report.vacuous
    assert report.measured_gap <= report.glwi_bound + 1e-8


def test_gap_vanishes_without_generation(heis3):
    # a connection multiset that stays inside a proper subgroup cannot expand
    g = heis3.generators[0]
    s = SymmetricMultiset(heis3, ones(heis3, [g, g.inverse()]))
    assert heis3.subgroup_generated(heis3.elements[i] for i in s.support()).order < heis3.order
    summary = spectral_summary(
        schreier_graph(heis3, heis3.trivial_subgroup(), s)
    )
    assert summary.gap == pytest.approx(0.0, abs=1e-10)
    assert summary.gap <= nilpotent_gap_bound(27, 2, 2) + 1e-8
