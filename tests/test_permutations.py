import functools
import gc
import inspect
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierlab import (
    GroupTooLargeError,
    NotASubgroupError,
    Permutation,
    catalog_group,
    derived_subgroup,
    group_from_generators,
    index2_overgroups,
    intermediate_subgroups,
    lower_central_series,
)
from schreierlab.notation import parse_group_text
from schreierlab.permutations import CosetAction, FiniteGroup, Transversal
from schreierlab.sweeps import _MIDSIZE_POOL, _NILPOTENT_GROUPS, _SMALL_POOL
from testkit import (
    SMALL_GROUPS,
    all_members_series,
    coset_permutation,
    faithful_reduction,
    normal_core,
    tuple_closure,
)


# ---------------------------------------------------------------------------
# independent oracles, written against raw permutations only


def closure_of(perms):
    """Plain multiplication closure, independent of the library's BFS."""
    degree = perms[0].degree
    members = {Permutation.identity(degree)}
    members.update(perms)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(list(members), repeat=2):
            c = a * b
            if c not in members:
                members.add(c)
                changed = True
    return members


def all_subgroups_by_small_seeds(group, max_seed=3):
    """Every subgroup of a group whose subgroups need at most 3 generators."""
    found = set()
    elements = list(group.elements)
    for r in range(0, max_seed + 1):
        for seed in itertools.combinations(elements, r):
            members = closure_of(list(seed) or [group.identity])
            found.add(frozenset(p.images for p in members))
    return found


def brute_derived(group):
    commutators = [
        a.inverse() * b.inverse() * a * b
        for a, b in itertools.product(group.elements, repeat=2)
    ]
    return closure_of(commutators)


def brute_core(group, subgroup):
    members = set(subgroup.elements)
    for g in group.elements:
        conjugate = {g.inverse() * y * g for y in subgroup.elements}
        members &= conjugate
    return members


# ---------------------------------------------------------------------------
# permutation algebra


def test_compose_applies_left_then_right():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    assert (p * q).images == tuple(q.images[i] for i in p.images)


def test_inverse_of_explicit_tuple():
    # solve images[inv[i]] = i by hand for [1,2,3,0]
    p = Permutation([1, 2, 3, 0])
    assert p.inverse().images == (3, 0, 1, 2)


def test_three_cycle_basics():
    p = Permutation.from_cycles([[0, 1, 2]], 3)
    assert p(0) == 1
    assert p * p.inverse() == Permutation.identity(3)


def test_degree_mismatch_and_range_errors():
    p = Permutation([1, 0])
    q = Permutation([1, 2, 0])
    with pytest.raises(ValueError):
        p * q
    with pytest.raises(ValueError):
        p(5)
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_inverse_cancels(a, b):
    p, q = Permutation(a), Permutation(b)
    assert p * p.inverse() == Permutation.identity(6)
    assert (p * q) * (p * q).inverse() == Permutation.identity(6)


@given(
    st.permutations(list(range(5))),
    st.permutations(list(range(5))),
    st.permutations(list(range(5))),
)
def test_composition_associative(a, b, c):
    p, q, r = Permutation(a), Permutation(b), Permutation(c)
    assert ((p * q) * r).images == (p * (q * r)).images


def test_cycle_decomposition_round_trip():
    p = Permutation([1, 0, 3, 4, 2, 5])
    assert Permutation.from_cycles(p.cycles(), 6) == p


# ---------------------------------------------------------------------------
# group construction


def test_cyclic_closure_order(c4):
    assert c4.order == 4
    assert c4.identity == Permutation.identity(4)


def test_sym6_closure_order():
    gens = [
        Permutation.from_cycles([[0, 1]], 6),
        Permutation.from_cycles([[0, 1, 2, 3, 4, 5]], 6),
    ]
    assert group_from_generators(gens).order == math.factorial(6)


def test_identity_generator_gives_trivial_group():
    g = group_from_generators([Permutation.identity(3)])
    assert g.order == 1


def test_cap_is_explicit():
    gens = [
        Permutation.from_cycles([[0, 1]], 6),
        Permutation.from_cycles([[0, 1, 2, 3, 4, 5]], 6),
    ]
    with pytest.raises(GroupTooLargeError):
        group_from_generators(gens, cap=100)


def test_canonical_order_is_bfs_discovery():
    g = catalog_group("cyclic:4")
    gen = g.generators[0]
    expected = [Permutation.identity(4), gen, gen * gen, gen * gen * gen]
    assert list(g.elements) == expected


def test_element_membership_and_index(s3):
    for i, p in enumerate(s3.elements):
        assert s3.index_of(p) == i
    outsider = Permutation([1, 0, 2, 3])
    assert outsider not in s3
    with pytest.raises(ValueError):
        s3.index_of(outsider)


# ---------------------------------------------------------------------------
# transversals


def test_transversal_c4_over_c2(c4):
    g = c4.elements[1]
    h = c4.subgroup_generated([g * g])
    t = Transversal(c4, h)
    assert t.coset_count == 2
    assert [c4.elements[i].images for i in t.rep_indices] == [c4.identity.images, g.images]
    # every element lands in the subgroup after cancelling its representative
    for x in range(c4.order):
        rep = c4.elements[t.rep_of[x]]
        assert c4.elements[x] * rep.inverse() in h
    # representatives are their own representatives
    for rep_idx in t.rep_indices:
        assert t.rep_of[rep_idx] == rep_idx


def test_transversal_partition_sizes(s3):
    h = s3.subgroup_generated([Permutation.from_cycles([[0, 1]], 3)])
    t = Transversal(s3, h)
    assert t.coset_count == 3
    slots = {}
    for x in range(s3.order):
        slots.setdefault(t.slot_of[x], set()).add(x)
    assert sorted(len(v) for v in slots.values()) == [2, 2, 2]


def test_whole_group_transversal(s3):
    t = Transversal(s3, s3)
    assert t.coset_count == 1
    assert s3.elements[t.rep_indices[0]] == Permutation.identity(3)


@pytest.mark.parametrize(
    "name", ["cyclic:12", "dihedral:8", "sym:4", "heisenberg:3", "elem-abelian:2^3"]
)
def test_inverse_classes_match_the_inline_enumeration(name):
    group = catalog_group(name)
    inv = group.inverse_indices()
    expected = sorted({tuple(sorted({i, inv[i]})) for i in range(group.order)})
    assert list(group.inverse_classes()) == expected


def test_coset_members_partition_the_group_by_slot(s3):
    t = Transversal(s3, s3.subgroup_generated([s3.generators[0]]))
    members = t.coset_members()
    assert sorted(x for slot in members for x in slot) == list(range(s3.order))
    for slot, xs in enumerate(members):
        assert xs == sorted(xs)
        assert all(t.slot_of[x] == slot for x in xs)
        assert t.rep_indices[slot] in xs


def test_the_constructor_accepts_only_the_enumeration():
    group = catalog_group("sym:4")
    images = np.array([p.images for p in group.elements])
    rebuilt = FiniteGroup(images, group.generator_images)
    assert [p.images for p in rebuilt.elements] == [p.images for p in group.elements]
    swapped = images.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    not_bijective = images.copy()
    not_bijective[5, 0] = not_bijective[5, 1]
    for bad in (swapped, images[:12], not_bijective, images[1:], images.astype(float)):
        with pytest.raises(ValueError):
            FiniteGroup(bad, group.generator_images)


@pytest.mark.parametrize("name", ["cyclic:1", "alt:7"])  # order 1; above the table limit
def test_a_group_round_trips_through_the_constructor(name):
    group = catalog_group(name)
    again = FiniteGroup(group.images, group.generator_images)
    assert np.array_equal(again.images, group.images)
    assert np.array_equal(again.generator_images, group.generator_images)
    if group.order > 2:
        swapped = group.images[[0, group.order - 1, *range(2, group.order - 1), 1]]
        with pytest.raises(ValueError, match="not the group its generators generate"):
            FiniteGroup(swapped, group.generator_images)


def test_generator_rows_must_be_bijections_of_the_table_degree(s3):
    # sym:3's two generators as one row of degree 6, a row of degree 6 whose
    # second half would index past the table, points past the degree and
    # past int32, a float row and no generator at all
    degree_6 = ([np.concatenate(s3.generator_images)], [[1, 0, 2, 3, 4, 5]])
    for rows in (*degree_6, [[1, 0, 7]], [[2**40, 0, 1]], [[1.0, 0.0, 2.0]], np.empty((0, 3), int)):
        with pytest.raises(ValueError, match=r"bijections of range\(3\)"):
            FiniteGroup(s3.images, rows)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SMALL_GROUPS),
    st.lists(st.integers(min_value=0), max_size=2),
    st.randoms(use_true_random=False),
)
def test_with_reps_matches_brute_force_cosets(name, picks, random):
    group = catalog_group(name)
    stabilizer = group.subgroup_from_indices(group._closure([p % group.order for p in picks]))
    h = group.indices_of(stabilizer)
    inv = group.inverse_indices()
    cosets = {frozenset(group.mult(y, x) for y in h) for x in range(group.order)}
    base = Transversal(group, stabilizer)
    reps = [random.choice(sorted(coset)) for coset in cosets]
    random.shuffle(reps)
    for t in (base, base.with_reps(reps)):
        assert {frozenset(np.flatnonzero(t.slot_of == k).tolist()) for k in range(t.coset_count)} == cosets
        for x in range(group.order):
            assert group.mult(x, inv[t.rep_of[x]]) in h
            assert t.rep_indices[t.slot_of[x]] == t.rep_of[x]
        for array in (t.rep_indices, t.slot_of, t.rep_of):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
    assert sorted(base.with_reps(reps).rep_indices.tolist()) == sorted(reps)
    assert base.coset_members() == [np.flatnonzero(base.slot_of == k).tolist() for k in range(base.coset_count)]

    with pytest.raises(ValueError, match="expected"):
        base.with_reps(reps[1:])
    with pytest.raises(ValueError, match="expected"):
        base.with_reps(reps + reps[:1])
    for outside in (-1, group.order):
        with pytest.raises(ValueError, match="range"):
            base.with_reps([outside] + reps[1:])
    if len(reps) > 1:
        # another member of the first rep's coset in place of the second rep
        twin = random.choice(sorted(next(c for c in cosets if reps[0] in c)))
        with pytest.raises(ValueError, match="same coset"):
            base.with_reps(reps[:1] + [twin] + reps[2:])


def test_not_a_subgroup_is_rejected(s3, c4):
    transposition_group = group_from_generators([Permutation([1, 0, 2, 3])])
    with pytest.raises(NotASubgroupError):
        Transversal(c4, transposition_group)
    with pytest.raises(NotASubgroupError):
        Transversal(s3, catalog_group("cyclic:4"))


def test_indices_of_refuses_a_same_degree_non_subgroup():
    s4 = catalog_group("sym:4")
    a4 = catalog_group("alt:4")
    assert {s4.elements[i].images for i in s4.indices_of(a4)} == {p.images for p in a4.elements}
    h = s4.subgroup_generated([Permutation.from_cycles([[0, 1]], 4)])
    with pytest.raises(NotASubgroupError, match="group of order 2 is not a subgroup of the parent"):
        a4.indices_of(h)


# dihedral:16 and cyclic:2xsym:4 read Cayley tables; alt:6 (360) is below
# the table limit and sym:6 (720) above it
@pytest.mark.parametrize("name", ["dihedral:16", "cyclic:2xsym:4", "alt:6", "sym:6"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_coset_action_matches_permutation_products(name, data):
    group = catalog_group(name)
    index = st.integers(0, group.order - 1)
    picks = data.draw(st.lists(index, max_size=2))
    action = CosetAction(group, group.subgroup_generated([group.elements[i] for i in picks]))
    t = action.transversal
    drawn = data.draw(st.lists(index, min_size=1, max_size=3))
    columns = []
    for i in drawn:
        expected = [
            t.slot_of[group.index_of(group.elements[r] * group.elements[i])]
            for r in t.rep_indices
        ]
        assert action.permutation_of_index(i).tolist() == expected
        assert coset_permutation(action, group.elements[i]).images == tuple(expected)
        columns.append(expected)
    # an array of indices gives one column per element, in the order given
    slots = action.permutation_of_index(np.array(drawn))
    assert slots.shape == (action.n_points, len(drawn))
    assert slots.T.tolist() == columns
    assert action.permutation_of_index(drawn).tolist() == slots.tolist()


# the left action on both sides of the table limit: alt:6 (360) reads the
# Cayley table, sym:6 (720) gathers
@pytest.mark.parametrize("name", ["dihedral:16", "alt:6", "sym:6"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_left_action_matches_permutation_products(name, data):
    group = catalog_group(name)
    index = st.integers(0, group.order - 1)
    picks = data.draw(st.lists(index, max_size=2))
    action = CosetAction(group, group.subgroup_generated([group.elements[i] for i in picks]))
    t = action.transversal
    for y in data.draw(st.lists(index, min_size=1, max_size=3)):
        expected = [
            t.slot_of[group.index_of(group.elements[y] * group.elements[r])]
            for r in t.rep_indices
        ]
        assert action.left_action_of_index(y).tolist() == expected


@pytest.mark.parametrize("name", ["dihedral:16", "sym:6"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_products_broadcast_like_permutation_products(name, data):
    group = catalog_group(name)
    elements = group.elements
    indices = st.lists(st.integers(0, group.order - 1), min_size=1, max_size=4)
    left, right = data.draw(indices), data.draw(indices)

    def product(i, j):
        return group.index_of(elements[int(i)] * elements[int(j)])

    scalar = group.products(left[0], right[0])
    assert np.shape(scalar) == () and scalar == product(left[0], right[0])
    row = group.products(left[0], np.array(right))
    assert row.tolist() == [product(left[0], j) for j in right]
    column = group.products(np.array(left), right[0])
    assert column.tolist() == [product(i, right[0]) for i in left]
    outer = group.products(np.array(left)[:, None], np.array(right))
    assert outer.tolist() == [[product(i, j) for j in right] for i in left]
    # the explicit outer product takes 1-D arrays or sequences
    assert group.products(np.array(left), np.array(right), outer=True).tolist() == outer.tolist()
    assert group.products(tuple(left), right, outer=True).tolist() == outer.tolist()
    # elementwise over arrays of one shape, 1-D and 2-D
    pairs = group.products(np.array(left), np.array(left))
    assert pairs.tolist() == [product(i, i) for i in left]
    squares = group.products(outer, outer)
    assert squares.tolist() == [[product(x, x) for x in row] for row in outer.tolist()]


def generated_by(perms, degree):
    """Every product of the given permutations: a search over right
    multiplications, which in a finite group also reaches the inverses."""
    members = {Permutation.identity(degree)}
    queue = list(members)
    for x in queue:
        for s in perms:
            if x * s not in members:
                members.add(x * s)
                queue.append(x * s)
    return members


def normally_generated_by(seed, conjugators, degree):
    """The least subgroup holding the seed and stable under x -> g^-1 x g
    for every conjugator g, by adding one escaping conjugate at a time."""
    gens = list(seed)
    while True:
        members = generated_by(gens, degree)
        escaped = [g.inverse() * x * g for x in members for g in conjugators]
        escaped = [y for y in escaped if y not in members]
        if not escaped:
            return members
        gens.append(escaped[0])


# the integer core against Permutation products on both sides of the table
# limit: dihedral:16 and alt:6 (360) read Cayley tables, sym:6 (720) does not
@pytest.mark.parametrize("name", ["dihedral:16", "alt:6", "sym:6"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_integer_core_matches_permutation_products(name, data):
    group = catalog_group(name)
    index = st.integers(0, group.order - 1)
    elements = group.elements
    for i, j in data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=5)):
        x, y = elements[i], elements[j]
        assert elements[group.mult(i, j)] == x * y
        assert elements[group.inverse_indices()[i]] == x.inverse()
        assert elements[group.commutator(i, j)] == x.inverse() * y.inverse() * x * y

    def images(indices):
        return {elements[i].images for i in indices}

    base_gens = data.draw(st.lists(index, max_size=2))
    seed = data.draw(st.lists(index, min_size=1, max_size=2))
    base = generated_by([elements[i] for i in base_gens], group.degree)
    closure = group._closure(seed, base=(group.index_of(b) for b in base), base_gens=base_gens)
    expected = generated_by([elements[i] for i in base_gens + seed], group.degree)
    assert images(closure) == {p.images for p in expected}

    right = data.draw(st.lists(index, max_size=2))
    closure, adjoined = group._commutator_closure(seed, right)
    commutators = [
        elements[a].inverse() * elements[b].inverse() * elements[a] * elements[b]
        for a in seed
        for b in right
    ]
    expected = normally_generated_by(commutators, [elements[i] for i in right], group.degree)
    assert images(closure) == {p.images for p in expected}
    assert images(closure) == {
        p.images for p in generated_by([elements[i] for i in adjoined], group.degree)
    }


# ---------------------------------------------------------------------------
# derived subgroups and the lower central series


def test_derived_subgroup_matches_brute_force(s3, d8):
    for group in (s3, d8, catalog_group("alt:4")):
        expected = {p for p in brute_derived(group)}
        got = derived_subgroup(group)
        assert {p.images for p in got.elements} == {p.images for p in expected}


def test_derived_of_abelian_is_trivial(c6):
    assert derived_subgroup(c6).order == 1


def test_derived_s3_is_alt3(s3):
    assert derived_subgroup(s3).order == 3


def test_derived_d8_is_center(d8):
    derived = derived_subgroup(d8)
    assert derived.order == 2
    center_element = derived.elements[1]
    for g in d8.elements:
        assert g * center_element == center_element * g


def test_lcs_matches_brute_force(d8, s3, heis3):
    for group in (d8, s3, heis3, catalog_group("cyclic:12")):
        term = set(group.elements)
        expected_orders = [len(term)]
        while True:
            commutators = [
                x.inverse() * g.inverse() * x * g
                for x in term
                for g in group.elements
            ]
            nxt = closure_of(commutators)
            if len(nxt) == len(term):
                break
            expected_orders.append(len(nxt))
            term = nxt
            if len(nxt) == 1:
                break
        terms, _ = lower_central_series(group)
        assert [t.order for t in terms] == expected_orders


# the sweep pools and groups whose series are long, wide or perfect
SERIES_GROUPS = sorted(
    set(_MIDSIZE_POOL + _SMALL_POOL + _NILPOTENT_GROUPS)
    | {"heisenberg:5", "heisenberg:7", "dihedral:64", "dihedral:256", "elem-abelian:2^9"}
    | {"cyclic:1024", "sym:5", "alt:5"}
)


@pytest.mark.parametrize("name", SERIES_GROUPS)
def test_lcs_matches_the_all_members_series(name):
    group = catalog_group(name)
    terms, class_c = lower_central_series(group)
    expected_terms, expected_class = all_members_series(group)
    assert [group.indices_of(t) for t in terms] == expected_terms
    assert class_c == expected_class
    derived = expected_terms[1] if len(expected_terms) > 1 else expected_terms[0]
    assert group.indices_of(derived_subgroup(group)) == derived


def test_nilpotency_classes(d8, s3, heis3, c6):
    assert lower_central_series(c6)[1] == 1
    assert lower_central_series(d8)[1] == 2
    assert lower_central_series(heis3)[1] == 2
    assert lower_central_series(s3)[1] is None
    assert lower_central_series(catalog_group("dihedral:16"))[1] == 3


def test_lcs_terms_descending_and_normal(d8, heis3):
    for group in (d8, heis3):
        terms, _ = lower_central_series(group)
        for earlier, later in zip(terms, terms[1:]):
            assert len(earlier.indices_of(later)) == later.order
        for term in terms:
            for g in group.generators:
                for x in term.elements:
                    assert g.inverse() * x * g in term


def test_the_cached_series_does_not_keep_its_group_alive():
    # without the cycle, a group is freed when its last reference goes,
    # not at the next full garbage collection
    gc.disable()
    try:
        group = catalog_group("dihedral:16")
        first = lower_central_series(group)
        assert first == lower_central_series(group) and first[0][0] is group
        freed = weakref.ref(group)
        del group, first
        assert freed() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# normal cores and faithful reduction


def test_normal_core_examples(s3, c4):
    y = s3.subgroup_generated([Permutation.from_cycles([[0, 1]], 3)])
    core = normal_core(s3, y)
    assert {p.images for p in core.elements} == {p.images for p in brute_core(s3, y)}
    assert core.order == 1
    assert normal_core(s3, s3).order == s3.order
    a3 = derived_subgroup(s3)
    assert s3.indices_of(normal_core(s3, a3)) == s3.indices_of(a3)


def test_faithful_reduction_examples(s3, c4):
    image, base = faithful_reduction(s3, s3.trivial_subgroup())
    assert image.order == 6 and image.degree == 6

    y = s3.point_stabilizer(0)
    image, base = faithful_reduction(s3, y)
    assert image.order == 6 and image.degree == 3

    g = c4.elements[1]
    c2 = c4.subgroup_generated([g * g])
    image, base = faithful_reduction(c4, c2)
    assert image.order == 2 and image.degree == 2
    assert base == 0


def test_faithful_reduction_order_is_core_index():
    for name in ("sym:4", "dihedral:12", "heisenberg:3"):
        group = catalog_group(name)
        y = group.subgroup_generated([group.elements[group.order // 2]])
        image, _ = faithful_reduction(group, y)
        assert image.order == group.order // normal_core(group, y).order


# ---------------------------------------------------------------------------
# normalisers


def brute_normaliser(group, subgroup):
    """The indices of every g with g^-1 X g = X, X the subgroup's members,
    by Permutation products."""
    members = set(subgroup.elements)
    return [i for i, g in enumerate(group.elements) if {g.inverse() * h * g for h in members} == members]


def assert_normaliser_matches_brute_force(group, subgroup):
    generators = [group.index_of(p) for p in subgroup.generators]
    found = group.normaliser(group.indices_of(subgroup), generators)
    assert found.tolist() == brute_normaliser(group, subgroup)
    return len(found)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["sym:4", "alt:5", "dihedral:16", "heisenberg:3", "cyclic:2xsym:4"]),
    picks=st.lists(st.integers(min_value=0), max_size=3),
)
def test_normaliser_matches_brute_force(name, picks):
    group = catalog_group(name)
    subgroup = group.subgroup_generated(group.elements[i % group.order] for i in picks)
    assert_normaliser_matches_brute_force(group, subgroup)


# above the table limit (512), where products are read at the base
@pytest.mark.parametrize(
    "name, cycles, order",
    [
        ("sym:6", "(1 2)(3 4)", 16),
        ("sym:7", "(2 5)(3 6)", 48),
        ("alt:7", "(1 2 3)", 72),
        ("sym:7", "(2 7)", 240),
    ],
)
def test_normaliser_above_the_table_limit(name, cycles, order):
    group = catalog_group(name)
    subgroup = group.subgroup_generated(parse_group_text(cycles, degree=group.degree))
    assert group.order > 512
    assert assert_normaliser_matches_brute_force(group, subgroup) == order


# ---------------------------------------------------------------------------
# subgroup enumeration


def test_intermediate_subgroups_c4(c4):
    subs = intermediate_subgroups(c4, c4.trivial_subgroup())
    assert [len(members) for members, _ in subs] == [1, 2, 4]


def test_intermediate_subgroups_above_floor(s3):
    y = s3.subgroup_generated([Permutation.from_cycles([[0, 1]], 3)])
    subs = intermediate_subgroups(s3, y)
    assert [len(members) for members, _ in subs] == [2, 6]
    assert intermediate_subgroups(s3, s3) and len(intermediate_subgroups(s3, s3)) == 1


@pytest.mark.parametrize(
    "name",
    ["cyclic:12", "sym:3", "dihedral:8", "alt:4", "elem-abelian:2^3", "sym:4"],
)
def test_interval_matches_seeded_brute_force(name):
    # oracle sound for groups whose subgroups are all 3-generated; rank-4
    # two-groups like (C2)^4 would need larger seeds
    group = catalog_group(name)
    expected = all_subgroups_by_small_seeds(group)
    got = {
        frozenset(group.elements[i].images for i in members)
        for members, _ in intermediate_subgroups(group, group.trivial_subgroup())
    }
    assert got == expected


def test_lagrange_for_every_enumerated_subgroup():
    for name in ("sym:4", "dihedral:12", "heisenberg:3"):
        group = catalog_group(name)
        for members, _ in intermediate_subgroups(group, group.trivial_subgroup()):
            assert group.order % len(members) == 0


# ---------------------------------------------------------------------------
# index-2 overgroups


def test_index2_c4(c4):
    subs = index2_overgroups(c4, c4.trivial_subgroup())
    assert len(subs) == 1 and len(subs[0]) == 2


def test_index2_klein():
    v4 = catalog_group("elem-abelian:2^2")
    subs = index2_overgroups(v4, v4.trivial_subgroup())
    assert len(subs) == 3
    assert all(len(s) == 2 for s in subs)


def test_index2_alt5_empty():
    a5 = catalog_group("alt:5")
    assert a5.order == 60
    assert index2_overgroups(a5, a5.trivial_subgroup()) == []


def test_index2_respects_floor(d8):
    rotation = d8.generators[0]
    floor = d8.subgroup_generated([rotation])
    subs = index2_overgroups(d8, floor)
    assert len(subs) == 1
    assert subs[0] == d8.indices_of(floor)
    all_of_them = index2_overgroups(d8, d8.trivial_subgroup())
    assert len(all_of_them) == 3


def test_index2_have_index_two():
    for name in ("sym:4", "dihedral:12", "cyclic:16"):
        group = catalog_group(name)
        for sub in index2_overgroups(group, group.trivial_subgroup()):
            assert len(sub) * 2 == group.order


def test_subgroup_enumeration_limit_is_explicit(c4):
    from schreierlab import SubgroupLimitError

    with pytest.raises(SubgroupLimitError):
        intermediate_subgroups(c4, c4.trivial_subgroup(), limit=2)


@pytest.mark.parametrize("name", ["sym:6", "dihedral:1024"])
def test_index2_overgroups_hold_every_square(name):
    # above the table limit; the squares come one mult call at a time here
    group = catalog_group(name)
    assert group.order > 512
    squares = {group.mult(i, i) for i in range(group.order)}
    rank = (group.order // len(group._closure(squares))).bit_length() - 1
    found = index2_overgroups(group, group.trivial_subgroup())
    assert len(found) == len(set(found)) == 2**rank - 1
    assert all(2 * len(h) == group.order and squares <= h for h in found)


# ---------------------------------------------------------------------------
# the image array is the group


@st.composite
def generating_sets(draw):
    """1-4 permutations of degree 1-8, with repeats and the identity mixed in."""
    degree = draw(st.integers(1, 8))
    perm = st.permutations(range(degree)).map(Permutation)
    gens = draw(st.lists(perm, min_size=1, max_size=4))
    extras = draw(st.lists(st.sampled_from(gens + [Permutation.identity(degree)]), max_size=2))
    return draw(st.permutations(gens + extras))


@settings(max_examples=40, deadline=None)
@given(generating_sets())
def test_array_closure_matches_the_tuple_closure(gens):
    group = group_from_generators(gens)
    expected = tuple_closure(gens)
    assert group.order == len(expected)
    assert group.images.tolist() == [list(row) for row in expected]
    if group.order == 1:
        assert group_from_generators(gens, cap=0).order == len(tuple_closure(gens, cap=0)) == 1
        return
    with pytest.raises(GroupTooLargeError) as array_error:
        group_from_generators(gens, cap=group.order - 1)
    with pytest.raises(GroupTooLargeError) as tuple_error:
        tuple_closure(gens, cap=group.order - 1)
    assert str(array_error.value) == str(tuple_error.value)


def test_image_arrays_are_read_only(s3):
    with pytest.raises(ValueError):
        s3.images[1, 0] = 0
    with pytest.raises(ValueError):
        s3.generator_images[0, 0] = 1
    assert s3.images.dtype == np.int32 and s3.images.flags.c_contiguous


def test_row_tables_need_distinct_rows_and_the_identity_first():
    with pytest.raises(ValueError, match="duplicate"):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [1, 2, 0]], [[1, 2, 0]])
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[1, 2, 0], [0, 1, 2]], [[1, 2, 0]])
    with pytest.raises(ValueError, match="bijection"):
        FiniteGroup([[0, 1, 2], [1, 1, 0]], [[1, 1, 0]])


def test_checked_constructor_finds_a_bad_row_in_a_later_block():
    # cyclic:1024 has 2^20 entries, checked in blocks of 64 rows: row 900
    # lies in the fifteenth, and the product of row 899 with the generator
    # is row 900
    group = catalog_group("cyclic:1024")
    images, gens = np.array(group.images), np.array(group.generator_images)
    assert FiniteGroup(images, gens).order == 1024
    broken = images.copy()
    broken[900, :2] = broken[900, 0]
    with pytest.raises(ValueError, match="bijection"):
        FiniteGroup(broken, gens)
    broken = images.copy()
    broken[900, :2] = broken[900, 1::-1]  # a bijection outside the group
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup(broken, gens)


# groups on both sides of the 512 table limit
LOOKUP_GROUPS = ["sym:4", "heisenberg:5", "cyclic:2xsym:4", "sym:6", "alt:7", "cyclic:1024"]
cached_group = functools.cache(catalog_group)


def lookup_tables(group):
    """The group's row lookup tables, keyed by base point."""
    _, lookup = group._lookup()
    return inspect.getclosurevars(lookup).nonlocals["tables"]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LOOKUP_GROUPS), st.lists(st.integers(min_value=0), min_size=1, max_size=40))
def test_row_lookup_agrees_with_the_bytes_index(name, picks):
    group = cached_group(name)
    picked = [i % group.order for i in picks]
    rows = group.images[picked]
    assert group._indices_of_rows(rows).tolist() == group._find(rows) == picked


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(LOOKUP_GROUPS), st.integers(min_value=0))
def test_a_row_that_agrees_only_on_the_base_points_is_refused(name, pick):
    group = cached_group(name)
    base = list(lookup_tables(group))
    row = group.images[pick % group.order].copy()
    off_base = [x for x in range(group.degree) if x not in base]
    if len(off_base) > 1:  # a bijection outside the group
        row[off_base[:2]] = row[off_base[1::-1]]
    else:
        row[off_base[0]] = (row[off_base[0]] + 1) % group.degree
    with pytest.raises(ValueError, match="not closed"):
        group._indices_of_rows(row[None])
    with pytest.raises(ValueError, match="not closed"):
        group._indices_of_rows(np.zeros((1, group.degree), dtype=np.int32))
    # the dict of base images behind index_of, in and indices_of refuses it too
    assert group._find(row[None]) is None
    if len(off_base) > 1:
        outsider = Permutation(row.tolist())
        assert outsider not in group
        with pytest.raises(ValueError, match="not an element"):
            group.index_of(outsider)


@pytest.mark.parametrize("name", ["sym:7", "cyclic:1024"])
def test_row_lookup_tables_stay_within_the_stabilizer_chain_bound(name):
    group = cached_group(name)
    tables = lookup_tables(group)
    assert sum(map(len, tables.values())) <= (2 * group.order + len(tables)) * group.degree


# ---------------------------------------------------------------------------
# products read at the base, on both sides of the table limit: heisenberg:5
# (125 points) and sym:5 build their Cayley tables through the base path,
# sym:6, alt:7 and cyclic:1024 (1024 points, a base of one) gather above it


@pytest.mark.parametrize("name", ["heisenberg:5", "sym:5", "sym:6", "alt:7", "cyclic:1024"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_products_at_the_base_match_permutation_products(name, data):
    group = cached_group(name)
    elements = group.elements
    index = st.integers(0, group.order - 1)
    left = np.array(data.draw(st.lists(index, min_size=1, max_size=6)))
    right = np.array(data.draw(st.lists(index, min_size=len(left), max_size=len(left))))
    expected = [[group.index_of(elements[int(i)] * elements[int(j)]) for j in right] for i in left]

    assert group.products(left, right, outer=True).tolist() == expected
    # every row of the group's outer product, gathered in blocks
    assert group.products(range(group.order), right, outer=True)[left].tolist() == expected
    assert group.products(left, right).tolist() == np.diag(expected).tolist()
    lefts, rights = np.broadcast_arrays(left[:, None], right[None, :])
    assert group.products(lefts, rights).tolist() == expected
    assert [[group.mult(i, j) for j in right] for i in left] == expected
    if group.order <= 512:
        assert group._table()[np.ix_(left, right)].tolist() == expected
    else:
        assert group._table() is None


# a block holds up to max(image array, 2^16) products: sym:5's whole table
# and 40 columns of sym:6 fit in one, all of cyclic:1024's fill the image
# array exactly, and 100 columns of sym:7 and 400 of sym:6 need several
@pytest.mark.parametrize(
    "name, columns",
    [("sym:5", 120), ("sym:6", 40), ("cyclic:1024", 1024), ("sym:7", 100), ("sym:6", 400)],
)
def test_outer_products_gather_blocks_no_larger_than_the_image_array(name, columns):
    group = group_from_generators(list(cached_group(name).generators))
    base, lookup = group._lookup()
    bound = max(group.images.size, 2**16)
    sizes = []

    def counted(columns):
        columns = list(columns)
        sizes.extend(column.size for column in columns)
        return lookup(columns)

    group._cache["lookup"] = base, counted
    outer = group.products(range(group.order), range(columns), outer=True)
    expected = cached_group(name).products(range(group.order), range(columns), outer=True)
    assert np.array_equal(outer, expected)
    assert sum(sizes) == group.order * columns * len(base)  # each product gathered once
    assert max(sizes) <= bound
    # every block but the last is as wide as the bound allows
    blocks = len(sizes) // len(base)
    assert blocks == (1 if group.order * columns <= bound else math.ceil(columns / (bound // group.order)))
    assert min(sizes[: -len(base)], default=bound) > bound - group.order


def test_a_table_closed_under_its_generator_but_not_under_products_is_refused():
    c = Permutation.from_cycles([[0, 1, 2]], 4)
    t = Permutation.from_cycles([[0, 3]], 4)
    cyclic = [Permutation.identity(4), c, c * c]
    rows = cyclic + [t * x for x in cyclic]  # <c> and the coset t<c>
    assert {(x * c).images for x in rows} == {x.images for x in rows}
    assert (t * t * c).images not in {x.images for x in rows[3:]}
    with pytest.raises(ValueError, match="not the group its generators generate"):
        FiniteGroup([x.images for x in rows], [c.images])
    assert FiniteGroup([x.images for x in cyclic], [c.images]).order == 3


def brute_force_transversal(group, subgroup):
    """Representatives and slots from Permutation products: each element
    not yet placed, in index order, opens its right coset Hx."""
    members = [group.elements[i] for i in sorted(group.indices_of(subgroup))]
    slot_of, reps = [-1] * group.order, []
    for x in range(group.order):
        if slot_of[x] < 0:
            for h in members:
                slot_of[group.index_of(h * group.elements[x])] = len(reps)
            reps.append(x)
    return reps, slot_of


@pytest.mark.parametrize("name", ["sym:6", "alt:7", "cyclic:1024", "sym:7"])
def test_a_regular_transversal_above_the_table_limit_computes_no_products(name, monkeypatch):
    group = cached_group(name)
    assert group.order > 512
    calls = []
    monkeypatch.setattr(FiniteGroup, "mult", lambda self, i, j: calls.append((i, j)))
    t = Transversal(group, group.trivial_subgroup())
    assert not calls
    assert t.rep_indices.tolist() == t.slot_of.tolist() == list(range(group.order))


def assert_slots_are_the_least_coset_members(group, subgroup):
    """Brute force with ``products(members, x)``: the reps are the least
    member of each right coset Hx, ascending, and each slot is its coset's."""
    members = np.array(sorted(group.indices_of(subgroup)))
    least = np.full(group.order, -1)
    for x in range(group.order):
        if least[x] < 0:
            least[group.products(members, x)] = x
    reps = np.unique(least)
    t = Transversal(group, subgroup)
    assert t.rep_indices.tolist() == reps.tolist()
    assert t.slot_of.tolist() == np.searchsorted(reps, least).tolist()


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["sym:7", "alt:7", "cyclic:1024"]), data=st.data())
def test_transversal_slots_above_the_table_limit_match_coset_minima(name, data):
    group = cached_group(name)
    gens = data.draw(st.lists(st.integers(0, group.order - 1), min_size=1, max_size=3))
    assert_slots_are_the_least_coset_members(group, group.subgroup_generated_by(gens))


@pytest.mark.parametrize("name", ["sym:6", "sym:7", "alt:7"])
def test_transversal_slots_of_the_natural_stabilizer_match_coset_minima(name):
    group = cached_group(name)
    assert_slots_are_the_least_coset_members(group, group.point_stabilizer(0))


@pytest.mark.parametrize(
    "name", ["sym:5", "alt:5", "dihedral:16", "heisenberg:5", "sym:6", "sym:7", "alt:7", "cyclic:1024"]
)
def test_point_stabilizer_generators_close_to_its_members(name):
    group = cached_group(name)
    for point in (0, group.degree - 1):
        stabilizer = group.point_stabilizer(point)
        members = {row.tobytes() for row in group.images[group.images[:, point] == point]}
        assert {row.tobytes() for row in stabilizer.images} == members
        closed = group_from_generators(list(stabilizer.generators))
        assert {row.tobytes() for row in closed.images} == members
        assert len(stabilizer.generator_images) <= group.degree * len(group.generator_images)


@pytest.mark.parametrize("name", ["sym:6", "sym:7", "alt:7", "cyclic:1024"])
def test_inverse_indices_match_each_rows_argsort(name):
    group = group_from_generators(list(cached_group(name).generators))
    inverses = np.argsort(group.images, axis=1).astype(np.int32)
    assert list(group.inverse_indices()) == group._find(inverses)


@pytest.mark.parametrize(
    "name, action",
    [("sym:7", "regular"), ("sym:7", "natural"), ("sym:7", "involution"),
     ("sym:5", "natural"), ("sym:5", "involution"), ("alt:7", "natural")],
)
def test_transversals_match_the_brute_force_coset_partition(name, action):
    group = cached_group(name)
    subgroup = {
        "regular": group.trivial_subgroup,
        "natural": lambda: group.point_stabilizer(0),
        "involution": lambda: group.subgroup_generated(
            [Permutation.from_cycles([[0, 1], [2, 3]], group.degree)]
        ),
    }[action]()
    t = Transversal(group, subgroup)
    reps, slot_of = brute_force_transversal(group, subgroup)
    assert t.rep_indices.tolist() == reps
    assert t.slot_of.tolist() == slot_of


def test_reading_an_element_builds_one_permutation(built_permutations):
    group = catalog_group("cyclic:2xsym:4")
    built_permutations.clear()
    assert group.elements[7] != group.generators[0]
    assert len(built_permutations) == 2


def test_elements_are_rows_read_as_permutations():
    group = catalog_group("sym:4")
    rows = [Permutation(row) for row in group.images.tolist()]
    assert len(group.elements) == group.order
    for i in (0, 5, group.order - 1, -1, -group.order):
        assert group.elements[i] == rows[i]
    for part in (slice(None), slice(3, 9), slice(None, None, -2), slice(-4, None)):
        assert group.elements[part] == tuple(rows[part])
    with pytest.raises(IndexError):
        group.elements[group.order]
    assert list(group.generators) == [Permutation(row) for row in group.generator_images.tolist()]
