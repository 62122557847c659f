import pytest

from schreierlab import Permutation
from schreierlab.notation import (
    multiset_to_text,
    parse_group_text,
    parse_multiset_text,
    permutation_to_text,
)


def test_parse_simple_cycle():
    (p,) = parse_group_text("(1 2 3)")
    assert p.images == (1, 2, 0)


def test_parse_disjoint_cycles():
    (p,) = parse_group_text("(1 2 3)(4 5)")
    assert p.images == (1, 2, 0, 4, 3)


def test_parse_identity():
    assert parse_group_text("()", degree=4) == [Permutation.identity(4)]


def test_parse_with_commas_and_degree():
    (p,) = parse_group_text("(1,2)", degree=5)
    assert p.images == (1, 0, 2, 3, 4)


def test_parse_rejects_garbage():
    for bad in ("", "1 2 3", "(1 2))", "(0 1)", "(1 1 2)"):
        with pytest.raises(ValueError):
            parse_group_text(bad)


def test_round_trip_text():
    for images in [(1, 2, 0, 4, 3), (0, 1, 2), (1, 0, 3, 2)]:
        p = Permutation(images)
        assert parse_group_text(permutation_to_text(p), degree=p.degree) == [p]


def test_group_file_with_comments_and_header():
    text = """
    # generators of a dihedral group
    degree 4
    (1 2 3 4)
    (2 4)   # the reflection fixing 1 and 3
    """
    gens = parse_group_text(text)
    assert len(gens) == 2
    assert all(g.degree == 4 for g in gens)


def test_group_file_degree_inference():
    gens = parse_group_text("(1 2 3)(4 5)\n(1 2)\n")
    assert all(g.degree == 5 for g in gens)


def test_group_file_degree_too_small():
    with pytest.raises(ValueError):
        parse_group_text("degree 2\n(1 2 3)\n")


def test_multiset_file_multiplicities():
    entries = parse_multiset_text("(1 2) * 3\n(1 2 3)\n")
    assert len(entries) == 2
    assert entries[0][1] == 3
    assert entries[1][1] == 1


def test_multiset_rejects_nonpositive_multiplicity():
    with pytest.raises(ValueError):
        parse_multiset_text("(1 2) * 0\n")


def test_multiset_text_round_trip():
    entries = parse_multiset_text("(1 2 3) * 2\n(1 3 2) * 2\n()\n", degree=3)
    text = multiset_to_text(entries)
    again = parse_multiset_text(text, degree=3)
    assert [(p.images, m) for p, m in again] == [(p.images, m) for p, m in entries]


def test_group_text_degree_floor():
    gens = parse_group_text("(1 2)\n", degree=5)
    assert gens[0].degree == 5
    assert gens[0].images == (1, 0, 2, 3, 4)
