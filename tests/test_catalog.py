import math
import os

import numpy as np
import pytest

from schreierlab import (
    catalog_group,
    group_from_generators,
    lower_central_series,
    resolve_action,
    resolve_group,
)
from schreierlab.catalog import abelian_names_up_to, catalog_generators


@pytest.mark.parametrize(
    "name, order, degree",
    [
        ("cyclic:6", 6, 6),
        ("cyclic:1", 1, 1),
        ("dihedral:8", 8, 4),
        ("dihedral:16", 16, 8),
        ("dihedral:4", 4, 4),
        ("elem-abelian:2^3", 8, 6),
        ("elem-abelian:3^2", 9, 6),
        ("sym:4", 24, 4),
        ("alt:4", 12, 4),
        ("alt:5", 60, 5),
        ("heisenberg:3", 27, 27),
        ("cyclic:2xcyclic:4", 8, 6),
        ("cyclic:2xsym:3", 12, 5),
    ],
)
def test_catalog_orders(name, order, degree):
    group = catalog_group(name)
    assert group.order == order
    assert group.degree == degree


def test_sym_alt_orders():
    for n in (3, 4, 5, 6):
        assert catalog_group(f"sym:{n}").order == math.factorial(n)
        assert catalog_group(f"alt:{n}").order == math.factorial(n) // 2


def test_heisenberg_class_two():
    for p in (3, 5):
        group = catalog_group(f"heisenberg:{p}")
        assert group.order == p**3
        assert lower_central_series(group)[1] == 2


def test_dihedral_classes():
    assert lower_central_series(catalog_group("dihedral:8"))[1] == 2
    assert lower_central_series(catalog_group("dihedral:16"))[1] == 3


def test_unknown_names_rejected():
    for bad in ("nope:3", "cyclic", "elem-abelian:6^2", "dihedral:7", "alt:2"):
        with pytest.raises(ValueError):
            catalog_generators(bad)


def test_abelian_enumeration_counts():
    names = abelian_names_up_to(16)
    # one catalog name per abelian isomorphism type of order 2..16
    orders = {}
    for name in names:
        group = catalog_group(name)
        orders[group.order] = orders.get(group.order, 0) + 1
    assert orders[4] == 2
    assert orders[8] == 3
    assert orders[16] == 5
    assert orders[12] == 2
    assert orders[15] == 1
    assert len(names) == len(set(names))
    # distinct types of one order really are non-isomorphic: the counts of
    # solutions of x^2 = e and x^4 = e separate the five order-16 types
    profiles = set()
    for name in names:
        group = catalog_group(name)
        if group.order == 16:
            squares = sum(1 for p in group.elements if (p * p).is_identity())
            fourths = sum(
                1 for p in group.elements if (p * p * p * p).is_identity()
            )
            profiles.add((squares, fourths))
    assert len(profiles) == 5


def test_natural_action_stabilizer():
    group = catalog_group("sym:4")
    y = resolve_action(group, "natural")
    assert y.order == 6
    assert all(p.images[0] == 0 for p in y.elements)


def test_regular_action_is_trivial_subgroup():
    group = catalog_group("dihedral:8")
    assert resolve_action(group, "regular").order == 1


def test_natural_action_needs_transitivity():
    group = catalog_group("cyclic:2xcyclic:4")
    with pytest.raises(ValueError):
        resolve_action(group, "natural")


def test_cosets_of_file_action(tmp_path):
    path = tmp_path / "sub.txt"
    path.write_text("(1 2 3 4)\n", encoding="utf-8")
    group = catalog_group("dihedral:8")
    y = resolve_action(group, f"cosets-of:{path}")
    assert y.order == 4


def test_group_from_file(tmp_path):
    path = tmp_path / "group.txt"
    path.write_text("# a symmetric group\n(1 2)\n(1 2 3)\n", encoding="utf-8")
    group = resolve_group(str(path))
    assert group.order == 6


def test_a_cached_group_is_its_image_array(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHREIERLAB_CACHE_DIR", str(tmp_path))
    built = catalog_group("cyclic:1024")
    loaded = catalog_group("cyclic:1024")
    assert np.array_equal(loaded.images, built.images)
    assert set(vars(loaded)) == {"images", "generator_images", "order", "degree", "_cache"}
    assert set(loaded._cache) == {"lookup"}


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHREIERLAB_CACHE_DIR", str(tmp_path))
    first = catalog_group("dihedral:12")
    (path,) = tmp_path.iterdir()
    assert path.name == "dihedral_12.npy"
    assert np.array_equal(np.load(path), [p.images for p in first.elements])
    second = catalog_group("dihedral:12")
    assert first.indices_of(second) == frozenset(range(first.order))
    assert [p.images for p in first.elements] == [p.images for p in second.elements]


def test_disk_cache_ignores_a_json_file(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHREIERLAB_CACHE_DIR", str(tmp_path))
    (tmp_path / "sym_5.json").write_text('{"elements": [[0]]}', encoding="utf-8")
    assert catalog_group("sym:5").order == 120
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sym_5.json", "sym_5.npy"]


def test_disk_cache_respects_the_cap(tmp_path, monkeypatch):
    from schreierlab import GroupTooLargeError

    monkeypatch.setenv("SCHREIERLAB_CACHE_DIR", str(tmp_path))
    assert catalog_group("sym:5").order == 120
    with pytest.raises(GroupTooLargeError, match="cached group 'sym:5' has 120 elements.*cap of 10"):
        catalog_group("sym:5", cap=10)
    assert catalog_group("sym:5", cap=120).order == 120


def test_disk_cache_write_is_atomic(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHREIERLAB_CACHE_DIR", str(tmp_path))

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        catalog_group("dihedral:12")
    # a failed write leaves neither a cache file nor its temporary behind
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    monkeypatch.setenv("SCHREIERLAB_CACHE_DIR", str(tmp_path))
    catalog_group("dihedral:12")
    assert [p.name for p in tmp_path.iterdir()] == ["dihedral_12.npy"]


def _truncate_to_60(path, images):
    np.save(path, images[:60])


def _swap_two_rows(path, images):
    np.save(path, images[[0, 1, 2, 4, 3, *range(5, len(images))]])


def _add_a_coset(path, images):
    # cyclic:1xcyclic:3 has the identity as its first generator, so the
    # coset t<c> of a transposition t meets each of its members in the
    # member's own row: it is refused because discovery must come earlier
    np.save(path, np.concatenate([images, images[:, [1, 0, 2, 3]]]))


def _other_generating_set(path, images):
    # the same elements, discovered in the breadth-first order of the
    # catalog's generators taken in reverse
    reordered = group_from_generators(catalog_generators("sym:5")[::-1])
    assert sorted(p.images for p in reordered.elements) == sorted(map(tuple, images.tolist()))
    np.save(path, np.array([p.images for p in reordered.elements]))


def _text(path, images):
    path.write_text("[[0, 1, 2, 3, 4]]", encoding="utf-8")


def _empty(path, images):
    path.write_bytes(b"")


def _truncated_bytes(path, images):
    path.write_bytes(path.read_bytes()[:-7])


def _npz_archive(path, images):
    with path.open("wb") as fh:
        np.savez(fh, images=images)


def _truncated_npz(path, images):
    # np.load would open it as a zip archive and raise BadZipFile
    _npz_archive(path, images)
    path.write_bytes(path.read_bytes()[:30])


def _zero_dimensional(path, images):
    np.save(path, np.array(7))


def _float_array(path, images):
    np.save(path, images.astype(float))


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("sym:5", _truncate_to_60),
        ("sym:5", _swap_two_rows),
        ("cyclic:1xcyclic:3", _add_a_coset),
        ("sym:5", _other_generating_set),
        ("sym:5", _text),
        ("sym:5", _empty),
        ("sym:5", _truncated_bytes),
        ("sym:5", _npz_archive),
        ("sym:5", _truncated_npz),
        ("sym:5", _zero_dimensional),
        ("sym:5", _float_array),
    ],
    ids=[
        "truncated", "reordered", "extra-coset", "other-generators", "text",
        "empty", "truncated-bytes", "npz", "truncated-npz", "zero-dimensional", "float",
    ],
)
def test_disk_cache_rebuilds_a_file_that_does_not_match(tmp_path, monkeypatch, name, corrupt):
    monkeypatch.setenv("SCHREIERLAB_CACHE_DIR", str(tmp_path))
    expected = [p.images for p in catalog_group(name).elements]
    (path,) = tmp_path.iterdir()
    corrupt(path, np.load(path))
    loaded = catalog_group(name)
    assert [p.images for p in loaded.elements] == expected
    assert [p.images for p in loaded.generators] == [
        p.images for p in catalog_generators(name)
    ]
    # the file is rewritten, so the next load reads the right group
    rewritten = np.load(path)
    assert rewritten.dtype == np.int32 and rewritten.tolist() == [list(e) for e in expected]


def test_disk_cache_loads_a_good_file_without_enumerating(tmp_path, monkeypatch):
    from schreierlab import catalog

    monkeypatch.setenv("SCHREIERLAB_CACHE_DIR", str(tmp_path))
    expected = [p.images for p in catalog_group("sym:5").elements]

    def enumerate_again(*args, **kwargs):
        raise AssertionError("a valid cache file was enumerated again")

    monkeypatch.setattr(catalog, "group_from_generators", enumerate_again)
    assert [p.images for p in catalog_group("sym:5").elements] == expected


def test_natural_action_of_alternating_groups():
    for n, stab_order in ((4, 3), (5, 12)):
        group = catalog_group(f"alt:{n}")
        y = resolve_action(group, "natural")
        assert y.order == stab_order
