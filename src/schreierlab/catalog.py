"""Named group families and action resolution for the CLI and the sweeps.

Catalog names: ``cyclic:n``, ``dihedral:n`` (n = group order, even, >= 4),
``elem-abelian:p^k``, ``sym:n``, ``alt:n``, ``heisenberg:p``, and direct
products joined with an ``x`` (or a multiplication sign).  Enumerated
groups can be cached under SCHREIERLAB_CACHE_DIR as ``<name>.npy``, the array
of element images, checked on load under the catalog's own generators and
rebuilt when it does not match.
"""

from __future__ import annotations

import itertools
import os
import re
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import GroupTooLargeError
from .notation import parse_group_text, permutation_to_text
from .permutations import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Permutation,
    _least_prime_factor,
    _partitions,
    group_from_generators,
)

CACHE_ENV_VAR = "SCHREIERLAB_CACHE_DIR"

_PRODUCT_SPLIT = re.compile(r"[x×]")
_ELEM_RE = re.compile(r"^(\d+)\^(\d+)$")


def _cyclic_generators(n: int) -> list[Permutation]:
    if n < 1:
        raise ValueError("cyclic order must be positive")
    if n == 1:
        return [Permutation.identity(1)]
    return [Permutation(tuple((i + 1) % n for i in range(n)))]


def _dihedral_generators(order: int) -> list[Permutation]:
    if order < 4 or order % 2 != 0:
        raise ValueError("dihedral order must be an even number >= 4")
    k = order // 2
    if k == 2:
        # the order-4 case degenerates to C2 x C2; act on 4 points
        return [
            Permutation.from_cycles([[0, 1]], 4),
            Permutation.from_cycles([[2, 3]], 4),
        ]
    rotation = Permutation(tuple((i + 1) % k for i in range(k)))
    reflection = Permutation(tuple((k - i) % k for i in range(k)))
    return [rotation, reflection]


def _elem_abelian_generators(p: int, k: int) -> list[Permutation]:
    if p < 2 or _least_prime_factor(p) != p:
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("exponent must be at least 1")
    degree = p * k
    gens = []
    for block in range(k):
        lo = block * p
        cycle = list(range(lo, lo + p))
        gens.append(Permutation.from_cycles([cycle], degree))
    return gens


def _sym_generators(n: int) -> list[Permutation]:
    if n < 2:
        raise ValueError("sym needs n >= 2")
    gens = [Permutation.from_cycles([[0, 1]], n)]
    if n > 2:
        gens.append(Permutation(tuple((i + 1) % n for i in range(n))))
    return gens


def _alt_generators(n: int) -> list[Permutation]:
    if n < 3:
        raise ValueError("alt needs n >= 3")
    three_cycle = Permutation.from_cycles([[0, 1, 2]], n)
    if n == 3:
        return [three_cycle]
    if n % 2 == 1:
        long_cycle = Permutation(tuple((i + 1) % n for i in range(n)))
    else:
        long_cycle = Permutation.from_cycles([list(range(1, n))], n)
    return [three_cycle, long_cycle]


def _heisenberg_generators(p: int) -> list[Permutation]:
    """Upper unitriangular 3x3 group over F_p in its right regular action.

    Elements are triples (a, b, c) with (a,b,c)(a',b',c') =
    (a+a', b+b', c+c'+a b'); the two generators below have commutator
    (0, 0, 1), which is central, so the group has class 2 and order p^3.
    """
    if p < 2 or _least_prime_factor(p) != p:
        raise ValueError(f"{p} is not prime")
    degree = p**3

    def encode(a: int, b: int, c: int) -> int:
        return (a % p) * p * p + (b % p) * p + (c % p)

    def right_mult(da: int, db: int, dc: int) -> Permutation:
        images = [0] * degree
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    images[encode(a, b, c)] = encode(a + da, b + db, c + dc + a * db)
        return Permutation(images)

    return [right_mult(1, 0, 0), right_mult(0, 1, 0)]


def _product_generators(factors: list[list[Permutation]]) -> list[Permutation]:
    degrees = [gens[0].degree for gens in factors]
    total = sum(degrees)
    out = []
    offset = 0
    for gens, deg in zip(factors, degrees):
        for g in gens:
            images = list(range(total))
            for i, j in enumerate(g.images):
                images[offset + i] = offset + j
            out.append(Permutation(images))
        offset += deg
    return out


def _atom_generators(name: str) -> list[Permutation]:
    if ":" not in name:
        raise ValueError(f"unknown catalog name {name!r} (missing ':')")
    family, _, arg = name.partition(":")
    family = family.strip().lower()
    arg = arg.strip()
    if family == "cyclic":
        return _cyclic_generators(int(arg))
    if family == "dihedral":
        return _dihedral_generators(int(arg))
    if family == "elem-abelian":
        m = _ELEM_RE.match(arg)
        if not m:
            raise ValueError(f"elem-abelian wants p^k, got {arg!r}")
        return _elem_abelian_generators(int(m.group(1)), int(m.group(2)))
    if family == "sym":
        return _sym_generators(int(arg))
    if family == "alt":
        return _alt_generators(int(arg))
    if family == "heisenberg":
        return _heisenberg_generators(int(arg))
    raise ValueError(f"unknown catalog family {family!r}")


def catalog_generators(name: str) -> list[Permutation]:
    parts = [p for p in _PRODUCT_SPLIT.split(name) if p.strip()]
    if not parts:
        raise ValueError(f"empty catalog name {name!r}")
    factor_gens = [_atom_generators(part.strip()) for part in parts]
    if len(factor_gens) == 1:
        return factor_gens[0]
    return _product_generators(factor_gens)


def abelian_names_up_to(max_order: int) -> list[str]:
    """Catalog names covering every abelian isomorphism type of order 2..max.

    One name per type, via the primary decomposition: distinct multisets of
    prime-power cyclic factors give non-isomorphic groups, and every abelian
    group arises that way.
    """
    names = []
    for n in range(2, max_order + 1):
        m, fac = n, {}
        while m > 1:
            p = _least_prime_factor(m)
            fac[p] = fac.get(p, 0) + 1
            m //= p
        per_prime = [
            [tuple(q**e for e in part) for part in _partitions(a)]
            for q, a in fac.items()
        ]
        for combo in itertools.product(*per_prime):
            factors = sorted(itertools.chain.from_iterable(combo))
            names.append("x".join(f"cyclic:{q}" for q in factors))
    return names


def _cache_path(name: str) -> Optional[Path]:
    root = os.environ.get(CACHE_ENV_VAR)
    if not root:
        return None
    safe = re.sub(r"[^A-Za-z0-9._^-]", "_", name)
    return Path(root) / f"{safe}.npy"


def _load_cached(
    path: Path, name: str, generators: list[Permutation], cap: int
) -> Optional[FiniteGroup]:
    """The group in a cache file, or None unless the file holds exactly
    the image array ``group_from_generators(generators)`` enumerates.  An
    array of more than ``cap`` rows raises GroupTooLargeError first."""
    try:
        with path.open("rb") as fh:
            images = np.lib.format.read_array(fh, allow_pickle=False)
        if images.ndim == 2 and len(images) > cap:
            raise GroupTooLargeError(
                f"cached group {name!r} has {len(images)} elements, "
                f"above the configured cap of {cap}"
            )
        return FiniteGroup(images, [g.images for g in generators])
    except ValueError:  # not a whole .npy file of numbers, or not that group
        return None


def catalog_group(name: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build (or load from cache) the named catalog group.

    A cache file that does not hold exactly what the enumeration builds is
    rebuilt; one larger than ``cap`` raises GroupTooLargeError, as the
    enumeration would.  The cache file is written to a temporary name and
    moved into place, so a reader never sees a partial file.
    """
    generators = catalog_generators(name)
    path = _cache_path(name)
    if path is not None and path.exists():
        cached = _load_cached(path, name, generators, cap)
        if cached is not None:
            return cached
    group = group_from_generators(generators, cap=cap)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, group.images)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return group


def _named_generators(spec: str) -> list[Permutation]:
    """The catalog generators of a spec that names no file."""
    try:
        return catalog_generators(spec)
    except ValueError as exc:
        raise ValueError(f"{spec!r} is neither a file nor a catalog name: {exc}") from None


def resolve_group(spec: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """A catalog name, or a path to a group-spec file of generators."""
    candidate = Path(spec)
    if candidate.is_file():
        generators = parse_group_text(candidate.read_text(encoding="utf-8"))
        return group_from_generators(generators, cap=cap)
    _named_generators(spec)  # refuses a spec that is no catalog name either
    return catalog_group(spec, cap=cap)


def resolve_subgroup(group: FiniteGroup, spec: str) -> FiniteGroup:
    """The subgroup of ``group`` generated by a group-spec file or by a
    catalog name's generators, closed inside ``group``.

    A file is read at the group's degree, so it may mention only the points
    it moves; the generators must then have exactly the group's degree.
    """
    candidate = Path(spec)
    if candidate.is_file():
        generators = parse_group_text(
            candidate.read_text(encoding="utf-8"), degree=group.degree
        )
    else:
        generators = _named_generators(spec)
    if generators[0].degree != group.degree:
        raise ValueError(
            f"subgroup {spec!r} has degree {generators[0].degree}, "
            f"not the group's degree {group.degree}"
        )
    for g in generators:
        if g not in group:
            raise ValueError(f"subgroup generator {permutation_to_text(g)} lies outside the group")
    return group.subgroup_generated(generators)


def resolve_action(group: FiniteGroup, action_spec: str) -> FiniteGroup:
    """Turn an action spec into the corresponding point stabilizer.

    ``regular`` gives the trivial subgroup, ``natural`` the stabilizer of
    the first point of a transitive natural action, and ``cosets-of:SPEC``
    the subgroup ``resolve_subgroup`` makes of SPEC.
    """
    spec = action_spec.strip()
    if spec == "regular":
        return group.trivial_subgroup()
    if spec == "natural":
        if not group.is_transitive():
            raise ValueError(
                "the natural action is not transitive; use regular or cosets-of"
            )
        return group.point_stabilizer(0)
    if spec.startswith("cosets-of:"):
        return resolve_subgroup(group, spec.split(":", 1)[1])
    raise ValueError(f"unknown action spec {action_spec!r}")
