"""Permutations and finite permutation groups with full element tables.

A group is its image array: one int32 row of point images per element, in
a deterministic canonical order (breadth-first discovery from the identity,
following the given generator order); ``Permutation`` objects are built only
where input is parsed or output printed.  At desk scale full tables are the
right trade-off: every downstream computation (transversals, subgroup
lattices, commutator series, coset actions) needs fast membership tests and
iteration rather than compact stabilizer-chain machinery.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from typing import Optional

import numpy as np

from .errors import GroupTooLargeError, NotASubgroupError, SubgroupLimitError

DEFAULT_ORDER_CAP = 100_000
DEFAULT_SUBGROUP_LIMIT = 20_000

# Multiplication tables are materialised for groups up to this order; beyond
# it, a product is one gather of two image rows, looked up by its bytes.
_TABLE_LIMIT = 512


def _least_prime_factor(n: int) -> int:
    """Least prime factor of an integer n >= 2."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _distinguishing_points(images: np.ndarray) -> list[int]:
    """Points, chosen greedily from point 0 on, whose images tell the rows
    of ``images`` apart."""
    n, d = images.shape
    base, labels, count = [], np.zeros(n, dtype=np.int64), 0
    for x in range(d):
        values, refined = np.unique(labels * d + images[:, x], return_inverse=True)
        if len(values) > count:
            base.append(x)
            labels, count = refined, len(values)
            if count == n:
                break
    return base


def _row_lookup(images: np.ndarray):
    """Index of each row of an ``m x degree`` array among the rows of
    ``images``, or None when some row is not there.

    Rows are keyed by their images at a few points that tell the rows of
    ``images`` apart, found by binary search, and the matches are then
    checked on all points.
    """
    base = np.array(_distinguishing_points(images), dtype=np.intp)
    key = np.dtype((np.void, images.itemsize * len(base)))
    keys = np.ascontiguousarray(images[:, base]).view(key).ravel()
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    last = len(images) - 1

    def lookup(rows: np.ndarray) -> Optional[np.ndarray]:
        wanted = np.take(rows, base, axis=1).astype(images.dtype, copy=False).view(key).ravel()
        found = by_key[np.minimum(np.searchsorted(sorted_keys, wanted), last)]
        return found if (images[found] == rows).all() else None

    return lookup


class _ProductRow:
    """Row ``x`` of the multiplication table of a group too large to tabulate."""

    __slots__ = ("group", "x")

    def __init__(self, group: "FiniteGroup", x: int):
        self.group = group
        self.x = x

    def __getitem__(self, j: int) -> int:
        return self.group.mult(self.x, j)


class Permutation:
    """A bijection of {0, ..., n-1}, stored as its tuple of images.

    Products compose left to right: ``(p * q)(x) == q(p(x))``, so that the
    natural action ``x -> x^p`` on points is a right action compatible with
    right cosets throughout the package.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(operator.index(i) for i in images)
        n = len(images)
        if n < 1:
            raise ValueError("a permutation needs degree at least 1")
        seen = [False] * n
        for i in images:
            if not 0 <= i < n or seen[i]:
                raise ValueError(f"images {images!r} are not a bijection of range({n})")
            seen[i] = True
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Permutation":
        # trusted fast path: caller guarantees images is a bijection tuple
        p = cls.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        """Build a permutation from disjoint cycles of 0-based points."""
        images = list(range(degree))
        touched = set()
        for cycle in cycles:
            cycle = tuple(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if a in touched:
                    raise ValueError(f"point {a} appears in more than one cycle")
                touched.add(a)
                images[a] = b
        return cls(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        oi = other.images
        return Permutation._raw(tuple(oi[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._raw(tuple(inv))

    def __call__(self, point: int) -> int:
        """Image of a point under this permutation."""
        if not 0 <= point < len(self.images):
            raise ValueError(f"point {point} out of range for degree {len(self.images)}")
        return self.images[point]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition, each cycle led by its least point."""
        out = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cur, cycle = start, []
            while not seen[cur]:
                seen[cur] = True
                cycle.append(cur)
                cur = self.images[cur]
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return f"Permutation.identity({self.degree})"
        text = "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)
        return f"Permutation[{text}]"


class _PermutationRows(Sequence):
    """An image array's rows as a read-only sequence of Permutations."""

    def __init__(self, rows: np.ndarray):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return Permutation._raw(tuple(self._rows[i].tolist()))


class FiniteGroup:
    """A finite permutation group given by its full element table.

    ``images`` is the read-only int32 ``order x degree`` array of element
    images, row 0 the identity and no row repeated; ``generator_images``
    holds the generators' rows.  Groups built by closure keep the
    breadth-first discovery order and subgroups their parent's relative
    order, so transversals and induced multisets are reproducible.
    """

    def __init__(self, images, generator_images):
        images = np.asarray(images)
        if images.ndim != 2 or not images.size or images.dtype.kind not in "iu":
            raise ValueError("a group needs a 2-D integer array of images, identity first")
        points = np.arange(images.shape[1])
        if not ((images[0] == points).all() and (np.sort(images) == points).all()):
            raise ValueError("row 0 must be the identity and each row a bijection of range(degree)")
        rows = np.array(images, dtype=np.int32, order="C")  # a copy no caller can write
        keys = np.sort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel())
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate elements in table")
        self._adopt(rows, np.array(generator_images, np.int32))

    def _adopt(self, images: np.ndarray, generator_images: np.ndarray) -> "FiniteGroup":
        """Hold rows that ``__init__`` would accept, in fresh int32 arrays:
        the unchecked path for rows sliced from a group or closed by BFS."""
        self.images, (self.order, self.degree) = images, images.shape
        self.generator_images = generator_images.reshape(-1, self.degree)
        self.images.flags.writeable = self.generator_images.flags.writeable = False
        self._cache: dict = {}
        return self

    # -- basic queries ----------------------------------------------------

    @property
    def elements(self) -> Sequence[Permutation]:
        """The elements as Permutations, each built when it is read."""
        return _PermutationRows(self.images)

    @property
    def generators(self) -> Sequence[Permutation]:
        return _PermutationRows(self.generator_images)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def _index(self) -> dict[bytes, int]:
        """Element index by the bytes of its image row; built on first use."""
        index = self._cache.get("index")
        if index is None:
            index = self._cache["index"] = {row.tobytes(): i for i, row in enumerate(self.images)}
        return index

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and np.array(p.images, np.int32).tobytes() in self._index()

    def index_of(self, p: Permutation) -> int:
        try:
            return self._index()[np.array(p.images, np.int32).tobytes()]
        except KeyError:
            raise ValueError(f"{p!r} is not an element of this group") from None

    def indices_of(self, subgroup: "FiniteGroup") -> frozenset[int]:
        """The indices of the subgroup's members in this group.

        Raises NotASubgroupError when some member is not an element here.
        """
        index = self._index()
        try:
            return frozenset(index[row.tobytes()] for row in subgroup.images)
        except KeyError:
            raise NotASubgroupError(
                f"group of order {subgroup.order} is not a subgroup of the parent"
            ) from None

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree})"

    # -- index arithmetic --------------------------------------------------

    def _table(self) -> Optional[np.ndarray]:
        """Cayley table up to ``_TABLE_LIMIT``, built by ``_gathered_outer``,
        held as int16 (enough for every index up to the limit); its
        ``.tolist()`` rows serve the loops that read single entries."""
        if self.order > _TABLE_LIMIT:
            return None
        table = self._cache.get("table")
        if table is None:
            table = self._gathered_outer(range(self.order), range(self.order)).astype(np.int16)
            self._cache["table"], self._cache["rows"] = table, table.tolist().__getitem__
        return table

    def products(self, left, right, outer: bool = False) -> np.ndarray:
        """Indices of ``elements[l] * elements[r]``, elementwise for arrays that
        broadcast together or, with ``outer``, l in 1-D ``left`` by r in 1-D
        ``right``: one read of the Cayley table, or image gathers above it."""
        table = self._table()
        if table is not None:
            return table[np.ix_(left, right)] if outer else table[left, right]
        if outer:
            return self._gathered_outer(np.asarray(left), right)
        return self._gathered(*np.broadcast_arrays(left, right))

    def _gathered_outer(self, left: np.ndarray, right) -> np.ndarray:
        """Outer ``products`` by gathers: left's images, then one row per r."""
        at = self.images[left]
        return np.stack([self._indices_of_rows(self.images[r][at]) for r in right], axis=1)

    def _gathered(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Elementwise ``products`` by gathers (``p * q`` is q's images at p's),
        a 2-D result one column at a time (at most ``rows x degree`` images);
        a product outside the group raises ValueError."""
        if left.ndim == 2:
            return np.stack([self._gathered(*column) for column in zip(left.T, right.T)], axis=1)
        rows = np.take(self.images, right[..., None] * self.degree + self.images[left])
        return self._indices_of_rows(rows.reshape(-1, self.degree)).reshape(left.shape)

    def _indices_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each row of an ``m x degree`` image array.

        Raises ValueError when a row is not an element, which for a row of
        products means the element table is not closed.  The ``_row_lookup``
        of the image array is built on first use.
        """
        if "lookup" not in self._cache:
            self._cache["lookup"] = _row_lookup(self.images)
        found = self._cache["lookup"](rows)
        if found is None:
            raise ValueError("the element table is not closed under products")
        return found

    def _rows(self):
        """``rows(i)[j]`` is ``mult(i, j)``: the table's rows, or ``_ProductRow``."""
        return functools.partial(_ProductRow, self) if self._table() is None else self._cache["rows"]

    def mult(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        if self._table() is None:
            return self._index()[self.images[j][self.images[i]].tobytes()]
        return self._cache["rows"](i)[j]

    def inverse_indices(self) -> tuple[int, ...]:
        """``inverse_indices()[i]`` is the index of elements[i]^-1: each
        row of the image array scattered into its inverse, looked up once."""
        inv = self._cache.get("inverse")
        if inv is None:
            images = self.images
            inverses = np.empty_like(images)
            np.put_along_axis(inverses, images, np.arange(images.shape[1], dtype=images.dtype), axis=1)
            inv = self._cache["inverse"] = tuple(self._indices_of_rows(inverses).tolist())
        return inv

    def inverse_classes(self) -> tuple[tuple[int, ...], ...]:
        """The classes {x, x^-1} as ascending index tuples, in ascending order."""
        classes = self._cache.get("inverse_classes")
        if classes is None:
            inv = self.inverse_indices()
            classes = tuple(sorted({tuple(sorted({i, inv[i]})) for i in range(self.order)}))
            self._cache["inverse_classes"] = classes
        return classes

    def commutator(self, i: int, j: int) -> int:
        """Index of [x, y] = x^-1 y^-1 x y for element indices i, j."""
        inv = self.inverse_indices()
        return self.mult(self.mult(inv[i], inv[j]), self.mult(i, j))

    # -- derived structure -------------------------------------------------

    def is_abelian(self) -> bool:
        flag = self._cache.get("abelian")
        if flag is None:
            flag = all(
                [q[x] for x in p] == [p[x] for x in q]
                for p, q in itertools.combinations(self.generator_images.tolist(), 2)
            )
            self._cache["abelian"] = flag
        return flag

    def is_transitive(self) -> bool:
        """Whether the group is transitive on its natural points: whether
        the images of point 0 are every point."""
        return len(set(self.images[:, 0].tolist())) == self.degree

    def self_inverse_indices(self) -> tuple[int, ...]:
        """Indices of elements equal to their own inverse (identity included)."""
        out = self._cache.get("self_inverse")
        if out is None:
            inv = self.inverse_indices()
            out = tuple(i for i in range(self.order) if inv[i] == i)
            self._cache["self_inverse"] = out
        return out

    # -- subgroup construction ----------------------------------------------

    def _closure(
        self,
        seed: Iterable[int],
        base: Optional[Iterable[int]] = None,
        base_gens: Sequence[int] = (),
    ) -> frozenset[int]:
        """Subgroup generated by the seed indices and a known subgroup.

        Dimino's algorithm: a seed element outside the subgroup found so far
        enlarges it by whole left cosets of that subgroup, so known members
        are never recomputed and seed elements already inside cost one
        lookup.  ``base`` holds the members of a subgroup contained in the
        result (the trivial group by default) and ``base_gens`` generate it;
        they may be left out when the seed normalises ``base``.
        """
        row = self._rows()
        members = set(base) if base is not None else {0}
        gen_rows = [row(t) for t in base_gens]
        for s in seed:
            if s in members:
                continue
            gen_rows.append(row(s))
            # Lagrange: the result's order divides the group's and is a multiple
            # of the old order, so a proper result has at most order / p
            # members, p the least prime factor of the old index
            ceiling = self.order // _least_prime_factor(self.order // len(members))
            # the left coset x * old is row x read at the old members; the
            # extra index 0 (x itself) keeps itemgetter returning a tuple
            coset = operator.itemgetter(0, *members)
            reps = [0]
            for r in reps:
                for t_row in gen_rows:
                    x = t_row[r]
                    if x not in members:
                        reps.append(x)
                        members.update(coset(row(x)))
                        if len(members) > ceiling:
                            return frozenset(range(self.order))
        return frozenset(members)

    def _commutator_closure(
        self, left: Sequence[int], right: Sequence[int]
    ) -> tuple[frozenset[int], list[int]]:
        """The subgroup generated by the commutators [a, b], a in ``left``
        and b in ``right``, and stable under conjugation by ``right``; with
        the generators it adjoined.

        Each element that enlarges the subgroup becomes a generator, and
        its conjugates are queued; a subgroup whose generators' conjugates
        all lie inside is stable.
        """
        inv = self.inverse_indices()
        row = self._rows()
        conjugators = [(row(inv[g]), g) for g in right]
        members = frozenset((0,))
        gens: list[int] = []
        queue = [self.commutator(a, b) for a in left for b in right]
        while queue:
            x = queue.pop()
            if x in members:
                continue
            members = self._closure((x,), base=members, base_gens=gens)
            gens.append(x)
            queue.extend(row(inverse_row[x])[g] for inverse_row, g in conjugators)
        return members, gens

    def _greedy_generators(self, members: Iterable[int]) -> tuple[int, ...]:
        """Generators of the subgroup on ``members``: each least member that
        the ones before it do not generate."""
        gens: list[int] = []
        generated = frozenset((0,))
        for i in sorted(members):
            if i not in generated:
                generated = self._closure((i,), base=generated, base_gens=gens)
                gens.append(i)
        return tuple(gens)

    def _cyclic_reps(self) -> tuple[int, ...]:
        """One generator per nontrivial cyclic subgroup, ascending: the least
        index among the generators of that subgroup."""
        reps = self._cache.get("cyclic_reps")
        if reps is None:
            row = self._rows()
            covered = [False] * self.order
            found = []
            for g in range(1, self.order):
                if covered[g]:
                    continue
                found.append(g)
                powers = [g]  # powers[k - 1] is g^k; the last one is the identity
                while powers[-1] != 0:
                    powers.append(row(powers[-1])[g])
                m = len(powers)
                for k in range(1, m):
                    if math.gcd(k, m) == 1:
                        covered[powers[k - 1]] = True
            reps = tuple(found)
            self._cache["cyclic_reps"] = reps
        return reps

    def subgroup_from_indices(
        self, indices: Iterable[int], generator_indices: Optional[Sequence[int]] = None
    ) -> "FiniteGroup":
        """Subgroup on the given element indices; order inherited from self."""
        idx = sorted(set(indices))
        if not idx or idx[0] != 0:
            raise ValueError("a subgroup must contain the identity (index 0)")
        images, group = self.images[idx], FiniteGroup.__new__(FiniteGroup)
        if generator_indices:
            return group._adopt(images, self.images[list(generator_indices)])
        return group._adopt(images, images[1:] if len(idx) > 1 else images)

    def subgroup_generated(self, perms: Iterable[Permutation]) -> "FiniteGroup":
        """Subgroup of self generated by the given elements."""
        gen_idx = [self.index_of(p) for p in perms]
        return self.subgroup_from_indices(self._closure(gen_idx), gen_idx or None)

    def trivial_subgroup(self) -> "FiniteGroup":
        return self.subgroup_from_indices([0])

    def point_stabilizer(self, point: int) -> "FiniteGroup":
        return self.subgroup_from_indices(np.flatnonzero(self.images[:, point] == point).tolist())


def group_from_generators(
    generators: Sequence[Permutation], cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Breadth-first closure of the generators, identity first.

    Closed level by level on the image array: a frontier's products with
    every generator are one gather, scanned in the order a breadth-first
    queue meets them, and new rows are kept by their bytes.  Raises
    GroupTooLargeError once more than ``cap`` elements are found; the
    enumeration never truncates silently.
    """
    if not generators:
        raise ValueError("need at least one generator")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators must share one degree")
    gens = np.array([g.images for g in generators], dtype=np.int32)
    levels = [np.arange(degree, dtype=np.int32)[None]]
    index, width = {levels[0].tobytes(): 0}, 4 * degree
    while len(levels[-1]):
        # row i * len(gens) + j is frontier[i] * generators[j]
        products = gens[:, levels[-1]].transpose(1, 0, 2).reshape(-1, degree)
        blob, new = products.tobytes(), []
        for k in range(len(products)):
            row = blob[k * width : (k + 1) * width]
            if row not in index:
                if len(index) >= cap:
                    raise GroupTooLargeError(f"group exceeds the configured cap of {cap} elements")
                index[row] = len(index)
                new.append(k)
        levels.append(products[new])
    return FiniteGroup.__new__(FiniteGroup)._adopt(np.concatenate(levels), gens)


def group_from_images(
    generators: Sequence[Permutation], images: np.ndarray
) -> Optional[FiniteGroup]:
    """The group ``group_from_generators(generators)`` builds, read from the
    ``order x degree`` integer array of its element images; None when the
    array holds anything else.

    The array is checked, not recomputed: it must make a ``FiniteGroup``;
    every element times every generator must be an element; and, scanning
    those products row by row, the elements other than the identity must
    first turn up in the order 1, 2, ..., n-1, each in a row before its
    own.  That is the breadth-first discovery order, so a truncated table,
    a table with extra cosets or one in another order is refused.
    """
    if images.shape[1:] != (generators[0].degree,):
        return None
    try:
        group = FiniteGroup(images, [g.images for g in generators])
        images, gens = group.images, group.generator_images
        # row i * len(generators) + j is elements[i] * generators[j]
        products = gens[:, images].transpose(1, 0, 2).reshape(-1, group.degree)
        products = group._indices_of_rows(products)
    except ValueError:  # not a group, or not closed under the generators
        return None
    # found[0] is the identity (some g^-1 g); the rest must be 1, ..., n-1
    found, first = np.unique(products, return_index=True)
    found, first = found[1:], first[1:]
    if not (
        np.array_equal(found, np.arange(1, len(images)))
        and np.all(np.diff(first) > 0)
        and np.all(first // len(generators) < found)
    ):
        return None
    return group


class Transversal:
    """Right-coset representatives of a subgroup, with the bar map.

    ``rep_indices[k]`` is the parent index of the k-th coset's
    representative in discovery order; ``rep_of[i]`` gives, for the parent
    element with index ``i``, the parent index of its coset representative,
    so ``x * rep_of(x)^-1`` lies in the subgroup.  ``slot_of[i]`` gives the
    coset position instead.
    """

    def __init__(self, parent: FiniteGroup, subgroup: FiniteGroup):
        row = parent._rows()
        sub_rows = [row(h) for h in parent.indices_of(subgroup)]
        self.parent = parent
        self.subgroup = subgroup
        rep_of = [-1] * parent.order
        slot_of = [-1] * parent.order
        reps: list[int] = []
        for x in range(parent.order):
            if rep_of[x] >= 0:
                continue
            slot = len(reps)
            reps.append(x)
            for h_row in sub_rows:
                y = h_row[x]
                rep_of[y] = x
                slot_of[y] = slot
        self.rep_indices: tuple[int, ...] = tuple(reps)
        self.rep_of: tuple[int, ...] = tuple(rep_of)
        self.slot_of: tuple[int, ...] = tuple(slot_of)

    @property
    def coset_count(self) -> int:
        return len(self.rep_indices)

    def coset_members(self) -> list[list[int]]:
        """The parent indices of each coset's members, by slot, ascending."""
        members: list[list[int]] = [[] for _ in range(self.coset_count)]
        for x, slot in enumerate(self.slot_of):
            members[slot].append(x)
        return members

    @classmethod
    def from_reps(
        cls, parent: FiniteGroup, subgroup: FiniteGroup, reps: Sequence[int]
    ) -> "Transversal":
        """Transversal with caller-chosen representatives, given by their
        parent indices, one per coset."""
        base = cls(parent, subgroup)
        if len(reps) != base.coset_count:
            raise ValueError(
                f"expected {base.coset_count} representatives, got {len(reps)}"
            )
        chosen = [-1] * base.coset_count
        for x in reps:
            slot = base.slot_of[x]
            if chosen[slot] >= 0:
                raise ValueError("two representatives lie in the same coset")
            chosen[slot] = x
        obj = cls.__new__(cls)
        obj.parent = parent
        obj.subgroup = subgroup
        obj.rep_indices = tuple(chosen)
        obj.rep_of = tuple(chosen[base.slot_of[x]] for x in range(parent.order))
        obj.slot_of = base.slot_of
        return obj


class CosetAction:
    """The right action of a group on the right cosets of a subgroup.

    Cosets are numbered by their transversal slot: g sends coset k to the
    coset of ``reps[k] * g`` (``reps`` the transversal's ``rep_indices``),
    a product read through ``group.products``.
    """

    def __init__(self, group: FiniteGroup, stabilizer: FiniteGroup):
        self.group = group
        self.stabilizer = stabilizer
        self.transversal = Transversal(group, stabilizer)
        self.n_points = self.transversal.coset_count
        self.base_point = self.transversal.slot_of[0]
        self._reps = np.array(self.transversal.rep_indices, dtype=np.intp)
        self._slot_of = np.array(self.transversal.slot_of, dtype=np.intp)

    def permutation_of_index(self, element_index) -> np.ndarray:
        """Where the element with that index sends each coset, by slot; for
        m indices, an ``n_points x m`` array, one column per element."""
        outer = np.ndim(element_index) > 0
        return self._slot_of[self.group.products(self._reps, element_index, outer=outer)]

    def left_action_of_index(self, element_index: int) -> np.ndarray:
        """Where left multiplication by the element sends each coset, by
        slot: coset k goes to the coset of ``y * reps[k]``.

        For y in the normaliser of the stabilizer this is the well-defined
        map Hx -> Hyx, which commutes with the right action; for any other
        y it depends on the representatives and need not commute.
        """
        return self._slot_of[self.group.products(element_index, self._reps)]

    def cyclic_symmetry(self) -> tuple[int, int]:
        """``(y, k)``: the least element index y of the normaliser N_G(H)
        whose coset yH has the largest order k in N_G(H)/H.

        Left multiplication by y permutes the cosets freely in cycles of
        length k, commuting with the right action.  The normaliser is found
        by conjugating each of H's generators by all remaining candidates
        in one gather (it is G when H is trivial).  Its elements are then
        tried in index order, in batches of doubling size, and the search
        stops as soon as k reaches |N_G(H):H|.  ``(0, 1)`` means H is
        self-normalising.
        """
        images = self.group.images
        in_h = self._slot_of == self.base_point
        candidates = np.arange(len(images))
        if self.stabilizer.order > 1:
            inverses = images[np.array(self.group.inverse_indices())]
            for h_images in self.stabilizer.generator_images:
                # rows of g^-1 h g, for every candidate g
                conjugates = np.take_along_axis(
                    images[candidates], h_images[inverses[candidates]], axis=1
                )
                candidates = candidates[in_h[self.group._indices_of_rows(conjugates)]]
        index = len(candidates) // self.stabilizer.order
        best, best_k = 0, 1
        start, size = 1, 1  # candidates[0] is the identity
        while start < len(candidates) and best_k < index:
            batch = candidates[start : start + size]
            orders = self._coset_orders(batch, in_h, index)
            top = int(np.argmax(orders))
            if orders[top] > best_k:
                best, best_k = int(batch[top]), int(orders[top])
            start, size = start + size, 2 * size
        return best, best_k

    def _coset_orders(self, elements: np.ndarray, in_h: np.ndarray, index: int) -> np.ndarray:
        """For each element y of N_G(H), the least t >= 1 with y^t in H
        (``in_h`` marks H's members).  That t divides ``index`` =
        |N_G(H):H|, so only the divisors are tried, in ascending order."""
        generators = self.group.images[elements]
        orders = np.zeros(len(elements), dtype=np.int64)
        active = np.arange(len(elements))
        for t in (d for d in range(1, index + 1) if index % d == 0):
            home = in_h[self.group._indices_of_rows(_power_images(generators[active], t))]
            orders[active[home]] = t
            active = active[~home]
            if not len(active):
                break
        return orders


def _power_images(images: np.ndarray, exponent: int) -> np.ndarray:
    """Row-wise power of an ``m x degree`` image array, by squaring; a
    product ``p * q`` is q's images gathered at p's."""
    power = np.broadcast_to(np.arange(images.shape[1], dtype=images.dtype), images.shape)
    while exponent:
        if exponent & 1:
            power = np.take_along_axis(images, power, axis=1)
        exponent >>= 1
        if exponent:
            images = np.take_along_axis(images, images, axis=1)
    return power


def derived_subgroup(group: FiniteGroup) -> FiniteGroup:
    """Commutator subgroup G' = [G, G], the second term of the lower
    central series (G itself when the series stops at G)."""
    terms, _ = lower_central_series(group)
    return terms[1] if len(terms) > 1 else group


def lower_central_series(
    group: FiniteGroup,
) -> tuple[list[FiniteGroup], Optional[int]]:
    """Terms of the lower central series and the nilpotency class.

    gamma_(i+1) = [gamma_i, G] is built from generators alone: for G = <X>
    and a normal subgroup N = <A>^G, [N, G] = <[a, x] : a in A, x in X>^G
    (Holt, Eick, O'Brien, *Handbook of Computational Group Theory*, 2005).
    So each term's commutator closure with X starts from the generators
    the closure of the term before adjoined, and the first from X.

    The returned class is None when the series stabilizes above the trivial
    group, and 0 for the trivial group itself.
    """
    cached = group._cache.get("lcs")
    if cached is not None:
        lower, class_c = cached
        return [group, *lower], class_c
    gen_idx = sorted(set(group._indices_of_rows(group.generator_images).tolist()))
    terms = [group]
    current, normal_gens = frozenset(range(group.order)), gen_idx
    while True:
        nxt, normal_gens = group._commutator_closure(normal_gens, gen_idx)
        if nxt == current:
            result = (terms, 0 if len(current) == 1 else None)
            break
        terms.append(group.subgroup_from_indices(nxt, normal_gens))
        if len(nxt) == 1:
            result = (terms, len(terms) - 1)
            break
        current = nxt
    # the cache leaves out G itself, which would tie the group to its own cache
    group._cache["lcs"] = (terms[1:], result[1])
    return result


def intermediate_subgroups(
    group: FiniteGroup,
    floor: FiniteGroup,
    limit: int = DEFAULT_SUBGROUP_LIMIT,
) -> list[FiniteGroup]:
    """All subgroups H with floor <= H <= group.

    Enumerated by cyclic extension (Neubueser): every such H is the floor
    joined with cyclic subgroups of the group, so starting from the floor
    each subgroup found is extended by one generator of every cyclic
    subgroup it does not contain, and <H, z> is grown coset by coset from
    the members of H.  Every cyclic subgroup is tried, not only those that
    normalise H, so perfect subgroups such as A5 < S5 are found too.
    Results are sorted canonically by (order, element indices); each
    carries a small generating set, the floor's chosen greedily.  The
    enumeration fails explicitly when it exceeds ``limit``.
    """
    floor_idx = group.indices_of(floor)
    key = ("interval", floor_idx)
    cached = group._cache.get(key)
    if cached is not None:
        if len(cached) > limit:
            raise SubgroupLimitError(
                f"more than {limit} subgroups between the given groups"
            )
        return cached

    floor_gens = group._greedy_generators(floor_idx)
    cyclic_reps = group._cyclic_reps()
    known: dict[frozenset[int], tuple[int, ...]] = {floor_idx: floor_gens}
    frontier = [(floor_idx, floor_gens)]
    while frontier:
        members, gens = frontier.pop()
        for z in cyclic_reps:
            if z in members:
                continue
            grown = group._closure((z,), base=members, base_gens=gens)
            if grown not in known:
                if len(known) >= limit:
                    raise SubgroupLimitError(
                        f"more than {limit} subgroups between the given groups"
                    )
                new_gens = gens + (z,)
                known[grown] = new_gens
                frontier.append((grown, new_gens))
    ordered = sorted(known, key=lambda s: (len(s), tuple(sorted(s))))
    result = [
        group.subgroup_from_indices(members, generator_indices=known[members] or None)
        for members in ordered
    ]
    group._cache[key] = result
    return result


def index2_overgroups(group: FiniteGroup, floor: FiniteGroup) -> list[FiniteGroup]:
    """All index-2 subgroups of the group that contain the floor.

    Index-2 subgroups are exactly the preimages of hyperplanes in the
    elementary abelian quotient by K = <g^2 : g in G>, which contains G'
    since [a, b] = a^-2 (a b^-1)^2 b^2; there are 2^r - 1 of them for a
    quotient of rank r.
    """
    floor_idx = group.indices_of(floor)
    hyperplanes = group._cache.get("index2")
    if hyperplanes is None:
        seed = set(group.products(range(group.order), range(group.order)).tolist())
        quotient = Transversal(group, group.subgroup_from_indices(group._closure(seed)))
        slot_of, cosets = quotient.slot_of, quotient.rep_indices

        # grow an F2 basis for the quotient, labelling each coset with a bitmask
        vec: dict[int, int] = {slot_of[0]: 0}
        rank = 0
        for slot, rep in enumerate(cosets):
            if slot in vec:
                continue
            bit = 1 << rank
            rank += 1
            for other_slot, value in list(vec.items()):
                product = slot_of[group.mult(rep, cosets[other_slot])]
                vec[product] = bit | value
        members_by_slot = quotient.coset_members()

        hyperplanes = []
        for mask in range(1, 1 << rank):
            indices: list[int] = []
            for slot in range(len(cosets)):
                if bin(vec[slot] & mask).count("1") % 2 == 0:
                    indices.extend(members_by_slot[slot])
            hyperplanes.append(frozenset(indices))
        group._cache["index2"] = hyperplanes

    return [
        group.subgroup_from_indices(h)
        for h in hyperplanes
        if floor_idx <= h
    ]
