"""Permutations and finite permutation groups with full element tables.

A group is its image array: one int32 row of point images per element, in
a deterministic canonical order (breadth-first discovery from the identity,
following the given generator order); ``Permutation`` objects are built only
where input is parsed or output printed.  At desk scale full tables are the
right trade-off: every downstream computation (transversals, subgroup
lattices, normalisers, commutator series, coset actions, and the searches of
N_G(H) by which ``spectral.py`` plans block spectra) needs fast membership
tests and iteration rather than compact stabilizer-chain machinery.

Two rules keep products cheap.  A product is read at the base: an element
is fixed by its images on a few base points, so ``p * q`` is named by q's
images at p's base images, never by a full row.  That is exact only on a
closed table, so every ``FiniteGroup`` is closed by construction: built by
closure, sliced on a subgroup's members or checked in ``__init__``, the one
door for rows from outside: it accepts exactly the enumeration of the given
generators, in discovery order (an integer table of distinct bijections,
identity first; one or more integer generator rows, bijections of its
degree; closed under the generators; elements first met in table order, each
before its own row).
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
# it, a product is a gather at the row lookup's base points, looked up there.
_TABLE_LIMIT = 512


def _least_prime_factor(n: int) -> int:
    """Least prime factor of an integer n >= 2."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _partitions(n: int, cap: Optional[int] = None):
    """The partitions of n with parts at most ``cap``, largest part first."""
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _row_lookup(images: np.ndarray):
    """The base points of ``images``, and a lookup of elements by their base
    images, given as one array per base point, in base order.

    Per base point, chosen from point 0 on while its images tell more rows
    apart (point 0 for one row; repeated rows are refused), a table maps
    prefix state x degree + image to the next state (the last to the row
    index): a lookup is one gather per base point, unchecked, so it is
    exact only for the base images of elements.  A group's base points
    each at least double the prefixes (Lagrange).
    """
    n, d = images.shape
    tables, states, count = {}, np.zeros(n, dtype=np.intp), 1  # a table per base point
    for x in range(d):
        if count == n:
            break
        keys = states * d + images[:, x]
        values, refined = np.unique(keys, return_inverse=True)
        if len(values) > count:
            tables[x] = np.zeros(count * d, dtype=np.intp)
            states, count = refined, len(values)
            tables[x][keys] = states if count < n else np.arange(n)
    if count < n:
        raise ValueError("duplicate elements in table")
    tables = tables or {0: np.zeros(d, dtype=np.intp)}

    def lookup(columns: Iterable[np.ndarray]) -> np.ndarray:
        found = 0
        for table, column in zip(tables.values(), columns):
            found = table[found * d + column]
        return found

    return np.array(list(tables), dtype=np.intp), lookup


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

    The constructor's one contract: ``images`` is exactly the enumeration
    of ``generator_images``, in discovery order.  It checks the table (2-D
    integer, identity first, rows distinct bijections), the generator rows
    (one or more integer bijections of its degree), closure (each element
    times each generator is an element) and order (scanning those products
    row by row, each element is first met after those before it, in a row
    before its own).
    """

    def __init__(self, images, generator_images):
        images = np.asarray(images)
        if images.ndim != 2 or not images.size or images.dtype.kind not in "iu":
            raise ValueError("a group needs a 2-D integer array of images, identity first")
        points = np.arange(images.shape[1])
        # the table is checked in blocks of about 2^16 entries, as _gathered
        # bounds its temporaries
        step = max(1, (1 << 16) // len(points))
        if not ((images[0] == points).all()
                and all((np.sort(images[k : k + step]) == points).all() for k in range(0, len(images), step))):
            raise ValueError("row 0 must be the identity and each row a bijection of range(degree)")
        gens = np.asarray(generator_images)
        if not (gens.size and gens.shape[1:] == images.shape[1:] and gens.dtype.kind in "iu"
                and (np.sort(gens) == points).all()):
            raise ValueError(f"generator rows must be integer bijections of range({len(points)})")
        gens = gens.astype(np.int32)  # like the table's, a copy no caller can write
        self._adopt(np.array(images, dtype=np.int32, order="C"), gens)
        # row i * len(gens) + j is elements[i] * generators[j], the order in
        # which the enumeration scans products; in a closed table each
        # generator permutes the elements, so every element is met
        step = max(1, step // len(gens))
        found = [
            self._indices_of_rows(gens[:, self.images[k : k + step]].transpose(1, 0, 2).reshape(-1, self.degree))
            for k in range(0, self.order, step)
        ]
        first = np.unique(np.concatenate(found), return_index=True)[1][1:]
        if not ((np.diff(first) > 0).all() and (first // len(gens) < np.arange(1, self.order)).all()):
            raise ValueError("the element table is not the group its generators generate")

    def _adopt(self, images: np.ndarray, generator_images: np.ndarray) -> "FiniteGroup":
        """Hold rows that ``__init__`` would accept, in fresh int32 arrays:
        the unchecked path for rows sliced from a group or closed by BFS."""
        self.images, (self.order, self.degree) = images, images.shape
        self.generator_images = generator_images
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

    def _base_keys(self, rows: np.ndarray) -> list[bytes]:
        """The bytes of each row's images on the base points."""
        at = rows.take(self._lookup()[0], axis=1)
        return at.view(f"V{at.itemsize * at.shape[1]}").ravel().tolist()

    def _index(self) -> dict[bytes, int]:
        """Element index by the bytes of its base images; built on first use."""
        if "index" not in self._cache:
            self._cache["index"] = dict(zip(self._base_keys(self.images), range(self.order)))
        return self._cache["index"]

    def _find(self, rows: np.ndarray) -> Optional[list[int]]:
        """Element index of each row of an ``m x degree`` int32 image array, by
        its base images, checked on every point; None if some row is not one."""
        if rows.shape[1:] != (self.degree,):
            return None
        index = self._index()
        found = [index.get(key, 0) for key in self._base_keys(rows)]
        return found if self.images[found].tobytes() == rows.tobytes() else None

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and self._find(np.array([p.images], np.int32)) is not None

    def index_of(self, p: Permutation) -> int:
        found = self._find(np.array([p.images], np.int32))
        if found is None:
            raise ValueError(f"{p!r} is not an element of this group")
        return found[0]

    def indices_of(self, subgroup: "FiniteGroup") -> frozenset[int]:
        """The indices of the subgroup's members in this group.

        Raises NotASubgroupError when some member is not an element here.
        """
        found = self._find(subgroup.images)
        if found is None:
            raise NotASubgroupError(f"group of order {subgroup.order} is not a subgroup of the parent")
        return frozenset(found)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, degree={self.degree})"

    # -- index arithmetic --------------------------------------------------

    def _table(self) -> Optional[np.ndarray]:
        """Cayley table up to ``_TABLE_LIMIT``, built by ``_gathered``,
        held as int16 (enough for every index up to the limit); its
        ``.tolist()`` rows serve the loops that read single entries."""
        if self.order > _TABLE_LIMIT:
            return None
        table = self._cache.get("table")
        if table is None:
            table = self._gathered(range(self.order), range(self.order), outer=True).astype(np.int16)
            self._cache["table"], self._cache["rows"] = table, table.tolist().__getitem__
        return table

    def products(self, left, right, outer: bool = False) -> np.ndarray:
        """Indices of ``elements[l] * elements[r]``, elementwise for arrays that
        broadcast together or, with ``outer``, l in 1-D ``left`` by r in 1-D
        ``right``: one read of the Cayley table, or base gathers above it."""
        table = self._table()
        if table is not None:
            return table[np.ix_(left, right)] if outer else table[left, right]
        return self._gathered(left, right, outer)

    def _gathered(self, left, right, outer: bool = False) -> np.ndarray:
        """``products`` read at the base: ``p * q`` sends base point b to
        q(p(b)), so q's images at p's base images (``at[k]`` for the k-th)
        are looked up, one base point at a time.  The outer product goes in
        column blocks of at most max(``order x degree``, 2^16) products,
        each block's images by point: no temporary outgrows the larger of
        the image array and 2^16 entries, and the floor keeps a small
        group's blocks wide enough that their number costs less than their
        gathers."""
        base, lookup = self._lookup()
        at = np.moveaxis(self.images[np.asarray(left)[..., None], base], -1, 0)
        right = np.asarray(right)
        if not outer:
            return lookup(self.images[right, a] for a in at)
        width = max(1, max(self.images.size, 1 << 16) // max(at.shape[1], 1))
        blocks = (self.images[right[k : k + width]].T.copy() for k in range(0, len(right), width))
        return np.concatenate([lookup(by_point[a] for a in at) for by_point in blocks], axis=1)

    def _lookup(self):
        """``_row_lookup`` of the image array, built on first use."""
        if "lookup" not in self._cache:
            self._cache["lookup"] = _row_lookup(self.images)
        return self._cache["lookup"]

    def _indices_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each row of an ``m x degree`` image array not made
        by the group's own products: read at the base, checked on every point.

        Raises ValueError when a row is not an element, which for a row of
        products means the element table is not closed.
        """
        base, lookup = self._lookup()
        found = lookup(rows[:, base].T)
        if not (self.images[found] == rows).all():
            raise ValueError("the element table is not closed under products")
        return found

    def _rows(self):
        """``rows(i)[j]`` is ``mult(i, j)``: the table's rows, or ``_ProductRow``."""
        return functools.partial(_ProductRow, self) if self._table() is None else self._cache["rows"]

    def mult(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j]."""
        if self._table() is not None:
            return self._cache["rows"](i)[j]
        return self._index()[self.images[j][self.images[i][self._lookup()[0]]].tobytes()]

    def inverse_indices(self) -> tuple[int, ...]:
        """``inverse_indices()[i]`` is the index of elements[i]^-1, looked
        up by its base images: x^-1 sends base point b to where b sits in
        x's row.  Unchecked, so exact on a closed table, as every group is."""
        inv = self._cache.get("inverse")
        if inv is None:
            base, lookup = self._lookup()
            found = lookup((self.images == b).argmax(axis=1) for b in base.tolist())
            inv = self._cache["inverse"] = tuple(found.tolist())
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

    def _greedy_generators(
        self, members: Iterable[int], base: frozenset[int] = frozenset((0,)), base_gens: Sequence[int] = ()
    ) -> tuple[int, ...]:
        """Generators of the subgroup on ``members`` over its subgroup on
        ``base``, which ``base_gens`` generate: each least member that the
        ones before it and the base do not generate."""
        gens: list[int] = []
        generated = base
        for i in sorted(members):
            if i not in generated:
                generated = self._closure((i,), base=generated, base_gens=[*base_gens, *gens])
                gens.append(i)
        return tuple(gens)

    def _cyclic_classes(self) -> tuple[tuple[int, ...], np.ndarray, dict[int, int]]:
        """The least generator of each nontrivial cyclic subgroup, ascending;
        ``class_of``: each element's subgroup's position (-1: identity); and
        ``root``: for each such generator g of prime-power order p^k, the
        index of g^p, and -1 when g's order is not a prime power."""
        classes = self._cache.get("cyclic_classes")
        if classes is None:
            row = self._rows()
            class_of = [-1] * self.order
            found, root = [], {}
            for g in range(1, self.order):
                if class_of[g] >= 0:
                    continue
                found.append(g)
                powers = [g]  # powers[k - 1] is g^k; the last one is the identity
                while powers[-1] != 0:
                    powers.append(row(powers[-1])[g])
                m = len(powers)
                for k in range(1, m):
                    if math.gcd(k, m) == 1:
                        class_of[powers[k - 1]] = len(found) - 1
                p = _least_prime_factor(m)
                root[g] = powers[p - 1] if p ** round(math.log(m, p)) == m else -1
            classes = self._cache["cyclic_classes"] = (tuple(found), np.array(class_of), root)
        return classes

    def subgroup_from_indices(
        self, indices: Iterable[int], generator_indices: Optional[Sequence[int]] = None
    ) -> "FiniteGroup":
        """Subgroup on the given element indices; order inherited from self.
        They must be closed under products (a closure's result, say): base
        lookups assume it, and nothing checks it."""
        idx = sorted(set(indices))
        if not idx or idx[0] != 0:
            raise ValueError("a subgroup must contain the identity (index 0)")
        images, group = self.images[idx], FiniteGroup.__new__(FiniteGroup)
        if generator_indices:
            return group._adopt(images, self.images[list(generator_indices)])
        return group._adopt(images, images[1:] if len(idx) > 1 else images)

    def subgroup_generated_by(self, indices: Iterable[int]) -> "FiniteGroup":
        """Subgroup of self generated by the elements with the given indices."""
        gen_idx = list(indices)
        return self.subgroup_from_indices(self._closure(gen_idx), gen_idx or None)

    def subgroup_generated(self, perms: Iterable[Permutation]) -> "FiniteGroup":
        """Subgroup of self generated by the given permutations: the parse
        boundary of ``subgroup_generated_by``."""
        return self.subgroup_generated_by(self.index_of(p) for p in perms)

    def trivial_subgroup(self) -> "FiniteGroup":
        return self.subgroup_from_indices([0])

    def point_stabilizer(self, point: int) -> "FiniteGroup":
        """The elements fixing ``point``, generated by its Schreier
        generators u_w s u_(w^s)^-1 (Schreier's lemma; Holt, Eick, O'Brien,
        *Handbook of Computational Group Theory*, 2005), for s a generator of
        the group and u_w the first element sending ``point`` to w, w in its
        orbit: at most orbit size x |generators| of them, distinct, without
        the identity."""
        column = self.images[:, point]
        orbit, least = np.unique(column, return_index=True)
        first = np.zeros(self.degree, np.intp)
        first[orbit] = least  # u_w, by w
        moved = self.products(least[:, None], self._indices_of_rows(self.generator_images))  # u_w s
        schreier = self.products(moved, np.array(self.inverse_indices())[first[self.images[moved, point]]])
        return self.subgroup_from_indices(
            np.flatnonzero(column == point).tolist(), sorted(set(schreier.ravel().tolist()) - {0})
        )

    def normaliser(self, members: Iterable[int], generators: Iterable[int]) -> np.ndarray:
        """The ascending element indices of N_G(H), H the subgroup on
        ``members`` that the indices ``generators`` generate: the g with
        g^-1 y g in H for each generator y, each y filtering the candidates
        left by two ``products`` reads (the identity skipped)."""
        found, in_h = np.arange(self.order), np.zeros(self.order, dtype=bool)
        in_h[list(members)] = True
        generators = [y for y in generators if y]
        inverse = np.array(self.inverse_indices()) if generators else None
        for y in generators:
            found = found[in_h[self.products(self.products(inverse[found], y), found)]]
        return found


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


class Transversal:
    """Right-coset representatives of a subgroup, with the bar map, held as
    three read-only intp arrays of parent indices.

    ``rep_indices[k]`` is the representative of the k-th coset, cosets
    numbered in discovery order; ``slot_of[i]`` is the coset of the parent
    element with index ``i``, and ``rep_of = rep_indices[slot_of]`` its
    representative, so ``x * rep_of[x]^-1`` lies in the subgroup.
    ``with_reps`` keeps the cosets and their numbering and swaps the
    representatives.

    Each coset is numbered by its least element, so that element is its
    representative.  Up to the table limit one pass over the elements reads
    each new coset off the table rows of H's members, which is fastest
    there.  Above it the slots come from min-label propagation: the
    left-multiplication maps x -> h x of H's generators, one broadcast
    ``products`` read, carry each element's label to its least coset mate
    (``_orbit_minima``), so |generators| x |G| products are read and no
    ``mult`` is called.
    """

    def __init__(self, parent: FiniteGroup, subgroup: FiniteGroup):
        if parent._table() is not None:
            row = parent._rows()
            sub_rows = [row(h) for h in parent.indices_of(subgroup) if h]
            slots = [-1] * parent.order
            reps: list[int] = []
            for x in range(parent.order):
                if slots[x] < 0:
                    slots[x] = len(reps)
                    for h_row in sub_rows:
                        slots[h_row[x]] = len(reps)
                    reps.append(x)
            rep_indices, slot_of = np.array(reps, np.intp), np.array(slots, np.intp)
        else:
            gens = parent._find(subgroup.generator_images)
            if gens is None:
                raise NotASubgroupError(f"group of order {subgroup.order} is not a subgroup of the parent")
            # the coset Hx is the orbit of x under x -> h x, h a generator of H
            every = np.arange(parent.order)
            label = _orbit_minima(parent.products(np.array(gens)[:, None], every), parent.order)
            opens = label == every
            rep_indices, slot_of = np.flatnonzero(opens), (np.cumsum(opens) - 1)[label]
        self._hold(parent, subgroup, rep_indices, slot_of)

    def _hold(self, parent, subgroup, rep_indices: np.ndarray, slot_of: np.ndarray) -> "Transversal":
        """Hold the two arrays and their gather ``rep_of``, all read-only."""
        self.parent, self.subgroup = parent, subgroup
        self.rep_indices, self.slot_of, self.rep_of = rep_indices, slot_of, rep_indices[slot_of]
        for array in (self.rep_indices, self.slot_of, self.rep_of):
            array.flags.writeable = False
        return self

    @property
    def coset_count(self) -> int:
        return len(self.rep_indices)

    def coset_members(self) -> list[list[int]]:
        """The parent indices of each coset's members, by slot, ascending:
        a stable sort by slot, split into cosets of |H| members each."""
        return np.argsort(self.slot_of, kind="stable").reshape(-1, self.subgroup.order).tolist()

    def with_reps(self, reps: Sequence[int]) -> "Transversal":
        """The transversal of the same cosets, numbered the same, whose
        representatives are the given parent indices, one per coset in any
        order; a wrong count, an index outside ``range(order)`` or two
        indices in one coset raise ValueError."""
        reps = np.array(reps, dtype=np.intp)
        if reps.shape != (self.coset_count,):
            raise ValueError(f"expected {self.coset_count} representatives, got {reps.size}")
        if not ((0 <= reps) & (reps < self.parent.order)).all():
            raise ValueError(f"representatives must lie in range({self.parent.order})")
        chosen = np.full(self.coset_count, -1, np.intp)
        chosen[self.slot_of[reps]] = reps
        if (chosen < 0).any():
            raise ValueError("two representatives lie in the same coset")
        return Transversal.__new__(Transversal)._hold(self.parent, self.subgroup, chosen, self.slot_of)


class CosetAction:
    """The right action of a group on the right cosets of a subgroup.

    Cosets are numbered by their transversal slot: g sends coset k to the
    coset of ``reps[k] * g`` (``reps`` the transversal's ``rep_indices``),
    a product read through ``group.products``.
    """

    def __init__(self, group: FiniteGroup, stabilizer: FiniteGroup):
        self.group, self.stabilizer = group, stabilizer
        self.transversal = Transversal(group, stabilizer)
        self.n_points = self.transversal.coset_count
        self.base_point = int(self.transversal.slot_of[0])

    def permutation_of_index(self, element_index) -> np.ndarray:
        """Where the element with that index sends each coset, by slot; for
        m indices, an ``n_points x m`` array, one column per element."""
        outer = np.ndim(element_index) > 0
        t = self.transversal
        return t.slot_of[self.group.products(t.rep_indices, element_index, outer=outer)]

    def left_action_of_index(self, element_index: int) -> np.ndarray:
        """Where left multiplication by the element sends each coset, by
        slot: coset k goes to the coset of ``y * reps[k]``.

        For y in the normaliser of the stabilizer this is the well-defined
        map Hx -> Hyx, which commutes with the right action; for any other
        y it depends on the representatives and need not commute.
        """
        t = self.transversal
        return t.slot_of[self.group.products(element_index, t.rep_indices)]


def _orbit_minima(maps: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Each point of range(n) labelled with the least point of its orbit
    under the index maps ``maps``: labels stay in their orbits and only
    fall, so at a fixed point each is its orbit's least."""
    label = np.arange(n)
    while True:
        least = label
        for m in maps:
            least = np.minimum(least, least[m])
        least = least[least]
        if (least == label).all():
            return label
        label = least


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
) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """All subgroups H with floor <= H <= group, as (members, generators)
    pairs of the group's element indices; no ``FiniteGroup`` is built.

    Enumerated by cyclic extension (Neubueser), one join per conjugacy
    class: starting from the floor Y, each class representative H is
    joined with cyclic subgroups <z>, normalising or not (so A5 < S5 is
    found), <H, z> grown coset by coset from the members of H.  Four rules
    keep the joins few, all exact:

    - conjugation by N_G(Y) permutes the interval and <H^g, z^g> =
      <H, z>^g, so a new join registers its whole class, walking the
      conjugation maps of generators of N_G(Y) that move some cyclic
      subgroup (none in an abelian group), and only it is extended.  K^g
      carries the floor's generators and K's adjoined ones conjugated by
      g, as <Y, z^g> = <Y, z>^g for g normalising Y.  The tests below are
      invariant under conjugation, so each conjugate is extended as K is.
    - only z of prime-power order p^k with z not in H and z^p in H is
      tried.  Any K > H is generated by its prime-power elements; one
      outside H, raised to the p-th power until the next power lies in H,
      gives such a z with H < <H, z> <= K, so induction on |K : H| reaches
      K.
    - z inside a known K > H of prime index, found from H or on another
      branch, is skipped: by Lagrange <H, z> = K.
    - as <H, h^-1 z h> = <H, z> for h in H, only the least z of each
      orbit under conjugation by H's generators is tried; a generator
      fixing every cyclic subgroup costs nothing.

    Pairs are sorted canonically by (order, element indices), so the
    first is the floor; each carries a small generating set, the floor's
    chosen greedily (none for the trivial floor) and then one z per join
    on the first path that reached its class.  Callers that hand a
    subgroup out build it with ``group.subgroup_from_indices(members,
    generators)``.  Raises SubgroupLimitError once more than ``limit``
    subgroups are registered, the floor and every conjugate included.
    """
    floor_idx = group.indices_of(floor)
    key = ("interval", floor_idx)
    too_many = f"more than {limit} subgroups between the given groups"
    cached = group._cache.get(key)
    if cached is not None:
        if len(cached) > limit:
            raise SubgroupLimitError(too_many)
        return cached

    floor_gens = group._greedy_generators(floor_idx)
    cyclic_reps, class_of, root = group._cyclic_classes()
    reps, inv = np.array(cyclic_reps, dtype=np.intp), group.inverse_indices()
    positions = np.arange(len(reps))

    @functools.cache
    def moved(h: int) -> tuple[np.ndarray, ...]:
        """(The class of h^-1 z h for each rep z,), or () if h fixes every class."""
        image = class_of[group.products(group.products(inv[h], reps), h)]
        return () if (image == positions).all() else (image,)

    def least_in_orbits(maps: tuple[np.ndarray, ...]) -> Sequence[int]:
        """The reps least in their orbits under ``maps``."""
        if not maps:
            return cyclic_reps
        return reps[_orbit_minima(maps, len(reps)) == positions].tolist()

    @functools.cache
    def conjugations() -> list[list[int]]:
        """The maps x -> g^-1 x g, as index lists, for generators g of N_G(Y)
        over Y that move some cyclic subgroup: N_G(Y) (``normaliser``) holds
        the g with g^-1 y g in Y for each floor generator y, and is generated
        by G's generators when it is G and greedily otherwise."""
        every, normaliser = np.arange(group.order), group.normaliser(floor_idx, floor_gens)
        if len(normaliser) == group.order and len(group.generator_images) < group.order.bit_length():
            gens = group._indices_of_rows(group.generator_images).tolist()
        else:
            gens = group._greedy_generators(normaliser.tolist(), floor_idx, floor_gens)
        return [group.products(group.products(inv[g], every), g).tolist() for g in gens if moved(g)]

    known: dict[frozenset[int], tuple[int, ...]] = {floor_idx: floor_gens}
    by_order: dict[int, list[frozenset[int]]] = {}  # the joins, by order

    def register(members: frozenset[int], adjoined: tuple[int, ...]) -> None:
        """Register a new join and every conjugate of it under N_G(Y)."""
        walk, found = [(members, adjoined)], {members}  # known holds whole classes
        for members, adjoined in walk:
            if len(known) >= limit:
                raise SubgroupLimitError(too_many)
            known[members] = floor_gens + adjoined
            for m in conjugations() if len(members) < group.order else ():
                image = frozenset([m[x] for x in members])
                if image not in found:
                    found.add(image)
                    walk.append((image, tuple(m[x] for x in adjoined)))
        by_order.setdefault(len(members), []).extend(found)

    frontier = [(floor_idx, floor_gens, sum(map(moved, floor_gens), ()))]
    while frontier:
        members, gens, maps = frontier.pop()
        done = set(members)  # H and each known join of prime index over it
        for order, joins in by_order.items():
            step, rest = divmod(order, len(members))
            if not rest and step > 1 and _least_prime_factor(step) == step:
                done.update(*filter(members.issubset, joins))
        for z in least_in_orbits(maps):
            if z in done or root[z] not in members:
                continue
            grown = group._closure((z,), base=members, base_gens=gens)
            step = len(grown) // len(members)
            if _least_prime_factor(step) == step:
                done.update(grown)
            if grown not in known:
                register(grown, gens[len(floor_gens):] + (z,))
                frontier.append((grown, gens + (z,), maps + moved(z)))
    ordered = sorted(known, key=lambda s: (len(s), tuple(sorted(s))))
    result = group._cache[key] = [(members, known[members]) for members in ordered]
    return result


def index2_overgroups(group: FiniteGroup, floor: FiniteGroup) -> list[frozenset[int]]:
    """The member index sets of all index-2 subgroups of the group that
    contain the floor; no ``FiniteGroup`` is built.

    Index-2 subgroups are exactly the preimages of hyperplanes in the
    elementary abelian quotient by K = <g^2 : g in G>, which contains G'
    since [a, b] = a^-2 (a b^-1)^2 b^2; there are 2^r - 1 of them for a
    quotient of rank r.
    """
    floor_idx = group.indices_of(floor)
    hyperplanes = group._cache.get("index2")
    if hyperplanes is None:
        seed = set(group.products(range(group.order), range(group.order)).tolist())
        # grow an F2 basis for G/K, labelling each element with a bitmask: the
        # least unlabelled x labels its coset x L of the labelled subgroup L
        labels = np.full(group.order, -1)
        labels[list(group._closure(seed))] = 0
        rank = 0
        for x in range(group.order):
            if labels[x] < 0:
                labelled = np.flatnonzero(labels >= 0)
                labels[group.products(x, labelled)] = (1 << rank) | labels[labelled]
                rank += 1

        # a hyperplane is the elements whose label has even overlap with its mask
        parity = np.array([bin(m).count("1") % 2 for m in range(1 << rank)])
        hyperplanes = [
            frozenset(np.flatnonzero(parity[labels & mask] == 0).tolist())
            for mask in range(1, 1 << rank)
        ]
        group._cache["index2"] = hyperplanes

    return [h for h in hyperplanes if floor_idx <= h]
