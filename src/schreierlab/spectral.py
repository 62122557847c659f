"""Full walk spectra and the gap summary of a walk matrix.

The full spectrum is computed rather than extremal eigenvalues only: desk
scale makes that affordable, and spectrum-containment checks need all of it.

A graph with fewer than ``BLOCK_FLOOR`` (512) points gets one dense
``eigvalsh``.  From that size on, ``spectral_summary`` splits the walk by a
group K of symmetries that permute the cosets freely and commute with the
walk, one block per irreducible representation of K (Babai, J. Combin.
Theory B 27, 1979).  One engine (``_representation_spectrum``) builds and
solves every block from each point's orbit, its name (the k in K that
carries the orbit's least point to it) and K's representations; three front
ends name the points and list the representations.  Left multiplication by y
in the normaliser N_G(H) (Hx -> Hyx, ``FiniteGroup.normaliser``), of order k
modulo H, makes the walk block-circulant, one Hermitian block of size n/k
per Fourier mode; a z in N_G(H) inverting y modulo H makes <y, z> dihedral,
with real irreducible representations (Serre, *Linear Representations of
Finite Groups*, 5.3), so every block is real and modes 0 and k/2 halve
(``block_eigenvalues``).  The symmetric group S_r on the r points that H
fixes (twisted by a transposition of two more of them in an alternating
group) centralises H: one real block of m d rows for each irreducible
representation of S_r, of dimension d, m = n / r!, from Young's orthogonal
form (``symmetric_block_eigenvalues``).  The whole of K = N_G(H)/H
(``normalizer_quotient``) gives one real block of m d rows per class of its
real irreducible representations, found by Dixon's method
(``real_representations``, ``quotient_block_eigenvalues``).  The plan is
made here too: three searches of a ``CosetAction`` find the symmetries,
sharing one N_G(H), and one price (``_price``) ranks them, the sum of rows^3
over the blocks the engine solves, counted from the mode lists of
``fourier_representations``, from ``young_forms`` and from K's classes, a
complex block counted 3 (about three real ``eigvalsh`` of its size); a tie
goes to Young's form.  N_G(H) (2-3 ms on sym:7 and alt:7) is not searched
when K is not needed (H trivial, or K = S_r) and no cyclic order could beat
S_r, and the dense path runs when N_G(H) = H and r < 2.  Each symmetry is
checked exactly on the slot table and the slot rows of one point per orbit
fill the blocks by weighted bincounts, so no n x n array is built; the
dimension cap still bounds the number of points.  Small graphs stay dense as
the set-up costs more than it saves (heisenberg:7, 343 points, k = 7: 13-18
against 5.9-7.0 ms).  The 2520 cosets of (2 7) in sym:7 and alt:7 regular,
m = 21, take 5.0-6.4 and 4.1-5.9 ms against 36-44 and 34-43 ms by dihedral
blocks of order 6; those of (2 5)(3 6) and (2 7)(3 4)(5 6), K = C2 x C2 x S3
and S4, m = 105, take 19.9-20.5 and 20.6-21.1 ms against 32.9-33.3 and
51.4-52.4 ms by dihedral blocks of orders 12 and 8 (best of 5 or 7, three
alternating runs, one BLAS thread, 2-vCPU Xeon).

Every tolerance in the package is defined here, one per stage.  Outside
this module they are compared only in the ledger of named inequalities,
``inequalities.py``, which gives each inequality its tolerance:

* ``ROUNDOFF_TOL`` (1e-12): figures exact up to a few roundings: the
  symmetry of a walk matrix or a block, a 1 x 1 block's imaginary part,
  theta >= 1, the closed-form exponents.
* ``LOG_TOL`` (1e-9): figures that pass through logarithms: theta <= |Omega|,
  the least expanding-set size, the derived-index inequality, and Rayleigh
  quotients against the extreme eigenvalues.
* ``GAP_TOL`` (1e-8): a computed eigenvalue against a closed form: gaps
  under their bounds, induced gaps against their parents' (the
  counterexample search's gap loss among them), the cycle oracle, and the
  walk spectrum's ends at 1 and -1.
* ``CONTAINMENT_TOL`` (1e-6): eigenvalues of two different graphs compared.

Dixon's step cuts eigenvalues apart at a relative gap of ``SPLIT_GAP``
(1e-7), holds each eigenspace to ``GAP_TOL``, and rounds characters to
``CHARACTER_DIGITS`` (6) digits.

``BLOCK_FLOOR`` (512) is the least number of points at which the spectrum
is taken block by block; every graph of the sweep lies below it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import MatrixTooLargeError
from .permutations import _least_prime_factor, _orbit_minima, _partitions

if TYPE_CHECKING:
    from .permutations import CosetAction
    from .schreier import SchreierGraph

DEFAULT_DIM_CAP = 3000
ROUNDOFF_TOL = 1e-12
LOG_TOL = 1e-9
GAP_TOL = 1e-8
CONTAINMENT_TOL = 1e-6
BLOCK_FLOOR = 512
SPLIT_GAP = 1e-7
CHARACTER_DIGITS = 6


def _check_dimension(n: int, dim_cap: int) -> None:
    if n > dim_cap:
        raise MatrixTooLargeError(f"dimension {n} exceeds the cap of {dim_cap}")


def sym_eigenvalues(matrix: np.ndarray, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Real spectrum of a real symmetric or complex Hermitian matrix,
    sorted descending."""
    matrix = np.asarray(matrix)
    if not np.iscomplexobj(matrix):
        matrix = matrix.astype(float, copy=False)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    _check_dimension(matrix.shape[0], dim_cap)
    if np.max(np.abs(matrix - matrix.conj().T)) > ROUNDOFF_TOL:
        kind = "Hermitian" if np.iscomplexobj(matrix) else "symmetric"
        raise ValueError(f"matrix is not {kind} within {ROUNDOFF_TOL:g}")
    return np.linalg.eigvalsh(matrix)[::-1].copy()


def _walk_symmetry(perm, graph: SchreierGraph, name: str) -> np.ndarray:
    """``perm`` as an index array, checked to be a permutation of the points
    that commutes with every column of the slot table (``perm[slots] ==
    slots[perm]``), as left multiplication by N_G(H) does, and so with the
    walk."""
    perm = np.asarray(perm, dtype=np.intp)
    n, slots = graph.vertex_count, graph.slots
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"the {name} is not a permutation of the points")
    if not np.array_equal(perm.take(slots), slots.take(perm, axis=0)):
        raise ValueError(f"the {name} does not commute with the walk")
    return perm


def _representation_spectrum(
    graph: SchreierGraph, label: np.ndarray, name: np.ndarray, order: int,
    representations: Callable[[np.ndarray], list[tuple[np.ndarray, int]]], dim_cap: int,
) -> np.ndarray:
    """The walk spectrum, sorted descending, from a group K of ``order``
    elements that commutes with the walk and acts freely: each orbit, by
    ``label`` its least point o, has |K| points, and ``name[v]`` codes the k
    with v = k o.  The walk entry between k o_i and l o_j is c_ij(k^-1 l),
    c_ij(h) the weight of the edges from o_i to h o_j over the degree, so
    the walk is similar to the sum over the irreducible representations rho
    of K of sum_h c(h) (x) rho(h), a Hermitian block of m d_rho rows for m
    orbits (Diaconis, *Group Representations in Probability and
    Statistics*, 1988, ch. 3).  ``representations`` maps the sorted names
    on the edges of the o_i to ``(matrices, copies)`` pairs: R
    representations of one dimension d at those names (``R x u x d x d``),
    whose spectra count ``copies`` times, the rows so counted adding up to
    the number of points.  Over the slot rows of the o_i, one weighted
    ``bincount`` of w rho(h)[a, b] for an edge of weight w into h o_j, at
    the cell (i d + a, j d + b), builds a pair's blocks, a second one their
    imaginary parts; a 1 x 1 block is its eigenvalue, its imaginary part
    held to ``ROUNDOFF_TOL``."""
    reps, orbit = np.unique(label, return_inverse=True)
    if (np.bincount(orbit) != order).any():
        raise ValueError(f"the symmetries do not act freely: an orbit has other than {order} points")
    m, ends = len(reps), graph.slots[reps]
    codes, inverse = np.unique(name[ends], return_inverse=True)
    families = representations(codes)
    if m * sum(len(matrices) * copies * matrices.shape[-1] for matrices, copies in families) != graph.vertex_count:
        raise ValueError("the representations' dimensions do not add up to the number of points")
    weight, spectra = (graph.weights / graph.degree)[:, None, None], []
    for matrices, copies in families:
        count, d, rows = len(matrices), matrices.shape[-1], m * matrices.shape[-1]
        # the cell of block r, row i d + a, column j d + b, for the edge from o_i into orbit j
        row = (np.arange(count)[:, None] * m + np.arange(m))[..., None, None, None] * d + np.arange(d)[:, None]
        cells = (row * rows + (orbit[ends] * d)[..., None, None] + np.arange(d)).ravel()
        values = weight * matrices[:, inverse.reshape(ends.shape)]
        blocks = np.bincount(cells, values.real.ravel(), minlength=count * rows**2)
        if np.iscomplexobj(values):
            blocks = blocks + 1j * np.bincount(cells, values.imag.ravel(), minlength=count * rows**2)
        if rows > 1:
            spectra += [sym_eigenvalues(block, dim_cap) for block in blocks.reshape(count, rows, rows)] * copies
        elif np.max(np.abs(blocks.imag), initial=0.0) > ROUNDOFF_TOL:
            raise ValueError(f"a 1 x 1 block is not real within {ROUNDOFF_TOL:g}")
        else:
            spectra += [blocks.real] * copies
    return np.sort(np.concatenate(spectra))[::-1].copy()


def _fourier_modes(k: int) -> tuple[list[int], range]:
    """The modes q of the characters exp(2 pi i q t / k) of C_k, one per
    conjugate pair q, k - q: the real ones, q = 0 and k / 2, and the
    complex ones, 0 < q < k / 2."""
    return [0] + [k // 2] * (k % 2 == 0), range(1, (k + 1) // 2)


def _fourier_families(k: int, flipped: bool) -> list[tuple[int, int, bool]]:
    """The ``(blocks, d, complex)`` of each family that
    ``fourier_representations`` lists, counted from the modes: with a flip
    the real modes double and the complex ones become real 2 x 2 blocks."""
    real, turns = _fourier_modes(k)
    return [(len(real) * (1 + flipped), 1, False), (len(turns), 1 + flipped, not flipped)]


def fourier_representations(names: np.ndarray, k: int, flipped: bool) -> list[tuple[np.ndarray, int]]:
    """The irreducible representations of C_k = <L>, or of D_k = <L, F>
    when ``flipped``, at the ``names`` t + k s of L^t F^s.  C_k has the
    characters exp(2 pi i q t / k), real at q = 0 and k / 2; q and k - q
    are conjugate, with one spectrum counted twice.  D_k has the
    characters cos(2 pi q t / k) (+-1)^s at q = 0 and k / 2 and, for 0 < q
    < k / 2, the real R(2 pi q t / k) diag(1, -1)^s, R a rotation (Serre,
    *Linear Representations of Finite Groups*, 5.3)."""
    t, s = names % k, names // k
    # q t reduced mod k: exact at every k
    real, turns = (2 * np.pi / k * (np.array(modes)[:, None] * t % k) for modes in _fourier_modes(k))
    characters = np.cos(real)
    if not flipped:
        return [(characters[..., None, None], 1), (np.exp(1j * turns)[..., None, None], 2)]
    sign, cos, sin = (-1.0) ** s, np.cos(turns), np.sin(turns)
    rotations = np.stack([cos, -sin * sign, sin, cos * sign], axis=-1).reshape(*turns.shape, 2, 2)
    return [(np.concatenate([characters, characters * sign])[..., None, None], 1), (rotations, 2)]


def _cycle_minima(images: np.ndarray) -> np.ndarray:
    """Each point x of row i of an ``m x n`` array of permutations labelled
    with i n plus the least point of its cycle, by pointer doubling: the
    rows, offset by n each, are one permutation of range(m n)."""
    m, n = images.shape
    label, jump = np.arange(m * n), (images + n * np.arange(m)[:, None]).ravel()
    for _ in range(max(n - 1, 1).bit_length()):
        # label[x] is the least of x, y(x), ..., y^(2^j - 1)(x); jump is y^(2^j)
        label, jump = np.minimum(label, label[jump]), jump[jump]
    return label.reshape(m, n)


def block_eigenvalues(
    graph: SchreierGraph, left: np.ndarray, flip: Optional[np.ndarray] = None,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """The walk spectrum, sorted descending, from a cyclic or dihedral
    symmetry (``fourier_representations``).  ``left`` is a permutation L,
    commuting with the walk, whose cycles all have one length k: pointer
    doubling labels each point with the least point o of its cycle and
    names L^t(o) t.  ``flip`` is None or an involution F that commutes with
    the walk, inverts L and maps no cycle to itself: an orbit is then a
    cycle and its image, labelled by the lesser least point o, and L^t(c) =
    L^(t - j) F(o), F(o) = L^j(c), is named t - j + k.  L and F must map
    the label and name of L^t F^s o to those of L^(t + 1) F^s o and L^-t
    F^(1 - s) o, which holds just when F is such an involution."""
    n = graph.vertex_count
    _check_dimension(n, dim_cap)
    left = _walk_symmetry(left, graph, "symmetry")
    cycle = _cycle_minima(left[None])[0]
    out, power = np.flatnonzero(cycle == np.arange(n))[:, None], left
    k = n // len(out)
    while out.shape[1] < k:  # out[i, t] = L^t(o_i) for t below its width w, and power is L^w
        out, power = np.concatenate([out, power[out]], axis=1), power[power]
    name = np.zeros(n, dtype=np.intp)
    name[out[:, :k]] = np.arange(k)
    label, order = cycle, k
    if flip is not None:
        flip = _walk_symmetry(flip, graph, "flip")
        label, order = np.minimum(cycle, cycle[flip[cycle]]), 2 * k
        name = np.where(cycle == label, name, (name - name[flip[label]]) % k + k)
        t, s, maps = name % k, name // k, np.stack([left, flip])
        if not ((label[maps] == label).all() and (name[maps] == [(t + 1) % k + k * s, -t % k + k * (1 - s)]).all()):
            raise ValueError("the flip is not an involution that inverts the symmetry and pairs its cycles")
    representations = functools.partial(fourier_representations, k=k, flipped=flip is not None)
    return _representation_spectrum(graph, label, name, order, representations, dim_cap)


@functools.lru_cache(maxsize=None)
def young_forms(r: int) -> tuple[np.ndarray, ...]:
    """Young's orthogonal form of each irreducible representation of S_r,
    by partition: the ``(r - 1) x d x d`` matrices of s_i = (i i+1) on the
    standard tableaux (each the row of 0, ..., r - 1).  With a the content
    of i + 1 less that of i in T, s_i sends T to T / a plus sqrt(1 - 1 /
    a^2) times T with i and i + 1 swapped (James and Kerber, *The
    Representation Theory of the Symmetric Group*, 1981, 3.3)."""
    forms = []
    for shape in _partitions(r):
        tableaux = [()]
        for _ in range(r):
            tableaux = [t + (row,) for t in tableaux for row in range(len(shape))
                        if t.count(row) < shape[row] and (row == 0 or t.count(row - 1) > t.count(row))]
        place = {t: b for b, t in enumerate(tableaux)}
        content = np.array([[t[:v].count(row) - row for v, row in enumerate(t)] for t in tableaux])
        form = np.zeros((r - 1, len(tableaux), len(tableaux)))
        for i in range(r - 1):
            axial = content[:, i + 1] - content[:, i]
            np.fill_diagonal(form[i], 1 / axial)
            for b, t in enumerate(tableaux):
                if abs(axial[b]) > 1:
                    form[i, b, place[t[:i] + (t[i + 1], t[i]) + t[i + 2 :]]] = math.sqrt(1 - axial[b] ** -2.0)
        form.flags.writeable = False  # shared by every caller through the cache
        forms.append(form)
    return tuple(forms)


def reduced_words(perms: np.ndarray) -> np.ndarray:
    """Reduced words of the rows of a ``u x r`` array of permutations
    (``(p * q)[x] = q[p[x]]``), as the ``u x (r - 1)`` counts v_j of values
    above j before it: moving each j to place j by swaps of neighbours
    factors a row as A_0 * ... * A_(r-2), A_j = s_(j+v_j-1) * ... * s_j."""
    r = perms.shape[1]
    where = np.argsort(perms, axis=1)  # the place of each value
    larger_before = (perms[:, None, :] > np.arange(r)[:, None]) & (np.arange(r) < where[:, :, None])
    return larger_before.sum(axis=2)[:, :-1]


def young_matrices(form: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The matrices of Young's orthogonal ``form`` at the permutations of
    ``reduced_words`` ``words``, all at once: rho(p) is the product of the
    rho(A_j), each looked up among the r - j of its j."""
    d, out = form.shape[-1], np.eye(form.shape[-1])
    for j, v in enumerate(words.T):
        factors = itertools.accumulate(form[j:], lambda acc, s: s @ acc, initial=np.eye(d))
        out = out @ np.array(list(factors))[v]
    return np.broadcast_to(out, (len(words), d, d))


def symmetric_block_eigenvalues(
    graph: SchreierGraph, generators: list[int], points: list[int], dim_cap: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """The walk spectrum, sorted descending, from a symmetric group K
    acting freely on the cosets (``symmetric_group``): t and c of
    ``generators`` act on the fixed ``points`` f_i as (f_1 f_2) and (f_r
    ... f_1).  Their left maps must commute with the walk
    (``_walk_symmetry``) and make orbits of r! points.  The members of a
    coset Hx agree on the f_i, so with o_j the least point of its orbit,
    the point k o_j is named by the p with x(f_i) = o_j(f_p(i)); t and c
    must act on the names as s_0 * p and c * p.  The names are encoded once
    as sum_i p(i) r^i, and the engine (``_representation_spectrum``) takes,
    per irreducible representation rho of S_r, d_rho copies of a real
    symmetric block of m d_rho rows for m orbits, from Young's orthogonal
    form at the edges of the o_j (``young_matrices``), whose reduced words
    are found once for every rho."""
    n, r = graph.vertex_count, len(points)
    _check_dimension(n, dim_cap)
    maps = [_walk_symmetry(graph.action.left_action_of_index(g), graph, "symmetry") for g in generators]
    label = _orbit_minima(maps, n)
    on_points = graph.group.images[graph.action.transversal.rep_indices][:, points]
    name = (on_points[:, :, None] == on_points[label][:, None, :]).argmax(axis=2)
    t, c = maps
    if not (np.array_equal(name[t], name[:, np.r_[1, 0, 2:r]]) and np.array_equal(name[c], np.roll(name, 1, axis=1))):
        raise ValueError("the generators do not act on the fixed points as (f_1 f_2) and (f_r ... f_1)")
    place = r ** np.arange(r)

    def representations(codes: np.ndarray) -> list[tuple[np.ndarray, int]]:
        words = reduced_words(codes[:, None] // place % r)
        return [(young_matrices(form, words)[None], form.shape[-1]) for form in young_forms(r)]

    return _representation_spectrum(graph, label, name @ place, math.factorial(r), representations, dim_cap)


def quotient_table(maps: np.ndarray) -> np.ndarray:
    """The multiplication table of the group K of left ``maps`` (``k x n``,
    the identity first), read off the orbit of point 0: ``table[a, b]`` is
    the c with (a b) 0 = a (b 0) = c 0, -1 where no map carries 0 there."""
    where = np.full(maps.shape[1], -1)
    where[maps[:, 0]] = np.arange(len(maps))
    return where[maps[:, maps[:, 0]]]


def real_representations(table: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """The real irreducible representations of the group with multiplication
    ``table`` (0 the identity) in its right regular representation M, M_h V
    = V[table[:, h]], as families for ``_representation_spectrum``: ``(R x
    |K| x d x d, copies)``, R classes of orthogonal matrices that each occur
    ``copies`` times.  By Dixon's method (Math. Comp. 24, 1970), A = sum_a
    M_a X M_a^T, X symmetric from a fixed seed, commutes with M, and for a
    generic X its eigenspaces, cut where the eigenvalues part by more than
    ``SPLIT_GAP`` of the largest, are irreducible; each is checked to be
    invariant, M_h V = V rho(h) within ``GAP_TOL``, rho(h) = V^T M_h V.
    Copies of one representation, real, complex or quaternionic (Serre,
    *Linear Representations of Finite Groups*, 13.2), share a character,
    rounded to ``CHARACTER_DIGITS`` digits, and their blocks a spectrum."""
    x = np.random.default_rng(0).standard_normal(table.shape)
    values, vectors = np.linalg.eigh(sum((x + x.T)[np.ix_(column, column)] for column in table.T))
    classes: dict[bytes, list] = {}
    for basis in np.split(vectors, np.flatnonzero(np.diff(values) > SPLIT_GAP * np.abs(values).max()) + 1, axis=1):
        moved = basis[table.T]  # moved[h] is M_h V
        rho = basis.T @ moved
        if np.abs(moved - basis @ rho).max() > GAP_TOL:
            raise ValueError(f"an eigenspace of the averaged matrix is not invariant within {GAP_TOL:g}")
        character = np.round(np.trace(rho, axis1=1, axis2=2), CHARACTER_DIGITS) + 0.0  # no -0.0
        classes.setdefault(character.tobytes(), [rho, 0])[1] += 1
    shapes = sorted({(rho.shape[-1], copies) for rho, copies in classes.values()})
    return [(np.stack([rho for rho, c in classes.values() if (rho.shape[-1], c) == (d, copies)]), copies)
            for d, copies in shapes]


def quotient_block_eigenvalues(
    graph: SchreierGraph, maps: np.ndarray, families: list[tuple[np.ndarray, int]], dim_cap: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """The walk spectrum, sorted descending, from the left ``maps`` of K =
    N_G(H)/H (``normalizer_quotient``), each checked to commute with the
    walk (``_walk_symmetry``).  A point v is labelled by the least of its
    images, the least point o of its orbit, and named by the k with v = k
    o; every map must move the labels and names as K's elements move under
    the table read off the orbit of point 0 (``quotient_table``): k (l o) =
    (k l) o.  The engine takes K's ``families`` (``real_representations``
    of that table), one real block of m d rows per class."""
    n = graph.vertex_count
    _check_dimension(n, dim_cap)
    maps = np.array([_walk_symmetry(left, graph, "symmetry") for left in maps])
    label, name, table = maps.min(axis=0), np.zeros(n, dtype=np.intp), quotient_table(maps)
    name[maps[:, label == np.arange(n)]] = np.arange(len(maps))[:, None]
    if not ((label[maps] == label).all() and (name[maps] == table[:, name]).all()):
        raise ValueError("the maps do not move the names as they move the elements of K")
    return _representation_spectrum(
        graph, label, name, len(maps), lambda codes: [(rhos[:, codes], copies) for rhos, copies in families], dim_cap
    )


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues in descending order plus the derived expansion figures.

    ``gap`` is 1 - lambda_2 clamped into [0, 2] to keep round-off from
    flipping signs in later log-space comparisons.  ``two_sided_lambda`` is
    the largest nontrivial eigenvalue magnitude.  A single-vertex graph has
    no nontrivial spectrum; by convention its lambda figures are 0 and its
    gap is 2, the empty-supremum reading (all eigenvalues sit in [-1, 1])
    that keeps the gap monotone under induction to subgroups.
    """

    eigenvalues: tuple[float, ...]
    lambda2: float
    lambda_min: float
    gap: float
    two_sided_lambda: float


def _price(n: int, order: int, families: list[tuple[int, int, bool]]) -> float:
    """The cost of solving the walk by blocks of a group K of ``order``
    elements: the sum of rows^3 over the blocks the engine solves, each
    family's ``(blocks, d, complex)`` giving blocks of m d rows for m = n /
    |K| orbits, a complex block counted 3 (about three real ``eigvalsh`` of
    its size)."""
    return sum(blocks * (1 + 2 * complex_) * (n / order * d) ** 3 for blocks, d, complex_ in families)


def symmetric_group(action: CosetAction) -> Optional[tuple[list[int], list[int]]]:
    """``(generators, points)``: the indices of t = (f_1 f_2) and c = (f_r
    ... f_1) = t_1 ... t_(r-1), t_i = (f_i f_i+1), which generate Sym(F), F
    the points fixed by H's generators, when G holds them; else of t and c
    times (a b)^sign, a and b the last two points of F, a copy of S_r in
    the even permutations; or None.  This K centralises H, so its left
    maps permute the cosets freely and commute with the walk: r >= 2 and
    r! divides the coset count."""
    degree = action.group.degree
    fixed = np.flatnonzero((action.stabilizer.generator_images == np.arange(degree)).all(axis=0))
    for points, tail in ((fixed, fixed[:0]), (fixed[:-2], fixed[-2:])):
        r = len(points)
        if r < 2 or action.n_points % math.factorial(r):
            continue
        rows = np.tile(np.arange(degree, dtype=np.int32), (2, 1))
        rows[0, points[:2]], rows[1, points] = points[1::-1], np.roll(points, 1)
        rows[0, tail] = rows[1 - r % 2, tail] = tail[::-1]  # t's; and c's for even r
        found = action.group._find(rows)
        if found is not None:
            return found, points.tolist()
    return None


def _normaliser(action: CosetAction) -> np.ndarray:
    """The ascending element indices of N_G(H), H the stabilizer
    (``FiniteGroup.normaliser``)."""
    members = np.flatnonzero(action.transversal.slot_of == action.base_point)
    return action.group.normaliser(members, action.group._indices_of_rows(action.stabilizer.generator_images))


def normalizer_quotient(action: CosetAction, normaliser: Optional[np.ndarray] = None) -> np.ndarray:
    """The left maps Hx -> Hyx of K = N_G(H)/H, a ``|K| x n`` array, by the
    least y of each coset of H in N_G(H) (``normaliser``, found unless
    given), the identity first, in one outer ``products`` read."""
    if normaliser is None:
        normaliser = _normaliser(action)
    t = action.transversal
    elements = normaliser[np.unique(t.slot_of[normaliser], return_index=True)[1]]
    return t.slot_of[action.group.products(elements, t.rep_indices, outer=True)]


def block_symmetry(action: CosetAction, normaliser: Optional[np.ndarray] = None) -> tuple[int, int, Optional[int]]:
    """``(y, k, z)``: the symmetry of N_G(H) whose blocks cost least to
    solve (``_price``).  Left multiplication by y permutes the cosets freely
    in cycles of length k, the order of yH in N_G(H)/H, commuting with the
    right action; z is None or the least element of N_G(H) outside <y>H with
    z^2 and z y z^-1 y (given z^2, (zy)^2) in H, so that <yH, zH> is
    dihedral.  N_G(H) is ``normaliser`` (by default
    ``FiniteGroup.normaliser``); coset orders are found in index order, in
    batches of doubling size; one equal to |N_G(H):H| makes N_G(H)/H cyclic,
    without z, and returns at once.  Otherwise each order, descending, is
    tried with its least y and the least z of one pass over N_G(H), until
    the dihedral cost, which grows as the order falls, is no better than the
    best found.  ``(0, 1, None)`` means H is self-normalising."""
    group, slot_of, n = action.group, action.transversal.slot_of, action.n_points
    in_h = slot_of == action.base_point
    candidates = _normaliser(action) if normaliser is None else normaliser
    index = len(candidates) // action.stabilizer.order
    orders = np.ones(len(candidates), dtype=np.int64)  # candidates[0] is the identity
    start = 1
    while start < len(candidates) and orders.max() < index:
        orders[start : 2 * start] = _coset_orders(action, candidates[start : 2 * start], in_h, index)
        start *= 2
    k = int(orders.max())
    best = (int(candidates[np.argmax(orders)]), k, None)
    if k == index:
        return best
    cost = _price(n, k, _fourier_families(k, False))
    for order in sorted(set(orders.tolist()), reverse=True):
        dihedral = _price(n, 2 * order, _fourier_families(order, True))
        if dihedral >= cost:
            break
        y = int(candidates[np.argmax(orders == order)])
        powers = list(itertools.accumulate([y] * (order - 1), group.mult, initial=0))
        z = candidates[~np.isin(slot_of[candidates], slot_of[powers])]
        z = z[in_h[group.products(z, z)]]
        zy = group.products(z, y)
        z = z[in_h[group.products(zy, zy)]]
        if len(z):
            best, cost = (y, order, int(z[0])), dihedral
    return best


def _coset_orders(action: CosetAction, elements: np.ndarray, in_h: np.ndarray, index: int) -> np.ndarray:
    """For each element y of N_G(H), the least t >= 1 with y^t in H
    (``in_h`` marks H's members).  The t with y^t in H are the multiples of
    that least one, and y^b is in H for b = gcd(``index`` = |N_G(H):H|, y's
    order as a permutation); so for each y only the proper divisors of its
    b are tried, in ascending order, and b stands when none is in H.  When
    H is trivial, y^t is in H only for t a multiple of y's order, so the b
    are the orders, returned at once."""
    generators = action.group.images[elements]
    bound = np.gcd(index, _permutation_orders(generators))
    if action.stabilizer.order == 1:
        return bound
    orders = bound.copy()
    steps = {d for b in set(bound.tolist()) for d in range(1, b) if b % d == 0}
    for t in sorted(steps):
        test = np.flatnonzero((orders == bound) & (bound % t == 0) & (bound > t))
        if len(test):
            home = in_h[action.group._indices_of_rows(_power_images(generators[test], t))]
            orders[test[home]] = t
    return orders


def _permutation_orders(images: np.ndarray) -> np.ndarray:
    """Order of each row of an ``m x degree`` image array: the lcm of its
    cycle lengths.  Pointer doubling labels each point with the least point
    of its cycle (``_cycle_minima``), and a cycle's length is its label's
    count."""
    lengths = np.bincount(_cycle_minima(images).ravel(), minlength=images.size).reshape(images.shape)
    return np.lcm.reduce(np.maximum(lengths, 1), axis=1)


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


def _least_degree(k: int) -> int:
    """The least degree of a permutation whose order k divides: the sum of
    the prime powers in k, one cycle of length p^a for each."""
    total = 0
    while k > 1:
        p, power = _least_prime_factor(k), 1
        while k % p == 0:
            k, power = k // p, power * p
        total += power
    return total


def _dihedral_floor(n: int, orders) -> float:
    """The least price of cyclic or dihedral blocks for an order k of yH in
    ``orders``: dihedral blocks of order 2k cost no more than cyclic ones of
    order k."""
    return min((_price(n, 2 * k, _fourier_families(k, True)) for k in orders if k > 1), default=math.inf)


def _block_spectrum(graph: SchreierGraph, dim_cap: int) -> Optional[np.ndarray]:
    """The walk spectrum by the symmetry whose blocks cost least
    (``_price``), or None for the dense path; a tie goes to Young's form,
    then to cyclic or dihedral blocks.  K = N_G(H)/H is skipped when H is
    trivial (K = G, and Dixon's |K|^3 is n^3) or K is S_r (N_G(H) fixes the
    set F of H's fixed points, so |K| <= |F|! (degree - |F|)! / |H|), and
    Dixon's step runs only when |K|^3 is below the price of S_r and of
    cyclic blocks of K's largest order.  Cyclic or dihedral blocks are
    searched only when some order k of yH could win: k is an order in K,
    or, without K, a divisor of n (y moves the cosets in cycles of length k)
    that divides the order of a permutation of the degree."""
    n, action = graph.vertex_count, graph.action
    stabilizer, degree = action.stabilizer, graph.group.degree
    found, cost, price, normaliser = symmetric_group(action), math.inf, math.inf, None
    if found is not None:
        r = len(found[1])
        cost = _price(n, math.factorial(r), [(1, form.shape[-1], False) for form in young_forms(r)])
    divisors = ((i, n // i) for i in range(1, math.isqrt(n) + 1) if n % i == 0)
    least = _dihedral_floor(n, [k for pair in divisors for k in pair if _least_degree(k) <= degree])
    fixed = int((stabilizer.generator_images == np.arange(degree)).all(axis=0).sum())
    bound = math.factorial(fixed) * math.factorial(degree - fixed) // stabilizer.order
    if stabilizer.order > 1 and (found is None or bound > math.factorial(r)):
        normaliser = _normaliser(action)
        maps = normalizer_quotient(action, normaliser)
        table = quotient_table(maps)
        orders = _permutation_orders(table)  # row a of the table is left multiplication by a
        top = int(orders.max())
        least = _dihedral_floor(n, set(orders.tolist()))
        if len(maps) ** 3 < min(cost, _price(n, top, _fourier_families(top, False))):
            families = real_representations(table)
            price = _price(n, len(maps), [(len(rhos), rhos.shape[-1], False) for rhos, _ in families])
    y, k, z = block_symmetry(action, normaliser) if least < min(cost, price) else (0, 1, None)
    fourier = _price(n, k * (1 + (z is not None)), _fourier_families(k, z is not None))
    if price < min(cost, fourier):
        return quotient_block_eigenvalues(graph, maps, families, dim_cap)
    if cost <= fourier:
        return symmetric_block_eigenvalues(graph, *found, dim_cap)
    if k > 1:
        left = action.left_action_of_index
        return block_eigenvalues(graph, left(y), None if z is None else left(z), dim_cap)
    return None


def spectral_summary(graph: SchreierGraph, dim_cap: int = DEFAULT_DIM_CAP) -> SpectralSummary:
    _check_dimension(graph.vertex_count, dim_cap)
    eigenvalues = _block_spectrum(graph, dim_cap) if graph.vertex_count >= BLOCK_FLOOR else None
    if eigenvalues is None:
        eigenvalues = sym_eigenvalues(graph.walk, dim_cap=dim_cap)
    leading = eigenvalues[0]
    if abs(leading - 1.0) > GAP_TOL:
        raise ValueError(f"leading eigenvalue {leading} is not 1; bad walk matrix")
    if eigenvalues[-1] < -1.0 - GAP_TOL:
        raise ValueError(f"eigenvalue {eigenvalues[-1]} below -1; bad walk matrix")
    if len(eigenvalues) == 1:
        return SpectralSummary((float(leading),), lambda2=0.0, lambda_min=0.0, gap=2.0, two_sided_lambda=0.0)
    lambda2 = float(eigenvalues[1])
    lambda_min = float(eigenvalues[-1])
    gap = min(max(1.0 - lambda2, 0.0), 2.0)
    return SpectralSummary(
        eigenvalues=tuple(float(v) for v in eigenvalues),
        lambda2=lambda2,
        lambda_min=lambda_min,
        gap=gap,
        two_sided_lambda=max(abs(lambda2), abs(lambda_min)),
    )


def rayleigh_quotient(matrix: np.ndarray, vector: np.ndarray) -> float:
    """<Mv, v> / <v, v>, a weighted average of eigenvalues of M."""
    matrix = np.asarray(matrix, dtype=float)
    vector = np.asarray(vector, dtype=float)
    if vector.ndim != 1 or vector.shape[0] != matrix.shape[0]:
        raise ValueError("vector dimension does not match the matrix")
    norm_sq = float(vector @ vector)
    if norm_sq == 0.0:
        raise ValueError("rayleigh quotient of the zero vector is undefined")
    return float(vector @ (matrix @ vector)) / norm_sq


def dump_matrix(matrix: np.ndarray) -> str:
    """Plain-text matrix dump: first line n, then n rows of n entries."""
    matrix = np.asarray(matrix, dtype=float)
    rows = (" ".join(f"{v:.17g}" for v in row) for row in matrix)
    return "\n".join([str(len(matrix)), *rows]) + "\n"
