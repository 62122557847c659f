"""Full walk spectra and the gap summary of a walk matrix.

The full spectrum is computed rather than extremal eigenvalues only: desk
scale makes that affordable, and spectrum-containment checks need all of it.

A graph with fewer than ``BLOCK_FLOOR`` (512) points gets one dense
``eigvalsh``.  From that size on, ``spectral_summary`` first asks for a
symmetry (``CosetAction.block_symmetry``): left multiplication by y in the
normaliser N_G(H) permutes the cosets (Hx -> Hyx) freely in cycles of
length k and commutes with the walk, which is so block-circulant, one
Hermitian block of size n/k per Fourier mode (Babai, J. Combin. Theory B
27, 1979).  A z in N_G(H) inverting y modulo H makes <y, z> dihedral, with
real irreducible representations (Serre, *Linear Representations of Finite
Groups*, 5.3): pairing each cycle with its image under z makes every block
real symmetric and halves modes 0 and k/2 (``block_eigenvalues``).  A
complex ``eigvalsh`` costs about three real ones of its size, so y and z
are chosen by the sum of dim^3 over the blocks, a complex block counted 3.
Each symmetry is checked exactly on the graph's slot table, column by
column, and the slot rows of one point per cycle fill the blocks, each
real part of every mode one weighted bincount, so no n x n array, and no
array of n entries per block row, is built; the dimension cap binds
first.  When N_G(H) = H the dense path runs.  Small graphs stay dense
because the set-up costs more than it saves (best of 5, three runs, one
BLAS thread, 2-vCPU Xeon): the symmetry search and cyclic blocks took
2.0-3.3 against 0.56-0.87 ms on heisenberg:5 (125 points, k = 5) and
13-18 against 5.9-7.0 ms on heisenberg:7 (343, k = 7).  Real blocks
take the eigenvalues of sym:7 on the cosets of (2 7) (2520 points,
k = 6) from 74-89 to 25-33 ms against complex ones, and of alt:7
regular (k = 6, as no element of A7 inverts a 7-cycle; complex k = 7)
from 54-58 to 23-32 ms.

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

``BLOCK_FLOOR`` (512) is the least number of points at which the spectrum
is taken block by block; every graph of the sweep lies below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import MatrixTooLargeError
from .permutations import Permutation

if TYPE_CHECKING:
    from .schreier import SchreierGraph

DEFAULT_DIM_CAP = 3000
ROUNDOFF_TOL = 1e-12
LOG_TOL = 1e-9
GAP_TOL = 1e-8
CONTAINMENT_TOL = 1e-6
BLOCK_FLOOR = 512


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
    that commutes with the walk.  One that commutes with every column of
    the slot table (``perm[slots] == slots[perm]``), as left multiplication
    by N_G(H) does, is accepted at once; otherwise the sorted edge ends of
    each point, with multiplicity, must map onto those of its image, which
    also accepts a symmetry that swaps the columns of s and s^-1."""
    perm = np.asarray(perm, dtype=np.intp)
    n, slots = graph.vertex_count, graph.slots
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"the {name} is not a permutation of the points")
    if np.array_equal(perm[slots], slots[perm]):
        return perm
    ends = np.sort(np.repeat(slots, graph.weights, axis=1), axis=1)
    if not np.array_equal(np.sort(perm[ends], axis=1), ends[perm]):
        raise ValueError(f"the {name} does not commute with the walk")
    return perm


def block_eigenvalues(
    graph: SchreierGraph, left: np.ndarray, flip: Optional[np.ndarray] = None,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> np.ndarray:
    """The walk spectrum, sorted descending, from a cyclic or dihedral
    symmetry.

    ``left`` is a permutation L of the points whose cycles all have one
    length k and which commutes with the walk, checked exactly on the slot
    table (it may swap the columns of s and s^-1).  With the cycles laid
    out as ``order[i, t] = L^t(o_i)``, the walk entry between L^s(o_i) and
    L^t(o_j) is c[i, j, t - s mod k], where c[i, j, d] is the weight of
    the edges from o_i to L^d(o_j) over the degree.  So the walk is
    block-circulant, with the spectrum of the k Hermitian blocks
    sum_d c[:, :, d] w^(-q d), w = exp(2 pi i / k); modes q and k - q are
    complex conjugates with one spectrum, so only q <= k / 2 is solved.
    No c is built: the slot rows of the points o_i hold every edge that
    counts, so each real part of every mode is one weighted ``bincount``
    of the edge phases, w cos(2 pi q d / k) and -w sin(2 pi q d / k) for
    an edge of weight w, into the cells (i, j).

    ``flip`` is None or an involution F that commutes with the walk, with
    F L = L^-1 F, mapping no cycle to itself.  Cycle i is then paired with
    the cycle of F(o_i), its base point; with the pairs laid out first, the
    partners' rows of c are the pairs' reflected in d, so only the pairs'
    are read, and each mode block is [[A, B], [conj B, conj A]].  For the
    modes S = A + B and T = A - B, it is unitarily similar to the real
    symmetric [[Re S, -Im T], [Im S, Re T]] = [[Re A + Re B, Im B - Im A],
    [Im A + Im B, Re A - Re B]]; a real mode (q = 0, k / 2) splits into S
    and T.  An edge into the partner of pair j counts in cell (i, j) of S
    with its sign and of T with the opposite one.  Blocks above 1 x 1 go
    through ``sym_eigenvalues``; a 1 x 1 block is its eigenvalue, its
    imaginary part held to ``ROUNDOFF_TOL``.
    """
    n = graph.vertex_count
    _check_dimension(n, dim_cap)
    left = _walk_symmetry(left, graph, "symmetry")
    cycles = Permutation._raw(tuple(left.tolist())).cycles(include_fixed=True)
    k = len(cycles[0])
    if any(len(cycle) != k for cycle in cycles):
        raise ValueError(f"the symmetry has cycles of other lengths than {k}")
    order = np.array(cycles)  # order[i, t] = L^t(o_i), o_i the least point of cycle i
    m = rows = len(order)
    if flip is not None:
        flip = _walk_symmetry(flip, graph, "flip")
        if not np.array_equal(flip[flip], np.arange(n)):
            raise ValueError("the flip is not an involution")
        if not np.array_equal(flip[left], np.argsort(left)[flip]):
            raise ValueError("the flip does not invert the symmetry")
        partner = np.argsort(order.ravel())[flip[order[:, 0]]] // k  # the cycle of F(o_i)
        if np.any(partner == np.arange(m)):
            raise ValueError("the flip maps a cycle of the symmetry to itself")
        pairs = order[np.arange(m) < partner]
        # L^t(F(o_i)) = F(L^-t(o_i))
        order, rows = np.concatenate([pairs, flip[pairs][:, -np.arange(k) % k]]), m // 2
    # the edge from o_i along column c ends at L^d(o_j), which sits at j * k + d
    cycle, d = np.divmod(np.argsort(order.ravel())[graph.slots[order[:rows, 0]]], k)
    weight = np.broadcast_to(graph.weights / graph.degree, cycle.shape)
    cells = np.arange(rows)[:, None] * rows + cycle
    if flip is None:
        shape = (rows, rows)
    else:  # the rows of S above those of T, an edge into a partner folded onto its pair
        cells, sign = cells - rows * (cycle >= rows), np.where(cycle < rows, 1, -1)
        cells, weight = np.concatenate([cells, cells + rows * rows]), np.concatenate([weight, weight * sign])
        d, shape = np.concatenate([d, d]), (2 * rows, rows)
    q = np.arange(k // 2 + 1)[:, None, None]
    phase = 2 * np.pi / k * (q * d % k)
    cells = (cells + q * shape[0] * shape[1]).ravel()  # mode q's block after those before it

    def part(values: np.ndarray) -> np.ndarray:
        """One real part of every mode's block, by mode."""
        return np.bincount(cells, values.ravel(), minlength=len(q) * shape[0] * shape[1]).reshape(-1, *shape)

    re, im = part(weight * np.cos(phase)), part(-weight * np.sin(phase))
    # modes 0 and k / 2 are real (the coefficients w^(q d) are +-1), the rest complex
    real, complex_ = [0] + [k // 2] * (k % 2 == 0), slice(1, (k + 1) // 2)
    if flip is None:
        groups = [(re[real], 1), (re[complex_] + 1j * im[complex_], 2)]  # mode k - q counted with q
    else:
        s, t = slice(None, rows), slice(rows, None)
        forms = np.block([[re[complex_, s], -im[complex_, t]], [im[complex_, s], re[complex_, t]]])
        groups = [(re[real].reshape(-1, rows, rows), 1), (forms, 2)]
    del re, im  # the blocks are copies: free the parts before solving
    spectra = []
    for blocks, times in groups:
        if blocks.shape[-1] > 1:
            spectra += [sym_eigenvalues(block, dim_cap) for block in blocks] * times
        elif np.max(np.abs(blocks.imag), initial=0.0) > ROUNDOFF_TOL:
            raise ValueError(f"a 1 x 1 block is not real within {ROUNDOFF_TOL:g}")
        else:
            spectra += [blocks.real.ravel()] * times
    return np.sort(np.concatenate(spectra))[::-1].copy()


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


def spectral_summary(graph: SchreierGraph, dim_cap: int = DEFAULT_DIM_CAP) -> SpectralSummary:
    _check_dimension(graph.vertex_count, dim_cap)
    y, k, z = graph.action.block_symmetry() if graph.vertex_count >= BLOCK_FLOOR else (0, 1, None)
    if k > 1:
        left = graph.action.left_action_of_index
        eigenvalues = block_eigenvalues(graph, left(y), None if z is None else left(z), dim_cap)
    else:
        eigenvalues = sym_eigenvalues(graph.walk, dim_cap=dim_cap)
    leading = eigenvalues[0]
    if abs(leading - 1.0) > GAP_TOL:
        raise ValueError(f"leading eigenvalue {leading} is not 1; bad walk matrix")
    if eigenvalues[-1] < -1.0 - GAP_TOL:
        raise ValueError(f"eigenvalue {eigenvalues[-1]} below -1; bad walk matrix")
    if len(eigenvalues) == 1:
        return SpectralSummary(
            eigenvalues=(float(leading),),
            lambda2=0.0,
            lambda_min=0.0,
            gap=2.0,
            two_sided_lambda=0.0,
        )
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
    n = matrix.shape[0]
    lines = [str(n)]
    for row in matrix:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
