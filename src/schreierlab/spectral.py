"""Full walk spectra and the gap summary of a walk matrix.

The full spectrum is computed rather than extremal eigenvalues only: desk
scale makes that affordable, and spectrum-containment checks need all of it.

A graph with fewer than ``BLOCK_FLOOR`` (512) points gets one dense
``eigvalsh``.  From that size on, ``spectral_summary`` first looks for a
cyclic symmetry: left multiplication by an element y of the normaliser
N_G(H) permutes the cosets (Hx -> Hyx) freely in cycles of length k and
commutes with the walk, so the walk is block-circulant over those cycles
(the cyclic case of the character decomposition of Cayley spectra; Babai,
J. Combin. Theory B 27, 1979).  Each Fourier mode q of that symmetry is a
Hermitian block of size n/k, and the spectrum is the union of the blocks'
spectra (``block_eigenvalues``).  The commutation is checked exactly on
the graph's slot table first, and the blocks are filled from it, so no
n x n array is built; the dimension cap binds before either path runs.
When N_G(H) = H there is no such y and the dense path runs.  Small graphs
stay dense because there the symmetry search and the block set-up cost
more than they save: with one BLAS thread on a 2-vCPU Xeon, heisenberg:5
regular (125 points, k = 5) takes 1.2 ms in blocks against 0.5 ms dense,
heisenberg:7 (343, k = 7) 7.8 against 6.2 ms, sym:6 (720, k = 6) 13
against 45 ms.

Every tolerance in the package is defined here, one per stage.  Outside
this module they are compared only in the ledger of named inequalities,
``inequalities.py``, which gives each inequality its tolerance:

* ``ROUNDOFF_TOL`` (1e-12): figures exact up to a few roundings: the
  symmetry of a walk matrix or of a Hermitian block, theta >= 1, the
  closed-form exponents.
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
from typing import TYPE_CHECKING

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


def block_eigenvalues(
    graph: SchreierGraph, left: np.ndarray, dim_cap: int = DEFAULT_DIM_CAP
) -> np.ndarray:
    """The walk spectrum, sorted descending, from a cyclic symmetry.

    ``left`` is a permutation L of the points whose cycles must all have
    one length k, and which must commute with the walk: checked exactly on
    the slot table, the sorted edge ends of each point w mapped by L must
    be those of L(w) (L may swap the columns of s and s^-1).  With the
    cycles laid out as ``order[i, t] = L^t(o_i)``, the walk entry between
    L^s(o_i) and L^t(o_j) is ``c[i, j, t - s mod k]``, where ``c[i, j, d]``
    is the number of edges from o_i to L^d(o_j) over the degree, read off
    the edge ends of the points o_i: n^2 / k entries.  So the walk is
    block-circulant, with the spectrum of the k Hermitian blocks
    ``sum_d c[:, :, d] w^(q d)``, w = exp(2 pi i / k); modes q and k - q
    are complex conjugates with one spectrum, so only q <= k / 2 is solved,
    each through ``sym_eigenvalues``.
    """
    n = graph.vertex_count
    left = np.asarray(left, dtype=np.intp)
    _check_dimension(n, dim_cap)
    if left.shape != (n,) or not np.array_equal(np.sort(left), np.arange(n)):
        raise ValueError("the symmetry is not a permutation of the points")
    ends = np.sort(np.repeat(graph.slots, graph.weights, axis=1), axis=1)
    if not np.array_equal(np.sort(left[ends], axis=1), ends[left]):
        raise ValueError("the symmetry does not commute with the walk")
    cycles = Permutation._raw(tuple(left.tolist())).cycles(include_fixed=True)
    k = len(cycles[0])
    if any(len(cycle) != k for cycle in cycles):
        raise ValueError(f"the symmetry has cycles of other lengths than {k}")
    order = np.array(cycles)  # order[i, t] = L^t(o_i), o_i the least point of cycle i
    m = len(order)
    place = np.argsort(order.ravel())  # L^t(o_j) sits at j * k + t
    edges = place[ends[order[:, 0]]] + n * np.arange(m)[:, None]
    c = np.bincount(edges.ravel(), minlength=m * n).reshape(m, m, k) / graph.degree
    modes = np.fft.rfft(c, axis=2)
    spectra = []
    for q in range(k // 2 + 1):
        if q == 0 or 2 * q == k:
            # the coefficients w^(q d) are +-1, so the block is real
            spectra.append(sym_eigenvalues(modes[:, :, q].real, dim_cap))
        else:  # mode k - q has the same spectrum
            spectra += [sym_eigenvalues(modes[:, :, q], dim_cap)] * 2
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
    y, k = graph.action.cyclic_symmetry() if graph.vertex_count >= BLOCK_FLOOR else (0, 1)
    if k > 1:
        eigenvalues = block_eigenvalues(graph, graph.action.left_action_of_index(y), dim_cap)
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
