"""Dense symmetric spectra and the gap summary of a walk matrix.

The full spectrum is computed rather than extremal eigenvalues only: desk
scale makes that affordable, and spectrum-containment checks need all of it.

Every tolerance in the package is defined here, one per stage:

* ``ROUNDOFF_TOL`` (1e-12): figures exact up to a few roundings: the
  symmetry of a walk matrix, theta >= 1, the closed-form exponents.
* ``LOG_TOL`` (1e-9): figures that pass through logarithms: theta <= |Omega|,
  the least expanding-set size, the derived-index inequality, the
  counterexample search's gap loss, and Rayleigh quotients against the
  extreme eigenvalues.
* ``GAP_TOL`` (1e-8): a computed eigenvalue against a closed form: gaps
  under their bounds (``gap_obeys``), induced gaps against their parents',
  the cycle oracle, and the walk spectrum's ends at 1 and -1.
* ``CONTAINMENT_TOL`` (1e-6): eigenvalues of two different graphs compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import MatrixTooLargeError

if TYPE_CHECKING:
    from .schreier import SchreierGraph

DEFAULT_DIM_CAP = 3000
ROUNDOFF_TOL = 1e-12
LOG_TOL = 1e-9
GAP_TOL = 1e-8
CONTAINMENT_TOL = 1e-6


def gap_obeys(gap: float, bound: float) -> bool:
    """Whether a measured gap lies under a closed-form bound, up to GAP_TOL."""
    return gap <= bound + GAP_TOL


def sym_eigenvalues(matrix: np.ndarray, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Real spectrum of a symmetric matrix, sorted descending."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] > dim_cap:
        raise MatrixTooLargeError(
            f"dimension {matrix.shape[0]} exceeds the cap of {dim_cap}"
        )
    if np.max(np.abs(matrix - matrix.T)) > ROUNDOFF_TOL:
        raise ValueError(f"matrix is not symmetric within {ROUNDOFF_TOL:g}")
    return np.linalg.eigvalsh(matrix)[::-1].copy()


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
