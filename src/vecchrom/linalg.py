"""Dense symmetric matrix kernels: symmetrization and eigendecomposition.

Every eigendecomposition goes through LAPACK (``numpy.linalg.eigh``).
Eigenvalues come back sorted in descending order together with
orthonormal eigenvectors; the projector onto the least eigenspace is
built on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

SYMMETRY_TOL = 1e-12


def symmetrize(M, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Return (M + M^T)/2 after checking M is symmetric within tol."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    if M.size:
        scale = max(1.0, float(np.abs(M).max()))
        skew = float(np.abs(M - M.T).max())
        if skew > tol * scale:
            raise DomainError(f"matrix asymmetry {skew:.3e} exceeds tolerance")
    return (M + M.T) / 2.0


@dataclass
class Spectrum:
    """Eigendecomposition of a real symmetric matrix.

    ``eigenvalues`` are sorted descending and ``eigenvectors`` holds the
    matching orthonormal columns.  Eigenvalues closer than
    ``tol * (1 + spread)`` to their neighbour share an eigenspace.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tol: float

    @property
    def greatest(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def least(self) -> float:
        return float(self.eigenvalues[-1])

    def least_eigenspace(self) -> tuple[np.ndarray, int]:
        """Orthogonal projector onto the least eigenspace, and its rank."""
        vals = self.eigenvalues
        gap = self.tol * (1.0 + float(vals[0] - vals[-1]))
        splits = np.flatnonzero(vals[:-1] - vals[1:] > gap)
        block = self.eigenvectors[:, splits[-1] + 1 if splits.size else 0:]
        P = block @ block.T
        return (P + P.T) / 2.0, block.shape[1]


def eig_sym(M, tol: float = 1e-6) -> Spectrum:
    """Full spectrum of a symmetric matrix via LAPACK ``eigh``.

    ``tol`` controls only the grouping of nearby eigenvalues into shared
    eigenspaces.  A LAPACK failure raises :class:`ConvergenceError`.
    """
    M = symmetrize(M)
    if M.shape[0] == 0:
        return Spectrum(np.array([]), np.zeros((0, 0)), tol)
    if not np.isfinite(M).all():
        raise DomainError("matrix entries must be finite")
    try:
        vals, vecs = np.linalg.eigh(M)  # ascending
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    return Spectrum(vals[::-1], vecs[:, ::-1], tol)
