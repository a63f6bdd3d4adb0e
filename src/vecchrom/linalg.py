"""Dense symmetric matrix kernels: symmetrization and eigendecomposition.

Every eigendecomposition goes through LAPACK (``numpy.linalg.eigh``).
Eigenvalues come back sorted in descending order together with
orthonormal eigenvectors and one projector per distinct eigenvalue.
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

    ``eigenvalues`` are sorted descending, ``eigenvectors`` holds the
    matching orthonormal columns, and ``projectors`` has one orthogonal
    projector per distinct eigenvalue (grouped at the tolerance passed
    to :func:`eig_sym`), aligned with ``distinct``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    distinct: np.ndarray
    projectors: list

    @property
    def greatest(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def least(self) -> float:
        return float(self.eigenvalues[-1])

    def projector_for_least(self) -> np.ndarray:
        return self.projectors[-1]

    def multiplicities(self) -> list[int]:
        return [int(round(np.trace(P))) for P in self.projectors]


def eig_sym(M, tol: float = 1e-6) -> Spectrum:
    """Full spectrum of a symmetric matrix via LAPACK ``eigh``.

    ``tol`` controls only the grouping of nearby eigenvalues into shared
    eigenprojectors.  A LAPACK failure raises :class:`ConvergenceError`.
    """
    M = symmetrize(M)
    n = M.shape[0]
    if n == 0:
        return Spectrum(np.array([]), np.zeros((0, 0)), np.array([]), [])
    if not np.isfinite(M).all():
        raise DomainError("matrix entries must be finite")
    try:
        vals, vecs = np.linalg.eigh(M)  # ascending
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    vals = vals[::-1]
    vecs = vecs[:, ::-1]

    spread = float(vals[0] - vals[-1])
    gap = tol * (1.0 + spread)
    groups = []
    start = 0
    for i in range(1, n):
        if vals[i - 1] - vals[i] > gap:
            groups.append((start, i))
            start = i
    groups.append((start, n))
    distinct = np.array([float(vals[a:b].mean()) for a, b in groups])
    projectors = []
    for a, b in groups:
        block = vecs[:, a:b]
        P = block @ block.T
        projectors.append((P + P.T) / 2.0)
    return Spectrum(vals, vecs, distinct, projectors)
