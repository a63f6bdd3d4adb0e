"""The checked symmetric eigensolver: one LAPACK ``numpy.linalg.eigh``."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DomainError

SYMMETRY_TOL = 1e-12


def eig_sym(M) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal column eigenvectors of
    (M + M^T)/2, for a square, finite M that is symmetric within
    ``SYMMETRY_TOL`` times max(1, its largest entry); :class:`DomainError`
    otherwise.  A LAPACK failure raises :class:`ConvergenceError`."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise DomainError("matrix entries must be finite")
    if M.size:
        scale = max(1.0, float(np.abs(M).max()))
        skew = float(np.abs(M - M.T).max())
        if skew > SYMMETRY_TOL * scale:
            raise DomainError(f"matrix asymmetry {skew:.3e} exceeds tolerance")
    try:
        return np.linalg.eigh((M + M.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
