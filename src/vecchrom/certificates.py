"""Checkers for certificates of theta-bar and chi-vec bounds.

Each checker takes a graph F and a matrix, checks the matrix against F
afresh (so a product certificate built from its factors' certificates is
checked on the product graph), and returns the bound it certifies on F,
or None.  Every matrix must have F's order, finite entries and symmetry
within ``CERT_TOL``; the conditions each checker names hold to
``CERT_TOL`` as well.  The ``eigvalsh`` tests are plain floating point,
not a verified bound, and a LAPACK failure in ``eigvalsh`` raises
:class:`ConvergenceError`, as in the SDP solver.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .graphs import Graph

CERT_TOL = 1e-9  # entry tolerance of every certificate condition


def _well_formed(F: Graph, X: np.ndarray) -> bool:
    """Shape (n, n) for n > 0, finite, and symmetric within CERT_TOL."""
    return (F.n > 0 and X.shape == (F.n, F.n) and bool(np.isfinite(X).all())
            and float(np.abs(X - X.T).max()) <= CERT_TOL)


def _eigvalsh(X: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(X)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed on a certificate: {exc}") from exc


def dual_form_bound(F: Graph, P: np.ndarray, nonneg: bool) -> float | None:
    """A lower bound from P when P has unit trace, vanishes on F's
    non-edges, has lmin(P) above ``-CERT_TOL`` and, with ``nonneg``, is
    entrywise nonnegative; else None.  The repaired point
    ``(P + d I) / (t + n d)``, d = max(0, -lmin(P)) and t the trace of P, is
    PSD with unit trace and has entry sum ``(S + n d) / (t + n d)`` for the
    entry sum S of P.  The bound takes max(t, 1) in place of t: a trace
    above 1 is divided out, while one below 1 can only lower a positive
    sum (a negative one bounds nothing), so the solver's own rounded
    points certify exactly their objective."""
    if not _well_formed(F, P):
        return None
    trace = float(np.trace(P))
    off = ~(F.adj | np.eye(F.n, dtype=bool))
    if (abs(trace - 1.0) > CERT_TOL or float(np.abs(P[off]).max(initial=0.0)) > CERT_TOL
            or nonneg and float(P.min()) < -CERT_TOL):
        return None
    lmin = float(_eigvalsh(P)[0])
    if lmin <= -CERT_TOL:
        return None
    nd = F.n * max(0.0, -lmin)
    return (float(P.sum()) + nd) / (max(trace, 1.0) + nd)


def witness_bound(F: Graph, M: np.ndarray, nonneg: bool) -> float | None:
    """1 + diagonal of a primal witness M on F, an upper bound widened by
    max(0, -lmin(M)), when the diagonal is constant and the edge entries
    are -1, or at most -1 with ``nonneg``; else None."""
    if not _well_formed(F, M) or float(np.ptp(M.diagonal())) > CERT_TOL:
        return None
    edges = M[F.adj]
    off = edges > -1.0 + CERT_TOL if nonneg else np.abs(edges + 1.0) > CERT_TOL
    if off.any():
        return None
    lmin = float(_eigvalsh(M)[0])
    return 1.0 + float(M.diagonal().max()) + max(0.0, -lmin)


def eigenvalue_bound(F: Graph, W: np.ndarray) -> float | None:
    """Lovasz's eigenvalue form (IEEE Trans. Inf. Theory 1979, Thm. 6):
    1 - lmax(W) / lmin(W), a lower bound on theta-bar, when W vanishes
    off F's edges (diagonal included); else None."""
    if not _well_formed(F, W) or float(np.abs(W[~F.adj]).max()) > CERT_TOL:
        return None
    w = _eigvalsh(W)
    return 1.0 - float(w[-1] / w[0]) if w[0] < 0.0 else 1.0
