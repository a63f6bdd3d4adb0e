"""Vector colorings: extraction from a primal SDP matrix, and
verification.

A (strict) vector k-coloring assigns a unit vector to every vertex so
that each edge's inner product equals (is at most) -1/(k-1).  The
strict/non-strict distinction is carried explicitly on the value: the
two notions differ only in "equals" versus "at most", and silent
coercion between them is a historical source of confusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, FeasibilityError, _check_tolerance
from .graphs import Graph, _integer_array
from .linalg import eig_sym

UNIT_NORM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class VectorColoring:
    """Unit vectors (rows) with a target value k and strictness flag."""

    vectors: np.ndarray
    k: float
    strict: bool

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=float)
        if vectors.ndim != 2:
            raise DomainError("vectors must form a 2-d array (one row per vertex)")
        if not 1.0 < self.k < np.inf:
            raise DomainError(f"target value k must be finite and exceed 1, got {self.k}")
        if not np.isfinite(vectors).all():
            raise DomainError("vector entries must be finite")
        if vectors.shape[0]:
            norms = np.linalg.norm(vectors, axis=1)
            worst = float(np.abs(norms - 1.0).max())
            if worst > UNIT_NORM_TOL:
                raise DomainError(f"vectors must be unit norm (off by {worst:.3e})")
        vectors = vectors.copy()
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def edge_target(self) -> float:
        return -1.0 / (self.k - 1.0)


@dataclass(frozen=True, eq=False)
class ClassicalColoring:
    """Vertex colors: integers in 0..m-1."""

    colors: np.ndarray
    m: int

    def __post_init__(self):
        colors = _integer_array(self.colors, "colors")
        if self.m <= 0:
            raise DomainError("number of colors must be positive")
        if colors.size and (colors.min() < 0 or colors.max() >= self.m):
            raise DomainError("colors outside 0..m-1")
        colors = colors.copy()
        colors.setflags(write=False)
        object.__setattr__(self, "colors", colors)


@dataclass
class ColoringReport:
    ok: bool
    k: float
    strict: bool
    worst_edge: tuple | None
    worst_residual: float
    worst_norm_residual: float


def verify_coloring(G: Graph, c: VectorColoring, tol: float = 1e-6) -> ColoringReport:
    """Check the edge inner-product condition of a coloring against G.

    Strict colorings must hit -1/(k-1) exactly (within tol) on every
    edge; non-strict ones must stay at or below it.  Failures come back
    in the report with the worst edge, never as exceptions; a NaN,
    infinite or negative ``tol`` raises :class:`DomainError`.
    """
    _check_tolerance("tol", tol)
    if c.n != G.n:
        raise DimensionError(f"coloring covers {c.n} vertices, graph has {G.n}")
    norms = np.linalg.norm(c.vectors, axis=1) if c.n else np.array([])
    worst_norm = float(np.abs(norms - 1.0).max()) if c.n else 0.0
    gram = c.vectors @ c.vectors.T if c.n else np.zeros((0, 0))
    # the edges in edge_index order, so argmax picks the first worst edge
    e0, e1 = G.edge_index
    res = gram[e0, e1] - c.edge_target
    res = np.abs(res) if c.strict else np.maximum(res, 0.0)
    worst_edge, worst_res = None, 0.0
    if res.size and res.max() > 0.0:
        i = int(np.argmax(res))
        worst_edge, worst_res = (int(e0[i]), int(e1[i])), float(res[i])
    ok = worst_res <= tol and worst_norm <= max(tol, UNIT_NORM_TOL)
    return ColoringReport(ok, c.k, c.strict, worst_edge, worst_res, worst_norm)


def extract_coloring(M, lam: float, tol: float = 1e-6, *, strict: bool = True) -> VectorColoring:
    """Turn a feasible primal SDP matrix into a vector coloring.

    M must have constant diagonal lam - 1 (within tol) and be PSD within
    tol; the Gram vectors, scaled back to unit norm, then color every
    graph whose primal program M solved.
    """
    _check_tolerance("tol", tol)
    M = np.asarray(M, dtype=float)
    if not M.size:
        raise DomainError("cannot extract a coloring from an empty matrix")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    if not 1.0 + tol < lam < np.inf:
        raise DomainError(f"degenerate target value lam = {lam}")
    diag = np.diag(M)
    dev = float(np.abs(diag - (lam - 1.0)).max())
    if dev > tol * max(1.0, lam):
        raise FeasibilityError(
            f"diagonal must equal lam - 1 = {lam - 1.0:.6f}; worst deviation {dev:.3e}"
        )
    vals, vecs = eig_sym(M)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # coordinates by descending eigenvalue
    least, greatest = float(vals[-1]), float(vals[0])
    if least < -tol * max(1.0, greatest):
        raise FeasibilityError(f"matrix is not PSD within tolerance: {least:.3e}")
    keep = vals > tol * greatest
    if not keep.any():
        raise FeasibilityError("matrix has no significant eigenvalues")
    vals = vals[keep]
    vectors = vecs[:, keep] * np.sqrt(vals)
    vectors /= np.sqrt(lam - 1.0)
    # SDP noise leaves norms off by about the solver tolerance
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    return VectorColoring(vectors, float(lam), strict=strict)


def modular_coloring(gc: ClassicalColoring, hc: ClassicalColoring) -> ClassicalColoring:
    """Color (u, v) of the Cartesian product by (g(u) + h(v)) mod m."""
    if gc.m != hc.m:
        raise DomainError(f"color counts differ: {gc.m} vs {hc.m}")
    m = gc.m
    colors = (gc.colors[:, None] + hc.colors[None, :]) % m
    return ClassicalColoring(colors.ravel(), m)

