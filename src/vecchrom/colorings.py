"""Vector colorings: extraction from a primal SDP matrix, verification,
and the JSON file format.

A (strict) vector k-coloring assigns a unit vector to every vertex so
that each edge's inner product equals (is at most) -1/(k-1).  The
strict/non-strict distinction is carried explicitly on the value: the
two notions differ only in "equals" versus "at most", and silent
coercion between them is a historical source of confusion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, FeasibilityError, ParseError
from .graphs import Graph
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
        if not self.k > 1.0:
            raise DomainError(f"target value k must exceed 1, got {self.k}")
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
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def edge_target(self) -> float:
        return -1.0 / (self.k - 1.0)


@dataclass(frozen=True, eq=False)
class ClassicalColoring:
    """Vertex colors in 0..m-1."""

    colors: np.ndarray
    m: int

    def __post_init__(self):
        colors = np.asarray(self.colors, dtype=int)
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
    in the report with the worst edge, never as exceptions.
    """
    if c.n != G.n:
        raise DimensionError(f"coloring covers {c.n} vertices, graph has {G.n}")
    norms = np.linalg.norm(c.vectors, axis=1) if c.n else np.array([])
    worst_norm = float(np.abs(norms - 1.0).max()) if c.n else 0.0
    gram = c.vectors @ c.vectors.T if c.n else np.zeros((0, 0))
    # the edges in G.edges() order, so argmax picks the first worst edge
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
    M = np.asarray(M, dtype=float)
    if lam <= 1.0 + tol:
        raise DomainError(f"degenerate target value lam = {lam}")
    diag = np.diag(M)
    dev = float(np.abs(diag - (lam - 1.0)).max())
    if dev > tol * max(1.0, lam):
        raise FeasibilityError(
            f"diagonal must equal lam - 1 = {lam - 1.0:.6f}; worst deviation {dev:.3e}"
        )
    spec = eig_sym(M)
    if spec.least < -tol * max(1.0, spec.greatest):
        raise FeasibilityError(f"matrix is not PSD within tolerance: {spec.least:.3e}")
    keep = spec.eigenvalues > tol * spec.greatest
    if not keep.any():
        raise FeasibilityError("matrix has no significant eigenvalues")
    vals = spec.eigenvalues[keep]
    vectors = spec.eigenvectors[:, keep] * np.sqrt(vals)
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


# ---------------------------------------------------------------------------
# JSON file format: {"k": real, "strict": bool, "dim": d,
#                    "vectors": [[...], ...]} in graph index order.


def coloring_to_json(c: VectorColoring) -> dict:
    return {
        "k": float(c.k),
        "strict": bool(c.strict),
        "dim": int(c.dim),
        "vectors": [[float(x) for x in row] for row in c.vectors],
    }


def coloring_from_json(data: dict) -> VectorColoring:
    """Load a coloring, taking ``dim``, ``k`` and ``strict`` only as the
    JSON types they are written as: no string, bool or null coerces."""
    try:
        vectors = np.array(data["vectors"], dtype=float)
        dim, k, strict = data["dim"], data["k"], data["strict"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed vector coloring: {exc}")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError(f"malformed vector coloring: dim must be an integer, got {dim!r}")
    if isinstance(k, bool) or not isinstance(k, (int, float)):
        raise ParseError(f"malformed vector coloring: k must be a number, got {k!r}")
    if not isinstance(strict, bool):
        raise ParseError(f"malformed vector coloring: strict must be true or false, got {strict!r}")
    if vectors.ndim != 2 or vectors.shape[1] != dim:
        raise DomainError("vector dimensions disagree with the declared dim")
    return VectorColoring(vectors, float(k), strict)


def save_coloring(path, c: VectorColoring) -> None:
    text = json.dumps(coloring_to_json(c))  # one call: json.dump encodes in pure Python
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_coloring(path) -> VectorColoring:
    with open(path, "r", encoding="utf-8") as fh:
        return coloring_from_json(json.load(fh))
