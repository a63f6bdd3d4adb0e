"""Quantum homomorphism certificates over projective measurements.

A certificate assigns to every source vertex a tuple of complex d x d
orthogonal projectors, one per target vertex, summing to the identity.
Two tuples are compatible across a source edge when, for every ordered
non-adjacent target pair (v, v'), including v = v', the product of the
corresponding projectors vanishes; both multiplication orders are
required to vanish, the conservative reading.

All checks use only products, adjoints and max-norms; no complex
eigendecomposition is ever needed.  Zero blocks are legitimate tuple
parts (rank-0 projectors), which is what makes color padding and the
classical embedding work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParseError, ValidationError
from .graphs import Graph, ProductKind, graph_from_edges, generate, is_homomorphism, load_graph, product
from .colorings import ClassicalColoring, modular_coloring

STRUCT_TOL = 1e-8
ADJ_TOL = 1e-7


def _maxnorm(M: np.ndarray) -> float:
    return float(np.abs(M).max()) if M.size else 0.0


def _nonfinite_witness(arr: np.ndarray) -> dict | None:
    """Witness naming the first NaN or infinite entry, if there is one.

    Residuals of such an array are meaningless (``max(0.0, nan)`` is 0.0),
    so the verifiers reject it before computing any.
    """
    finite = np.isfinite(arr)
    if finite.all():
        return None
    bad = np.argwhere(~finite)
    return {"scope": "entries", "condition": "finite",
            "index": [int(i) for i in bad[0]], "count": len(bad)}


@dataclass(frozen=True, eq=False)
class MeasurementTuple:
    """Projectors indexed by the vertices of the target graph."""

    parts: np.ndarray  # shape (|V(target)|, d, d), complex
    target: Graph

    def __post_init__(self):
        parts = np.asarray(self.parts, dtype=complex)
        if parts.ndim != 3 or parts.shape[1] != parts.shape[2]:
            raise DimensionError("parts must be a (vertices, d, d) array")
        if parts.shape[0] != self.target.n:
            raise DimensionError("one projector per target vertex required")
        parts = parts.copy()
        parts.setflags(write=False)
        object.__setattr__(self, "parts", parts)

    @property
    def d(self) -> int:
        return self.parts.shape[1]


@dataclass(frozen=True, eq=False)
class QuantumHomomorphism:
    """Vertex-indexed family of measurement tuples over a common target."""

    source: Graph
    target: Graph
    d: int
    assignment: np.ndarray  # shape (|V(source)|, |V(target)|, d, d)

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=complex)
        expected = (self.source.n, self.target.n, self.d, self.d)
        if arr.shape != expected:
            raise DimensionError(f"assignment shape {arr.shape}, expected {expected}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)

    def tuple_at(self, u: int) -> MeasurementTuple:
        return MeasurementTuple(self.assignment[u], self.target)


@dataclass
class MeasurementReport:
    ok: bool
    hermitian: float
    idempotent: float
    sum_to_identity: float
    orthogonality: float
    witness: dict | None


@dataclass
class QuantumHomReport:
    ok: bool
    hermitian: float
    idempotent: float
    sum_to_identity: float
    orthogonality: float
    adjacency: float
    witness: dict | None


def verify_measurement(t: MeasurementTuple, tol: float = STRUCT_TOL) -> MeasurementReport:
    """Check Hermitian, idempotent, sum-to-identity, and pairwise
    orthogonality of distinct parts (the latter at 10x tol, since
    products of two approximate projectors carry doubled error)."""
    parts = t.parts
    witness = _nonfinite_witness(parts)
    if witness is not None:
        inf = float("inf")
        return MeasurementReport(False, inf, inf, inf, inf, witness)
    count, d = parts.shape[0], t.d
    herm = idem = 0.0
    for v in range(count):
        E = parts[v]
        h = _maxnorm(E - E.conj().T)
        i = _maxnorm(E @ E - E)
        if h > tol and witness is None:
            witness = {"scope": "tuple", "part": v, "condition": "hermitian", "residual": h}
        if i > tol and witness is None:
            witness = {"scope": "tuple", "part": v, "condition": "idempotent", "residual": i}
        herm = max(herm, h)
        idem = max(idem, i)
    total = parts.sum(axis=0)
    sum_res = _maxnorm(total - np.eye(d))
    if sum_res > tol and witness is None:
        witness = {"scope": "tuple", "condition": "sum_to_identity", "residual": sum_res}
    ortho_tol = 10.0 * tol
    ortho = 0.0
    for v in range(count):
        for w in range(v + 1, count):
            r = max(_maxnorm(parts[v] @ parts[w]), _maxnorm(parts[w] @ parts[v]))
            if r > ortho_tol and witness is None:
                witness = {
                    "scope": "tuple",
                    "condition": "orthogonality",
                    "pair": [v, w],
                    "residual": r,
                }
            ortho = max(ortho, r)
    ok = herm <= tol and idem <= tol and sum_res <= tol and ortho <= ortho_tol
    return MeasurementReport(ok, herm, idem, sum_res, ortho, witness)


def verify_quantum_hom(q: QuantumHomomorphism, tol: float = ADJ_TOL) -> QuantumHomReport:
    """Full certificate check: every tuple is a valid measurement
    (structural tolerance tol/10) and every source edge maps to adjacent
    tuples (tolerance tol).  A NaN or infinite entry fails the check with
    infinite residuals."""
    witness = _nonfinite_witness(q.assignment)
    if witness is not None:
        inf = float("inf")
        return QuantumHomReport(False, inf, inf, inf, inf, inf, witness)
    struct_tol = tol / 10.0
    herm = idem = sums = ortho = adjacency = 0.0
    for u in range(q.source.n):
        rep = verify_measurement(q.tuple_at(u), struct_tol)
        herm = max(herm, rep.hermitian)
        idem = max(idem, rep.idempotent)
        sums = max(sums, rep.sum_to_identity)
        ortho = max(ortho, rep.orthogonality)
        if not rep.ok and witness is None:
            witness = dict(rep.witness or {})
            witness["scope"] = "tuple"
            witness["vertex"] = u
    H = q.target
    for u, u2 in q.source.edges():
        for v in range(H.n):
            for w in range(H.n):
                if H.adj[v, w]:
                    continue
                r = max(
                    _maxnorm(q.assignment[u, v] @ q.assignment[u2, w]),
                    _maxnorm(q.assignment[u2, w] @ q.assignment[u, v]),
                )
                adjacency = max(adjacency, r)
                if r > tol and witness is None:
                    witness = {
                        "scope": "edge",
                        "condition": "adjacency",
                        "edge": [u, u2],
                        "pair": [v, w],
                        "residual": r,
                    }
    ok = (
        herm <= struct_tol
        and idem <= struct_tol
        and sums <= struct_tol
        and ortho <= 10 * struct_tol
        and adjacency <= tol
    )
    return QuantumHomReport(ok, herm, idem, sums, ortho, adjacency, witness)


def classical_embedding(G: Graph, H: Graph, f) -> QuantumHomomorphism:
    """The d = 1 certificate of an ordinary homomorphism f: G -> H.

    The tuple of vertex u has the scalar 1 at coordinate f(u) and 0
    elsewhere.
    """
    ok, bad = is_homomorphism(G, H, f)
    if not ok:
        raise DomainError(f"map is not a homomorphism; edge {bad} breaks it")
    f = np.asarray(f, dtype=int)
    assignment = np.zeros((G.n, H.n, 1, 1), dtype=complex)
    for u in range(G.n):
        assignment[u, f[u], 0, 0] = 1.0
    return QuantumHomomorphism(G, H, 1, assignment)


def product_qhom(kind: ProductKind | str, q1: QuantumHomomorphism,
                 q2: QuantumHomomorphism) -> QuantumHomomorphism:
    """Tensor certificate for any of the five products.

    Sends the product vertex (u, v) to the tuple whose (w, z) part is
    q1[u][w] x q2[v][z]; source and target products use the same kind
    and the same row-major vertex order.
    """
    kind = ProductKind(kind)
    source = product(kind, q1.source, q2.source)
    target = product(kind, q1.target, q2.target)
    d = q1.d * q2.d
    nF, nK = q1.target.n, q2.target.n
    assignment = np.zeros((source.n, target.n, d, d), dtype=complex)
    for u in range(q1.source.n):
        for v in range(q2.source.n):
            src = u * q2.source.n + v
            for w in range(nF):
                for z in range(nK):
                    assignment[src, w * nK + z] = np.kron(
                        q1.assignment[u, w], q2.assignment[v, z]
                    )
    return QuantumHomomorphism(source, target, d, assignment)


def compose_classical(q: QuantumHomomorphism, H: Graph, f) -> QuantumHomomorphism:
    """Follow a certificate with an ordinary homomorphism f: target -> H.

    The new part at color k is the sum of the parts mapping to k; sums
    of mutually orthogonal projectors are projectors, so validity is
    preserved.
    """
    ok, bad = is_homomorphism(q.target, H, f)
    if not ok:
        raise DomainError(f"map is not a homomorphism; edge {bad} breaks it")
    f = np.asarray(f, dtype=int)
    assignment = np.zeros((q.source.n, H.n, q.d, q.d), dtype=complex)
    for u in range(q.source.n):
        for h in range(q.target.n):
            assignment[u, f[h]] += q.assignment[u, h]
    return QuantumHomomorphism(q.source, H, q.d, assignment)


def _complete_order(H: Graph) -> int:
    if H.edge_count != H.n * (H.n - 1) // 2:
        raise DomainError("target must be a complete graph")
    return H.n


def pad_colors(q: QuantumHomomorphism, n_prime: int) -> QuantumHomomorphism:
    """Promote a quantum n-coloring to n' >= n colors with zero parts."""
    n = _complete_order(q.target)
    if n_prime < n:
        raise DomainError(f"cannot pad from {n} colors down to {n_prime}")
    if n_prime == n:
        return q
    target = generate("complete", n_prime)
    assignment = np.zeros((q.source.n, n_prime, q.d, q.d), dtype=complex)
    assignment[:, :n] = q.assignment
    return QuantumHomomorphism(q.source, target, q.d, assignment)


def quantum_sabidussi(q1: QuantumHomomorphism, q2: QuantumHomomorphism) -> QuantumHomomorphism:
    """Quantum n-coloring of the Cartesian product of two sources.

    Tensor the two colorings over the Cartesian product, then collapse
    K_n x K_n (Cartesian) back to K_n through the modular coloring
    (a, b) -> (a + b) mod n.  Inputs must share the color count; pad the
    smaller one first with :func:`pad_colors`.
    """
    n1 = _complete_order(q1.target)
    n2 = _complete_order(q2.target)
    if n1 != n2:
        raise DomainError(
            f"color counts differ ({n1} vs {n2}); pad the smaller certificate first"
        )
    n = n1
    combined = product_qhom(ProductKind.CARTESIAN, q1, q2)
    idx = np.arange(n)
    modular = modular_coloring(
        ClassicalColoring(idx, n), ClassicalColoring(idx, n)
    )
    return compose_classical(combined, generate("complete", n), modular.colors)


def conjugate(q: QuantumHomomorphism, U: np.ndarray) -> QuantumHomomorphism:
    """Rotate every part to U E U*; preserves all defining conditions."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (q.d, q.d):
        raise DimensionError(f"unitary shape {U.shape} does not match d = {q.d}")
    Ud = U.conj().T
    assignment = np.einsum("ab,uvbc,cd->uvad", U, q.assignment, Ud)
    return QuantumHomomorphism(q.source, q.target, q.d, assignment)


def tensor_with_identity(q: QuantumHomomorphism, k: int) -> QuantumHomomorphism:
    """Inflate dimension to d * k by tensoring every part with I_k."""
    if k < 1:
        raise DomainError("identity factor must be at least 1")
    eye = np.eye(k, dtype=complex)
    d = q.d * k
    assignment = np.zeros((q.source.n, q.target.n, d, d), dtype=complex)
    for u in range(q.source.n):
        for v in range(q.target.n):
            assignment[u, v] = np.kron(q.assignment[u, v], eye)
    return QuantumHomomorphism(q.source, q.target, d, assignment)


# ---------------------------------------------------------------------------
# Certificate file format (coloring certificates; the target is the
# complete graph on n_colors vertices):
#   {"d": int, "n_colors": int,
#    "graph": {"n": int, "edges": [[u, v], ...]} or a path string,
#    "assignment": per vertex, per color, d x d row-major entries [re, im]}


def certificate_to_json(q: QuantumHomomorphism) -> dict:
    n_colors = _complete_order(q.target)
    assignment = [
        [
            [[[float(x.real), float(x.imag)] for x in row] for row in q.assignment[u, v]]
            for v in range(n_colors)
        ]
        for u in range(q.source.n)
    ]
    return {
        "d": int(q.d),
        "n_colors": int(n_colors),
        "graph": {"n": int(q.source.n), "edges": [[int(u), int(v)] for u, v in q.source.edges()]},
        "assignment": assignment,
    }


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"malformed certificate: {what} must be an integer, got {value!r}")
    return value


def _source_graph(spec, base_dir: str | None) -> Graph:
    if isinstance(spec, str):
        path = spec
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return load_graph(path)
    if not isinstance(spec, dict) or "n" not in spec:
        raise ParseError('malformed certificate: graph must be a path or an {"n", "edges"} object')
    edges = spec.get("edges", [])
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ParseError("malformed certificate: graph edges must be [u, v] pairs")
    return graph_from_edges(_json_int(spec["n"], "graph.n"),
                            [(_json_int(u, "edge endpoint"), _json_int(v, "edge endpoint"))
                             for u, v in edges])


def certificate_from_json(data: dict, base_dir: str | None = None) -> QuantumHomomorphism:
    try:
        d = _json_int(data["d"], "d")
        n_colors = _json_int(data["n_colors"], "n_colors")
        graph_spec = data["graph"]
        raw = data["assignment"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed certificate: {exc}")
    source = _source_graph(graph_spec, base_dir)
    try:
        arr = np.asarray(raw)
    except ValueError as exc:  # ragged nesting
        raise ParseError(f"malformed certificate: assignment is not an array ({exc})")
    if arr.dtype.kind not in "iuf":
        raise ParseError("malformed certificate: assignment entries must be numbers")
    arr = arr.astype(float)
    expected = (source.n, n_colors, d, d, 2)
    if arr.shape != expected:
        raise ValidationError(
            f"assignment shape {arr.shape} does not match declared sizes {expected}"
        )
    assignment = arr[..., 0] + 1j * arr[..., 1]
    return QuantumHomomorphism(source, generate("complete", n_colors), d, assignment)


def save_certificate(path, q: QuantumHomomorphism) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_json(q), fh)


def load_certificate(path) -> QuantumHomomorphism:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"certificate is not valid JSON: {exc}")
    return certificate_from_json(data, base_dir=os.path.dirname(os.fspath(path)))
