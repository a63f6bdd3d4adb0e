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

import gc
import itertools
import json
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParseError, ValidationError
from .graphs import (Graph, ProductKind, decode_json, graph_from_edges, generate, is_homomorphism,
                     load_graph, product, read_text)
from .colorings import ClassicalColoring, modular_coloring

ADJ_TOL = 1e-7
#: Complex entries per block of edges gathered by the adjacency check
#: (1 MiB), so that its working memory does not grow with the edge count.
GATHER_ENTRIES = 1 << 16


def _maxnorms(X: np.ndarray) -> np.ndarray:
    """Max-norm of every trailing square block (0.0 for an empty block)."""
    return np.abs(X).max(axis=(-2, -1), initial=0.0)


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
class QuantumHomomorphism:
    """Vertex-indexed family of measurement tuples over a common target."""

    source: Graph
    target: Graph
    d: int
    assignment: np.ndarray  # shape (|V(source)|, |V(target)|, d, d)

    def __post_init__(self):
        if self.d < 1:
            raise DimensionError(f"dimension d = {self.d}, expected d >= 1")
        arr = np.asarray(self.assignment, dtype=complex)
        expected = (self.source.n, self.target.n, self.d, self.d)
        if arr.shape != expected:
            raise DimensionError(f"assignment shape {arr.shape}, expected {expected}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)


@dataclass
class QuantumHomReport:
    ok: bool
    hermitian: float
    idempotent: float
    sum_to_identity: float
    orthogonality: float
    adjacency: float
    witness: dict | None


def _check_tuples(A: np.ndarray, tol: float):
    """Structural check of every tuple of a finite (vertices, colors, d, d)
    array, each condition batched over the vertices.

    Returns the maxima of the hermitian, idempotent, sum-to-identity and
    orthogonality residuals (the last over color pairs v < w, at 10x tol),
    the first failing vertex and its witness: hermitian before idempotent
    per part, then the sum, then the first orthogonality pair in lex
    order.  The vertex and witness are None when every tuple passes.
    """
    count, d = A.shape[1], A.shape[2]
    herm = _maxnorms(A - A.conj().swapaxes(-1, -2))
    idem = _maxnorms(A @ A - A)
    sums = _maxnorms(A.sum(axis=1) - np.eye(d))
    pairs = list(itertools.combinations(range(count), 2))
    ortho = np.zeros((A.shape[0], len(pairs)))
    for k, (v, w) in enumerate(pairs):
        ortho[:, k] = np.maximum(_maxnorms(A[:, v] @ A[:, w]), _maxnorms(A[:, w] @ A[:, v]))
    ortho_tol = 10.0 * tol
    part_bad = (herm > tol) | (idem > tol)
    pair_bad = ortho > ortho_tol
    failing = np.flatnonzero(part_bad.any(axis=1) | (sums > tol) | pair_bad.any(axis=1))
    maxima = tuple(float(r.max(initial=0.0)) for r in (herm, idem, sums, ortho))
    if not failing.size:
        return maxima, None, None
    u = int(failing[0])
    if part_bad[u].any():
        v = int(np.flatnonzero(part_bad[u])[0])
        condition, r = ("hermitian", herm[u, v]) if herm[u, v] > tol else ("idempotent", idem[u, v])
        witness = {"scope": "tuple", "part": v, "condition": condition, "residual": float(r)}
    elif sums[u] > tol:
        witness = {"scope": "tuple", "condition": "sum_to_identity", "residual": float(sums[u])}
    else:
        k = int(np.flatnonzero(pair_bad[u])[0])
        witness = {"scope": "tuple", "condition": "orthogonality", "pair": list(pairs[k]),
                   "residual": float(ortho[u, k])}
    return maxima, u, witness


def verify_quantum_hom(q: QuantumHomomorphism, tol: float = ADJ_TOL) -> QuantumHomReport:
    """Full certificate check: every tuple is a valid measurement
    (structural tolerance tol/10) and every source edge maps to adjacent
    tuples (tolerance tol).  A NaN or infinite entry fails the check with
    infinite residuals.

    The adjacency products run in a loop over the target's non-adjacent
    pairs (v, w), v = w included, each batched over the source edges in
    both orders, in blocks of at most ``GATHER_ENTRIES`` entries.  A
    tuple failure is the witness when there is one; otherwise the first
    failing edge in ``Graph.edges()`` order and, within it, the first
    pair in row-major order.
    """
    A = q.assignment
    witness = _nonfinite_witness(A)
    if witness is not None:
        inf = float("inf")
        return QuantumHomReport(False, inf, inf, inf, inf, inf, witness)
    struct_tol = tol / 10.0
    (herm, idem, sums, ortho), u, witness = _check_tuples(A, struct_tol)
    if witness is not None:
        witness["vertex"] = u
    e0, e1 = q.source.edge_index  # Graph.edges() order
    pairs = np.argwhere(~q.target.adj)
    residual = np.zeros((len(e0), len(pairs)))
    step = max(1, GATHER_ENTRIES // max(1, q.d * q.d))
    for k, (v, w) in enumerate(pairs):
        for s in range(0, len(e0), step):
            X, Y = A[e0[s:s + step], v], A[e1[s:s + step], w]
            residual[s:s + step, k] = np.maximum(_maxnorms(X @ Y), _maxnorms(Y @ X))
    adjacency = float(residual.max(initial=0.0))
    if adjacency > tol and witness is None:
        e, k = np.argwhere(residual > tol)[0]
        witness = {
            "scope": "edge",
            "condition": "adjacency",
            "edge": [int(e0[e]), int(e1[e])],
            "pair": [int(x) for x in pairs[k]],
            "residual": float(residual[e, k]),
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
    # the broadcast product np.kron performs, for all blocks at once:
    # blocks[u, v, w, z, a, c, b, d] = q1[u, w, a, b] * q2[v, z, c, d]
    A, B = q1.assignment, q2.assignment
    blocks = A[:, None, :, None, :, None, :, None] * B[None, :, None, :, None, :, None, :]
    return QuantumHomomorphism(source, target, d, blocks.reshape(source.n, target.n, d, d))


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
    np.add.at(assignment, (slice(None), f), q.assignment)  # in target-vertex order
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
    blocks = q.assignment[:, :, :, None, :, None] * eye[:, None, :]  # np.kron(part, eye)
    return QuantumHomomorphism(q.source, q.target, d,
                               blocks.reshape(q.source.n, q.target.n, d, d))


# ---------------------------------------------------------------------------
# Certificate file format (coloring certificates; the target is the
# complete graph on n_colors vertices):
#   {"d": int, "n_colors": int,
#    "graph": {"n": int, "edges": [[u, v], ...]} or a path string,
#    "assignment": per vertex, per color, d x d row-major entries [re, im]}


def certificate_to_json(q: QuantumHomomorphism) -> dict:
    n_colors = _complete_order(q.target)
    assignment = np.stack((q.assignment.real, q.assignment.imag), axis=-1).tolist()
    return {
        "d": int(q.d),
        "n_colors": int(n_colors),
        "graph": {"n": int(q.source.n), "edges": np.column_stack(q.source.edge_index).tolist()},
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
    if (not isinstance(edges, list) or set(map(type, edges)) - {list}
            or set(map(len, edges)) - {2}):
        raise ParseError("malformed certificate: graph edges must be [u, v] pairs")
    n = _json_int(spec["n"], "graph.n")
    ends = list(itertools.chain.from_iterable(edges))
    if set(map(type, ends)) - {int}:  # bool is not int here
        _json_int(next(e for e in ends if type(e) is not int), "edge endpoint")
    return graph_from_edges(n, edges)


def _number_array(raw) -> tuple[tuple[int, ...], np.ndarray]:
    """The shape and the row-major float entries of nested JSON lists of
    numbers, read one nesting level at a time: each level must hold only
    lists of one length, or only numbers (int or float; bool and null are
    not numbers)."""
    shape, level = [], [raw]
    while level and set(map(type, level)) == {list}:
        lengths = set(map(len, level))
        if len(lengths) != 1:
            raise ParseError("malformed certificate: assignment is not an array "
                             f"(lists of lengths {sorted(lengths)} at depth {len(shape)})")
        shape.append(lengths.pop())
        level = list(itertools.chain.from_iterable(level))
    if set(map(type, level)) - {int, float}:
        raise ParseError("malformed certificate: assignment entries must be numbers")
    try:
        return tuple(shape), np.fromiter(level, dtype=float, count=len(level))
    except OverflowError:  # an integer beyond the float range
        raise ParseError("malformed certificate: assignment entries must be numbers")


def certificate_from_json(data: dict, base_dir: str | None = None) -> QuantumHomomorphism:
    return _certificate(data, base_dir, decoded=False)


def _certificate(data: dict, base_dir: str | None, decoded: bool) -> QuantumHomomorphism:
    """The checks of :func:`certificate_from_json`, in order; ``decoded``
    says that the assignment is a float array from :func:`_flat_decode`."""
    try:
        d = _json_int(data["d"], "d")
        n_colors = _json_int(data["n_colors"], "n_colors")
        graph_spec = data["graph"]
        raw = data["assignment"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed certificate: {exc}")
    if d < 1:
        raise ValidationError(f"certificate declares dimension d = {d}, expected d >= 1")
    source = _source_graph(graph_spec, base_dir)
    shape, entries = (raw.shape, raw) if decoded else _number_array(raw)
    expected = (source.n, n_colors, d, d, 2)
    if shape != expected:
        raise ValidationError(
            f"assignment shape {shape} does not match declared sizes {expected}"
        )
    assignment = entries.reshape(expected).view(complex)[..., 0]  # [re, im] pairs as complex entries
    return QuantumHomomorphism(source, generate("complete", n_colors), d, assignment)


# The flat decode of a certificate file, :func:`_flat_decode`.

#: The placeholder's value, a snowman; a text that holds it, raw or
#: escaped, is left to json.
_PLACEHOLDER = "\u2603"
_ASSIGNMENT = re.compile(r'"assignment"\s*:\s*(\[[\s\[]*)')
#: Deepest array the flat decode takes, which bounds its skeleton search
#: (numpy 1 holds at most 32 axes).
_MAX_DEPTH = 32
_JSON_SPACE = b" \t\n\r"
#: The bytes of JSON number tokens, NaN and Infinity included.
_NUMBER_BYTES = b"0123456789+-.eEINafinty"
#: Brackets and commas stay, number bytes become x, any other byte ?.
_TOKENS = bytes(c if c in b"[]," else ord("x") if c in _NUMBER_BYTES else ord("?")
                for c in range(256))
_BLANK_BRACKETS = bytes(ord(" ") if c in b"[]" else c for c in range(256))


def _skeleton_shape(skeleton: bytes, depth: int) -> tuple[int, ...] | None:
    """The shape of the array whose brackets and commas are ``skeleton``,
    with no axis empty, or None when no array has them.

    The first list at each nesting level is read off the skeleton, which
    starts with ``depth`` brackets: the list at level j closes at the
    first run of depth - j + 1 closing brackets.  Its length gives the
    axis, and the canonical skeleton of the shape, whose length is
    checked before it is built, must equal ``skeleton``."""
    shape, inner = [], 0  # inner: length of the first list one level down
    for level in range(depth, 0, -1):
        run = depth - level + 1
        close = skeleton.find(b"]" * run)
        if close < 0:
            return None
        length = close + run - (level - 1)
        count, rest = divmod(length - 1, inner + 1)
        if count < 1 or rest:
            return None
        shape.append(count)
        inner = length
    if inner != len(skeleton):
        return None
    canonical = b""
    for count in shape:
        canonical = b"[" + b",".join([canonical] * count) + b"]"
    return tuple(reversed(shape)) if canonical == skeleton else None


def _flat_decode(text: str) -> dict | None:
    """``json.loads(text)``, with the top-level "assignment" array as a
    float64 array, or None when this decode cannot prove it gives that.

    The array's text runs from the last ``"assignment":`` key's opening
    brackets to the first run of as many closing ones.  With whitespace
    deleted and the bytes of each number token reduced to x, it must be
    the skeleton of an array with no empty axis: no byte but brackets,
    commas and number bytes, no x run next to a bracket on its wrong
    side, and its brackets and commas those of the shape they imply.
    The blanked text's json.loads then proves that every entry slot
    holds one number token, and ``np.fromiter`` builds the array.  The
    rest of the document, which alone can hold the placeholder, must
    decode to an object whose "assignment" is the placeholder: so the
    array is the one json keeps.  Never raises: what it declines, json
    decodes or refuses."""
    at = text.rfind('"assignment"')
    key = _ASSIGNMENT.match(text, at) if at >= 0 else None
    if key is None:
        return None
    depth, start = key.group(1).count("["), key.start(1)
    if depth > _MAX_DEPTH:
        return None
    close = text.find("]" * depth, start)
    span = text[start:close + depth]
    if close < 0 or not span.isascii():
        return None
    head, tail, span = text[:start], text[close + depth:], span.encode("ascii")
    tokens = span.translate(_TOKENS, _JSON_SPACE)
    codes = np.frombuffer(tokens, dtype=np.uint8)
    number = codes == ord("x")
    if (b"?" in tokens or (number[:-1] & (codes[1:] == ord("["))).any()
            or ((codes[:-1] == ord("]")) & number[1:]).any()):
        return None
    shape = _skeleton_shape(tokens.translate(None, b"x"), depth)
    if shape is None or any(_PLACEHOLDER in part or "\\u2603" in part for part in (head, tail)):
        return None
    try:
        values = json.loads(b"[" + span.translate(_BLANK_BRACKETS) + b"]")
        array = np.fromiter(values, dtype=float, count=len(values)).reshape(shape)
        data = json.loads(head + '"\\u2603"' + tail)
    except (OverflowError, RecursionError, ValueError):
        return None
    if type(data) is not dict or data.get("assignment") != _PLACEHOLDER:
        return None
    data["assignment"] = array
    return data


def save_certificate(path, q: QuantumHomomorphism) -> None:
    # one json.dumps call: json.dump streams through the pure-Python encoder
    text = json.dumps(certificate_to_json(q))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_certificate(path) -> QuantumHomomorphism:
    text = read_text(path, "certificate")
    # the decoded lists hold no cycles, so the cyclic collector is paused
    # while they are made: its passes over them would find nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        data = _flat_decode(text)
        decoded = data is not None
        if not decoded:
            data = decode_json(text, "certificate")
    finally:
        if collecting:
            gc.enable()
    return _certificate(data, os.path.dirname(os.fspath(path)), decoded)
