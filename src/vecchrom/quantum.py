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
classical embedding work.  The verifier skips every product with a zero
part: the entries are finite by then, so that product is exactly 0 and
its residual 0.0, and a certificate built from classical embeddings and
padding runs almost no products at all.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ParseError, ValidationError, _check_tolerance
from .graphs import (Graph, ProductKind, decode_json, graph_from_edges, generate, is_homomorphism,
                     product, read_text)
from .colorings import ClassicalColoring, modular_coloring

ADJ_TOL = 1e-7
#: Complex entries per block of vertices or edges that the tuple and
#: adjacency checks gather (256 KiB), so that their working memory does not
#: grow with the certificate.
GATHER_ENTRIES = 1 << 14


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


def _pair_residuals(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The larger max-norm of the two products XY and YX, per broadcast
    pair of blocks."""
    return np.maximum(_maxnorms(X @ Y), _maxnorms(Y @ X))


def _check_tuples(A: np.ndarray, nonzero: np.ndarray, tol: float):
    """Structural check of every tuple of a finite (vertices, colors, d, d)
    array, each condition batched over blocks of vertices that hold at
    most ``GATHER_ENTRIES`` complex entries (at least one vertex).
    ``nonzero`` marks the parts with a nonzero entry; the idempotence and
    orthogonality products run only on those, as a product with a zero
    part has the residual 0.0.

    Returns the maxima of the hermitian, idempotent, sum-to-identity and
    orthogonality residuals (the last over color pairs v < w, at 10x tol)
    and the first failing vertex's witness, the vertex its last key:
    hermitian before idempotent per part, then the sum, then the first
    orthogonality pair in lex order; None when no residual fails (NaN
    fails).  Orthogonality keeps one maximum per vertex; the witness's
    pair is found again on the failing vertex alone.
    """
    n, count, d = A.shape[:3]
    herm, idem = np.zeros((n, count)), np.zeros((n, count))
    sums, ortho = np.zeros(n), np.zeros(n)
    step = max(1, GATHER_ENTRIES // max(1, count * d * d))
    for s in range(0, n, step):
        B, nz = A[s:s + step], nonzero[s:s + step]
        herm[s:s + step] = _maxnorms(B - B.conj().swapaxes(-1, -2))
        parts = B[nz]
        idem[s:s + step][nz] = _maxnorms(parts @ parts - parts)
        sums[s:s + step] = _maxnorms(B.sum(axis=1) - np.eye(d))
        for v in np.flatnonzero(nz[:, :-1].any(axis=0)):
            i, w = np.nonzero(nz[:, v:v + 1] & nz[:, v + 1:])
            # np.maximum keeps a NaN residual
            np.maximum.at(ortho, s + i, _pair_residuals(B[i, v], B[i, v + 1 + w]))
    ortho_tol = 10.0 * tol
    part_bad = ~(herm <= tol) | ~(idem <= tol)
    failing = np.flatnonzero(part_bad.any(axis=1) | ~(sums <= tol) | ~(ortho <= ortho_tol))
    maxima = tuple(float(r.max(initial=0.0)) for r in (herm, idem, sums, ortho))
    if not failing.size:
        return maxima, None
    u = int(failing[0])
    if part_bad[u].any():
        v = int(np.flatnonzero(part_bad[u])[0])
        condition, r = (("idempotent", idem[u, v]) if herm[u, v] <= tol
                        else ("hermitian", herm[u, v]))
        witness = {"scope": "tuple", "part": v, "condition": condition, "residual": float(r)}
    elif not sums[u] <= tol:
        witness = {"scope": "tuple", "condition": "sum_to_identity", "residual": float(sums[u])}
    else:
        for v in range(count - 1):
            residuals = _pair_residuals(A[u:u + 1, v:v + 1], A[u:u + 1, v + 1:])[0]
            if (bad := np.flatnonzero(~(residuals <= ortho_tol))).size:
                break
        witness = {"scope": "tuple", "condition": "orthogonality", "pair": [v, v + 1 + int(bad[0])],
                   "residual": float(residuals[bad[0]])}
    witness["vertex"] = u
    return maxima, witness


def verify_quantum_hom(q: QuantumHomomorphism, tol: float = ADJ_TOL) -> QuantumHomReport:
    """Full certificate check: every tuple is a valid measurement
    (structural tolerance tol/10) and every source edge maps to adjacent
    tuples (tolerance tol); ``ok`` means that no witness was found.  A NaN
    or infinite entry fails the check with infinite residuals.

    The adjacency products run in a loop over the target's non-adjacent
    pairs (v, w), v = w included, each batched over the source edges whose
    parts at v and w are both nonzero, in both orders, in blocks of at
    most ``GATHER_ENTRIES`` entries; every other residual is 0.0.  A
    tuple failure is the witness when there is one; otherwise the first
    failing edge in ``edge_index`` order and, within it, the first
    pair in row-major order.
    """
    _check_tolerance("tol", tol)
    A = q.assignment
    witness = _nonfinite_witness(A)
    if witness is not None:
        inf = float("inf")
        return QuantumHomReport(False, inf, inf, inf, inf, inf, witness)
    # the entries are finite, so a product with a zero part is +-0: skipped
    nonzero = A.any(axis=(-2, -1))
    struct_tol = tol / 10.0
    e0, e1 = q.source.edge_index
    # found in blocks of rows of at most GATHER_ENTRIES entries, in row-major
    # order: a complete target's n x n negation would dwarf its n pairs
    n = q.target.n
    rows = max(1, GATHER_ENTRIES // max(1, n))
    pairs = np.concatenate([np.zeros((0, 2), dtype=np.intp)]
                           + [np.argwhere(~q.target.adj[s:s + rows]) + (s, 0)
                              for s in range(0, n, rows)])
    residual = np.zeros((len(e0), len(pairs)))
    step = max(1, GATHER_ENTRIES // max(1, q.d * q.d))
    # finite entries near the float range overflow in the products, and
    # their residuals come out inf or NaN, which every test below fails
    with np.errstate(over="ignore", invalid="ignore"):
        (herm, idem, sums, ortho), witness = _check_tuples(A, nonzero, struct_tol)
        for k, (v, w) in enumerate(pairs):
            both = np.flatnonzero(nonzero[e0, v] & nonzero[e1, w])
            for s in range(0, len(both), step):
                edges = both[s:s + step]
                residual[edges, k] = _pair_residuals(A[e0[edges], v], A[e1[edges], w])
    adjacency = float(residual.max(initial=0.0))
    if not adjacency <= tol and witness is None:
        e, k = np.argwhere(~(residual <= tol))[0]
        witness = {
            "scope": "edge",
            "condition": "adjacency",
            "edge": [int(e0[e]), int(e1[e])],
            "pair": [int(x) for x in pairs[k]],
            "residual": float(residual[e, k]),
        }
    return QuantumHomReport(witness is None, herm, idem, sums, ortho, adjacency, witness)


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
    # a graph is loopless, so n(n - 1) nonzeros make it complete; no edge index is built
    if np.count_nonzero(H.adj) != H.n * (H.n - 1):
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
#    "graph": {"n": int, "edges": [[u, v], ...]} (inline only),
#    "assignment": per vertex, per color, d x d row-major entries [re, im]}

#: Numbers :func:`save_certificate` formats and writes at once (about
#: 80 KB of text), so that its working memory does not grow with the file.
WRITE_ENTRIES = 1 << 12
#: Bytes of an assignment's text that the flat decode of
#: :func:`load_certificate` reads at once, for its skeleton and for each
#: ``json.loads`` of numbers.
DECODE_BYTES = 1 << 16


def _entry_template(shape: tuple[int, ...]) -> str:
    """The json.dumps text of nested lists of the given shape, with %r in
    the place of each entry."""
    template = "%r"
    for count in reversed(shape):
        template = "[" + ", ".join([template] * count) + "]"
    return template


def _write_rows(fh, rows: np.ndarray, template: str) -> None:
    """Write a 2-d array as json.dumps writes the list of its rows, each
    row spelt by ``template``, ``WRITE_ENTRIES`` numbers at a time: %r is
    the float repr json uses, and its nan and inf become json's NaN and
    Infinity (no other token holds those letters)."""
    step = max(1, WRITE_ENTRIES // max(1, rows.shape[1]))
    fh.write("[")
    for s in range(0, len(rows), step):
        block = rows[s:s + step]
        text = ", ".join([template] * len(block)) % tuple(block.ravel().tolist())
        if not np.isfinite(block).all():
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        fh.write(", " + text if s else text)
    fh.write("]")


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"malformed certificate: {what} must be an integer, got {value!r}")
    return value


def _source_graph(spec) -> Graph:
    if not isinstance(spec, dict) or "n" not in spec:
        raise ParseError('malformed certificate: graph must be an {"n", "edges"} object')
    edges = spec.get("edges", [])
    if (not isinstance(edges, list) or set(map(type, edges)) - {list}
            or set(map(len, edges)) - {2}):
        raise ParseError("malformed certificate: graph edges must be [u, v] pairs")
    n = _json_int(spec["n"], "graph.n")
    ends = list(itertools.chain.from_iterable(edges))
    if set(map(type, ends)) - {int}:  # bool is not int here
        _json_int(next(e for e in ends if type(e) is not int), "edge endpoint")
    # the flat list gives the nested one's dtype: object when an endpoint exceeds int64
    return graph_from_edges(n, np.array(ends).reshape(len(edges), 2))


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


def _certificate(data: dict) -> QuantumHomomorphism:
    """The certificate a decoded file holds, checked in order; its assignment
    is a float array from :func:`_flat_decode` or json's nested lists."""
    try:
        d = _json_int(data["d"], "d")
        n_colors = _json_int(data["n_colors"], "n_colors")
        graph_spec = data["graph"]
        raw = data["assignment"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed certificate: {exc}")
    if d < 1:
        raise ValidationError(f"certificate declares dimension d = {d}, expected d >= 1")
    source = _source_graph(graph_spec)
    shape, entries = (raw.shape, raw) if isinstance(raw, np.ndarray) else _number_array(raw)
    expected = (source.n, n_colors, d, d, 2)
    if shape != expected and not (source.n == 0 and shape == (0,)):  # no vertex is [] in JSON
        raise ValidationError(
            f"assignment shape {shape} does not match declared sizes {expected}"
        )
    target = generate("complete", n_colors)
    try:  # [re, im] pairs as complex entries
        assignment = entries.reshape(expected).view(complex)[..., 0]
    except ValueError:  # an empty array whose sizes numpy cannot index
        raise ValidationError(f"declared sizes {expected} exceed the largest array")
    return QuantumHomomorphism(source, target, d, assignment)


# The flat decode of a certificate file, :func:`_flat_decode`.

#: The placeholder's value, a snowman; a text that holds it, raw or
#: escaped, is left to json.
_PLACEHOLDER = "\u2603"
_ASSIGNMENT = re.compile(r'"assignment"\s*:\s*\[')
_JSON_SPACE = b" \t\n\r"
#: The bytes of JSON number tokens, NaN and Infinity included.
_NUMBER_BYTES = b"0123456789+-.eEINafinty"
#: Brackets and commas stay, number bytes become x, any other byte ?.
_TOKENS = bytes(c if c in b"[]," else ord("x") if c in _NUMBER_BYTES else ord("?")
                for c in range(256))
_BLANK_BRACKETS = bytes(ord(" ") if c in b"[]" else c for c in range(256))


def _flat_decode(text: str) -> dict | None:
    """``json.loads(text)``, with the top-level "assignment" array as a
    float64 array, or None when this decode cannot prove it gives that.

    The array's text runs from the last ``"assignment":`` key's opening
    bracket to the first run of five closing ones, as a certificate's
    assignment has five axes.  The rest of the document, which alone can
    hold the placeholder, must decode to an object whose "assignment" is
    the placeholder, so the array is the one json keeps, and whose "d"
    and "n_colors" are positive integers.  The array's text is read once,
    cut at commas into pieces of about ``DECODE_BYTES``, so that no token
    spans two pieces.  Each piece gives its skeleton, with whitespace
    deleted and the bytes of each number token reduced to x, and its
    numbers: json.loads of the piece as a list, its brackets blanked,
    written into an array of one float per comma and one more.  The
    skeleton must be one or more rows of the layout :func:`save_certificate`
    writes for those sizes, with empty entries: no byte but brackets,
    commas and number bytes, no x run next to a bracket on its wrong
    side, and its brackets and commas those of the rows.  Then a count of
    numbers equal to the array's size proves that every entry slot holds
    one number token.  Never raises: what it declines, json decodes or
    refuses."""
    at = text.rfind('"assignment"')
    key = _ASSIGNMENT.match(text, at) if at >= 0 else None
    close = text.find("]]]]]", key.end()) if key else -1
    if close < 0:
        return None
    start, end = key.end() - 1, close + 5
    head, tail = text[:start], text[end:]
    if any(_PLACEHOLDER in part or "\\u2603" in part for part in (head, tail)):
        return None
    try:
        data = json.loads(head + '"\\u2603"' + tail)
    except (RecursionError, ValueError):
        return None
    if type(data) is not dict or data.get("assignment") != _PLACEHOLDER:
        return None
    d, n_colors = data.get("d"), data.get("n_colors")
    if type(d) is not int or type(n_colors) is not int or min(d, n_colors) < 1:
        return None
    # a row holds 2 n_colors d^2 numbers, each of at least three bytes, as
    # in "[x,x],": so the array, one float per comma and one more, is at
    # most 8/3 of the text, and the row is not built for absurd sizes
    size, per_row = text.count(",", start, end) + 1, 2 * n_colors * d * d
    if 3 * size > end - start or per_row > size:
        return None
    array, filled, skeleton, at = np.empty(size), 0, [], start
    try:  # a byte that is not ASCII raises UnicodeEncodeError, a ValueError
        while at <= end:
            cut = text.find(",", at + DECODE_BYTES, end)
            cut = end if cut < 0 else cut
            piece = text[at:cut].encode("ascii")
            tokens = piece.translate(_TOKENS, _JSON_SPACE)
            codes = np.frombuffer(tokens, dtype=np.uint8)
            number = codes == ord("x")
            if (b"?" in tokens or (number[:-1] & (codes[1:] == ord("["))).any()
                    or ((codes[:-1] == ord("]")) & number[1:]).any()):
                return None
            skeleton.append(tokens.translate(None, b"x"))
            values = json.loads(b"[" + piece.translate(_BLANK_BRACKETS) + b"]")
            array[filled:filled + len(values)] = np.fromiter(values, float, len(values))
            filled, at = filled + len(values), cut + 1
            del piece, tokens, codes, number, values  # the next piece reuses their memory
    except (OverflowError, ValueError):
        return None
    skeleton = b",".join(skeleton)  # the list of pieces goes before the rows are built
    row = _entry_template((n_colors, d, d, 2)).replace("%r", "").replace(" ", "").encode()
    if filled != size or skeleton != b"[" + b",".join([row] * (size // per_row)) + b"]":
        return None
    data["assignment"] = array.reshape(-1, n_colors, d, d, 2)
    return data


def save_certificate(path, q: QuantumHomomorphism) -> None:
    """Write ``q`` as a certificate file.  The text is json.dumps of the
    file's object; the edges and the assignment are streamed a block of
    rows at a time, the assignment as its [re, im] float view."""
    n_colors = _complete_order(q.target)
    edges = np.column_stack(q.source.edge_index)
    entries = q.assignment.view(float).reshape(q.source.n, 2 * n_colors * q.d * q.d)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"d": {int(q.d)}, "n_colors": {n_colors}, '
                 f'"graph": {{"n": {int(q.source.n)}, "edges": ')
        _write_rows(fh, edges, _entry_template((2,)))
        fh.write('}, "assignment": ')
        _write_rows(fh, entries, _entry_template((n_colors, q.d, q.d, 2)))
        fh.write("}")


def load_certificate(path) -> QuantumHomomorphism:
    """The certificate in the file at ``path``, its assignment read by
    :func:`_flat_decode` or, where that declines, by json as a whole; both
    give the same certificate or error.  ParseError: not a regular UTF-8
    JSON file, or a member missing or mistyped.  ValidationError: d < 1, a
    bad edge or an assignment shape off the declared sizes.  DomainError:
    a vertex or color count below 0 or above the order cap."""
    text = read_text(path, "certificate")
    data = _flat_decode(text) or decode_json(text, "certificate")
    del text  # the graph and the certificate are built without it
    return _certificate(data)
