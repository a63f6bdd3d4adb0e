"""Finite simple graphs on index vertex sets, generators, and products.

Vertices are always the indices 0..n-1 and adjacency is kept as a dense
boolean matrix, symmetric with a false diagonal.  Graphs are immutable
after construction, so every operation below returns a new value and is
safe to call concurrently.

Product graphs index the pair (u, v) as ``u * |V(H)| + v`` (row major,
u major).  The coloring constructions elsewhere in the package rely on
this ordering.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    CapacityError,
    DimensionError,
    DomainError,
    ParseError,
    ValidationError,
)

#: Largest n accepted by the omega family (2**n vertices).
OMEGA_CAP_DEFAULT = 10

#: Largest vertex count a graph is built with from a declared order (an
#: edge-list header, a certificate's ``graph.n``, a generator size, the
#: order of a product or union), checked before the dense n x n
#: adjacency is allocated.
MAX_ORDER = 4096

#: Side of the square tiles in which a graph's symmetry is checked.
SYMMETRY_TILE = 256

GENERATOR_FAMILIES = ("complete", "cycle", "path", "empty", "petersen", "omega")


def _check_order(n: int, what: str) -> None:
    """Refuse a declared order n below 0 or above MAX_ORDER, before it is allocated."""
    if n < 0:
        raise DomainError(f"{what} must be nonnegative")
    if n > MAX_ORDER:
        raise DomainError(f"{what} {n} exceeds the order cap {MAX_ORDER}")


class ProductKind(str, Enum):
    """The five graph products."""

    CATEGORICAL = "categorical"
    CARTESIAN = "cartesian"
    STRONG = "strong"
    DISJUNCTIVE = "disjunctive"
    LEXICOGRAPHIC = "lexicographic"


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple undirected graph with dense boolean adjacency."""

    n: int
    adj: np.ndarray
    label: str = ""

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=bool)
        if self.n < 0:
            raise DomainError("vertex count must be nonnegative")
        if adj.shape != (self.n, self.n):
            raise DimensionError(
                f"adjacency shape {adj.shape} does not match n={self.n}"
            )
        # each square tile on or above the diagonal against its mirror
        # tile: no n x n temporary, and each transpose stays in cache
        t = SYMMETRY_TILE
        if not all((adj[i:i + t, j:j + t] == adj[j:j + t, i:i + t].T).all()
                   for i in range(0, self.n, t) for j in range(i, self.n, t)):
            raise ValidationError("adjacency matrix must be symmetric")
        if adj.size and adj.diagonal().any():
            raise ValidationError("self-loops are not allowed")
        if adj.flags.writeable or not adj.flags.owndata:  # another holder could change it
            adj = adj.copy()
            adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only endpoint arrays (u, v) of the edges, u < v, in
        row-major order; computed on first use and kept, as the
        adjacency never changes."""
        u, v = np.divmod(np.flatnonzero(self.adj), max(self.n, 1))
        upper = u < v
        u, v = u[upper], v[upper]
        u.setflags(write=False)
        v.setflags(write=False)
        return u, v

    @property
    def edge_count(self) -> int:
        return len(self.edge_index[0])

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1).astype(int)

    def adjacency(self) -> np.ndarray:
        """A writable float copy of the adjacency matrix."""
        return self.adj.astype(float)

    def key(self) -> tuple:
        """Hashable canonical identity, suitable for memo dictionaries."""
        return (self.n, np.packbits(self.adj).tobytes())

    def __repr__(self):  # pragma: no cover - debugging aid
        name = self.label or "graph"
        return f"Graph({name}, n={self.n}, m={self.edge_count})"


def graph_from_edges(n: int, edges, label: str = "") -> Graph:
    """Build a graph from an iterable of (u, v) pairs, or an (m, 2) array
    of them, which is read without a copy.

    Duplicate edges collapse; self-loops and out-of-range endpoints are
    rejected.
    """
    _check_order(n, "vertex count")
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    ends = np.asarray(pairs)  # dtype object when an endpoint exceeds int64
    if not ends.size:
        ends = np.zeros((0, 2), dtype=np.intp)
    elif ends.dtype.kind not in "iuO":
        raise ValidationError(f"edge endpoints must be integers, got dtype {ends.dtype}")
    u, v = ends.reshape(len(pairs), 2).T
    bad = np.flatnonzero((u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n))
    if bad.size:
        u, v = int(u[bad[0]]), int(v[bad[0]])
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        raise ValidationError(f"edge endpoint out of range: ({u}, {v})")
    return Graph(n, _adjacency(n, u, v), label)


def _adjacency(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The read-only n x n adjacency of in-range, loop-free edges
    (u[i], v[i]), which a graph holds without a copy."""
    adj = np.zeros((n, n), dtype=bool)
    adj[np.concatenate((u, v)), np.concatenate((v, u))] = True
    adj.setflags(write=False)
    return adj


def generate(family: str, size: int = 0) -> Graph:
    """Named graph generator.

    Families: complete, cycle, path, empty, petersen (size ignored), and
    omega.  Omega n has all 2**n sign vectors as vertices, with vertex i
    encoding its sign vector through the binary digits of i (bit b set
    means coordinate b is -1); two vertices are adjacent exactly when
    their sign vectors are orthogonal.
    """
    if family not in GENERATOR_FAMILIES:
        raise DomainError(f"unknown graph family {family!r}")
    if size < 0:
        raise DomainError("size must be nonnegative")
    if family in ("complete", "cycle", "path", "empty"):
        _check_order(size, f"{family} size")

    if family == "complete":
        adj = np.ones((size, size), dtype=bool)
        np.fill_diagonal(adj, False)
        adj.setflags(write=False)  # the graph keeps it without a copy
        return Graph(size, adj, f"K_{size}")
    if family == "empty":
        return Graph(size, np.zeros((size, size), dtype=bool), f"empty_{size}")
    if family == "cycle":  # C_0 and C_1 have no edge, and C_2's two edges collapse
        edges = [(i, (i + 1) % size) for i in range(size) if size > 1]
        return graph_from_edges(size, edges, f"C_{size}")
    if family == "path":
        edges = [(i, i + 1) for i in range(size - 1)]
        return graph_from_edges(size, edges, f"P_{size}")
    if family == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return graph_from_edges(10, outer + spokes + inner, "petersen")

    # omega family
    if size > OMEGA_CAP_DEFAULT:
        raise CapacityError(
            f"omega size {size} exceeds cap {OMEGA_CAP_DEFAULT} (2**{size} vertices)"
        )
    count = 1 << size
    ids = np.arange(count)
    popcount = np.array([bin(i).count("1") for i in range(count)])
    xor = np.bitwise_xor.outer(ids, ids)
    # <s_i, s_j> = size - 2 * popcount(i ^ j); adjacency is exact orthogonality
    adj = (2 * popcount[xor]) == size
    np.fill_diagonal(adj, False)
    return Graph(count, adj, f"omega_{size}")


def complement(G: Graph) -> Graph:
    """Graph whose edges are exactly the non-edges among distinct vertices."""
    adj = ~G.adj & ~np.eye(G.n, dtype=bool)
    label = f"~{G.label}" if G.label else ""
    return Graph(G.n, adj, label)


#: Each product's label symbol and Kronecker terms (G-side, H-side),
#: whose union is its adjacency: A and B are the adjacencies of G and H,
#: I and J a factor's identity and all-ones matrices.  Lexicographic:
#: u1 ~ u2, or u1 = u2 and v1 ~ v2.
_PRODUCTS = {
    ProductKind.CATEGORICAL: ("x", [("A", "B")]),
    ProductKind.CARTESIAN: ("[]", [("A", "I"), ("I", "B")]),
    ProductKind.STRONG: ("<>", [("A", "B"), ("A", "I"), ("I", "B")]),
    ProductKind.DISJUNCTIVE: ("*", [("A", "J"), ("J", "B")]),
    ProductKind.LEXICOGRAPHIC: ("lex", [("A", "J"), ("I", "B")]),
}


def product(kind: ProductKind | str, G: Graph, H: Graph) -> Graph:
    """One of the five products of G and H, on |V(G)|*|V(H)| vertices."""
    kind = ProductKind(kind)
    _check_order(G.n * H.n, f"{kind.value} product order")
    g = {"A": G.adj, "I": np.eye(G.n, dtype=bool), "J": np.ones((G.n, G.n), dtype=bool)}
    h = {"B": H.adj, "I": np.eye(H.n, dtype=bool), "J": np.ones((H.n, H.n), dtype=bool)}
    sym, ((x, y), *rest) = _PRODUCTS[kind]
    adj = np.kron(g[x], h[y])
    for x, y in rest:  # or-ed in place: one product-sized temporary at a time
        adj |= np.kron(g[x], h[y])
    # loopless factors leave every product diagonal false already; the
    # Graph validator double-checks
    label = f"({G.label}){sym}({H.label})" if G.label and H.label else ""
    return Graph(G.n * H.n, adj, label)


def union(G: Graph, H: Graph) -> Graph:
    """Edge union of two graphs on the same indexed vertex set."""
    if G.n != H.n:
        raise DimensionError(f"union needs equal vertex counts, got {G.n} and {H.n}")
    _check_order(G.n, "union order")
    label = f"({G.label})u({H.label})" if G.label and H.label else ""
    return Graph(G.n, G.adj | H.adj, label)


def is_bipartite(G: Graph):
    """(flag, two-coloring) with a proper 2-coloring of every nonempty component.

    Returns (False, None) when the graph contains an odd cycle.
    """
    colors = np.full(G.n, -1, dtype=int)
    for start in range(G.n):
        if colors[start] >= 0:
            continue
        colors[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(G.adj[u]):
                if colors[v] < 0:
                    colors[v] = 1 - colors[u]
                    queue.append(v)
                elif colors[v] == colors[u]:
                    return False, None
    return True, colors


def _integer_array(values, what: str) -> np.ndarray:
    """values as an int array; integer-valued floats pass, and any other
    entry, or one of magnitude 2**63 or more (NaN and inf included),
    raises :class:`DomainError`."""
    values = np.asarray(values)
    if values.dtype.kind in "biu":
        return values.astype(int)
    floats = values.astype(float)
    if not ((np.abs(floats) < 2.0 ** 63) & (floats == np.trunc(floats))).all():
        raise DomainError(f"{what} must be finite integers")
    return floats.astype(int)


def is_homomorphism(G: Graph, H: Graph, f) -> tuple[bool, tuple | None]:
    """Check that f maps every edge of G to an edge of H; f's entries
    must be integers (:class:`DomainError`).

    Returns (True, None) or (False, witness_edge).
    """
    f = _integer_array(f, "map entries")
    if f.shape != (G.n,):
        raise DimensionError("map must assign one target vertex per source vertex")
    if G.n and ((f < 0).any() or (f >= H.n).any()):
        raise DomainError("map image outside target vertex set")
    e0, e1 = G.edge_index
    failing = np.flatnonzero(~H.adj[f[e0], f[e1]])
    if failing.size:
        i = failing[0]  # the first in edge_index order
        return False, (int(e0[i]), int(e1[i]))
    return True, None


def erdos_renyi(n: int, p: float = 0.5, *, rng=None, label: str = "") -> Graph:
    """G(n, p) sample drawn from ``np.random.default_rng(rng)``: a seed or a Generator."""
    _check_order(n, "vertex count")
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    draws = np.random.default_rng(rng).random(len(iu[0])) < p
    adj[iu] = draws
    adj |= adj.T
    return Graph(n, adj, label or f"gnp_{n}")


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v" (0-based),
# whitespace separated; '#' starts a comment.  The writer emits edges in
# lexicographic order.


# a comment runs up to the next of the line breaks str.splitlines knows; it
# is replaced by a space, which ends a token but, unlike nothing, cannot
# join a "\r" before it and a "\n" after it into one line break
_COMMENT = re.compile("#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def parse_edge_list(text: str, label: str = "") -> Graph:
    """Parse the edge-list text format into a graph.

    The lines are read in order and the first offending line raises,
    each edge line checked in the order: two fields, integers, no more
    edges than the header promised, no self-loop, endpoints in range.
    """
    lines = enumerate(_COMMENT.sub(" ", text).splitlines(), start=1)
    for lineno, line in lines:
        fields = line.split()
        if fields:
            break
    else:
        raise ParseError("empty graph file", line=1)
    if len(fields) != 2:
        raise ParseError(f"line {lineno}: expected header 'n m'", line=lineno)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"line {lineno}: header entries must be integers", line=lineno)
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: negative header entry", line=lineno)
    if n > MAX_ORDER:
        raise ParseError(
            f"line {lineno}: vertex count {n} exceeds the order cap {MAX_ORDER}",
            line=lineno,
        )

    ends = []  # the endpoints of the edge lines read so far, flat
    for lineno, line in lines:  # the lines after the header
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v'", line=lineno)
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {lineno}: edge endpoints must be integers", line=lineno)
        if len(ends) == 2 * m:
            raise ParseError(f"line {lineno}: more than {m} edges listed", line=lineno)
        if a == b:
            raise ValidationError(f"line {lineno}: self-loop at vertex {a}", line=lineno)
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(
                f"line {lineno}: endpoint out of range for n={n}: ({a}, {b})",
                line=lineno,
            )
        ends += a, b
    if len(ends) != 2 * m:
        raise ParseError(f"header promised {m} edges but {len(ends) // 2} were listed")
    ends = np.array(ends, dtype=np.intp)
    return Graph(n, _adjacency(n, ends[0::2], ends[1::2]), label)


def write_edge_list(G: Graph) -> str:
    u, v = G.edge_index
    ends = np.column_stack((u, v)).ravel().tolist()
    return f"{G.n} {len(u)}\n" + ("%d %d\n" * len(u)) % tuple(ends)


def read_text(path, what: str) -> str:
    """The UTF-8 text of a regular file; a device, FIFO or directory, or
    bytes that are not UTF-8, raise ParseError."""
    if not stat.S_ISREG(os.stat(path).st_mode):  # a missing file raises FileNotFoundError
        raise ParseError(f"{what} {os.fspath(path)!r} is not a regular file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8 text: {exc}")


def decode_json(text: str, what: str):
    """``json.loads(text)``; what json cannot decode raises ParseError:
    invalid JSON, nesting deeper than the recursion limit, an integer
    beyond Python's digit limit for integer strings."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}")
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"{what} cannot be decoded: {exc}")


def load_graph(path, label: str = "") -> Graph:
    return parse_edge_list(read_text(path, "graph file"), label=label or str(path))


def save_graph(path, G: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_edge_list(G))


def edge_hash(G: Graph) -> str:
    """Short stable digest of the canonical edge-list serialization."""
    return hashlib.sha256(write_edge_list(G).encode()).hexdigest()[:16]
