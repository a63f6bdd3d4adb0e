"""Graph parameters: theta-bar, vector chromatic number, spectral formulas,
the combinatorial 1-homogeneity test, and exact chromatic number.

A :class:`GraphFacts` record does each graph's search, eigendecomposition
and SDP parameters once; the functions here are front ends over a fresh
record.  Each SDP result carries its dual-form matrix and, on request,
its primal witness: the Gram matrix a vector coloring is extracted from.

An edgeless graph with a vertex takes the conventional value 1, with no
SDP run, certified by ``e_0 e_0^T`` and the zero witness; the SDP
builder refuses the graph with no vertex (:class:`DomainError`).

Before any solve, both parameters are pinned on graphs within the
chromatic cap: by the sandwich omega <= chi_vec <= theta-bar <= chi
(Lovasz 1979; Karger, Motwani and Sudan 1998), a maximum clique of size
k and a proper k-coloring fix both values at k, and each gives a
certificate of one side.  A regular graph that this misses, at any
order, is tried next against the closed form 1 - k/tau of its degree k
and least adjacency eigenvalue tau, which holds on every edge-transitive
graph (Lovasz 1979): Hoffman's dual-form matrix (I - A/tau)/n certifies
it from below and the scaled projector onto the least eigenspace from
above.  Each pin pair, and then a solve's rounded iterate and witness,
goes through the same two checkers, and the first pin pair whose
interval is at most the solver's gap tolerance wide fixes the value.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, replace

import numpy as np

from .certificates import dual_form_bound, witness_bound
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    LimitExceededError,
)
from .graphs import Graph
from .linalg import eig_sym
from .sdp import (
    OPTIMAL,
    SdpSolution,
    SolverConfig,
    _log_solve,
    build_chi_vec,
    build_theta_bar,
    solve,
)

CHROMATIC_CAP_DEFAULT = 30
#: Widest interval, relative to max(1, value), around the closed form
#: 1 - k/tau that :func:`spectral_vector_chromatic` accepts as certified.
SPECTRAL_WIDTH = 1e-9
#: Adjacency eigenvalues closer than this times 1 + (the spread of the
#: spectrum) to their neighbour share the least eigenspace of
#: :func:`_hoffman_pair`.
EIGENSPACE_TOL = 1e-6
# interpreter frames left to the callers of the recursive chromatic searches
_CALLER_FRAMES = 200


@dataclass
class ParamResult:
    """A parameter value with the interval its certificates certify.

    ``lower`` and ``upper`` are the bounds that :func:`dual_form_bound`
    and :func:`witness_bound` certify on the graph, with the program's
    sign conditions, from ``dual_certificate`` and from the primal
    witness (``primal_certificate``, when requested); -inf or inf where a
    checker refuses its matrix.  ``gap`` is ``max(0, upper - lower)``
    whatever the method.  ``method`` is "sdp" (the solver's objective,
    rounded iterate and witness; ``residuals`` and ``iterations`` are its
    report, and ``iterations`` is 0 for every other method), "pin" (value
    k; ``1_K 1_K^T / k`` on a maximum clique K and ``k [c(u) = c(v)] - 1``
    for a proper k-coloring c, the Gram matrix of simplex vectors indexed
    by color), "spectral" (Hoffman's ``(I - A/tau) / n`` and scaled
    projector ``-(n k / (rank tau)) E_tau`` of a k-regular graph, valued
    at the lower bound as a pin and at 1 - k/tau itself by
    :func:`spectral_vector_chromatic`) or "convention" (an edgeless
    graph: value 1, ``e_0 e_0^T`` and 0).
    """

    value: float
    lower: float
    upper: float
    method: str
    primal_certificate: np.ndarray | None = None
    dual_certificate: np.ndarray | None = None
    residuals: tuple | None = None
    iterations: int = 0

    @property
    def gap(self) -> float:
        return max(0.0, self.upper - self.lower)


def _checked(G: Graph, nonneg: bool, method: str, P: np.ndarray, M: np.ndarray,
             value: float | None, sol: SdpSolution | None = None) -> ParamResult:
    """The result that the pair (P, M) certifies on G: the only
    constructor of a :class:`ParamResult`.  A value None stands for the
    checked lower bound; ``sol`` is the solve the pair came from."""
    lower, upper = dual_form_bound(G, P, nonneg), witness_bound(G, M, nonneg)
    lower, upper = -np.inf if lower is None else lower, np.inf if upper is None else upper
    return ParamResult(value=lower if value is None else value, lower=lower, upper=upper,
                       method=method, primal_certificate=M, dual_certificate=P,
                       residuals=sol.residuals if sol else None,
                       iterations=sol.iterations if sol else 0)


def _pin_pair(n: int, clique: list[int], colors: np.ndarray) -> tuple:
    """The pin ``(method, P, M, value)`` of a clique and a coloring of its
    size; one vertex and one color pin an edgeless graph by convention."""
    k = len(clique)
    P = np.zeros((n, n))
    P[np.ix_(clique, clique)] = 1.0 / k
    M = k * (colors[:, None] == colors[None, :]) - 1.0
    return "pin" if k > 1 else "convention", P, M, float(k)


def _hoffman_pair(G: Graph, degree: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The least adjacency eigenvalue tau of a k-regular graph with an
    edge and Hoffman's two certificates, from one eigendecomposition:
    the dual-form matrix ``(I - A/tau) / n``, with entry sum 1 - k/tau,
    and the scaled projector ``-(n k / (rank tau)) E_tau`` onto the least
    eigenspace, PSD with diagonal ``-k / tau`` when E_tau has a constant
    diagonal."""
    A = G.adjacency()
    vals, vecs = eig_sym(A)
    tau = float(vals[0])
    gap = EIGENSPACE_TOL * (1.0 + float(vals[-1] - vals[0]))
    splits = np.flatnonzero(vals[1:] - vals[:-1] > gap)
    rank = int(splits[0]) + 1 if splits.size else G.n
    block = vecs[:, rank - 1::-1]  # descending columns: this order fixes E_tau's rounding
    E_tau = block @ block.T
    E_tau = (E_tau + E_tau.T) / 2.0
    P = (np.eye(G.n) - A / tau) / G.n
    return tau, P, -(G.n * degree) / (rank * tau) * E_tau


_BUILDERS = {"theta_bar": build_theta_bar, "chi_vec": build_chi_vec}


class GraphFacts:
    """One graph's facts, each computed once, on first use, at the
    record's solver settings and chromatic cap: the neighbour lists and
    maximum clique of :func:`_search_setup`, the colorings searched from
    that clique by number of colors, Hoffman's pair, the spectral bound,
    and the theta-bar and chi-vec ``results`` (or failed solves' errors).
    ``hits`` and ``misses`` count the parameter lookups answered and computed."""

    def __init__(self, G: Graph, cfg: SolverConfig | None = None, cap: int = CHROMATIC_CAP_DEFAULT):
        self.G, self.cfg, self.cap = G, cfg or SolverConfig(), cap
        self.results: dict[str, ParamResult] = {}
        self._failures: dict[str, tuple] = {}  # which -> (ConvergenceError, its traceback)
        self.hits = self.misses = 0
        self._colorings: dict[int, np.ndarray | None] = {}

    @functools.cached_property
    def search(self) -> tuple[list[list[int]], list[int]]:
        """Neighbour lists and a maximum clique (:func:`_search_setup`)."""
        return _search_setup(self.G, self.cap)

    def coloring(self, k: int) -> np.ndarray | None:
        """A proper k-coloring seeded with the clique, or None."""
        if k not in self._colorings:
            self._colorings[k] = _search_coloring(self.search[0], k, self.search[1])
        return self._colorings[k]

    @functools.cached_property
    def hoffman(self) -> tuple[int, float, np.ndarray, np.ndarray] | None:
        """The degree and :func:`_hoffman_pair` of a regular graph with an edge, else None."""
        degrees = self.G.degrees()
        if self.G.edge_count == 0 or degrees.min() != degrees.max():
            return None
        return int(degrees[0]), *_hoffman_pair(self.G, int(degrees[0]))

    @functools.cached_property
    def spectral_bound(self) -> float | None:
        """The average-degree bound 1 - (2e/n)/tau of a graph with an edge,
        else None; tau from the Hoffman pair on a regular graph (whose 2e/n
        is exactly its degree), else from one eigendecomposition."""
        if self.G.edge_count == 0:
            return None
        tau = self.hoffman[1] if self.hoffman else float(eig_sym(self.G.adjacency())[0][0])
        return 1.0 - (2.0 * self.G.edge_count / self.G.n) / tau

    def param(self, which: str) -> ParamResult:
        """The "theta_bar" or "chi_vec" result; a failed solve raises its
        :class:`ConvergenceError` again at each lookup, with no new solve."""
        if which in self.results or which in self._failures:
            self.hits += 1
        else:
            self.misses += 1
            try:
                self.results[which] = _sdp_param(self, _BUILDERS[which])
            except ConvergenceError as exc:
                self._failures[which] = exc, exc.__traceback__
        if which in self._failures:
            exc, tb = self._failures[which]
            raise exc.with_traceback(tb)  # the solve's traceback, not one grown per lookup
        return self.results[which]

    def chromatic_coloring(self, limit: int | None = None) -> np.ndarray:
        """A proper coloring with the fewest colors, exactly 0..chi-1: the
        first that deterministic backtracking finds, from the clique number
        of colors up.

        Raises :class:`LimitExceededError` before searching any number of
        colors above ``limit`` and :class:`CapacityError` above the
        record's vertex cap or the search depth.
        """
        k = len(self.search[1])
        while limit is None or k <= limit:
            if (colors := self.coloring(k)) is not None:
                return colors
            k += 1
        raise LimitExceededError(f"chromatic number exceeds limit {limit}", limit=limit)

    def chromatic_number(self, limit: int | None = None) -> int:
        """The color count of :meth:`chromatic_coloring`."""
        return int(self.chromatic_coloring(limit).max(initial=-1)) + 1


def _pin_pairs(facts: GraphFacts):
    """The record's candidate pairs ``(method, P, M, value)``, lazily and
    in order: for an edgeless graph only the convention, with no search
    and no eigendecomposition; else the pin of a maximum clique and a
    coloring of its size, within the cap and the search depth, then
    Hoffman's pair of a regular graph, valued None for its lower bound."""
    G = facts.G
    if G.edge_count == 0:
        yield _pin_pair(G.n, [0], np.zeros(G.n, dtype=int))
        return
    try:
        clique = facts.search[1]
        colors = facts.coloring(len(clique))
    except CapacityError:
        colors = None
    if colors is not None:
        yield _pin_pair(G.n, clique, colors)
    if facts.hoffman is not None:
        yield "spectral", *facts.hoffman[2:], None


def _sdp_param(facts: GraphFacts, builder) -> ParamResult:
    G, cfg = facts.G, facts.cfg
    problem = builder(G)
    for method, P, M, value in _pin_pairs(facts):
        result = _checked(G, problem.nonneg, method, P, M, value)
        if result.gap <= cfg.gap_tol:
            _log_solve("pin %s: value %.12g (%s)", G.label or G.n, result.value, method,
                       method=method, value=result.value, iterations=0)
            return result
    try:
        sol, failure = solve(problem, cfg), None
    except ConvergenceError as exc:
        if exc.partial is None:
            raise
        sol, failure = exc.partial, exc
    result = _checked(G, problem.nonneg, "sdp", sol.X, sol.certificate, sol.objective, sol)
    if sol.status != OPTIMAL:
        message = str(failure or f"dual-form solve ended with status {sol.status}")
    elif result.gap > cfg.gap_tol:
        message = f"the solve's certificates certify a gap of {result.gap:.3g}, above gap_tol"
    else:
        return result
    # a refused pair certifies nothing, so it leaves no partial result
    raise ConvergenceError(message, max(sol.residuals) + result.gap,
                           result if result.gap < np.inf else None) from failure


def theta_bar(G: Graph, cfg: SolverConfig | None = None, *,
              want_primal: bool = False) -> ParamResult:
    """Strict vector chromatic number (Lovasz theta of the complement);
    pinned without a solve on graphs within the default chromatic cap
    where a maximum clique and a coloring agree, and on regular graphs of
    any order whose spectral certificates close within ``cfg.gap_tol``."""
    result = GraphFacts(G, cfg).param("theta_bar")
    return result if want_primal else replace(result, primal_certificate=None)


def chi_vec(G: Graph, cfg: SolverConfig | None = None, *, want_primal: bool = False) -> ParamResult:
    """Vector chromatic number, pinned as :func:`theta_bar` is."""
    result = GraphFacts(G, cfg).param("chi_vec")
    return result if want_primal else replace(result, primal_certificate=None)


def spectral_lower_bound(G: Graph) -> float:
    """The record's average-degree bound 1 - (2e/n)/tau; requires an edge."""
    if (bound := GraphFacts(G).spectral_bound) is None:
        raise DomainError("spectral lower bound needs at least one edge")
    return bound


# ---------------------------------------------------------------------------
# 1-homogeneity: the walk-count conditions A^k o I = b_k I and
# A^k o A = c_k A, checked in exact integer arithmetic for k up to the
# degree of the minimal polynomial of A (higher powers are combinations
# of the checked ones).
#
# That degree is the first k at which the flattened A^k lies in the
# rational span of I, A, ..., A^(k-1).  The test runs on coordinate
# classes, not on all n^2 coordinates: two coordinates (i, j) whose value
# tuples (I[i,j], A[i,j], ..., A^k[i,j]) agree are equal columns of the
# matrix whose rows are the powers, and deleting duplicate columns keeps
# the rank of every set of its rows.  Powers of the symmetric A are
# symmetric, so (j, i) always duplicates (i, j) and only the upper
# triangle i <= j is classified.  The classes are refined at each power
# with one sort keyed on (class, value).
#
# A power that splits a class is not in the span: every lower power, and
# so every combination of them, is constant on each class it was refined
# by.  Only a power that splits no class needs a rank test, and that
# test is one fraction-free elimination over one column per class.


@dataclass
class OneHomReport:
    is_one_homogeneous: bool
    constants: list  # (k, b_k, c_k), exact integers
    failing_witness: tuple | None = None  # (k, "vertex"|"edge", index or pair)


def _independent(rows) -> bool:
    """Whether integer vectors are linearly independent over the rationals.

    Fraction-free (Bareiss) elimination in Python integers: each entry
    below the pivot rows is a minor of the input, so the division by the
    previous pivot is exact.  A row that reduces to zero is a combination
    of the rows above it.
    """
    M = [[int(x) for x in row] for row in rows]
    prev = 1
    for i in range(len(M)):
        row = M[i]
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            return False
        pivot = row[col]
        for r in range(i + 1, len(M)):
            q = M[r][col]
            M[r] = [(pivot * x - q * y) // prev for x, y in zip(M[r], row)]
        prev = pivot
    return True


def _integer_power_iter(A_bool: np.ndarray):
    """Yields the exact integer powers I, A, A^2, ... of an adjacency matrix.

    Each power is int64 while the next is computed as a float64 BLAS
    product, which is exact while max(P) * (maximum degree) <= 2**53: the
    entries of A^k are nonnegative integers and each entry of P A sums at
    most that many entries of P, so every partial sum, in any order and
    with or without fused multiply-add, is an integer that float64 holds
    exactly.  Past that bound the powers are Python big integers, and
    column j of P A is the sum of the columns of P at the neighbours of
    j: n * 2|E| additions in place of n^3 multiply-adds.
    """
    n = A_bool.shape[0]
    A = A_bool.astype(np.float64)
    max_degree = int(A_bool.sum(axis=1).max()) if n else 0
    P = np.eye(n, dtype=np.int64)
    neighbours = None
    while True:
        yield P
        if neighbours is None and int(P.max(initial=0)) * max_degree <= 2**53:
            P = (P.astype(np.float64) @ A).astype(np.int64)
        else:
            if neighbours is None:
                neighbours = [np.flatnonzero(A_bool[:, j]) for j in range(n)]
                P = P.astype(object)
            Q = np.empty((n, n), dtype=object)
            for j, nb in enumerate(neighbours):
                Q[:, j] = P[:, nb].sum(axis=1) if len(nb) else 0
            P = Q


def one_homogeneous_check(G: Graph) -> OneHomReport:
    """Exact combinatorial test of the two walk-count conditions.

    Powers are checked up to the degree of the minimal polynomial.  That
    degree is decided by an exact rank test on one column per class of
    coordinates with equal walk counts so far, which gives the same
    answer as the test on all n^2 coordinates; it runs only at powers
    that split no class.
    """
    n = G.n
    if n == 0:
        return OneHomReport(True, [(0, 1, 0)])
    adj = G.adj
    eu, ev = G.edge_index
    upper = np.triu(np.ones((n, n), dtype=bool))
    labels = np.zeros(n * (n + 1) // 2, dtype=np.int64)  # coordinate class so far
    columns = []  # each power so far at one coordinate per class
    constants = []
    for k, P in enumerate(_integer_power_iter(adj)):
        diag = P.diagonal()
        b_k = int(diag[0])
        mism = np.nonzero(diag != diag[0])[0]
        if mism.size:
            return OneHomReport(False, constants, (k, "vertex", int(mism[0])))
        if len(eu):
            vals = P[eu, ev]
            c_k = int(vals[0])
            mism = np.nonzero(vals != vals[0])[0]
            if mism.size:
                i = int(mism[0])
                return OneHomReport(False, constants, (k, "edge", (int(eu[i]), int(ev[i]))))
        else:
            c_k = 0
        constants.append((k, b_k, c_k))
        flat = P[upper]
        order = np.lexsort((flat, labels))  # by class, then by value
        cls, val = labels[order], flat[order]
        starts = np.ones(len(order), dtype=bool)
        starts[1:] = (cls[1:] != cls[:-1]) | (val[1:] != val[:-1])
        reps = order[starts]
        split = k == 0 or len(reps) > len(columns[0])  # I != 0 is independent
        columns = [row[labels[reps]] for row in columns] + [flat[reps]]
        labels[order] = np.cumsum(starts) - 1
        if not split and not _independent(columns):
            # k is the minimal-polynomial degree; all higher powers are
            # combinations of the checked ones
            return OneHomReport(True, constants)


def spectral_vector_chromatic(G: Graph) -> ParamResult:
    """Certified closed-form value 1 - k/tau of a k-regular graph with an
    edge, where k is the degree and tau the least adjacency eigenvalue.

    One eigendecomposition gives Hoffman's dual-form matrix and the
    scaled projector onto the least eigenspace (:func:`_hoffman_pair`).
    Both are checked with the vector chromatic number's sign conditions,
    and no 1-homogeneity test runs: a graph that is not regular, whose
    certificates a checker refuses, or whose interval, widened to hold
    1 - k/tau, is wider than ``SPECTRAL_WIDTH * max(1, value)`` raises
    :class:`DomainError`.
    """
    if (hoffman := GraphFacts(G).hoffman) is None:
        raise DomainError("spectral formula needs a regular graph with an edge")
    degree, tau, P, M = hoffman
    result = _checked(G, True, "spectral", P, M, 1.0 - degree / tau)
    lower, upper, value = result.lower, result.upper, result.value
    if lower == -np.inf:
        raise DomainError("Hoffman's dual-form matrix fails the dual-form check")
    if upper == np.inf:
        raise DomainError("the scaled least-eigenspace projector fails the witness check")
    width = max(upper, value) - min(lower, value)
    if width > SPECTRAL_WIDTH * max(1.0, value):
        raise DomainError(f"the spectral certificates leave [{lower!r}, {upper!r}] "
                          f"around 1 - k/tau = {value!r}, wider than {SPECTRAL_WIDTH:g}")
    return result


# ---------------------------------------------------------------------------
# Exact chromatic number by branch and bound from an exact clique lower
# bound upward.  The coloring search walks neighbour lists; the clique
# search runs on bitmask adjacency built from them.


def _max_clique(masks: list[int], n: int) -> list[int]:
    best: list[int] = []

    def expand(current: list[int], candidates: int):
        nonlocal best
        if not candidates:
            if len(current) > len(best):
                best = current[:]
            return
        while candidates:
            if len(current) + bin(candidates).count("1") <= len(best):
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= ~(1 << v)
            expand(current + [v], candidates & masks[v])

    expand([], (1 << n) - 1)
    return best


def _search_coloring(neighbours: list[list[int]], k: int, clique: list[int]):
    """Backtracking k-colorability with clique seeding and symmetry breaking.

    Returns a coloring array or None.
    """
    if len(clique) > k:
        return None
    n = len(neighbours)
    colors = [-1] * n
    used = [0] * n  # per vertex, the colors of its colored neighbours
    # the choice key (free colors, -degree) as one integer
    tiebreak = [n - 1 - len(nb) for nb in neighbours]

    def assign(u: int, c: int) -> list[int]:
        """Color u with c; the neighbours that c is new to."""
        colors[u] = c
        bit = 1 << c
        fresh = [v for v in neighbours[u] if not used[v] & bit]
        for v in fresh:
            used[v] |= bit
        return fresh

    for i, v in enumerate(clique):
        assign(v, i)
    max_used = len(clique) - 1

    def choose():
        """The uncolored vertex with the fewest free colors, of highest
        degree among those, lowest-numbered among those; and its colors."""
        allowed = (1 << min(k, max_used + 2)) - 1
        best_u, best_free, best_key = -1, 0, None
        for u in range(n):
            if colors[u] >= 0:
                continue
            free = allowed & ~used[u]
            key = free.bit_count() * n + tiebreak[u]
            if best_key is None or key < best_key:
                best_u, best_free, best_key = u, free, key
                if not free:
                    break
        return best_u, [c for c in range(k) if best_free >> c & 1]

    def backtrack(remaining: int) -> bool:
        nonlocal max_used
        if remaining == 0:
            return True
        u, opts = choose()
        if not opts:
            return False
        saved = max_used
        for c in opts:
            fresh = assign(u, c)
            max_used = max(max_used, c)
            if backtrack(remaining - 1):
                return True
            colors[u] = -1
            for v in fresh:
                used[v] &= ~(1 << c)
            max_used = saved
        return False

    if backtrack(n - len(clique)):
        return np.array(colors, dtype=int)
    return None


def _search_setup(G: Graph, cap: int):
    """Neighbour lists and a maximum clique of a graph within the vertex
    cap and the search depth: the clique and coloring searches recurse
    once per vertex at most, so a graph with more vertices than the
    recursion limit leaves them is refused before either starts."""
    if G.n > cap:
        raise CapacityError(f"graph order {G.n} exceeds chromatic cap {cap}")
    depth = sys.getrecursionlimit() - _CALLER_FRAMES
    if G.n > depth:
        raise CapacityError(f"graph order {G.n} exceeds the chromatic search depth {depth}")
    neighbours = [np.flatnonzero(row).tolist() for row in G.adj]
    masks = [sum(1 << v for v in nb) for nb in neighbours]
    return neighbours, _max_clique(masks, G.n)


def chromatic_number(G: Graph, limit: int | None = None, *, cap: int = CHROMATIC_CAP_DEFAULT) -> int:
    """Exact chromatic number: the color count of :meth:`GraphFacts.chromatic_coloring`."""
    return GraphFacts(G, cap=cap).chromatic_number(limit)
