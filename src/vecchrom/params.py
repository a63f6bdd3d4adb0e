"""Graph parameters: theta-bar, vector chromatic number, spectral formulas,
the combinatorial 1-homogeneity test, and exact chromatic number.

The two SDP parameters are computed from the dual-form programs.  On
request the result also carries the primal certificate that the same
solve produced with its dual bound: the Gram matrix from which a vector
coloring is extracted.

Edgeless graphs with at least one vertex take the conventional value 1
for both parameters, with no SDP run, certified by ``e_0 e_0^T`` from
below and the zero witness from above; the SDP builder refuses the graph
with no vertex (:class:`DomainError`).

Before any solve, both parameters are pinned on graphs within the
chromatic cap: by the sandwich omega <= chi_vec <= theta-bar <= chi
(Lovasz 1979; Karger, Motwani and Sudan 1998), a maximum clique of size
k and a proper k-coloring fix both values at k, and each gives a
certificate of one side.  A regular graph that this misses, at any
order, is tried next against the closed form 1 - k/tau of its degree k
and least adjacency eigenvalue tau, which holds on every edge-transitive
graph (Lovasz 1979): Hoffman's dual-form matrix (I - A/tau)/n certifies
it from below and the scaled projector onto the least eigenspace from
above.  Any other graph, or one whose certificates a checker refuses or
leave an interval wider than the solver's gap tolerance, is solved.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

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
    """A parameter value with machine-checkable certificates.

    ``method`` is "sdp", "pin" (a maximum clique of size k and a proper
    k-coloring: value k), "spectral" (the closed form 1 - k/tau of a
    k-regular graph, certified by Hoffman's two certificates: a spectral
    pin, or :func:`spectral_vector_chromatic`, which runs no
    1-homogeneity test) or "convention" (edgeless value 1, with the dual
    certificate ``e_0 e_0^T`` and the primal certificate 0; bipartite
    value 2).  When an SDP ran, ``gap`` is its duality gap, ``residuals``
    mirrors its (affine, cone, entrywise) report and ``iterations`` its
    iteration count (0 when no SDP ran); ``primal_certificate`` is PSD
    with constant diagonal ``value + gap - 1``.  A pin's dual certificate
    is ``1_K 1_K^T / k`` on the clique K and its primal certificate is
    ``k [c(u) = c(v)] - 1`` for the coloring c, the Gram matrix of simplex
    vectors indexed by color, with diagonal ``k - 1``; ``gap`` is the
    width of the interval the two certify, at rounding level.  A spectral
    pin of ``theta_bar`` or ``chi_vec`` carries Hoffman's dual-form matrix
    ``(I - A/tau) / n`` and the scaled projector ``-(n k / (rank tau))
    E_tau``; its value is the lower bound the first certifies and ``gap``
    the excess of the second's upper bound, at rounding level.
    :func:`spectral_vector_chromatic` carries the same two certificates
    with the value 1 - k/tau itself.
    """

    value: float
    gap: float = 0.0
    method: str = "sdp"
    primal_certificate: np.ndarray | None = None
    dual_certificate: np.ndarray | None = None
    residuals: tuple | None = None
    iterations: int = 0


def _from_solution(sol: SdpSolution, want_primal: bool) -> ParamResult:
    return ParamResult(
        value=sol.objective,
        gap=sol.gap,
        method="sdp",
        primal_certificate=sol.certificate if want_primal else None,
        dual_certificate=sol.X,
        residuals=sol.residuals,
        iterations=sol.iterations,
    )


def _pin(G: Graph, nonneg: bool, want_primal: bool, cap: int) -> ParamResult | None:
    """The value k of a graph whose maximum clique has size k and which
    has a proper k-coloring, with both certificates checked on G; None
    above the cap or the search depth, without such a coloring, or when
    a checker refuses a certificate."""
    try:
        neighbours, clique = _search_setup(G, cap)
    except CapacityError:
        return None
    k = len(clique)
    colors = _search_coloring(neighbours, k, clique)
    if colors is None:
        return None
    P = np.zeros((G.n, G.n))
    P[np.ix_(clique, clique)] = 1.0 / k
    M = k * (colors[:, None] == colors[None, :]) - 1.0
    lower, upper = dual_form_bound(G, P, nonneg), witness_bound(G, M, nonneg)
    if lower is None or upper is None:
        return None
    _log_solve("pin %s: value %d from a clique and a coloring", G.label or G.n, k,
               method="pin", k=k, iterations=0)
    return ParamResult(value=float(k), gap=abs(upper - lower), method="pin",
                       primal_certificate=M if want_primal else None, dual_certificate=P)


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


def _spectral_pin(G: Graph, nonneg: bool, want_primal: bool, gap_tol: float) -> ParamResult | None:
    """The value 1 - k/tau of a k-regular graph where Hoffman's dual-form
    matrix and scaled projector (:func:`_hoffman_pair`) both pass their
    checkers on G and certify an interval of width at most ``gap_tol``;
    None on any other graph."""
    degrees = G.degrees()
    if degrees.min() != degrees.max():
        return None
    _, P, M = _hoffman_pair(G, int(degrees[0]))
    lower, upper = dual_form_bound(G, P, nonneg), witness_bound(G, M, nonneg)
    if lower is None or upper is None or upper - lower > gap_tol:
        return None
    _log_solve("pin %s: value %.12g from the least eigenspace", G.label or G.n, lower,
               method="spectral", iterations=0)
    return ParamResult(value=lower, gap=max(0.0, upper - lower), method="spectral",
                       primal_certificate=M if want_primal else None, dual_certificate=P)


def _sdp_param(G: Graph, cfg, builder, want_primal: bool, cap: int) -> ParamResult:
    if G.n and G.edge_count == 0:
        P = np.zeros((G.n, G.n))
        P[0, 0] = 1.0
        return ParamResult(value=1.0, gap=0.0, method="convention", dual_certificate=P,
                           primal_certificate=np.zeros((G.n, G.n)) if want_primal else None)
    problem = builder(G)
    cfg = cfg or SolverConfig()
    pinned = (_pin(G, problem.nonneg, want_primal, cap)
              or _spectral_pin(G, problem.nonneg, want_primal, cfg.gap_tol))
    if pinned is not None:
        return pinned
    try:
        sol = solve(problem, cfg)
    except ConvergenceError as exc:
        partial = exc.partial and _from_solution(exc.partial, want_primal)
        raise ConvergenceError(str(exc), exc.residual, partial) from exc
    result = _from_solution(sol, want_primal)
    if sol.status != OPTIMAL:
        raise ConvergenceError(
            f"dual-form solve ended with status {sol.status}",
            residual=max(sol.residuals),
            partial=result,
        )
    return result


def theta_bar(G: Graph, cfg: SolverConfig | None = None, *, want_primal: bool = False,
              chromatic_cap: int = CHROMATIC_CAP_DEFAULT) -> ParamResult:
    """Strict vector chromatic number (Lovasz theta of the complement);
    pinned without a solve on graphs of at most ``chromatic_cap`` vertices
    where a maximum clique and a coloring agree, and on regular graphs of
    any order whose spectral certificates close within ``cfg.gap_tol``."""
    return _sdp_param(G, cfg, build_theta_bar, want_primal, chromatic_cap)


def chi_vec(G: Graph, cfg: SolverConfig | None = None, *, want_primal: bool = False,
            chromatic_cap: int = CHROMATIC_CAP_DEFAULT) -> ParamResult:
    """Vector chromatic number, pinned as :func:`theta_bar` is."""
    return _sdp_param(G, cfg, build_chi_vec, want_primal, chromatic_cap)


def spectral_lower_bound(G: Graph) -> float:
    """Average-degree bound 1 - (2e/n)/tau; requires at least one edge."""
    e = G.edge_count
    if e == 0:
        raise DomainError("spectral lower bound needs at least one edge")
    tau = float(eig_sym(G.adjacency())[0][0])
    return 1.0 - (2.0 * e / G.n) / tau


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
    :func:`dual_form_bound` and :func:`witness_bound`, both with the
    vector chromatic number's sign conditions, check them on G; the
    result carries both, with ``gap`` the width of the interval they
    certify.  No 1-homogeneity test runs: a graph that is not regular,
    whose certificates a checker refuses, or whose interval, widened to
    hold 1 - k/tau, is wider than ``SPECTRAL_WIDTH * max(1, value)``
    raises :class:`DomainError`.
    """
    if G.edge_count == 0:
        raise DomainError("spectral formula needs at least one edge")
    degrees = G.degrees()
    if degrees.min() != degrees.max():
        raise DomainError("spectral formula needs a regular graph")
    degree = int(degrees[0])
    tau, P, M = _hoffman_pair(G, degree)
    value = 1.0 - degree / tau
    lower = dual_form_bound(G, P, nonneg=True)
    if lower is None:
        raise DomainError("Hoffman's dual-form matrix fails the dual-form check")
    upper = witness_bound(G, M, nonneg=True)
    if upper is None:
        raise DomainError("the scaled least-eigenspace projector fails the witness check")
    width = max(upper, value) - min(lower, value)
    if width > SPECTRAL_WIDTH * max(1.0, value):
        raise DomainError(f"the spectral certificates leave [{lower!r}, {upper!r}] "
                          f"around 1 - k/tau = {value!r}, wider than {SPECTRAL_WIDTH:g}")
    return ParamResult(value=value, gap=max(0.0, upper - lower), method="spectral",
                       primal_certificate=M, dual_certificate=P)


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


def chromatic_coloring(G: Graph, limit: int | None = None, *,
                       cap: int = CHROMATIC_CAP_DEFAULT) -> np.ndarray:
    """A proper coloring with the fewest colors, exactly 0..chi-1: the
    first that deterministic backtracking finds, from the clique number
    of colors up.

    Raises :class:`LimitExceededError` before searching any number of
    colors above ``limit`` and :class:`CapacityError` above the vertex
    cap or the search depth.
    """
    neighbours, clique = _search_setup(G, cap)
    k = len(clique)
    while True:
        if limit is not None and k > limit:
            raise LimitExceededError(f"chromatic number exceeds limit {limit}", limit=limit)
        colors = _search_coloring(neighbours, k, clique)
        if colors is not None:
            return colors
        k += 1


def chromatic_number(G: Graph, limit: int | None = None, *, cap: int = CHROMATIC_CAP_DEFAULT) -> int:
    """Exact chromatic number: the color count of
    :func:`chromatic_coloring`, whose errors it raises."""
    return int(chromatic_coloring(G, limit, cap=cap).max(initial=-1)) + 1
