"""The two coloring SDPs of a graph, and their solver.

Both programs are in dual form over one symmetric matrix P of the
graph's order:

* theta-bar: maximize the total entry sum of P with tr(P) = 1, P zero
  on non-edges, P PSD.
* vector-chromatic: the same with P >= 0 entrywise added.

A problem is therefore the graph's adjacency plus a ``nonneg`` flag.

The solver is two-set Douglas-Rachford splitting (Lions and Mercier
1979) on one state matrix V: each pass clips V onto the PSD cone
(eigenvalue clipping), projects the reflection, shifted by the
objective's gradient, onto the program's constraint set, and moves V by
the over-relaxed difference.  The family enters only through that
projection, which is closed-form for both.  The step is fixed at an
order-scaled value; runtime residual re-balancing destabilized several
degenerate product instances into limit cycles and was dropped.

Convergence is checked every ``EARLY_CHECK_EVERY`` iterations through
iteration ``EARLY_CHECKS_UNTIL``, where most solves of small graphs end,
then every ``CHECK_EVERY``, and always at ``max_iter``.  A solve stops
only at a check, and only on a certified gap (below).

After the first check the pass is treated as a fixed-point map on V and
accelerated by type-II Anderson extrapolation over the last
``ANDERSON_MEMORY`` steps (Walker and Ni 2011; Zhang, O'Donoghue and
Boyd 2020).  A safeguard keeps it from doing harm: an extrapolated point
whose fixed-point residual exceeds that of the point it came from is
replaced by that point's plain step, and the memory is cleared.  Every
counted iteration is one pass with one eigendecomposition, whether or
not its point was extrapolated, and solves that stop at the first check
run the plain iteration.

Each solve ends with one debug event on the ``vecchrom`` logger that
gives its status, iterations and number of checks, once the caller has
imported ``logging``.

The reported duality gap compares the objective at a feasibility-rounded
iterate against a dual bound reconstructed from the PSD-cone
multiplier; both sides are rigorous whatever the iterates.  The bound
comes with its witness, a feasible matrix of the primal program (PSD,
constant diagonal bound - 1, edge entries -1, resp. at most -1), which
the solution returns as its ``certificate``: its Gram vectors are the
vector coloring.

Everything is deterministic: identical problems and configurations
produce identical iterate sequences.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError
from .graphs import Graph

OPTIMAL = "optimal"
MAX_ITER = "max_iter"

PENALTY = 1.0  # splitting step weight per unit of problem order
OVER_RELAXATION = 1.6
ANDERSON_MEMORY = 10  # residual differences kept by the acceleration
ANDERSON_REGULARIZATION = 1e-10  # Tikhonov weight relative to the Gram norm
EARLY_CHECK_EVERY = 5  # iterations between convergence checks up to ...
EARLY_CHECKS_UNTIL = 50  # ... this iteration,
CHECK_EVERY = 25  # and after it (a check also runs at max_iter)


def _is_check(it: int) -> bool:
    """Whether the schedule checks convergence after iteration ``it``."""
    return it % (EARLY_CHECK_EVERY if it <= EARLY_CHECKS_UNTIL else CHECK_EVERY) == 0


def _log_solve(message: str, *args, **fields):
    """One debug event on the ``vecchrom`` logger, ``fields`` as record
    attributes.  A handler can only be set up through ``logging``, so
    before anything imports it no event could be delivered, and the
    solver does not import it (about 0.5 MB and 5 ms of start-up)."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("vecchrom").debug(message, *args, extra=fields)


@dataclass(frozen=True)
class SolverConfig:
    """Tunables for :func:`solve`.

    ``tol`` bounds the reported trace residual at termination, ``gap_tol``
    the reported duality gap.  Solves stop on ``gap_tol``: every reported
    point is rounded to exact feasibility, so its trace residual is at
    rounding level by construction.
    """

    tol: float = 1e-7
    gap_tol: float = 1e-5
    max_iter: int = 50000

    def __post_init__(self):
        if not all(isinstance(t, numbers.Real) and not isinstance(t, bool)
                   for t in (self.tol, self.gap_tol)):
            raise DomainError("tolerances must be real numbers")
        if not (self.tol > 0 and self.gap_tol > 0):  # NaN compares False
            raise DomainError("tolerances must be positive")
        if not isinstance(self.max_iter, numbers.Integral) or isinstance(self.max_iter, bool):
            raise DomainError("the iteration count must be an integer")
        if self.max_iter <= 0:
            raise DomainError("the iteration count must be positive")


@dataclass(frozen=True)
class SdpProblem:
    """Maximize the entry sum of a unit-trace PSD matrix that is zero on
    the non-edges of ``adj`` and, with ``nonneg``, entrywise nonnegative."""

    adj: np.ndarray
    nonneg: bool = False
    label: str = ""

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise DomainError(f"adjacency must be square, got shape {adj.shape}")
        if adj.shape[0] == 0:
            raise DomainError("problem order must be positive")
        if not np.array_equal(adj, adj.T) or adj.diagonal().any():
            raise DomainError("adjacency must be symmetric with an empty diagonal")
        object.__setattr__(self, "adj", adj)

    @property
    def order(self) -> int:
        return self.adj.shape[0]

    @property
    def kind(self) -> str:
        return "chivec_dual" if self.nonneg else "theta_dual"


@dataclass
class SdpSolution:
    """Solver output; X is the affine-exact iterate and stays symmetric."""

    X: np.ndarray
    objective: float
    dual_objective: float
    gap: float
    residuals: tuple  # (trace, cone, entrywise); entrywise is 0.0 by construction
    iterations: int
    status: str
    certificate: np.ndarray  # primal witness of dual_objective


def build_theta_bar(G: Graph) -> SdpProblem:
    """SDP whose optimum is theta-bar of G (Lovasz theta of the complement)."""
    return SdpProblem(G.adj, label=f"theta-bar dual ({G.label or G.n})")


def build_chi_vec(G: Graph) -> SdpProblem:
    """SDP whose optimum is the vector chromatic number of G."""
    return SdpProblem(G.adj, nonneg=True, label=f"chi-vec dual ({G.label or G.n})")


def _project_affine(Y: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Nearest matrix that is zero off ``pattern`` and has unit trace."""
    X = np.where(pattern, Y, 0.0)
    X.flat[:: X.shape[0] + 1] += (1.0 - np.trace(X)) / X.shape[0]
    return X


def _project_chi_vec(Y: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Nearest matrix that is zero off ``pattern``, nonnegative and of unit
    trace.  The set separates by entry except for the diagonal's trace, so
    the edge entries clip at 0 and the diagonal goes onto the unit simplex
    by the sort-based rule (Held, Wolfe and Crowder 1974)."""
    X = np.where(pattern, np.maximum(Y, 0.0), 0.0)
    y = np.diag(Y)
    top = np.sort(y)[::-1]
    excess = np.cumsum(top) - 1.0
    k = np.flatnonzero(top * np.arange(1, y.size + 1) > excess)[-1]
    np.fill_diagonal(X, np.maximum(y - excess[k] / (k + 1), 0.0))
    return X


def _clip_psd(Y: np.ndarray) -> np.ndarray:
    w, Q = np.linalg.eigh(Y)  # ascending
    if w[-1] <= 0.0:
        return np.zeros_like(Y)
    if w[0] >= 0.0:
        return Y
    X = (Q * np.maximum(w, 0.0)) @ Q.T
    return (X + X.T) / 2.0


def _feasible_point(X: np.ndarray) -> np.ndarray:
    """Round the projected iterate to an exactly feasible point.

    The iterate already meets the pattern (and for chi-vec the sign)
    constraints; add -min_eig times the identity and rescale to unit
    trace.  The rounded objective therefore sits on the certified side
    of the optimum.
    """
    Y = X + max(0.0, -float(np.linalg.eigvalsh(X)[0])) * np.eye(X.shape[0])
    return Y / np.trace(Y)


def _structural_dual_bound(problem: SdpProblem, S_est: np.ndarray):
    """Rigorous optimum bound, and its witness.

    Any symmetric B with zero diagonal whose edge entries equal -1 (resp.
    are at most -1) yields the feasible primal matrix M = B - min_eig(B) I,
    so 1 - min_eig(B) upper-bounds theta-bar (resp. chi-vec).  B is read
    off the PSD-cone multiplier estimate.  Returns (bound, M).
    """
    B = (S_est + S_est.T) / 2.0
    B = B - np.diag(np.diag(B))
    E = problem.adj
    if problem.nonneg:
        B = np.where(E, np.minimum(B, -1.0), B)
    else:
        B = np.where(E, -1.0, B)
    w = np.linalg.eigvalsh(B)
    np.fill_diagonal(B, -w[0])
    return 1.0 - float(w[0]), B


class _Anderson:
    """Safeguarded type-II Anderson acceleration of the splitting pass.

    One pass is a fixed-point map V -> T(V) on the symmetric state
    matrix, which is accelerated as its upper triangle, so the iterates
    stay symmetric.

    The last ``ANDERSON_MEMORY`` differences of residuals g = T(x) - x
    and of images T(x) sit in preallocated rows, their Gram matrix is
    updated one row at a time, and the next point is the newest image
    minus the image differences weighted by the Tikhonov-regularized
    least-squares fit of the newest residual.  An extrapolated point whose
    residual exceeds that of the point it came from is dropped for that
    point's plain image, and the memory is cleared; so is a fit that
    fails.
    """

    def __init__(self, n: int):
        self.upper = np.triu_indices(n)
        self.lower = self.upper[::-1]
        dim = len(self.upper[0])
        self.dG = np.empty((ANDERSON_MEMORY, dim))
        self.dF = np.empty((ANDERSON_MEMORY, dim))
        self.gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.x = None  # the current point, packed
        self.base = None  # (image, packed image, residual) extrapolated from
        self._clear()

    def _clear(self):
        self.count = self.slot = 0
        self.f = self.g = None

    def next_point(self, V: np.ndarray) -> np.ndarray:
        """The point to evaluate next, given the image V = T(x) of the
        current point x."""
        f = V[self.upper]
        if self.x is None:
            self.x = f
            return V
        g = f - self.x
        res = float(np.sqrt(g @ g))
        if self.base is not None and not res <= self.base[2]:
            V, self.x, _ = self.base
            self.base = None
            self._clear()
            return V
        x = self._extrapolate(f, g)
        if x is None:
            self.x, self.base = f, None
            return V
        self.x, self.base = x, (V, f, res)
        out = np.empty_like(V)
        out[self.upper] = x
        out[self.lower] = x
        return out

    def _extrapolate(self, f: np.ndarray, g: np.ndarray):
        """Record the image f and residual g; the extrapolated point, or
        None for the plain step f."""
        if self.f is not None:
            s = self.slot
            np.subtract(g, self.g, out=self.dG[s])
            np.subtract(f, self.f, out=self.dF[s])
            self.count = min(self.count + 1, ANDERSON_MEMORY)
            self.slot = (s + 1) % ANDERSON_MEMORY
            row = self.dG[: self.count] @ self.dG[s]
            self.gram[s, : self.count] = row
            self.gram[: self.count, s] = row
        self.f, self.g = f, g
        c = self.count
        if c == 0:
            return None
        M = self.gram[:c, :c]
        try:
            gamma = np.linalg.solve(
                M + ANDERSON_REGULARIZATION * np.linalg.norm(M) * np.eye(c),
                self.dG[:c] @ g,
            )
        except np.linalg.LinAlgError:
            gamma = None
        if gamma is None or not np.isfinite(gamma).all():
            self._clear()
            return None
        return f - gamma @ self.dF[:c]


def solve(problem: SdpProblem, cfg: SolverConfig | None = None) -> SdpSolution:
    """Run the splitting iteration on one problem instance.

    A LAPACK failure inside the iteration raises :class:`ConvergenceError`
    whose ``partial`` is the best solution so far (None before the first
    convergence check).
    """
    cfg = cfg or SolverConfig()
    n = problem.order
    pattern = problem.adj | np.eye(n, dtype=bool)  # the entries that may be nonzero
    project = _project_chi_vec if problem.nonneg else _project_affine
    rho = PENALTY * max(1.0, float(n))
    V = np.zeros((n, n))
    accel = _Anderson(n)

    best = score = None  # the best check so far, and its residual plus gap
    status = MAX_ITER
    it = checks = 0
    try:
        for it in range(1, cfg.max_iter + 1):
            Z = _clip_psd(V)
            # the objective maximizes the entry sum: minimize <-J, X>
            X = project(2.0 * Z - V + 1.0 / rho, pattern)
            V_in, V = V, V + OVER_RELAXATION * (X - Z)

            if _is_check(it) or it == cfg.max_iter:
                checks += 1
                X_rep = _feasible_point(X)
                # off the pattern, and for chi-vec below 0, the rounded point is
                # 0 by construction: only its trace is measured (its cone at return)
                trace_res = abs(float(np.trace(X_rep)) - 1.0)
                obj = float(X_rep.sum())
                dual, certificate = _structural_dual_bound(problem, rho * (Z - V_in))
                gap = abs(obj - dual)
                converged = trace_res <= cfg.tol and gap <= cfg.gap_tol
                if converged or best is None or trace_res + gap < score:
                    best = SdpSolution(X_rep, obj, dual, gap, (trace_res, 0.0, 0.0), it,
                                       OPTIMAL, certificate)
                    score = trace_res + gap
                if converged:
                    status = OPTIMAL
                    break

            # accelerated from the first check on, so solves that stop
            # there run the plain iteration
            if it >= EARLY_CHECK_EVERY:
                V = accel.next_point(V)
        cone = max(0.0, -float(np.linalg.eigvalsh(best.X)[0]))
    except np.linalg.LinAlgError as exc:
        _log_solve("solve %s: eigensolver failed at iteration %d after %d checks",
                   problem.label, it, checks, status=MAX_ITER, iterations=it, checks=checks)
        raise ConvergenceError(
            f"eigensolver failed at iteration {it}: {exc}",
            residual=score,
            partial=None if best is None else replace(best, iterations=it, status=MAX_ITER),
        ) from exc
    _log_solve("solve %s: %s after %d iterations and %d checks", problem.label, status, it,
               checks, status=status, iterations=it, checks=checks)
    return replace(best, residuals=(best.residuals[0], cone, 0.0), status=status, iterations=it)
