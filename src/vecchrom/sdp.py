"""Semidefinite programs for the coloring relaxations, and their solver.

A problem here is a single symmetric matrix variable X: minimize or
maximize <C, X> subject to equality constraints <A_i, X> = b_i,
entrywise conditions (fixed entries, upper bounds, lower bounds) and
X positive semidefinite.  Two builders produce the coloring
relaxations, both in dual form:

* theta-bar: maximize the total entry sum of P with tr(P) = 1, P zero
  on non-edges, P PSD.
* vector-chromatic: the same with P >= 0 entrywise added.

The solver is a first-order operator-splitting (consensus) iteration:
each pass projects a copy onto the affine set (through a pre-factored
normal-equation system), a copy onto the PSD cone (eigenvalue
clipping), and a copy onto the entrywise box, then applies an
over-relaxed dual update.  The consensus penalty is fixed at an
order-scaled value; runtime residual re-balancing destabilized several
degenerate product instances into limit cycles and was dropped.  The
reported duality gap compares the objective at a feasibility-rounded
iterate against a dual bound reconstructed from the splitting
multipliers; for the built coloring problems both sides are rigorous.
The bound comes with its witness, a feasible matrix of the primal
program (PSD, constant diagonal bound - 1, edge entries -1, resp. at
most -1), which the solution returns as its ``certificate``: its Gram
vectors are the vector coloring.

Everything is deterministic: identical problems and configurations
produce identical iterate sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError
from .graphs import Graph
from .linalg import eig_sym

OPTIMAL = "optimal"
MAX_ITER = "max_iter"
INFEASIBLE_SUSPECTED = "infeasible_suspected"

@dataclass(frozen=True)
class SolverConfig:
    """Tunables for :func:`solve`.

    ``tol`` bounds the reported affine/cone/entrywise residuals at
    termination, ``gap_tol`` the reported duality gap.  ``penalty``
    scales the consensus stiffness, which grows with the problem order.
    """

    tol: float = 1e-7
    gap_tol: float = 1e-5
    max_iter: int = 50000
    over_relaxation: float = 1.6
    penalty: float = 1.0
    check_every: int = 25

    def __post_init__(self):
        if min(self.tol, self.gap_tol, self.penalty) <= 0:
            raise DomainError("tolerances and penalty must be positive")
        if self.max_iter <= 0 or self.check_every <= 0:
            raise DomainError("iteration counts must be positive")
        if not 0.0 < self.over_relaxation < 2.0:
            raise DomainError("over_relaxation must lie in (0, 2)")


@dataclass
class SdpProblem:
    """min/max <objective, X> over PSD X with affine and entrywise conditions."""

    order: int
    objective: np.ndarray
    maximize: bool = False
    constraints: list = field(default_factory=list)
    fixed_mask: np.ndarray | None = None
    fixed_values: np.ndarray | None = None
    upper_mask: np.ndarray | None = None
    upper_values: np.ndarray | None = None
    lower_mask: np.ndarray | None = None
    lower_values: np.ndarray | None = None
    kind: str = "custom"
    edge_mask: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        n = self.order
        if n <= 0:
            raise DomainError("problem order must be positive")
        self.objective = _sym(self.objective, n)
        self.constraints = [(_sym(A, n), float(b)) for A, b in self.constraints]
        for name in ("fixed", "upper", "lower"):
            mask = getattr(self, f"{name}_mask")
            vals = getattr(self, f"{name}_values")
            if mask is None:
                continue
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (n, n):
                raise DomainError(f"{name} mask shape {mask.shape} does not match order")
            if not np.array_equal(mask, mask.T):
                raise DomainError(f"{name} mask must be symmetric")
            vals = np.zeros((n, n)) if vals is None else np.asarray(vals, dtype=float)
            setattr(self, f"{name}_mask", mask)
            setattr(self, f"{name}_values", vals)

    @property
    def has_box(self) -> bool:
        return any(
            m is not None and m.any() for m in (self.upper_mask, self.lower_mask)
        )


@dataclass
class SdpSolution:
    """Solver output; X is the affine-exact iterate and stays symmetric."""

    X: np.ndarray
    objective: float
    dual_objective: float
    gap: float
    residuals: tuple  # (affine, cone, entrywise)
    iterations: int
    status: str
    certificate: np.ndarray | None = None  # primal witness of dual_objective


@dataclass
class FeasibilityReport:
    ok: bool
    affine: float
    cone: float
    entrywise: float


def _sym(M, n):
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise DomainError(f"matrix shape {M.shape} does not match order {n}")
    return (M + M.T) / 2.0


def build_theta_bar(G: Graph) -> SdpProblem:
    """SDP whose optimum is theta-bar of G (Lovasz theta of the complement)."""
    if G.n == 0:
        raise DomainError("graph has no vertices")
    n = G.n
    adj = G.adj
    return SdpProblem(
        order=n,
        objective=np.ones((n, n)),
        maximize=True,
        constraints=[(np.eye(n), 1.0)],
        fixed_mask=(~adj & ~np.eye(n, dtype=bool)),
        fixed_values=np.zeros((n, n)),
        kind="theta_dual",
        edge_mask=adj.copy(),
        label=f"theta-bar dual ({G.label or G.n})",
    )


def build_chi_vec(G: Graph) -> SdpProblem:
    """SDP whose optimum is the vector chromatic number of G."""
    base = build_theta_bar(G)
    n = G.n
    base.lower_mask = np.ones((n, n), dtype=bool)
    base.lower_values = np.zeros((n, n))
    base.kind = "chivec_dual"
    base.label = f"chi-vec dual ({G.label or G.n})"
    return base


class _AffineSet:
    """Projection onto {X : X symmetric, fixed entries, <A_i, X> = b_i}."""

    def __init__(self, problem: SdpProblem):
        n = problem.order
        self.n = n
        if problem.fixed_mask is not None:
            self.fmask = problem.fixed_mask
            self.fvals = np.where(self.fmask, problem.fixed_values, 0.0)
        else:
            self.fmask = np.zeros((n, n), dtype=bool)
            self.fvals = np.zeros((n, n))
        cons = problem.constraints
        self.m = len(cons)
        self.b = np.array([b for _, b in cons])
        if self.m:
            rows = []
            self.b_eff = np.empty(self.m)
            for i, (A, b) in enumerate(cons):
                free = np.where(self.fmask, 0.0, A)
                rows.append(free.ravel())
                self.b_eff[i] = b - float((A * self.fvals).sum())
            self.Amat = np.stack(rows)
            self.Afull = np.stack([A.ravel() for A, _ in cons])
            gram = self.Amat @ self.Amat.T
            jitter = 1e-12 * max(1.0, float(np.trace(gram)) / self.m)
            self.Ginv = np.linalg.inv(gram + jitter * np.eye(self.m))
        else:
            self.Amat = self.Afull = None
            self.b_eff = np.array([])
            self.Ginv = None

    def project(self, Y: np.ndarray) -> np.ndarray:
        X = np.where(self.fmask, self.fvals, Y)
        if self.m:
            r = self.Amat @ X.ravel() - self.b_eff
            mu = self.Ginv @ r
            X = X - (self.Amat.T @ mu).reshape(self.n, self.n)
        return X

    def residual(self, X: np.ndarray) -> float:
        res = 0.0
        if self.m:
            res = float(np.abs(self.Afull @ X.ravel() - self.b).max())
        if self.fmask.any():
            res = max(res, float(np.abs((X - self.fvals)[self.fmask]).max()))
        return res

    def support(self, Y: np.ndarray) -> float:
        """Support function of the set at a normal-space direction Y."""
        val = float((Y * self.fvals)[self.fmask].sum()) if self.fmask.any() else 0.0
        if self.m:
            free = np.where(self.fmask, 0.0, Y)
            mu = self.Ginv @ (self.Amat @ free.ravel())
            val += float(mu @ self.b_eff)
        return val


class _Box:
    """Projection onto the entrywise bounds, as a single clip."""

    def __init__(self, problem: SdpProblem):
        n = problem.order
        self.hi = np.full((n, n), np.inf)
        self.lo = np.full((n, n), -np.inf)
        if problem.upper_mask is not None:
            self.hi[problem.upper_mask] = problem.upper_values[problem.upper_mask]
        if problem.lower_mask is not None:
            self.lo[problem.lower_mask] = problem.lower_values[problem.lower_mask]

    def project(self, Y: np.ndarray) -> np.ndarray:
        return np.clip(Y, self.lo, self.hi)

    def violation(self, X: np.ndarray) -> float:
        over = X - self.hi
        under = self.lo - X
        worst = 0.0
        if np.isfinite(self.hi).any():
            worst = max(worst, float(over[np.isfinite(self.hi)].max()))
        if np.isfinite(self.lo).any():
            worst = max(worst, float(under[np.isfinite(self.lo)].max()))
        return max(worst, 0.0)

    def support(self, Y: np.ndarray) -> float:
        val = 0.0
        hi_f = np.isfinite(self.hi)
        if hi_f.any():
            val += float((np.maximum(Y, 0.0) * np.where(hi_f, self.hi, 0.0))[hi_f].sum())
        lo_f = np.isfinite(self.lo)
        if lo_f.any():
            val += float((np.minimum(Y, 0.0) * np.where(lo_f, self.lo, 0.0))[lo_f].sum())
        return val


def _clip_psd(Y: np.ndarray) -> np.ndarray:
    # LAPACK path: this runs once per iteration, where the Jacobi kernel
    # would dominate the whole solve at product-graph orders.
    w, Q = np.linalg.eigh(Y)  # ascending
    if w[-1] <= 0.0:
        return np.zeros_like(Y)
    if w[0] >= 0.0:
        return Y
    X = (Q * np.maximum(w, 0.0)) @ Q.T
    return (X + X.T) / 2.0


def _feasible_point(problem: SdpProblem, X: np.ndarray):
    """Round the affine-exact iterate to an exactly feasible point.

    Only the two built problem kinds have enough structure for a
    closed-form rounding; custom problems return None and keep the raw
    iterate.  Clip to the entrywise bounds (pattern zeros are already
    exact), add -min_eig times the identity, rescale to unit trace.  The
    rounded objective therefore sits on the certified side of the
    optimum.
    """
    kind = problem.kind
    if kind not in ("theta_dual", "chivec_dual"):
        return None
    Y = np.maximum(X, 0.0) if kind == "chivec_dual" else X.copy()
    w = np.linalg.eigvalsh(Y)
    eps = max(0.0, -float(w[0]))
    if eps > 0.0:
        Y = Y + eps * np.eye(problem.order)
    return Y / np.trace(Y)


def _structural_dual_bound(problem: SdpProblem, S_est: np.ndarray):
    """Rigorous optimum bound for the coloring problems, and its witness.

    Any symmetric B with zero diagonal whose edge entries equal -1 (resp.
    are at most -1) yields the feasible primal matrix M = B - min_eig(B) I,
    so 1 - min_eig(B) upper-bounds theta-bar (resp. chi-vec).  B is read
    off the PSD-block multiplier estimate.  Returns (bound, M).
    """
    B = (S_est + S_est.T) / 2.0
    B = B - np.diag(np.diag(B))
    E = problem.edge_mask
    if problem.kind == "theta_dual":
        B = np.where(E, -1.0, B)
    else:
        B = np.where(E, np.minimum(B, -1.0), B)
    w = np.linalg.eigvalsh(B)
    np.fill_diagonal(B, -w[0])
    return 1.0 - float(w[0]), B


def solve(problem: SdpProblem, cfg: SolverConfig | None = None) -> SdpSolution:
    """Run the splitting iteration on one problem instance.

    A LAPACK failure inside the iteration raises :class:`ConvergenceError`
    whose ``partial`` is the best solution so far (None before the first
    convergence check).
    """
    cfg = cfg or SolverConfig()
    n = problem.order
    sense = -1.0 if problem.maximize else 1.0
    C_user = problem.objective
    C_min = sense * C_user

    aff = _AffineSet(problem)
    box = _Box(problem) if problem.has_box else None
    K = 3 if box is not None else 2

    # fixed order-scaled penalty: residual-balancing rescaling proved
    # actively harmful on these families (limit cycles on degenerate
    # product instances), while rho of order n converges on all of them
    rho = cfg.penalty * max(1.0, float(n))
    alpha = cfg.over_relaxation
    Z = aff.project(np.zeros((n, n)))
    Us = [np.zeros((n, n)) for _ in range(K)]
    structural = (
        problem.kind in ("theta_dual", "chivec_dual")
        and problem.edge_mask is not None
    )

    best = None  # (score, X, obj, dual, gap, residuals, iteration, certificate)
    status = MAX_ITER
    history = []
    it = 0
    try:
        for it in range(1, cfg.max_iter + 1):
            X_aff = aff.project(Z - Us[0])
            X_psd = _clip_psd(Z - Us[1])
            Xs = [X_aff, X_psd]
            if box is not None:
                Xs.append(box.project(Z - Us[2]))
            Z_old = Z
            hats = [alpha * Xk + (1.0 - alpha) * Z_old for Xk in Xs]
            Z = sum(h + U for h, U in zip(hats, Us)) / K - C_min / (K * rho)
            for k in range(K):
                Us[k] += hats[k] - Z

            if it % cfg.check_every and it != cfg.max_iter:
                continue

            X_rep = _feasible_point(problem, X_aff)
            if X_rep is None:
                X_rep = X_aff
                cone_res = max(0.0, -float(np.linalg.eigvalsh(X_rep)[0]))
            else:
                cone_res = 0.0  # exact by construction; re-measured at return
            aff_res = aff.residual(X_rep)
            box_res = box.violation(X_rep) if box is not None else 0.0
            obj = float((C_user * X_rep).sum())
            certificate = None
            if structural:
                dual, certificate = _structural_dual_bound(problem, rho * Us[1])
            else:
                g_min = -aff.support(-rho * Us[0])
                if box is not None:
                    g_min -= box.support(-rho * Us[2])
                dual = -g_min if problem.maximize else g_min
            gap = abs(obj - dual)

            score = max(aff_res, cone_res, box_res) + gap
            current = (score, X_rep, obj, dual, gap,
                       (aff_res, cone_res, box_res), it, certificate)
            if (
                aff_res <= cfg.tol
                and cone_res <= cfg.tol
                and box_res <= cfg.tol
                and gap <= cfg.gap_tol
            ):
                status = OPTIMAL
                best = current
                break
            if best is None or score < best[0]:
                best = current

            # the two built families are feasible by construction, so
            # stagnation there is only slowness; suspect infeasibility for
            # custom problems alone
            if problem.kind == "custom":
                history.append(score)
                if len(history) >= 600 and score > 1e4 * cfg.tol:
                    if score > 0.998 * history[-600]:
                        status = INFEASIBLE_SUSPECTED
                        break
        cone_final = max(0.0, -float(np.linalg.eigvalsh(best[1])[0]))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigensolver failed at iteration {it}: {exc}",
            residual=None if best is None else best[0],
            partial=None if best is None else _solution(best, it, MAX_ITER),
        ) from exc
    return _solution(best, it, status, cone_final)


def _solution(best, it: int, status: str, cone: float | None = None) -> SdpSolution:
    """The recorded best iterate; ``cone`` replaces its cone residual."""
    _, X, obj, dual, gap, residuals, at_iter, certificate = best
    if cone is not None:
        residuals = (residuals[0], cone, residuals[2])
    return SdpSolution(
        X=X,
        objective=obj,
        dual_objective=dual,
        gap=gap,
        residuals=residuals,
        iterations=it if status != OPTIMAL else at_iter,
        status=status,
        certificate=certificate,
    )


def check_feasibility(problem: SdpProblem, X, tol: float) -> FeasibilityReport:
    """Independent constraint scan over a candidate solution.

    Deliberately a fresh code path: plain loops over the stated
    constraints, and the package's own Jacobi eigensolver for the cone.
    """
    X = np.asarray(X, dtype=float)
    affine = 0.0
    for A, b in problem.constraints:
        affine = max(affine, abs(float((A * X).sum()) - b))
    if problem.fixed_mask is not None and problem.fixed_mask.any():
        dev = np.abs(X - problem.fixed_values)[problem.fixed_mask]
        affine = max(affine, float(dev.max()))
    entrywise = 0.0
    if problem.upper_mask is not None and problem.upper_mask.any():
        entrywise = max(entrywise, float((X - problem.upper_values)[problem.upper_mask].max()))
    if problem.lower_mask is not None and problem.lower_mask.any():
        entrywise = max(entrywise, float((problem.lower_values - X)[problem.lower_mask].max()))
    entrywise = max(entrywise, 0.0)
    cone = max(0.0, -eig_sym(X).least)
    ok = affine <= tol and entrywise <= tol and cone <= tol
    return FeasibilityReport(ok, affine, cone, entrywise)
