import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given

from conftest import random_graph, small_graph
from vecchrom import graphs, params, sdp
from vecchrom.certificates import dual_form_bound, witness_bound
from vecchrom.errors import ConvergenceError, DomainError
from vecchrom.sdp import (
    MAX_ITER,
    OPTIMAL,
    SdpProblem,
    SolverConfig,
    build_chi_vec,
    build_theta_bar,
    solve,
)

CFG = SolverConfig()
SQRT5 = np.sqrt(5.0)


def _c5_spectral_oracle():
    # 1 - k/tau with tau = 2 cos(4 pi / 5), computed independently
    tau = 2.0 * np.cos(4.0 * np.pi / 5.0)
    return 1.0 - 2.0 / tau


# --- dual-form values -------------------------------------------------------

def test_theta_dual_k3():
    sol = solve(build_theta_bar(graphs.generate("complete", 3)), CFG)
    assert sol.status == OPTIMAL
    assert abs(sol.objective - 3.0) <= 1e-5


def test_theta_dual_empty_graph():
    sol = solve(build_theta_bar(graphs.generate("empty", 4)), CFG)
    assert sol.status == OPTIMAL
    assert abs(sol.objective - 1.0) <= 1e-6


def test_theta_dual_c5_vs_spectral_oracle():
    oracle = _c5_spectral_oracle()
    assert abs(oracle - SQRT5) <= 1e-12
    sol = solve(build_theta_bar(graphs.generate("cycle", 5)), CFG)
    assert abs(sol.objective - oracle) <= 1e-4


def test_theta_dual_k2_analytic_oracle():
    # P = [[a, c], [c, 1 - a]] maximizes 1 + 2c with c <= sqrt(a(1-a))
    grid = np.linspace(0.0, 1.0, 20001)
    oracle = float(np.max(1.0 + 2.0 * np.sqrt(grid * (1.0 - grid))))
    assert abs(oracle - 2.0) <= 1e-7
    sol = solve(build_theta_bar(graphs.generate("complete", 2)), CFG)
    assert abs(sol.objective - 2.0) <= 1e-5
    # the dual P is supported on the diagonal and the edge (everything here)
    assert abs(np.trace(sol.X) - 1.0) <= 1e-6


def test_chivec_dual_complete_graphs():
    for n in range(2, 7):
        sol = solve(build_chi_vec(graphs.generate("complete", n)), CFG)
        assert sol.status == OPTIMAL
        assert abs(sol.objective - n) <= 1e-5


def test_chivec_dual_c5():
    sol = solve(build_chi_vec(graphs.generate("cycle", 5)), CFG)
    assert abs(sol.objective - _c5_spectral_oracle()) <= 1e-4


def test_chivec_below_theta_on_random_graphs():
    rng_seeds = range(20)
    for seed in rng_seeds:
        G = random_graph(4 + seed % 5, seed=seed)
        tb = solve(build_theta_bar(G), CFG).objective if G.edge_count else 1.0
        cv = solve(build_chi_vec(G), CFG).objective if G.edge_count else 1.0
        assert cv <= tb + 1e-5


# --- the primal certificate of the dual bound --------------------------------

def _certificate_graphs():
    C5, C7 = graphs.generate("cycle", 5), graphs.generate("cycle", 7)
    P = graphs.generate("petersen")
    return {
        "C5": C5,
        "petersen": P,
        "PcartP": graphs.product("cartesian", P, P),
        "C5strongC7": graphs.product("strong", C5, C7),
        "C5catC7": graphs.product("categorical", C5, C7),
    }


@pytest.mark.parametrize("graph", list(_certificate_graphs()))
@pytest.mark.parametrize("which", ["theta_bar", "chi_vec"])
def test_dual_certificate_satisfies_primal_constraints(monkeypatch, no_spectral_pin, which, graph):
    G = _certificate_graphs()[graph]
    solutions = []

    def counting_solve(problem, cfg=None):
        solutions.append(solve(problem, cfg))
        return solutions[-1]

    monkeypatch.setattr(params, "solve", counting_solve)
    res = getattr(params, which)(G, CFG, want_primal=True)
    assert len(solutions) == 1
    sol = solutions[0]
    assert res.primal_certificate is sol.certificate
    _assert_primal_certificate(G, which, sol)
    assert (res.value, res.iterations) == (sol.objective, sol.iterations)
    # the result's interval is the checkers' on the solve's pair, and its
    # gap that interval's width, within rounding of the solver's own gap
    nonneg = which == "chi_vec"
    assert res.dual_certificate is sol.X
    assert (res.lower, res.upper) == (dual_form_bound(G, sol.X, nonneg),
                                      witness_bound(G, sol.certificate, nonneg))
    assert res.gap == max(0.0, res.upper - res.lower)
    assert abs(res.gap - sol.gap) <= 1e-14


def _assert_primal_certificate(G, which, sol):
    M = sol.certificate
    assert M.shape == (G.n, G.n) and np.array_equal(M, M.T)
    # the primal program, stated directly: constant diagonal at the dual
    # bound minus one, edge entries -1 (theta-bar) or at most -1
    # (chi-vec), positive semidefinite
    diag = np.diag(M)
    assert np.all(diag == diag[0])
    assert abs(diag[0] - (sol.dual_objective - 1.0)) <= 1e-12 * sol.dual_objective
    edges = M[G.adj]
    if which == "theta_bar":
        assert np.all(edges == -1.0)
    else:
        assert np.all(edges <= -1.0)
    np.linalg.cholesky(M + 1e-9 * np.eye(G.n))
    assert sol.dual_objective - sol.objective == sol.gap <= CFG.gap_tol


def _simplex_by_bisection(y):
    # the threshold t with sum(max(y - t, 0)) = 1, bracketed by a sum of at
    # least n at min(y) - 1 and of 0 at max(y)
    lo, hi = float(y.min()) - 1.0, float(y.max())
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if np.maximum(y - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(y - (lo + hi) / 2.0, 0.0)


def _chi_vec_projection_inputs():
    rng = np.random.default_rng(2025)
    for G in (graphs.generate("empty", 1), graphs.generate("empty", 4),
              graphs.generate("complete", 5), graphs.generate("petersen"),
              *(random_graph(n, seed=90 + n) for n in (3, 6, 9))):
        for diagonal in ("random", "ties", "negative"):
            Y = rng.standard_normal((G.n, G.n))
            Y = Y + Y.T
            if diagonal == "ties":
                np.fill_diagonal(Y, rng.choice([0.4, 0.1, -0.2], G.n))
            elif diagonal == "negative":
                np.fill_diagonal(Y, -rng.random(G.n) - 0.1)
            yield G, Y


def test_chi_vec_projection_is_the_nearest_feasible_point():
    rng = np.random.default_rng(8)
    for G, Y in _chi_vec_projection_inputs():
        pattern = G.adj | np.eye(G.n, dtype=bool)
        X = sdp._project_chi_vec(Y, pattern)
        assert np.all(X[~pattern] == 0.0) and X.min() >= 0.0
        assert abs(np.trace(X) - 1.0) <= 1e-14
        assert np.abs(np.diag(X) - _simplex_by_bisection(np.diag(Y))).max() <= 1e-12
        distance = np.linalg.norm(X - Y)
        for t in np.geomspace(1e-3, 1.0, 100):
            F = np.where(pattern, rng.random((G.n, G.n)), 0.0)
            F = F + F.T
            d = rng.random(G.n)
            np.fill_diagonal(F, d / d.sum())
            # mixing with X keeps F feasible and brings it close to X
            F = t * F + (1.0 - t) * X
            assert distance <= np.linalg.norm(F - Y) + 1e-12


def test_gap_certificate_on_every_solve():
    for seed in range(6):
        G = random_graph(5 + seed % 3, seed=30 + seed)
        if G.edge_count == 0:
            continue
        for builder in (build_theta_bar, build_chi_vec):
            sol = solve(builder(G), CFG)
            assert sol.status == OPTIMAL
            assert sol.gap <= CFG.gap_tol
            assert abs(sol.objective - sol.dual_objective) == sol.gap


@pytest.mark.parametrize("max_iter", [7, 60])
@pytest.mark.parametrize("builder", [build_theta_bar, build_chi_vec])
@given(G=small_graph())
def test_rounded_iterate_is_exactly_zero_off_the_pattern(builder, max_iter, G):
    # the solver measures only the trace residual: the pattern residual and,
    # for chi-vec, the sign residual are 0 by construction
    sol = solve(builder(G), SolverConfig(max_iter=max_iter))
    pattern = G.adj | np.eye(G.n, dtype=bool)
    assert np.all(sol.X[~pattern] == 0.0) and sol.residuals[2] == 0.0
    if builder is build_chi_vec:
        assert sol.X.min() >= 0.0


def test_edge_monotonicity_of_theta():
    # adding edges relaxes the dual pattern constraint: value never drops
    rng = np.random.default_rng(12)
    G = graphs.generate("empty", 6)
    previous = 1.0
    non_edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    rng.shuffle(non_edges)
    edges = []
    for u, v in non_edges[:8]:
        edges.append((u, v))
        G = graphs.graph_from_edges(6, edges)
        value = solve(build_theta_bar(G), CFG).objective
        assert value >= previous - 2e-5
        previous = value


def test_determinism_bitwise():
    G = random_graph(6, seed=77)
    a = solve(build_theta_bar(G), CFG)
    b = solve(build_theta_bar(G), CFG)
    assert a.iterations == b.iterations
    assert a.objective == b.objective
    assert np.array_equal(a.X, b.X)


# --- Anderson acceleration ----------------------------------------------------

def _petersen_box_c5():
    return graphs.product("cartesian", graphs.generate("petersen"), graphs.generate("cycle", 5))


# At the iteration counts of the accelerated iteration (20, 15, 10, 20 and
# 150), below those of the plain splitting iteration (100, 50, 10, 125
# and 250), all counted at the checks of the schedule: a change that
# silently stops the acceleration fails here (P x K3 aside, which the
# plain iteration solves as fast).
@pytest.mark.parametrize("which, G, bound", [
    ("theta_bar", _petersen_box_c5(), 20),
    ("chi_vec", _petersen_box_c5(), 15),
    ("chi_vec", graphs.product("cartesian", graphs.generate("petersen"),
                               graphs.generate("complete", 3)), 10),
    ("theta_bar", graphs.product("strong", graphs.generate("cycle", 5),
                                 graphs.generate("cycle", 5)), 20),
    ("theta_bar", graphs.product("categorical", graphs.generate("cycle", 5),
                                 graphs.generate("cycle", 7)), 150),
], ids=["theta-PxC5", "chivec-PxC5", "chivec-PxK3", "theta-C5sC5", "theta-C5cC7"])
def test_acceleration_iteration_counts(which, G, bound):
    builder = build_theta_bar if which == "theta_bar" else build_chi_vec
    sol = solve(builder(G), CFG)
    assert sol.status == OPTIMAL
    assert sol.iterations <= bound


def test_safeguard_rejects_bad_extrapolation(monkeypatch):
    G = _petersen_box_c5()
    reference = solve(build_theta_bar(G), CFG)
    calls = []

    def bad_extrapolation(self, f, g):
        calls.append(1)
        return f + 100.0 * (1.0 + np.abs(f).max())

    monkeypatch.setattr(sdp._Anderson, "_extrapolate", bad_extrapolation)
    sol = solve(build_theta_bar(G), CFG)
    assert calls
    assert sol.status == OPTIMAL
    assert abs(sol.objective - reference.objective) <= CFG.gap_tol
    _assert_primal_certificate(G, "theta_bar", sol)


def test_failed_fit_clears_memory_and_runs_plain_steps(monkeypatch):
    def failing_solve(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(sdp.np.linalg, "solve", failing_solve)
    sol = solve(build_theta_bar(_petersen_box_c5()), CFG)
    # every fit fails, so every step is the plain one: the count of the
    # unaccelerated iteration
    assert sol.status == OPTIMAL and sol.iterations == 100


def test_eigh_once_per_iteration(monkeypatch):
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(Y, *args, **kwargs):
        calls.append(1)
        return eigh(Y, *args, **kwargs)

    extrapolate = sdp._Anderson._extrapolate
    extrapolated = []

    def counting_extrapolate(self, f, g):
        x = extrapolate(self, f, g)
        extrapolated.append(x is not None)
        return x

    monkeypatch.setattr(sdp.np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(sdp._Anderson, "_extrapolate", counting_extrapolate)
    sol = solve(build_chi_vec(_petersen_box_c5()), CFG)
    # the solve runs past its first extrapolated point, and every
    # iteration, plain or extrapolated, costs one eigh
    assert sol.status == OPTIMAL and any(extrapolated)
    assert len(calls) == sol.iterations


# --- the check schedule -------------------------------------------------------

def _scheduled_checks(last):
    return [it for it in range(1, last + 1) if sdp._is_check(it)]


def test_check_schedule():
    assert _scheduled_checks(sdp.EARLY_CHECKS_UNTIL) == list(
        range(sdp.EARLY_CHECK_EVERY, sdp.EARLY_CHECKS_UNTIL + 1, sdp.EARLY_CHECK_EVERY))
    late = _scheduled_checks(200)[len(_scheduled_checks(sdp.EARLY_CHECKS_UNTIL)):]
    assert late == list(range(sdp.EARLY_CHECKS_UNTIL + sdp.CHECK_EVERY, 201, sdp.CHECK_EVERY))


@pytest.mark.parametrize("problem", [
    build_theta_bar(graphs.generate("petersen")),
    build_chi_vec(graphs.generate("cycle", 5)),
    build_theta_bar(_petersen_box_c5()),
    build_chi_vec(_petersen_box_c5()),
], ids=["theta-P", "chivec-C5", "theta-PxC5", "chivec-PxC5"])
def test_solve_stops_at_first_passing_check(problem, caplog):
    caplog.set_level("DEBUG", logger="vecchrom")
    sol = solve(problem, CFG)
    assert sol.status == OPTIMAL and sdp._is_check(sol.iterations)
    assert sol.iterations > sdp.EARLY_CHECK_EVERY
    # the iterates do not depend on max_iter, so stopping one check
    # earlier ends at the best of those checks, none of which passed
    early = solve(problem, SolverConfig(max_iter=sol.iterations - sdp.EARLY_CHECK_EVERY))
    assert early.status == MAX_ITER
    assert early.iterations == sol.iterations - sdp.EARLY_CHECK_EVERY
    assert early.gap > CFG.gap_tol
    events = [r for r in caplog.records if r.name == "vecchrom"]
    assert [(r.status, r.iterations, r.checks) for r in events] == [
        (OPTIMAL, sol.iterations, len(_scheduled_checks(sol.iterations))),
        (MAX_ITER, early.iterations, len(_scheduled_checks(early.iterations))),
    ]


def test_stop_at_first_check_runs_plain_iteration(monkeypatch):
    calls = []
    next_point = sdp._Anderson.next_point

    def counting_next_point(self, V):
        calls.append(1)
        return next_point(self, V)

    monkeypatch.setattr(sdp._Anderson, "next_point", counting_next_point)
    sol = solve(build_theta_bar(graphs.generate("complete", 5)), CFG)
    assert sol.status == OPTIMAL and sol.iterations == sdp.EARLY_CHECK_EVERY
    assert calls == []
    # past the first check the acceleration runs on every iteration
    sol = solve(build_theta_bar(graphs.generate("petersen")), CFG)
    assert len(calls) == sol.iterations - sdp.EARLY_CHECK_EVERY


def test_eigensolver_failure_is_logged(monkeypatch, caplog):
    def failing_eigh(Y, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    caplog.set_level("DEBUG", logger="vecchrom")
    monkeypatch.setattr(sdp.np.linalg, "eigh", failing_eigh)
    with pytest.raises(ConvergenceError) as err:
        solve(build_theta_bar(graphs.generate("petersen")), CFG)
    assert err.value.partial is None
    [event] = [r for r in caplog.records if r.name == "vecchrom"]
    assert (event.status, event.iterations, event.checks) == (MAX_ITER, 1, 0)


def test_solve_does_not_import_logging():
    # the events go out once the caller has imported logging; a run that
    # never does pays nothing for them
    code = ("import sys; from vecchrom import graphs, params; "
            "params.theta_bar(graphs.graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), "
            "(4, 0), (0, 5)])); "  # solved: C_5 with a pendant vertex
            "params.theta_bar(graphs.generate('petersen')); "  # spectral pin
            "params.theta_bar(graphs.generate('complete', 5)); "  # pinned
            "assert 'logging' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# --- error and status handling ----------------------------------------------

def test_zero_vertex_graph_rejected():
    with pytest.raises(DomainError):
        build_theta_bar(graphs.generate("empty", 0))


def test_max_iter_reports_best_iterate():
    # below the first check: the one check at max_iter records the best iterate
    cfg = SolverConfig(max_iter=sdp.EARLY_CHECK_EVERY - 1)
    sol = solve(build_theta_bar(graphs.generate("petersen")), cfg)
    assert sol.status == MAX_ITER and sol.iterations == cfg.max_iter
    assert np.isfinite(sol.objective)
    assert sol.gap > 0


def test_lapack_failure_is_a_convergence_error(monkeypatch):
    eigh = np.linalg.eigh
    calls = []

    def failing_eigh(Y, *args, **kwargs):
        calls.append(1)
        if len(calls) > 30:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(Y, *args, **kwargs)

    monkeypatch.setattr(sdp.np.linalg, "eigh", failing_eigh)
    # C5 x C7 converges at iteration 150: the failure comes first
    with pytest.raises(ConvergenceError) as err:
        solve(build_theta_bar(graphs.product("categorical", graphs.generate("cycle", 5),
                                             graphs.generate("cycle", 7))), CFG)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
    partial = err.value.partial
    assert partial.status == MAX_ITER and partial.iterations == 31
    assert np.isfinite(partial.objective) and partial.certificate is not None
    assert err.value.residual == max(partial.residuals) + partial.gap


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(tol=-1.0)
    with pytest.raises(DomainError):
        SolverConfig(gap_tol=0.0)
    with pytest.raises(DomainError):
        SolverConfig(max_iter=0)
    # NaN fails every comparison, so it must not slip past a "<= 0" test
    with pytest.raises(DomainError):
        SolverConfig(tol=float("nan"))
    with pytest.raises(DomainError):
        SolverConfig(gap_tol=float("nan"))


@pytest.mark.parametrize("field, value", [
    ("max_iter", 100.0), ("max_iter", "100"), ("max_iter", True), ("max_iter", None),
    ("gap_tol", "1e-5"), ("gap_tol", True), ("tol", None), ("tol", 1e-7 + 0j),
])
def test_solver_config_refuses_values_of_the_wrong_type(field, value):
    with pytest.raises(DomainError):
        SolverConfig(**{field: value})


def test_solver_config_takes_numpy_scalars():
    cfg = SolverConfig(gap_tol=np.float32(1e-3), max_iter=np.int64(7))
    assert solve(build_theta_bar(graphs.generate("cycle", 5)), cfg).iterations <= 7


def test_problem_validation():
    with pytest.raises(DomainError):
        SdpProblem(np.zeros((0, 0), dtype=bool))
    with pytest.raises(DomainError):
        SdpProblem(np.zeros((2, 3), dtype=bool))
    adj = np.zeros((2, 2), dtype=bool)
    adj[0, 1] = True  # not symmetric
    with pytest.raises(DomainError):
        SdpProblem(adj)
    with pytest.raises(DomainError):
        SdpProblem(np.eye(2, dtype=bool))  # self-loops
    prob = build_chi_vec(graphs.generate("cycle", 5))
    assert (prob.order, prob.kind, prob.nonneg) == (5, "chivec_dual", True)
    assert build_theta_bar(graphs.generate("cycle", 5)).kind == "theta_dual"
