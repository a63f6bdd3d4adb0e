import numpy as np
import pytest

from conftest import random_graph
from vecchrom import graphs, params, sdp
from vecchrom.errors import ConvergenceError, DomainError
from vecchrom.sdp import (
    MAX_ITER,
    OPTIMAL,
    SdpProblem,
    SolverConfig,
    build_chi_vec,
    build_theta_bar,
    check_feasibility,
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
def test_dual_certificate_satisfies_primal_constraints(monkeypatch, which, graph):
    G = _certificate_graphs()[graph]
    solutions = []

    def counting_solve(problem, cfg=None):
        solutions.append(solve(problem, cfg))
        return solutions[-1]

    monkeypatch.setattr(params, "solve", counting_solve)
    res = getattr(params, which)(G, CFG, want_primal=True)
    assert len(solutions) == 1
    sol = solutions[0]
    M = res.primal_certificate
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
    assert (res.value, res.gap) == (sol.objective, sol.gap)


def test_returned_solutions_pass_independent_recheck():
    for G in (graphs.generate("complete", 5), graphs.generate("cycle", 7)):
        prob = build_theta_bar(G)
        sol = solve(prob, CFG)
        assert sol.status == OPTIMAL
        report = check_feasibility(prob, sol.X, 10 * CFG.tol)
        assert report.ok, report


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


# --- error and status handling ----------------------------------------------

def test_zero_vertex_graph_rejected():
    with pytest.raises(DomainError):
        build_theta_bar(graphs.generate("empty", 0))


def test_max_iter_reports_best_iterate():
    cfg = SolverConfig(max_iter=10, check_every=5)
    sol = solve(build_theta_bar(graphs.generate("petersen")), cfg)
    assert sol.status == MAX_ITER
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
    with pytest.raises(ConvergenceError) as err:
        solve(build_theta_bar(graphs.generate("petersen")), CFG)
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)
    partial = err.value.partial
    assert partial.status == MAX_ITER and partial.iterations == 31
    assert np.isfinite(partial.objective) and partial.certificate is not None
    assert err.value.residual == max(partial.residuals) + partial.gap


def test_solver_config_validation():
    with pytest.raises(DomainError):
        SolverConfig(tol=-1.0)
    with pytest.raises(DomainError):
        SolverConfig(over_relaxation=2.0)
    with pytest.raises(DomainError):
        SolverConfig(max_iter=0)


def test_problem_validation():
    with pytest.raises(DomainError):
        SdpProblem(order=0, objective=np.zeros((0, 0)))
    with pytest.raises(DomainError):
        SdpProblem(order=2, objective=np.zeros((3, 3)))
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 1] = True  # not symmetric
    with pytest.raises(DomainError):
        SdpProblem(order=2, objective=np.zeros((2, 2)), fixed_mask=mask)


def test_custom_problem_generic_dual_estimate():
    # min <I, X> with X11 fixed at 3 and X PSD: optimum 3 at X = diag(3, 0)
    fixed = np.zeros((2, 2), dtype=bool)
    fixed[0, 0] = True
    vals = np.zeros((2, 2))
    vals[0, 0] = 3.0
    prob = SdpProblem(
        order=2,
        objective=np.eye(2),
        maximize=False,
        fixed_mask=fixed,
        fixed_values=vals,
    )
    sol = solve(prob, CFG)
    assert sol.status == OPTIMAL
    assert abs(sol.objective - 3.0) <= 1e-5
    assert abs(sol.dual_objective - 3.0) <= 1e-4
    assert sol.certificate is None
