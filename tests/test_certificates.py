import ast

import numpy as np
import pytest

from conftest import random_graph
from vecchrom import certificates, graphs
from vecchrom.certificates import CERT_TOL, dual_form_bound, eigenvalue_bound, witness_bound
from vecchrom.errors import ConvergenceError
from vecchrom.sdp import SolverConfig, build_chi_vec, build_theta_bar, solve

C5 = graphs.generate("cycle", 5)
NONNEG = [False, True]


def _solution(G, nonneg):
    return solve((build_chi_vec if nonneg else build_theta_bar)(G), SolverConfig())


def _non_edges(G):
    return [(u, v) for u in range(G.n) for v in range(u + 1, G.n) if not G.adj[u, v]]


def _set(X, u, v, value):
    X = X.copy()
    X[u, v] = X[v, u] = value
    return X


def _mutations(X, u, v):
    """Single violations of the shared entry precheck, the asymmetry at
    (u, v), an entry that the certificate leaves free."""
    nan, inf, asym = X.copy(), X.copy(), X.copy()
    nan[3, 3] = np.nan
    inf[0, 0] = np.inf
    asym[u, v] += 2 * CERT_TOL
    return {"nan": nan, "inf": inf, "asymmetric": asym,
            "wrong shape": np.pad(X, ((0, 1), (0, 1))), "not square": X[:, :-1]}


# --- valid certificates give their bounds ----------------------------------------

@pytest.mark.parametrize("nonneg", NONNEG)
def test_scaled_identity_is_a_dual_form_of_value_one(nonneg):
    assert dual_form_bound(C5, np.eye(5) / 5, nonneg) == 1.0


@pytest.mark.parametrize("name", ["K5", "C7", "petersen"])
@pytest.mark.parametrize("nonneg", NONNEG)
def test_solver_certificates_give_their_values(name, nonneg):
    G = {"K5": graphs.generate("complete", 5), "C7": graphs.generate("cycle", 7),
         "petersen": graphs.generate("petersen")}[name]
    sol = _solution(G, nonneg)
    assert dual_form_bound(G, sol.X, nonneg) == sol.objective
    assert abs(witness_bound(G, sol.certificate, nonneg) - sol.dual_objective) <= 1e-14


@pytest.mark.parametrize("nonneg", NONNEG)
def test_dual_form_bound_divides_out_a_trace_above_one(nonneg):
    # trace 1 + 0.9e-9 passes the trace test, but the raw entry sum
    # 30 (1 + 0.9e-9) overclaims; P divided by its trace has sum 30
    K = graphs.generate("complete", 30)
    P = (1.0 + 0.9e-9) * np.ones((30, 30)) / 30
    assert P.sum() - 30 > 2.6e-8
    assert 30 - 1e-12 <= dual_form_bound(K, P, nonneg) <= 30
    # past CERT_TOL the trace is refused
    assert dual_form_bound(K, (1.0 + 1.1e-9) * np.ones((30, 30)) / 30, nonneg) is None


@pytest.mark.parametrize("n", [30, 120])
@pytest.mark.parametrize("nonneg", NONNEG)
def test_dual_form_bound_repairs_a_slightly_indefinite_matrix(n, nonneg):
    # lmin(P) = -0.9e-9 passes the PSD test, but the raw entry sum
    # n + 0.9e-9 n (n - 1) overclaims; P + 0.9e-9 I, rescaled, has sum n
    K = graphs.generate("complete", n)
    J = np.ones((n, n))
    P = J / n + 0.9e-9 * (J - np.eye(n))
    assert P.sum() - n > 7e-7
    bound = dual_form_bound(K, P, nonneg)
    assert n - 1e-10 <= bound <= n
    # past -CERT_TOL the matrix is refused
    assert dual_form_bound(K, J / n + 1.1e-9 * (J - np.eye(n)), nonneg) is None


def test_c5_adjacency_is_an_eigenvalue_form_of_sqrt5():
    assert abs(eigenvalue_bound(C5, C5.adjacency()) - np.sqrt(5.0)) <= 1e-14


# --- each single violation is refused ---------------------------------------------

@pytest.mark.parametrize("nonneg", NONNEG)
def test_malformed_matrices_are_refused(nonneg):
    M = _solution(C5, nonneg).certificate
    for name, X in _mutations(np.eye(5) / 5, 0, 1).items():
        assert dual_form_bound(C5, X, nonneg) is None, name
    for name, X in _mutations(M, 0, 2).items():
        assert witness_bound(C5, X, nonneg) is None, name
    for name, X in _mutations(C5.adjacency(), 0, 1).items():
        assert eigenvalue_bound(C5, X) is None, name


def test_no_vertices_certify_nothing():
    K0 = graphs.generate("empty", 0)
    empty = np.zeros((0, 0))
    assert dual_form_bound(K0, empty, False) is None
    assert witness_bound(K0, empty, False) is None
    assert eigenvalue_bound(K0, empty) is None


@pytest.mark.parametrize("nonneg", NONNEG)
def test_dual_form_violations(nonneg):
    good = np.eye(5) / 5
    assert dual_form_bound(C5, 2 * good, nonneg) is None  # trace 2
    # an indefinite unit-trace matrix on the edge pattern
    assert dual_form_bound(C5, _set(good, 0, 1, 0.5), nonneg) is None
    # a negative edge entry, still PSD, breaks only the chi-vec sign condition
    neg = _set(good, 0, 1, -0.05)
    assert (dual_form_bound(C5, neg, nonneg) is None) == nonneg
    # weight on any one non-edge
    for u, v in _non_edges(C5):
        assert dual_form_bound(C5, _set(good, u, v, 2 * CERT_TOL), nonneg) is None


def _loop_off_support(G, X):
    # the per-entry scan of the non-edges, diagonal excluded
    worst = 0.0
    for u in range(G.n):
        for v in range(G.n):
            if u != v and not G.adj[u, v]:
                worst = max(worst, abs(float(X[u, v])))
    return worst


@pytest.mark.parametrize("nonneg", NONNEG)
def test_dual_form_support_matches_entry_scan(nonneg):
    rng = np.random.default_rng(17)
    graphs_ = [graphs.generate("complete", 4), graphs.generate("empty", 3),
               graphs.generate("petersen")] + [random_graph(n, seed=60 + n) for n in (2, 5, 9)]
    for G in graphs_:
        off = ~G.adj & ~np.eye(G.n, dtype=bool)
        for scale in (0.5, 0.99, 1.01, 3.0):
            N = np.triu(rng.uniform(-1.0, 1.0, (G.n, G.n)) * off, 1)
            if off.any():
                N *= scale * CERT_TOL / np.abs(N).max()
            P = np.eye(G.n) / G.n + N + N.T
            rejected = _loop_off_support(G, P) > CERT_TOL
            assert (dual_form_bound(G, P, nonneg) is None) == rejected


@pytest.mark.parametrize("nonneg", NONNEG)
def test_witness_violations(nonneg):
    M = _solution(C5, nonneg).certificate
    assert witness_bound(C5, M, nonneg) is not None
    uneven = M.copy()
    uneven[2, 2] += 2 * CERT_TOL
    assert witness_bound(C5, uneven, nonneg) is None
    # an edge entry above -1 breaks both programs
    assert witness_bound(C5, _set(M, 0, 1, -1.0 + 2 * CERT_TOL), nonneg) is None
    # one below -1 breaks theta-bar's equality only
    below = witness_bound(C5, _set(M, 0, 1, -1.0 - 2 * CERT_TOL), nonneg)
    assert (below is None) != nonneg
    deep = _set(M, 0, 1, -1.5)
    if nonneg:
        # widened by the negative eigenvalue the entry adds
        lmin = np.linalg.eigvalsh(deep)[0]
        assert lmin < -0.1
        assert witness_bound(C5, deep, nonneg) == 1.0 + M.diagonal().max() - lmin
    else:
        assert witness_bound(C5, deep, nonneg) is None


def test_eigenvalue_form_violations():
    A = C5.adjacency()
    for u in range(5):
        diag = A.copy()
        diag[u, u] = 2 * CERT_TOL
        assert eigenvalue_bound(C5, diag) is None
    for u, v in _non_edges(C5):
        assert eigenvalue_bound(C5, _set(A, u, v, 2 * CERT_TOL)) is None


def test_lapack_failure_is_a_convergence_error(monkeypatch):
    def failing(X, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(ConvergenceError):
        eigenvalue_bound(C5, C5.adjacency())
    with pytest.raises(ConvergenceError):
        witness_bound(C5, 3 * np.eye(5) - 1.0, False)


def test_imports_only_numpy_errors_and_graphs():
    # vecchrom/__init__ imports every module, so sys.modules cannot show this
    with open(certificates.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    package, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    assert package == {".errors", ".graphs"}
    assert absolute <= {"__future__", "numpy"}
