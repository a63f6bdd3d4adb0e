import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from vecchrom import graphs, params
from vecchrom.graphs import Graph, graph_from_edges
from vecchrom.identities import _facts
from vecchrom.params import CHROMATIC_CAP_DEFAULT
from vecchrom.sdp import SolverConfig, solve

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def star(k: int) -> Graph:
    """The star K_{1,k} with center 0."""
    return graph_from_edges(k + 1, [(0, i + 1) for i in range(k)], f"K_1_{k}")


def random_graph(n: int, seed: int, p: float = 0.5) -> Graph:
    return graphs.erdos_renyi(n, p, rng=seed, label=f"gnp_{n}_s{seed}")


@st.composite
def small_graph(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    bits = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    adj = np.zeros((n, n), dtype=bool)
    adj[np.triu_indices(n, k=1)] = bits
    adj |= adj.T
    return Graph(n, adj)


def solve_with_raised_witness_edge(problem, cfg=None):
    """A solve whose witness has one edge entry raised to -0.5, which the
    witness check of either program refuses."""
    sol = solve(problem, cfg)
    M = sol.certificate.copy()
    u, v = np.argwhere(problem.adj)[0]
    M[u, v] = M[v, u] = -0.5
    return dataclasses.replace(sol, certificate=M)


def certificate_dict(q):
    """The object a certificate file of ``q`` holds, as the nested lists
    json.dumps writes: the file's text is json.dumps of it."""
    return {
        "d": int(q.d),
        "n_colors": int(q.target.n),
        "graph": {"n": int(q.source.n), "edges": np.column_stack(q.source.edge_index).tolist()},
        "assignment": np.stack((q.assignment.real, q.assignment.imag), axis=-1).tolist(),
    }


@pytest.fixture
def no_spectral_pin(monkeypatch):
    """Switch the spectral pin off, so that regular graphs the clique and
    coloring pin misses reach the solver."""
    pairs = params._pin_pairs
    monkeypatch.setattr(params, "_pin_pairs",
                        lambda facts: (p for p in pairs(facts) if p[0] != "spectral"))


@pytest.fixture(scope="session")
def cfg():
    # suite-scale settings: every reported point is rounded to exact
    # feasibility, so its residuals sit at rounding level and solves stop
    # on gap_tol, which stays at its default
    return SolverConfig(tol=1e-6, max_iter=150000)


@pytest.fixture(scope="session")
def param_cache():
    """Shared GraphFacts records by Graph.key(); doubles as the record the
    acceptance gap criterion sweeps over."""
    return {}


@pytest.fixture(scope="session")
def theta(param_cache, cfg):
    def run(G):
        return _facts(G, cfg, param_cache, CHROMATIC_CAP_DEFAULT).param("theta_bar")

    return run


@pytest.fixture(scope="session")
def chivec(param_cache, cfg):
    def run(G):
        return _facts(G, cfg, param_cache, CHROMATIC_CAP_DEFAULT).param("chi_vec")

    return run


@pytest.fixture(scope="session")
def corpus():
    """Named small graphs every chain/sandwich test sweeps over."""
    out = []
    for n in range(2, 9):
        out.append(graphs.generate("complete", n))
    for n in range(3, 10):
        out.append(graphs.generate("cycle", n))
    out.append(graphs.generate("path", 3))
    out.append(graphs.generate("path", 4))
    out.append(star(3))
    out.append(graphs.generate("petersen"))
    for n in range(2, 7):
        out.append(graphs.generate("omega", n))
    for i, n in enumerate((5, 6, 6, 7, 7, 8)):
        out.append(random_graph(n, seed=100 + i))
    return out
