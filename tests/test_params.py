import sys
import traceback
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_graph, small_graph, solve_with_raised_witness_edge, star
from vecchrom import graphs, params
from vecchrom.certificates import dual_form_bound, witness_bound
from vecchrom.graphs import graph_from_edges
from vecchrom.errors import CapacityError, ConvergenceError, DomainError, LimitExceededError
from vecchrom.linalg import eig_sym
from vecchrom.sdp import SolverConfig, build_chi_vec, build_theta_bar, solve
from vecchrom.params import (
    CHROMATIC_CAP_DEFAULT,
    chi_vec,
    chromatic_number,
    one_homogeneous_check,
    spectral_lower_bound,
    spectral_vector_chromatic,
    theta_bar,
)

SQRT5 = np.sqrt(5.0)


# --- SDP-backed parameters ----------------------------------------------------

def test_theta_bar_omega4(theta):
    assert abs(theta(graphs.generate("omega", 4)).value - 4.0) <= 1e-3


def test_theta_bar_empty_convention():
    res = theta_bar(graphs.generate("empty", 5))
    assert res.value == 1.0 and res.method == "convention"
    res = theta_bar(graphs.generate("omega", 3))  # empty for odd n
    assert res.value == 1.0 and res.method == "convention"
    # the convention needs a vertex; K_0 reaches the SDP builder
    for param in (theta_bar, chi_vec):
        with pytest.raises(DomainError, match="order must be positive"):
            param(graphs.generate("empty", 0))


@pytest.mark.parametrize("param, nonneg", [(theta_bar, False), (chi_vec, True)])
def test_convention_carries_its_certificates(param, nonneg):
    # e_0 e_0^T certifies 1 from below and the zero witness 1 from above
    G = graphs.generate("empty", 3)
    res = param(G, want_primal=True)
    assert res.method == "convention"
    assert dual_form_bound(G, res.dual_certificate, nonneg) == 1.0
    assert witness_bound(G, res.primal_certificate, nonneg) == 1.0
    assert param(G).primal_certificate is None


def test_edgeless_convention_runs_no_search_and_no_eigendecomposition(monkeypatch):
    calls = []
    monkeypatch.setattr(params, "_search_setup", lambda *args: calls.append("search"))
    monkeypatch.setattr(params, "eig_sym", lambda *args: calls.append("eig_sym"))
    for param in (theta_bar, chi_vec):
        res = param(graphs.generate("empty", 40))
        assert (res.method, res.value, res.lower, res.upper, res.gap) == (
            "convention", 1.0, 1.0, 1.0, 0.0)
    assert calls == []


@given(small_graph(min_n=1, max_n=10), st.sampled_from([0, CHROMATIC_CAP_DEFAULT]))
def test_every_result_carries_its_checked_interval(G, cap):
    # a chromatic cap of 0 keeps the clique pin off, so solves are drawn too
    cfg = SolverConfig()
    for which, nonneg in (("theta_bar", False), ("chi_vec", True)):
        res = params.GraphFacts(G, cfg, cap).param(which)
        assert dual_form_bound(G, res.dual_certificate, nonneg) == res.lower
        assert witness_bound(G, res.primal_certificate, nonneg) == res.upper
        assert res.lower - 1e-9 <= res.value <= res.upper + 1e-9
        assert res.gap == max(0.0, res.upper - res.lower) <= cfg.gap_tol


def test_non_optimal_solve_reports_its_checked_partial():
    # no pin reaches C5 strong C5, and seven iterations leave a wide gap
    C5 = graphs.generate("cycle", 5)
    G = graphs.product("strong", C5, C5)
    with pytest.raises(ConvergenceError, match="status max_iter") as err:
        theta_bar(G, SolverConfig(max_iter=7), want_primal=True)
    partial = err.value.partial
    assert (partial.method, partial.iterations) == ("sdp", 7)
    assert partial.lower == dual_form_bound(G, partial.dual_certificate, False)
    assert partial.upper == witness_bound(G, partial.primal_certificate, False)
    assert partial.gap > 1.0
    assert err.value.residual == max(partial.residuals) + partial.gap


def test_failed_solve_is_kept_in_the_record(monkeypatch):
    # C5 with a pendant vertex: no pin reaches it, and five iterations
    # fail; the second lookup raises the same error with no solve, and a
    # record under other settings solves again
    G = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    calls = []
    solve = params.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(params, "solve", counting_solve)
    facts = params.GraphFacts(G, SolverConfig(max_iter=5))
    with pytest.raises(ConvergenceError) as first:
        facts.param("theta_bar")
    with pytest.raises(ConvergenceError) as second:
        facts.param("theta_bar")
    assert second.value is first.value
    assert len(traceback.extract_tb(second.tb)) == len(traceback.extract_tb(first.tb))
    assert (len(calls), facts.hits, facts.misses) == (1, 1, 1)
    assert params.GraphFacts(G).param("theta_bar").method == "sdp"
    assert len(calls) == 2


@pytest.mark.parametrize("G, expected", [
    (graphs.generate("empty", 3), None),
    (graphs.generate("cycle", 5), "hoffman"),
    (star(3), "average degree"),
])
def test_record_spectral_bound(G, expected):
    facts = params.GraphFacts(G)
    if expected is None:
        assert facts.spectral_bound is None
    elif expected == "hoffman":
        degree, tau = facts.hoffman[:2]
        assert facts.spectral_bound == 1.0 - degree / tau
    else:
        assert facts.hoffman is None
        tau = eig_sym(G.adjacency())[0][0]
        assert facts.spectral_bound == 1.0 - (2.0 * G.edge_count / G.n) / tau


@pytest.mark.parametrize("param", [theta_bar, chi_vec])
def test_refused_solve_certificate_is_a_convergence_error(param, monkeypatch, no_spectral_pin):
    monkeypatch.setattr(params, "solve", solve_with_raised_witness_edge)
    with pytest.raises(ConvergenceError, match="gap of inf") as err:
        param(graphs.generate("cycle", 5))
    assert err.value.partial is None and err.value.residual == np.inf


def test_theta_bar_c4_bipartite(theta):
    assert abs(theta(graphs.generate("cycle", 4)).value - 2.0) <= 1e-4


def test_chi_vec_petersen_spectral_oracle(chivec):
    # least eigenvalue verified numerically, then 1 - 3/tau
    tau = eig_sym(graphs.generate("petersen").adjacency())[0][0]
    assert abs(tau + 2.0) <= 1e-8
    oracle = 1.0 - 3.0 / tau
    assert abs(oracle - 2.5) <= 1e-9
    assert abs(chivec(graphs.generate("petersen")).value - oracle) <= 1e-3


def test_chi_vec_k5(chivec):
    assert abs(chivec(graphs.generate("complete", 5)).value - 5.0) <= 1e-3


def test_chi_vec_below_theta_corpus(theta, chivec, corpus):
    for G in corpus:
        assert chivec(G).value <= theta(G).value + 1e-5


def test_want_primal_attaches_certificate(cfg):
    res = theta_bar(graphs.generate("cycle", 5), cfg, want_primal=True)
    M = res.primal_certificate
    assert M is not None and M.shape == (5, 5)
    A = graphs.generate("cycle", 5).adjacency()
    assert np.abs(M * A + A).max() <= 1e-6
    assert res.gap <= 2 * cfg.gap_tol
    assert theta_bar(graphs.generate("cycle", 5), cfg).primal_certificate is None


# --- the pin: a maximum clique and a coloring of the same size ------------------

PARAMS = [(theta_bar, build_theta_bar, False), (chi_vec, build_chi_vec, True)]


def _pinned_graphs():
    gen = graphs.generate
    C5, K3, P = gen("cycle", 5), gen("complete", 3), gen("petersen")
    return ([gen("complete", n) for n in range(3, 9)]
            + [gen("cycle", 6), gen("path", 4), graphs.product("cartesian", C5, K3),
               gen("omega", 4), graphs.product("cartesian", P, K3)])


@pytest.fixture
def solve_calls(monkeypatch):
    calls = []

    def counting_solve(problem, cfg=None):
        calls.append(problem.label)
        return solve(problem, cfg)

    monkeypatch.setattr(params, "solve", counting_solve)
    return calls


@pytest.mark.parametrize("param, builder, nonneg", PARAMS)
def test_pin_needs_no_solve(param, builder, nonneg, solve_calls):
    for G in _pinned_graphs():
        res = param(G, want_primal=True)
        k = len(params._search_setup(G, CHROMATIC_CAP_DEFAULT)[1])
        assert (res.method, res.value, res.iterations) == ("pin", k, 0), G.label
        assert res.residuals is None
        # each certificate passes its checker on G, and the two bracket k
        lower = dual_form_bound(G, res.dual_certificate, nonneg)
        upper = witness_bound(G, res.primal_certificate, nonneg)
        assert k - 1e-12 <= lower <= k + 1e-12 and k - 1e-12 <= upper <= k + 1e-12, G.label
        assert res.gap == max(0.0, upper - lower) <= 1e-12
        assert param(G).primal_certificate is None
    assert solve_calls == []


@pytest.mark.parametrize("param, builder, nonneg", PARAMS)
def test_pin_settles_a_graph_the_solver_stalls_on(param, builder, nonneg, solve_calls):
    # omega = chi = 4; the dual-form solve of chi_vec runs into max_iter
    G = graphs.erdos_renyi(20, 0.3, rng=np.random.default_rng(3))
    res = param(G, want_primal=True)
    assert (res.method, res.value) == ("pin", 4.0)
    assert solve_calls == []


@pytest.mark.parametrize("param, builder, nonneg", PARAMS)
def test_unpinned_graphs_solve_unchanged(param, builder, nonneg, solve_calls, no_spectral_pin):
    # C_5, C_7 and Petersen have omega = 2 < chi = 3; the complement of
    # Petersen has omega = 4 < chi = 5, though theta-bar is 4 (all four are
    # regular, so the spectral pin is switched off)
    P = graphs.generate("petersen")
    cfg = SolverConfig()
    for G in (graphs.generate("cycle", 5), P, graphs.generate("cycle", 7), graphs.complement(P)):
        res = param(G, cfg)
        assert res.method == "sdp", G.label
        assert res.value == solve(builder(G), cfg).objective, G.label
    assert len(solve_calls) == 4


@pytest.mark.parametrize("param, builder, nonneg", PARAMS)
def test_graphs_above_the_cap_solve(param, builder, nonneg, solve_calls, no_spectral_pin):
    K5 = graphs.generate("complete", 5)
    res = params.GraphFacts(K5, cap=4).param(param.__name__)
    assert res.method == "sdp" and abs(res.value - 5.0) <= 1e-4
    assert len(solve_calls) == 1


@pytest.mark.parametrize("param, builder, nonneg", PARAMS)
def test_refused_pin_certificate_falls_through(param, builder, nonneg, solve_calls, monkeypatch,
                                               no_spectral_pin):
    def one_color(neighbours, k, clique):
        return np.zeros(len(neighbours), dtype=int)  # improper: every edge inside one class

    monkeypatch.setattr(params, "_search_coloring", one_color)
    K4 = graphs.generate("complete", 4)
    res = param(K4)
    assert res.method == "sdp" and abs(res.value - 4.0) <= 1e-4
    assert len(solve_calls) == 1


def test_pin_logs_one_event(caplog):
    caplog.set_level("DEBUG", logger="vecchrom")
    theta_bar(graphs.generate("complete", 5))
    [event] = [r for r in caplog.records if r.name == "vecchrom"]
    assert (event.method, event.value, event.iterations) == ("pin", 5.0, 0)


def test_clique_pin_runs_no_eigendecomposition(monkeypatch):
    # K_5, C_6 and Omega_4 are regular, so a spectral pair would follow the
    # clique pin's; the generator stops before building it
    calls = []
    monkeypatch.setattr(params, "eig_sym", lambda A: calls.append(A.shape))
    for G in (graphs.generate("complete", 5), graphs.generate("cycle", 6),
              graphs.generate("omega", 4)):
        for param in (theta_bar, chi_vec):
            assert param(G).method == "pin", G.label
    assert calls == []


@pytest.mark.parametrize("param, builder, nonneg", PARAMS)
def test_wide_clique_pin_falls_through_to_the_spectral_pin(param, builder, nonneg, solve_calls,
                                                          monkeypatch):
    # raising the coloring's Gram matrix by 1e-4 I widens the clique pin's
    # interval to about 1e-4, past gap_tol 1e-5; K_4 is regular, so
    # Hoffman's pair comes next and closes
    pairs = params._pin_pairs

    def widened(facts):
        for method, P, M, value in pairs(facts):
            yield method, P, M + 1e-4 * np.eye(facts.G.n) if method == "pin" else M, value

    monkeypatch.setattr(params, "_pin_pairs", widened)
    K4 = graphs.generate("complete", 4)
    [(_, P, M, _)] = [p for p in widened(params.GraphFacts(K4)) if p[0] == "pin"]
    assert witness_bound(K4, M, nonneg) - dual_form_bound(K4, P, nonneg) > 1e-5
    res = param(K4, SolverConfig(gap_tol=1e-5))
    assert (res.method, res.iterations) == ("spectral", 0)
    assert abs(res.value - 4.0) <= 1e-12
    assert solve_calls == []


def test_one_record_searches_each_number_of_colors_once(monkeypatch):
    # C_5 has omega = 2 < chi = 3: the pins of both parameters try k = 2
    # once, and the minimum coloring goes on from there to k = 3
    calls = []
    search = params._search_coloring

    def counting(neighbours, k, clique):
        calls.append(k)
        return search(neighbours, k, clique)

    monkeypatch.setattr(params, "_search_coloring", counting)
    facts = params.GraphFacts(graphs.generate("cycle", 5))
    assert facts.param("theta_bar").method == facts.param("chi_vec").method == "spectral"
    assert facts.chromatic_number() == 3 and facts.param("theta_bar").value == pytest.approx(SQRT5)
    assert calls == [2, 3]
    assert (facts.hits, facts.misses) == (1, 2)


# --- the spectral pin: Hoffman's certificates on regular graphs -----------------

def _cycle_value(n):
    return 1.0 + 1.0 / np.cos(np.pi / n)


def _kneser(n, k):
    sets = [frozenset(c) for c in combinations(range(n), k)]
    edges = [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))
             if not sets[i] & sets[j]]
    return graph_from_edges(len(sets), edges, f"K({n},{k})")


def _paley(q):
    squares = {x * x % q for x in range(1, q)}
    return graph_from_edges(q, [(i, j) for i in range(q) for j in range(i + 1, q)
                                if (j - i) % q in squares], f"Paley({q})")


def _circulant(n, jumps):
    return graph_from_edges(n, sorted({tuple(sorted((i, (i + j) % n)))
                                       for i in range(n) for j in jumps}), f"C{n}{jumps}")


def _spectral_graphs():
    """Regular graphs with omega < chi or above the chromatic cap whose
    value is the closed form 1 - k/tau: edge-transitive graphs, and the
    circulant C15{3,7}, which is not 1-homogeneous."""
    gen = graphs.generate
    C5, P = gen("cycle", 5), gen("petersen")
    return ([(gen("cycle", n), _cycle_value(n)) for n in (5, 7, 9, 11)]
            + [(P, 2.5), (graphs.complement(P), 4.0),
               (graphs.product("categorical", C5, gen("cycle", 7)), _cycle_value(7)),
               (_kneser(7, 3), 7.0 / 3.0), (_paley(17), np.sqrt(17.0)),
               (_circulant(15, (3, 7)), np.sqrt(5.0))])


@pytest.fixture
def perturbed_witness(monkeypatch):
    """Raise the scaled projector's entry on the edge (0, 1) by 1e-6."""
    hoffman = params._hoffman_pair

    def perturbed(G, degree):
        tau, P, M = hoffman(G, degree)
        M[0, 1] += 1e-6
        M[1, 0] += 1e-6
        return tau, P, M

    monkeypatch.setattr(params, "_hoffman_pair", perturbed)


@pytest.mark.parametrize("param, builder, nonneg", PARAMS)
def test_spectral_pin_needs_no_solve(param, builder, nonneg, solve_calls):
    cases = _spectral_graphs()
    # C5 x C7 and K(7,3), of 35 vertices each, are above the chromatic cap
    assert [G.n for G, _ in cases if G.n > CHROMATIC_CAP_DEFAULT] == [35, 35]
    assert not one_homogeneous_check(cases[-1][0]).is_one_homogeneous
    for G, value in cases:
        res = param(G, want_primal=True)
        assert (res.method, res.iterations, res.residuals) == ("spectral", 0, None), G.label
        assert abs(res.value - value) <= 1e-12, G.label
        # each certificate passes its checker on G, and the two bracket the value
        lower = dual_form_bound(G, res.dual_certificate, nonneg)
        upper = witness_bound(G, res.primal_certificate, nonneg)
        assert res.value == lower and res.gap == max(0.0, upper - lower) <= 1e-12, G.label
        assert param(G).primal_certificate is None
    assert solve_calls == []


@pytest.mark.parametrize("param, builder, nonneg", PARAMS)
def test_regular_graphs_off_the_closed_form_solve_unchanged(param, builder, nonneg, solve_calls):
    # both are regular with omega < chi, and 1 - k/tau is not their value:
    # theta-bar of C5 strong C5 is 5 and of Petersen [] C5 is 2.5
    gen = graphs.generate
    C5 = gen("cycle", 5)
    cfg = SolverConfig()
    for G, iterations in ((graphs.product("strong", C5, C5), (20, 20)),
                          (graphs.product("cartesian", gen("petersen"), C5), (20, 15))):
        res = param(G, cfg)
        sol = solve(builder(G), cfg)
        assert (res.method, res.value, res.iterations) == ("sdp", sol.objective, iterations[nonneg])
    assert len(solve_calls) == 2


@pytest.mark.parametrize("param, builder, nonneg", PARAMS)
def test_refused_spectral_certificate_falls_through(param, builder, nonneg, solve_calls,
                                                    perturbed_witness):
    C5 = graphs.generate("cycle", 5)
    cfg = SolverConfig()
    res = param(C5, cfg)
    assert (res.method, res.value) == ("sdp", solve(builder(C5), cfg).objective)
    assert len(solve_calls) == 1


def test_spectral_pin_logs_one_event(caplog):
    caplog.set_level("DEBUG", logger="vecchrom")
    theta_bar(graphs.generate("petersen"))
    [event] = [r for r in caplog.records if r.name == "vecchrom"]
    assert (event.method, event.iterations) == ("spectral", 0)


# --- spectral bounds ----------------------------------------------------------

def test_spectral_lower_bound_complete():
    for n in range(2, 7):
        G = graphs.generate("complete", n)
        tau = eig_sym(G.adjacency())[0][0]
        assert abs(tau + 1.0) <= 1e-8
        assert abs(spectral_lower_bound(G) - n) <= 1e-8


def test_spectral_lower_bound_c5():
    assert abs(spectral_lower_bound(graphs.generate("cycle", 5)) - SQRT5) <= 1e-8


def test_spectral_lower_bound_star(chivec):
    G = star(3)
    tau = eig_sym(G.adjacency())[0][0]
    assert abs(tau + np.sqrt(3.0)) <= 1e-8
    bound = spectral_lower_bound(G)
    assert abs(bound - (1.0 + np.sqrt(3.0) / 2.0)) <= 1e-8
    assert bound <= chivec(G).value + 1e-4


def test_spectral_lower_bound_needs_edges():
    with pytest.raises(DomainError):
        spectral_lower_bound(graphs.generate("empty", 4))


# --- 1-homogeneity ------------------------------------------------------------

def test_one_homogeneous_petersen_constants():
    rep = one_homogeneous_check(graphs.generate("petersen"))
    assert rep.is_one_homogeneous
    assert rep.failing_witness is None
    consts = dict((k, (b, c)) for k, b, c in rep.constants)
    assert consts[2] == (3, 0)  # degree 3, adjacent vertices share no neighbor


def test_one_homogeneous_empty_graph():
    rep = one_homogeneous_check(graphs.generate("empty", 0))
    assert (rep.is_one_homogeneous, rep.constants) == (True, [(0, 1, 0)])


def test_one_homogeneous_path_fails_at_degree():
    rep = one_homogeneous_check(graphs.generate("path", 3))
    assert not rep.is_one_homogeneous
    k, kind, payload = rep.failing_witness
    assert k == 2 and kind == "vertex"


def test_one_homogeneous_star_fails():
    rep = one_homogeneous_check(star(3))
    assert not rep.is_one_homogeneous


def test_one_homogeneous_named_families():
    for G in (
        graphs.generate("complete", 4),
        graphs.generate("complete", 7),
        graphs.generate("cycle", 6),
        graphs.generate("cycle", 9),
        graphs.generate("omega", 4),
    ):
        assert one_homogeneous_check(G).is_one_homogeneous


def test_one_homogeneous_closed_under_categorical():
    named = [
        graphs.generate("cycle", 5),
        graphs.generate("petersen"),
        graphs.generate("complete", 4),
    ]
    for G in named:
        for H in named:
            P = graphs.product("categorical", G, H)
            assert one_homogeneous_check(P).is_one_homogeneous


def test_integer_power_iter_past_int64_switch():
    # A(K_12)^k = ((11^k - (-1)^k) / 12) J + (-1)^k I; 11^20 > 2^63, so
    # the iterator has moved to Python integers well before k = 20
    n = 12
    J = np.ones((n, n), dtype=object)
    I = np.eye(n, dtype=int).astype(object)
    powers = params._integer_power_iter(graphs.generate("complete", n).adj)
    for k, P in zip(range(21), powers):
        sign = (-1) ** k
        assert np.array_equal(P, (11**k - sign) // 12 * J + sign * I), k
    assert P.dtype == object
    # a sparse graph with an isolated vertex: C_9 walk counts pass 2^52 at
    # k = 56, so from k = 57 on the powers are neighbour-column sums,
    # checked against the object-dtype matrix product
    adj = graph_from_edges(10, [(i, (i + 1) % 9) for i in range(9)]).adj
    A = adj.astype(int).astype(object)
    reference = np.eye(10, dtype=int).astype(object)
    for k, P in zip(range(80), params._integer_power_iter(adj)):
        assert np.array_equal(P, reference), k
        reference = reference @ A
    assert P.dtype == object and P[0, 0] > 2**63


def test_integer_powers_exact_across_tiers():
    # C_131 has maximum degree 2, so A^k is a float64 product while
    # max(A^(k-1)) <= 2^52 (up to k = 56) and Python integers after it
    n, stop = 131, 66  # 66 distinct eigenvalues: the minimal-polynomial degree
    adj = graphs.generate("cycle", n).adj
    A = adj.astype(int).astype(object)
    reference = np.eye(n, dtype=int).astype(object)
    dtypes = []
    for k, P in zip(range(stop + 1), params._integer_power_iter(adj)):
        assert np.array_equal(P, reference), k
        dtypes.append(P.dtype)
        # A = S + S^T for the cyclic shift S, so P A = P S + P S^T exactly
        reference = np.roll(reference, 1, axis=1) + np.roll(reference, -1, axis=1)
    assert dtypes[56] == np.int64 and dtypes[57] == object
    assert np.array_equal(P, np.linalg.matrix_power(A, stop))
    assert P.max() > 2**62
    # k <= 66 < n/2, so no walk wraps around the cycle: closed walks and
    # walks between neighbours are central binomial counts
    rep = one_homogeneous_check(graphs.generate("cycle", n))
    assert rep.is_one_homogeneous
    assert rep.constants == [
        (k, comb(k, k // 2) if k % 2 == 0 else 0, comb(k, (k + 1) // 2) if k % 2 else 0)
        for k in range(stop + 1)
    ]


def _report(rep):
    return rep.is_one_homogeneous, rep.constants, rep.failing_witness


# triangular prism: 3-regular with one triangle per vertex, but triangle
# edges have a common neighbour and the rungs have none
_PRISM = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                              (0, 3), (1, 4), (2, 5)], "prism")


@pytest.mark.parametrize(
    "G",
    [
        graphs.generate("petersen"),
        graphs.product("categorical", graphs.generate("cycle", 5), graphs.generate("cycle", 7)),
        _PRISM,
    ],
    ids=lambda G: G.label,
)
def test_one_homogeneous_object_dtype_path(G, monkeypatch):
    expected = _report(one_homogeneous_check(G))
    int_powers = params._integer_power_iter

    def object_powers(A_bool):
        for P in int_powers(A_bool):
            yield P.astype(object)

    monkeypatch.setattr(params, "_integer_power_iter", object_powers)
    assert _report(one_homogeneous_check(G)) == expected


class _FullEchelon:
    """Reference rank test on whole flattened powers (all n^2 entries)."""

    def __init__(self):
        self.rows = []

    def contains(self, vec) -> bool:
        v = [Fraction(int(x)) for x in vec]
        for pivot, row in self.rows:
            coeff = v[pivot]
            if coeff:
                v = [a - coeff * b for a, b in zip(v, row)]
        for idx, a in enumerate(v):
            if a:
                v = [x / a for x in v]
                self.rows.append((idx, v))
                return False
        return True


def _reference_one_homogeneous(G):
    if G.n == 0:
        return True, [(0, 1, 0)], None
    edge_idx = np.argwhere(np.triu(G.adj))
    echelon = _FullEchelon()
    constants = []
    for k, P in enumerate(params._integer_power_iter(G.adj)):
        diag = P.diagonal()
        mism = np.nonzero(diag != diag[0])[0]
        if mism.size:
            return False, constants, (k, "vertex", int(mism[0]))
        c_k = 0
        if len(edge_idx):
            vals = P[edge_idx[:, 0], edge_idx[:, 1]]
            c_k = int(vals[0])
            mism = np.nonzero(vals != vals[0])[0]
            if mism.size:
                u, v = edge_idx[int(mism[0])]
                return False, constants, (k, "edge", (int(u), int(v)))
        constants.append((k, int(diag[0]), c_k))
        if echelon.contains(P.ravel()):
            return True, constants, None


_FAMILY = [
    graphs.generate("cycle", 5),
    graphs.generate("cycle", 7),
    graphs.generate("petersen"),
    graphs.generate("complete", 4),
]


@pytest.mark.parametrize(
    "G",
    [graphs.product("categorical", G, H) for G, H in combinations_with_replacement(_FAMILY, 2)]
    + [graphs.generate("omega", 4), graphs.generate("omega", 6)]
    + [graphs.generate(family, size) for family, size in
       (("complete", 1), ("complete", 6), ("cycle", 4), ("cycle", 11), ("path", 5),
        ("empty", 3), ("petersen", 0))]
    + [random_graph(2 + seed % 10, seed=seed) for seed in range(30)],
    ids=lambda G: G.label,
)
def test_one_homogeneous_matches_full_reference(G):
    assert _report(one_homogeneous_check(G)) == _reference_one_homogeneous(G)


@pytest.mark.parametrize(
    "G, kind",
    [(graphs.generate("path", 3), "vertex"), (_PRISM, "edge")],
    ids=lambda x: getattr(x, "label", x),
)
def test_one_homogeneous_witness_matches_reference(G, kind):
    rep = one_homogeneous_check(G)
    assert rep.failing_witness[1] == kind
    assert _report(rep) == _reference_one_homogeneous(G)


@given(small_graph(min_n=1, max_n=10))
def test_one_homogeneous_matches_reference_random(G):
    assert _report(one_homogeneous_check(G)) == _reference_one_homogeneous(G)


def test_independent_exact_past_int64():
    # entries near 2^72: the last row differs from an exact combination of
    # the first two by 1, which no float64 elimination can see
    big = 2**72
    a = [big + 1, 3, -5 * big, 7, 0]
    b = [2, big - 1, 11, -big, big + 5]
    combo = [3 * x - 2 * y for x, y in zip(a, b)]
    off_by_one = combo[:-1] + [combo[-1] + 1]
    assert not params._independent([a, b, combo])
    assert params._independent([a, b, off_by_one])
    assert params._independent(np.array([a, b, off_by_one], dtype=object))
    assert not params._independent([b, combo, a])  # a dependent row anywhere
    assert not params._independent([a, [0] * 5])


def test_rank_test_runs_only_where_no_class_splits(monkeypatch):
    # C_160 has 81 distinct eigenvalues; every power below A^80 splits a
    # class, so only A^80 (independent) and A^81 (dependent) are tested
    calls = []
    independent = params._independent

    def counting(rows):
        calls.append(len(rows))
        return independent(rows)

    monkeypatch.setattr(params, "_independent", counting)
    rep = one_homogeneous_check(graphs.generate("cycle", 160))
    assert rep.is_one_homogeneous and len(rep.constants) == 82
    assert len(calls) <= 2 and calls[-1] == 82


# --- spectral formula ----------------------------------------------------------

def test_spectral_vector_chromatic_values():
    assert abs(spectral_vector_chromatic(graphs.generate("cycle", 5)).value - SQRT5) <= 1e-12
    assert abs(spectral_vector_chromatic(graphs.generate("petersen")).value - 2.5) <= 1e-12
    G = graphs.generate("omega", 4)
    assert set(G.degrees()) == {6}
    tau = eig_sym(G.adjacency())[0][0]
    assert abs(tau + 2.0) <= 1e-8
    res = spectral_vector_chromatic(G)
    assert abs(res.value - 4.0) <= 1e-12
    assert res.method == "spectral"


def test_spectral_certificate_is_primal_feasible():
    for G in (graphs.generate("cycle", 5), graphs.generate("petersen"),
              graphs.generate("omega", 4)):
        res = spectral_vector_chromatic(G)
        assert abs(witness_bound(G, res.primal_certificate, False) - res.value) <= 1e-12


def test_spectral_vector_chromatic_refuses_a_failed_witness(perturbed_witness):
    with pytest.raises(DomainError, match="witness check"):
        spectral_vector_chromatic(graphs.generate("cycle", 5))


def test_spectral_vector_chromatic_preconditions():
    with pytest.raises(DomainError, match="regular"):
        spectral_vector_chromatic(graphs.generate("path", 3))
    with pytest.raises(DomainError, match="edge"):
        spectral_vector_chromatic(graphs.generate("empty", 4))
    # regular, but 1 - k/tau is not its value (theta-bar is 5)
    C5 = graphs.generate("cycle", 5)
    with pytest.raises(DomainError):
        spectral_vector_chromatic(graphs.product("strong", C5, C5))


def test_spectral_vector_chromatic_certifies_without_one_homogeneity(monkeypatch):
    monkeypatch.setattr(params, "one_homogeneous_check", None)
    cases = _spectral_graphs() + [(graphs.generate("omega", 4), 4.0),
                                  (graphs.generate("omega", 6), 2.0)]
    for G, value in cases:
        res = spectral_vector_chromatic(G)
        degree = int(G.degrees()[0])
        # the closed form itself, from the same eigendecomposition
        assert res.value == 1.0 - degree / eig_sym(G.adjacency())[0][0], G.label
        assert abs(res.value - value) <= 1e-9, G.label
        lower = dual_form_bound(G, res.dual_certificate, True)
        upper = witness_bound(G, res.primal_certificate, True)
        assert res.gap == max(0.0, upper - lower) <= 1e-12, G.label
        assert max(upper, res.value) - min(lower, res.value) <= 1e-9 * max(1.0, res.value)


def test_spectral_matches_sdp(cfg):
    # solved directly: theta_bar and chi_vec would take the spectral pin
    for G in (graphs.generate("cycle", 7), graphs.generate("petersen")):
        formula = spectral_vector_chromatic(G).value
        assert abs(solve(build_chi_vec(G), cfg).objective - formula) <= 1e-3
        assert abs(solve(build_theta_bar(G), cfg).objective - formula) <= 1e-3


# --- chromatic number -----------------------------------------------------------

def test_chromatic_basics():
    assert chromatic_number(graphs.generate("cycle", 5)) == 3
    assert chromatic_number(graphs.generate("cycle", 6)) == 2
    assert chromatic_number(graphs.generate("complete", 7)) == 7
    assert chromatic_number(graphs.generate("petersen")) == 3
    assert chromatic_number(graphs.generate("empty", 4)) == 1
    assert chromatic_number(graphs.generate("empty", 0)) == 0


def test_chromatic_cap_and_limit():
    with pytest.raises(CapacityError):
        chromatic_number(graphs.generate("empty", 31))
    with pytest.raises(LimitExceededError) as err:
        chromatic_number(graphs.generate("complete", 5), limit=3)
    assert err.value.limit == 3


def _brute_force_chromatic(G):
    """The least k for which some map of the vertices into range(k) is a
    proper coloring, by scanning all of them."""
    edges = np.column_stack(G.edge_index).tolist()
    k = 0
    while not any(all(c[u] != c[v] for u, v in edges)
                  for c in product(range(k), repeat=G.n)):
        k += 1
    return k


@given(small_graph())
# odd cycle and odd wheel: chromatic number one above the clique number
@example(graphs.generate("cycle", 5))
@example(graph_from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]))
def test_chromatic_number_matches_brute_force(G):
    k = _brute_force_chromatic(G)
    assert chromatic_number(G) == chromatic_number(G, limit=k) == k
    # the coloring behind it is proper and uses exactly the colors 0..k-1
    colors = params.GraphFacts(G).chromatic_coloring()
    assert all(colors[u] != colors[v] for u, v in zip(*G.edge_index))
    assert sorted(set(colors.tolist())) == list(range(k))
    with pytest.raises(LimitExceededError) as err:
        chromatic_number(G, limit=k - 1)
    assert err.value.limit == k - 1


def test_chromatic_search_depth_refused_before_search(monkeypatch):
    depth = sys.getrecursionlimit() - params._CALLER_FRAMES
    # at the bound the clique search and the coloring search each recurse
    # about once per vertex
    assert chromatic_number(graphs.generate("complete", depth), cap=depth) == depth
    assert chromatic_number(graphs.generate("empty", depth), cap=depth) == 1

    def no_search(*args):
        raise AssertionError("searched past the depth bound")

    monkeypatch.setattr(params, "_max_clique", no_search)
    for family in ("empty", "complete"):
        G = graphs.generate(family, depth + 1)
        with pytest.raises(CapacityError, match="search depth"):
            chromatic_number(G, cap=depth + 1)
        with pytest.raises(CapacityError, match="search depth"):
            params.GraphFacts(G, cap=depth + 1).chromatic_coloring()


def _search(G, k):
    neighbours, clique = params._search_setup(G, CHROMATIC_CAP_DEFAULT)
    return params._search_coloring(neighbours, k, clique)


def test_search_coloring_decides_k_colorability():
    G = graphs.generate("petersen")
    col = _search(G, 3)
    assert col is not None
    assert all(col[u] != col[v] for u, v in zip(*G.edge_index))
    assert _search(G, 2) is None
    # the clique decides the degenerate cases
    K0 = graphs.generate("empty", 0)
    assert np.array_equal(_search(K0, 0), np.zeros(0, dtype=int))
    assert _search(K0, -1) is None
    assert _search(graphs.generate("empty", 3), 0) is None


def _rescanning_search_coloring(masks, n, k, clique):
    # the search as it was before the used-color masks were kept
    # incrementally: each node rescans every uncolored vertex's neighbours
    if len(clique) > k:
        return None
    colors = [-1] * n
    for i, v in enumerate(clique):
        colors[v] = i
    max_used = len(clique) - 1

    def choose():
        best_u, best_opts, best_deg = -1, None, -1
        for u in range(n):
            if colors[u] >= 0:
                continue
            used = 0
            m = masks[u]
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if colors[v] >= 0:
                    used |= 1 << colors[v]
            limit = min(k, max_used + 2)
            opts = [c for c in range(limit) if not (used >> c) & 1]
            deg = bin(masks[u]).count("1")
            if best_opts is None or (len(opts), -deg) < (len(best_opts), -best_deg):
                best_u, best_opts, best_deg = u, opts, deg
                if not opts:
                    break
        return best_u, best_opts

    def backtrack(remaining):
        nonlocal max_used
        if remaining == 0:
            return True
        u, opts = choose()
        if not opts:
            return False
        saved = max_used
        for c in opts:
            colors[u] = c
            max_used = max(max_used, c)
            if backtrack(remaining - 1):
                return True
            colors[u] = -1
            max_used = saved
        return False

    if backtrack(n - len(clique)):
        return np.array(colors, dtype=int)
    return None


def test_search_matches_rescanning_search():
    # same choice rule and tie-breaks: the same coloring, or None, at every k
    # from below the clique number to above the chromatic number
    rng = np.random.default_rng(4)
    for n in range(31):
        for p in (0.2, 0.5, 0.8):
            G = graphs.erdos_renyi(n, p, rng=rng)
            neighbours, clique = params._search_setup(G, CHROMATIC_CAP_DEFAULT)
            masks = [sum(1 << v for v in nb) for nb in neighbours]
            chi = chromatic_number(G)
            for k in range(max(len(clique) - 1, 0), chi + 2):
                new = params._search_coloring(neighbours, k, clique)
                old = _rescanning_search_coloring(masks, n, k, clique)
                assert (new is None) == (old is None) == (k < chi), (n, p, k)
                assert new is None or np.array_equal(new, old), (n, p, k)


def test_chromatic_cartesian_max_small_pairs():
    # direct backtracking on products small enough for the cap
    rng_pairs = [(random_graph(4, seed=s), random_graph(5, seed=s + 40)) for s in range(10)]
    for G, H in rng_pairs:
        P = graphs.product("cartesian", G, H)
        assert chromatic_number(P) == max(chromatic_number(G), chromatic_number(H))


def test_sandwich_chain_on_corpus(theta, chivec, corpus):
    # spectral bound <= chi_vec <= theta_bar <= chi, computable members
    for G in corpus:
        cv = chivec(G).value
        tb = theta(G).value
        if G.edge_count:
            assert spectral_lower_bound(G) <= cv + 1e-4, G.label
            assert tb >= 2.0 - 1e-4, G.label
        assert cv <= tb + 1e-4, G.label
        if G.n <= 30:
            assert tb <= chromatic_number(G) + 2e-4, G.label


def test_theta_invariant_under_isolated_removal(no_spectral_pin):
    from vecchrom.sdp import SolverConfig

    tight = SolverConfig(tol=1e-9, gap_tol=2e-7)
    G = graphs.graph_from_edges(6, [(0, 1), (1, 2), (0, 2)])
    H = graphs.graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    # a cap of 0 keeps the triangles from the pin, and the regular H is kept
    # from the spectral pin, so both values are solved
    G_res, H_res = (params.GraphFacts(X, tight, 0).param("theta_bar") for X in (G, H))
    assert G_res.method == H_res.method == "sdp"
    assert abs(G_res.value - H_res.value) <= 1e-6
