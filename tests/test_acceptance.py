"""Acceptance suite: one test per exit criterion, tolerances pinned.

Runs in definition order; the final criterion sweeps the duality gaps of
every SDP-backed parameter recorded in the shared cache during the run,
which always holds the solves of the c05-c07 fixtures.
Invoke with ``pytest tests/test_acceptance.py -v -s`` to see one line
per criterion.
"""

import time

import numpy as np
import pytest

from conftest import random_graph, star
from test_colorings import simplex_coloring
from vecchrom import graphs
from vecchrom.colorings import extract_coloring, verify_coloring
from vecchrom.identities import _cartesian_witness, _facts, _lift, run_suite
from vecchrom.params import (
    CHROMATIC_CAP_DEFAULT,
    chi_vec,
    chromatic_number,
    one_homogeneous_check,
    spectral_vector_chromatic,
    theta_bar,
)
from vecchrom.quantum import (
    QuantumHomomorphism,
    classical_embedding,
    conjugate,
    quantum_sabidussi,
    tensor_with_identity,
    verify_quantum_hom,
)
from vecchrom.sdp import OPTIMAL, SolverConfig, build_chi_vec, build_theta_bar, solve

SQRT5 = 2.2360680
PAIR_SEED = 20250808


def _random_pairs(count, n_low, n_high, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n1 = int(rng.integers(n_low, n_high + 1))
        n2 = int(rng.integers(n_low, n_high + 1))
        pairs.append(
            (graphs.erdos_renyi(n1, 0.5, rng=rng), graphs.erdos_renyi(n2, 0.5, rng=rng))
        )
    return pairs


def _conclude(number, text):
    print(f"ACCEPTANCE C{number:02d} PASS - {text}")


def test_c01_complete_graphs(theta, chivec):
    for n in range(2, 9):
        K = graphs.generate("complete", n)
        assert abs(theta(K).value - n) <= 1e-4
        assert abs(chivec(K).value - n) <= 1e-4
    _conclude(1, "theta_bar(K_n) = chi_vec(K_n) = n for n = 2..8 at 1e-4")


def test_c02_five_cycle_two_methods(cfg):
    # solved directly: theta_bar and chi_vec would take the spectral pin,
    # which is the formula's own certificate
    C5 = graphs.generate("cycle", 5)
    sdp_theta = solve(build_theta_bar(C5), cfg).objective
    sdp_chivec = solve(build_chi_vec(C5), cfg).objective
    formula = spectral_vector_chromatic(C5).value
    for value in (sdp_theta, sdp_chivec, formula):
        assert abs(value - SQRT5) <= 1e-4
    assert abs(sdp_theta - formula) <= 1e-4
    assert abs(sdp_chivec - formula) <= 1e-4
    _conclude(2, "C_5 values sqrt(5) by SDP and spectral formula, agreeing at 1e-4")


def test_c03_petersen(theta, chivec):
    P = graphs.generate("petersen")
    assert abs(theta(P).value - 2.5) <= 1e-3
    assert abs(chivec(P).value - 2.5) <= 1e-3
    _conclude(3, "Petersen theta_bar = chi_vec = 2.5 at 1e-3")


def test_c04_omega_family(theta):
    assert abs(theta(graphs.generate("omega", 4)).value - 4.0) <= 1e-3
    assert graphs.generate("omega", 3).edge_count == 0
    assert graphs.generate("omega", 5).edge_count == 0
    for n in (2, 6):
        O = graphs.generate("omega", n)
        flag, _ = graphs.is_bipartite(O)
        assert flag and O.edge_count > 0
        assert abs(theta(O).value - 2.0) <= 1e-4
    _conclude(4, "omega family: 4 -> 4, odd empty, 2 and 6 bipartite with value 2")


def _suite_pairs():
    named = [
        (graphs.generate("cycle", 5), graphs.generate("complete", 3)),
        (graphs.generate("petersen"), graphs.generate("cycle", 5)),
    ]
    return _random_pairs(20, 4, 8, PAIR_SEED) + named


def _cross_checked(checks, targets, cfg, cache):
    """Pair each check with the graph it certifies and the SDP value there."""
    return [(check, F, _facts(F, cfg, cache, CHROMATIC_CAP_DEFAULT).param(which).value)
            for check, (F, which) in zip(checks, targets)]


def _assert_in_interval(check, F, value, tol=1e-3):
    """Cross-check a certified interval against the SDP solved on F."""
    low, up = check.detail["interval"]
    assert low - tol <= value <= up + tol, (F.label, check.name, value, low, up)


# The suites of c05-c07 run in session fixtures, each with the solver
# values on the products and unions it cross-checks.  The solves land in
# the shared cache, which c13 sweeps; depending on these fixtures, c13
# holds when run on its own.


@pytest.fixture(scope="session")
def sabidussi_runs(cfg, param_cache):
    runs = []
    for G, H in _suite_pairs():
        checks = run_suite("sabidussi", G, H, cfg, 1e-3, param_cache)
        F = graphs.product("cartesian", G, H)
        crossed = _cross_checked(checks, [(F, "theta_bar"), (F, "chi_vec")], cfg, param_cache)
        if F.n <= CHROMATIC_CAP_DEFAULT:
            # the search on the product cross-checks the factor-built chi interval
            crossed.append((checks[2], F, chromatic_number(F)))
        runs.append((G, H, checks, crossed))
    return runs


@pytest.fixture(scope="session")
def hedetniemi_runs(cfg, param_cache):
    runs = []
    for G, H in _suite_pairs():
        (check,) = run_suite("hedetniemi", G, H, cfg, 1e-3, param_cache)
        F = graphs.product("categorical", G, H)
        runs.append((G, H, [check], _cross_checked([check], [(F, "theta_bar")], cfg, param_cache)))
    return runs


@pytest.fixture(scope="session")
def product_union_runs(cfg, param_cache):
    runs = []
    for G, H in _random_pairs(10, 4, 6, PAIR_SEED + 1):
        checks = run_suite("products", G, H, cfg, 1e-3, param_cache)
        targets = [(graphs.product(kind, G, H), "theta_bar") for kind in ("strong", "disjunctive")]
        runs.append((G, H, checks, _cross_checked(checks, targets, cfg, param_cache)))
    rng = np.random.default_rng(PAIR_SEED + 2)
    for _ in range(10):
        G = graphs.erdos_renyi(7, 0.5, rng=rng)
        H = graphs.erdos_renyi(7, 0.5, rng=rng)
        (check,) = run_suite("union", G, H, cfg, 1e-3, param_cache)
        runs.append((G, H, [check], _cross_checked(
            [check], [(graphs.union(G, H), "theta_bar")], cfg, param_cache)))
    return runs


def _assert_runs(runs):
    for G, H, checks, crossed in runs:
        for check in checks:
            assert check.passed, (G.label, H.label, check)
        for check, F, value in crossed:
            _assert_in_interval(check, F, value)


def test_c05_sabidussi_suite(sabidussi_runs):
    _assert_runs(sabidussi_runs)
    _conclude(5, "Cartesian suite: theta_bar/chi_vec at 1e-3 and chi exactly, 22 pairs")


def test_c06_hedetniemi_suite(hedetniemi_runs):
    _assert_runs(hedetniemi_runs)
    _conclude(6, "categorical suite: theta_bar equals factor minimum at 1e-3, 22 pairs")


def test_c07_multiplicativity_and_union(product_union_runs):
    _assert_runs(product_union_runs)
    _conclude(7, "strong/disjunctive multiplicativity and union bound at 1e-3")


def test_c08_chain_inequality(theta, chivec, corpus):
    for G in corpus:
        assert chivec(G).value <= theta(G).value + 1e-4, G.label
    _conclude(8, f"chi_vec <= theta_bar + 1e-4 on all {len(corpus)} corpus graphs")


def test_c09_one_homogeneity(chivec):
    for n in range(2, 9):
        assert one_homogeneous_check(graphs.generate("complete", n)).is_one_homogeneous
    for n in range(3, 10):
        assert one_homogeneous_check(graphs.generate("cycle", n)).is_one_homogeneous
    assert one_homogeneous_check(graphs.generate("petersen")).is_one_homogeneous
    assert one_homogeneous_check(graphs.generate("omega", 4)).is_one_homogeneous

    for G in (graphs.generate("path", 3), star(3)):
        rep = one_homogeneous_check(G)
        assert not rep.is_one_homogeneous and rep.failing_witness is not None
    bumpy = random_graph(7, seed=9)
    assert len(set(bumpy.degrees())) > 1  # non-regular by construction
    rep = one_homogeneous_check(bumpy)
    assert not rep.is_one_homogeneous and rep.failing_witness is not None

    C5 = graphs.generate("cycle", 5)
    C7 = graphs.generate("cycle", 7)
    P = graphs.generate("petersen")
    K4 = graphs.generate("complete", 4)
    for G, H in ((C5, P), (C5, K4), (P, K4)):
        assert one_homogeneous_check(graphs.product("categorical", G, H)).is_one_homogeneous

    family = [C5, C7, P, K4]
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            G, H = family[i], family[j]
            lhs = chivec(graphs.product("categorical", G, H)).value
            rhs = min(chivec(G).value, chivec(H).value)
            assert abs(lhs - rhs) <= 1e-3, (G.label, H.label, lhs, rhs)
    _conclude(9, "1-homogeneity passes/fails as required; categorical closure and "
                 "chi_vec Hedetniemi at 1e-3 on the named family")


def test_c10_chromatic_c5_strong_c5():
    start = time.perf_counter()
    P = graphs.product("strong", graphs.generate("cycle", 5), graphs.generate("cycle", 5))
    chi = chromatic_number(P)
    elapsed = time.perf_counter() - start
    assert chi == 5
    assert elapsed < 60.0
    _conclude(10, f"chi(C_5 strong C_5) = 5 exactly in {elapsed:.2f}s")


def test_c11_coloring_pipeline():
    tight = SolverConfig(tol=1e-9, gap_tol=1e-6)
    worst = 0.0

    for n in (3, 5, 7):
        rep = verify_coloring(graphs.generate("complete", n), simplex_coloring(n), tol=1e-5)
        assert rep.ok
        worst = max(worst, rep.worst_residual)

    C5 = graphs.generate("cycle", 5)
    res_c5 = theta_bar(C5, tight, want_primal=True)
    col_c5 = extract_coloring(res_c5.primal_certificate, res_c5.value, tol=1e-6, strict=True)
    rep = verify_coloring(C5, col_c5, tol=1e-5)
    assert rep.ok
    worst = max(worst, rep.worst_residual)

    P = graphs.generate("petersen")
    res_p = chi_vec(P, tight, want_primal=True)
    col_p = extract_coloring(res_p.primal_certificate, res_p.value, tol=1e-6, strict=False)
    rep = verify_coloring(P, col_p, tol=1e-5)
    assert rep.ok
    worst = max(worst, rep.worst_residual)

    K5 = graphs.generate("complete", 5)
    res_k5 = theta_bar(K5, tight, want_primal=True)
    col_k5 = extract_coloring(res_k5.primal_certificate, res_k5.value, tol=1e-6, strict=True)
    rep = verify_coloring(K5, col_k5, tol=1e-5)
    assert rep.ok
    worst = max(worst, rep.worst_residual)

    # the Sabidussi upper certificate of the identity suites: the factor
    # witnesses Z = M + J lifted to 3 and tensored, read back as colorings
    Z_c5 = res_c5.primal_certificate + 1.0
    lifted = extract_coloring(_lift(Z_c5, 3.0), 3.0, tol=1e-6, strict=True)
    rep = verify_coloring(C5, lifted, tol=1e-5)
    assert rep.ok
    worst = max(worst, rep.worst_residual)

    K3 = graphs.generate("complete", 3)
    k3 = simplex_coloring(3)
    Z_k3 = 2.0 * (k3.vectors @ k3.vectors.T) + 1.0
    combined = extract_coloring(_cartesian_witness(Z_c5, Z_k3), 3.0, tol=1e-6, strict=True)
    rep = verify_coloring(graphs.product("cartesian", C5, K3), combined, tol=1e-5)
    assert rep.ok
    worst = max(worst, rep.worst_residual)
    _conclude(11, f"simplex/extract/lift/tensor colorings verify, worst residual {worst:.2e}")


def test_c12_quantum_certificates():
    C5 = graphs.generate("cycle", 5)
    C7 = graphs.generate("cycle", 7)
    K2 = graphs.generate("complete", 2)
    K3 = graphs.generate("complete", 3)
    col5 = [0, 1, 0, 1, 2]
    col7 = [0, 1, 0, 1, 0, 1, 2]

    base = classical_embedding(C5, K3, col5)
    assert verify_quantum_hom(base).ok
    assert verify_quantum_hom(classical_embedding(C7, K3, col7)).ok
    assert verify_quantum_hom(classical_embedding(graphs.generate("cycle", 4), K2, [0, 1, 0, 1])).ok

    rng = np.random.default_rng(5150)
    rejected = 0
    for _ in range(50):
        u = int(rng.integers(5))
        c = int(rng.integers(3))
        part = int(rng.integers(2))  # real or imaginary
        arr = base.assignment.copy()
        bump = 1e-2 if part == 0 else 1e-2 * 1j
        arr[u, c, 0, 0] += bump
        mutated = QuantumHomomorphism(base.source, base.target, base.d, arr)
        rep = verify_quantum_hom(mutated)
        assert not rep.ok
        witness = rep.witness
        assert witness is not None
        involved = {witness.get("vertex")} | set(witness.get("edge", []))
        assert u in involved, (u, c, witness)
        rejected += 1
    assert rejected == 50

    combined = quantum_sabidussi(base, classical_embedding(C7, K3, col7))
    assert verify_quantum_hom(combined, tol=1e-7).ok

    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(M)
    rotated = conjugate(tensor_with_identity(base, 2), U)
    assert verify_quantum_hom(rotated, tol=1e-7).ok
    mixed = quantum_sabidussi(rotated, classical_embedding(K3, K3, [0, 1, 2]))
    assert mixed.d == 2
    assert verify_quantum_hom(mixed, tol=1e-7).ok
    _conclude(12, "quantum certificates: embeddings pass, 50 mutations rejected "
                  "with correct witnesses, product constructions verify at 1e-7")


def _pinned(param_cache, runs):
    """(graph, parameter, value) of each graph of the runs whose recorded
    value is pinned, by a clique and a coloring or by the spectral
    certificates, once per graph and parameter."""
    out = {}
    for G, H, _, crossed in runs:
        for F in [G, H] + [F for _, F, _ in crossed]:
            for which in ("theta_bar", "chi_vec"):
                res = param_cache[F.key()].results.get(which) if F.key() in param_cache else None
                if res is not None and res.method in ("pin", "spectral"):
                    out[F.key(), which] = (F, which, res.value)
    return list(out.values())


def test_c13_strong_duality_certification(param_cache, cfg, sabidussi_runs,
                                          hedetniemi_runs, product_union_runs):
    sdp_results = [
        res for facts in param_cache.values() for res in facts.results.values()
        if res.method == "sdp"
    ]
    # the pinned graphs are solved here all the same: each solve is held
    # to the same bounds, and its certified interval must hold the pin
    pinned = _pinned(param_cache, sabidussi_runs + hedetniemi_runs + product_union_runs)
    for F, which, k in pinned:
        sol = solve((build_chi_vec if which == "chi_vec" else build_theta_bar)(F), cfg)
        assert sol.status == OPTIMAL, (F.label, which)
        assert sol.objective - cfg.gap_tol <= k <= sol.dual_objective + cfg.gap_tol, (
            F.label, which, k, sol.objective, sol.dual_objective)
        sdp_results.append(sol)
    assert len(sdp_results) >= 80, "expected the suite to have recorded many solves"
    for res in sdp_results:
        assert res.gap <= 2 * cfg.gap_tol
        if res.residuals is not None:
            assert max(res.residuals) <= 10 * cfg.tol
    _conclude(13, f"duality gap <= 2*gap_tol on all {len(sdp_results)} SDP solves, "
                  f"{len(pinned)} of them cross-checking a pinned value")
