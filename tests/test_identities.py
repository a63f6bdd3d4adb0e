import dataclasses

import numpy as np
import pytest

from conftest import random_graph
from vecchrom import graphs, identities, params
from vecchrom.errors import CapacityError, DimensionError, VecchromError
from vecchrom.identities import (
    chain_checks,
    hedetniemi_checks,
    product_checks,
    run_suite,
    sabidussi_checks,
    union_checks,
)

SQRT5 = np.sqrt(5.0)


def test_sabidussi_k3_k4(cfg, param_cache):
    checks = sabidussi_checks(
        graphs.generate("complete", 3), graphs.generate("complete", 4), cfg,
        cache=param_cache,
    )
    by_name = {c.name: c for c in checks}
    theta = by_name["theta_bar(G[]H) = max"]
    assert theta.passed and abs(theta.lhs - 4.0) <= 1e-3
    chi = by_name["chi(G[]H) = max"]
    assert chi.passed and chi.lhs == 4


def test_hedetniemi_c5_k3(cfg, param_cache):
    checks = hedetniemi_checks(
        graphs.generate("cycle", 5), graphs.generate("complete", 3), cfg,
        cache=param_cache,
    )
    (check,) = checks
    assert check.passed
    assert abs(check.lhs - SQRT5) <= 1e-3


def test_products_c5_c5(cfg, param_cache):
    checks = product_checks(
        graphs.generate("cycle", 5), graphs.generate("cycle", 5), cfg,
        cache=param_cache,
    )
    assert len(checks) == 2
    for check in checks:
        assert check.passed
        assert abs(check.lhs - 5.0) <= 1e-3


def test_union_bound(cfg, param_cache):
    G = random_graph(6, seed=201)
    H = random_graph(6, seed=202)
    (check,) = union_checks(G, H, cfg, cache=param_cache)
    assert check.passed
    assert check.comparison == "le"


def test_union_needs_same_order(cfg):
    with pytest.raises(DimensionError):
        union_checks(graphs.generate("cycle", 4), graphs.generate("cycle", 5), cfg)


def test_chain_checks(cfg, param_cache):
    checks = chain_checks(graphs.generate("petersen"), cfg, cache=param_cache)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert any("spectral" in n for n in names)
    assert any("chi_vec <= theta_bar" in n for n in names)
    assert any("theta_bar <= chi" in n for n in names)


def test_run_suite_dispatch(cfg, param_cache):
    checks = run_suite("chain", graphs.generate("complete", 3),
                       graphs.generate("cycle", 4), cfg, cache=param_cache)
    assert all(c.passed for c in checks)
    with pytest.raises(VecchromError):
        run_suite("nonsense", graphs.generate("complete", 3),
                  graphs.generate("cycle", 4), cfg)


def test_capacity_guard(cfg):
    big = graphs.generate("empty", 40)
    with pytest.raises(CapacityError):
        sabidussi_checks(big, big, cfg, sdp_cap=100)


def test_identity_check_serialization(cfg, param_cache):
    checks = hedetniemi_checks(
        graphs.generate("complete", 2), graphs.generate("complete", 3), cfg,
        cache=param_cache,
    )
    data = checks[0].as_dict()
    assert {"name", "lhs", "rhs", "residual", "tolerance", "passed", "comparison"} <= set(data)


# --- certificates in place of product solves ------------------------------------

C5 = graphs.generate("cycle", 5)
K3 = graphs.generate("complete", 3)
PETERSEN = graphs.generate("petersen")
PAIRS = {"C5/K3": (C5, K3), "Petersen/C5": (PETERSEN, C5)}
CARTESIAN = "theta_bar(G[]H) = max"
CHI_CARTESIAN = "chi_vec(G[]H) = max"
CATEGORICAL = "theta_bar(GxH) = min"
PRODUCTS = ["theta_bar(G<>H) = product", "theta_bar(G*H) = product"]


def _pair_checks(G, H, cfg, cache):
    checks = []
    for suite in ("sabidussi", "hedetniemi", "products"):
        checks.extend(run_suite(suite, G, H, cfg, cache=cache))
    return checks


def test_sabidussi_builds_cartesian_once(cfg, param_cache, monkeypatch):
    kinds = []

    def counting(kind, G, H):
        kinds.append(kind)
        return graphs.product(kind, G, H)

    monkeypatch.setattr(identities, "product", counting)
    run_suite("sabidussi", C5, K3, cfg, cache=param_cache)
    assert kinds.count("cartesian") == 1


def test_sabidussi_computes_each_factor_chromatic_number_once(cfg, param_cache, monkeypatch):
    calls = {"chromatic_coloring": [], "chromatic_number": []}
    for name, seen in calls.items():
        def counting(F, *args, f=getattr(identities, name), seen=seen, **kwargs):
            seen.append(F.n)
            return f(F, *args, **kwargs)
        monkeypatch.setattr(identities, name, counting)
    # one product within the chromatic cap and one (49 vertices) above it:
    # both are certified from the factors, with no search on the product
    for G, H in ((C5, K3), (random_graph(7, seed=301), random_graph(7, seed=302))):
        for seen in calls.values():
            seen.clear()
        chi = run_suite("sabidussi", G, H, cfg, cache=param_cache)[-1]
        # one search per factor, whose coloring gives the factor value
        assert calls == {"chromatic_coloring": [G.n, H.n], "chromatic_number": []}
        factors = [params.chromatic_number(G), params.chromatic_number(H)]
        m = max(factors)
        assert chi.passed and chi.detail["factors"] == factors
        assert chi.lhs == chi.rhs == m and chi.detail["interval"] == [m, m]
        assert chi.detail["certificates"] == {"lower": "factor subgraph",
                                              "upper": "modular coloring"}
        assert "method" not in chi.detail
    # the search on the product agrees where the cap allows it
    assert params.chromatic_number(graphs.product("cartesian", C5, K3)) == 3


@pytest.mark.parametrize("pair", [(C5, K3), (PETERSEN, C5), "stiff"])
def test_pair_suites_solve_no_product(cfg, param_cache, monkeypatch, pair):
    """Only factor-sized SDPs run, the stiff acceptance pair included."""
    if pair == "stiff":
        from test_acceptance import PAIR_SEED, _random_pairs

        pair = _random_pairs(20, 4, 8, PAIR_SEED)[8]
        assert (pair[0].n, pair[1].n) == (7, 8)
    G, H = pair
    orders = []
    for which in ("theta_bar", "chi_vec"):
        solver = getattr(identities, which)

        def counting(graph, *args, solver=solver, **kwargs):
            orders.append(graph.n)
            return solver(graph, *args, **kwargs)

        monkeypatch.setattr(identities, which, counting)
    checks = _pair_checks(G, H, cfg, {})
    checks += run_suite("union", G, G, cfg, cache={})
    assert all(c.passed for c in checks)
    assert set(orders) <= {G.n, H.n}


@pytest.mark.parametrize("suite", ["hedetniemi", "products", "union", "chain"])
def test_suites_pin_factors_within_the_chromatic_cap(cfg, suite, no_spectral_pin):
    # K4 and C4 are pinned at their clique numbers, 4 and 2, below a cap
    # of 4 and solved above one of 3 (both are regular, so the spectral
    # pin is switched off)
    G, H = graphs.generate("complete", 4), graphs.generate("cycle", 4)
    for cap, method in ((4, "pin"), (3, "sdp")):
        cache = {}
        checks = run_suite(suite, G, H, cfg, cache=cache, chromatic_cap=cap)
        assert all(c.passed for c in checks)
        assert cache and {res.method for res in cache.values()} == {method}


def test_pair_suites_record_certified_intervals(cfg, param_cache):
    checks = _pair_checks(C5, K3, cfg, param_cache)
    checks += run_suite("union", C5, C5, cfg, cache=param_cache)
    exact = {CARTESIAN: 3.0, CHI_CARTESIAN: 3.0, CATEGORICAL: SQRT5,
             PRODUCTS[0]: 3 * SQRT5, PRODUCTS[1]: 3 * SQRT5}
    for check in checks:
        low, up = check.detail["interval"]
        assert set(check.detail["certificates"]) == {"lower", "upper"}
        assert "rejected" not in check.detail
        assert check.passed and low <= up
        if check.comparison == "eq":
            assert check.lhs == pytest.approx((low + up) / 2, abs=1e-15)
            assert check.residual == max(abs(low - check.rhs), abs(up - check.rhs))
        else:
            assert check.lhs == up
        if check.name in exact:
            assert low - 1e-8 <= exact[check.name] <= up + 1e-8
            assert up - low <= 1e-4
    union = checks[-1]
    assert union.comparison == "le" and union.detail["interval"][1] <= 5.0 + 1e-3


# Each factor certificate mutation fails exactly the checks built from it:
# the larger factor carries the Cartesian fiber, the smaller one the
# categorical pull-back, and the multiplicative checks use both factors.
MUTATIONS = [
    ("C5/K3", 0, "theta_bar", "P", [CATEGORICAL, *PRODUCTS]),
    ("C5/K3", 0, "theta_bar", "M", [CARTESIAN, CATEGORICAL, *PRODUCTS]),
    ("C5/K3", 0, "chi_vec", "M", [CHI_CARTESIAN]),
    ("C5/K3", 1, "theta_bar", "M", [CARTESIAN, *PRODUCTS]),
    ("C5/K3", 1, "chi_vec", "M", [CHI_CARTESIAN]),
    ("Petersen/C5", 0, "theta_bar", "P", [CARTESIAN, CATEGORICAL, *PRODUCTS]),
    ("Petersen/C5", 0, "theta_bar", "M", [CARTESIAN, *PRODUCTS]),
    ("Petersen/C5", 0, "chi_vec", "P", [CHI_CARTESIAN]),
    ("Petersen/C5", 0, "chi_vec", "M", [CHI_CARTESIAN]),
    ("Petersen/C5", 1, "theta_bar", "P", [CATEGORICAL, *PRODUCTS]),
    ("Petersen/C5", 1, "theta_bar", "M", [CARTESIAN, CATEGORICAL, *PRODUCTS]),
    ("Petersen/C5", 1, "chi_vec", "M", [CHI_CARTESIAN]),
    # a cached value 1e-2 off moves the right side it sets
    ("C5/K3", 0, "theta_bar", "value", [CATEGORICAL, *PRODUCTS]),
    ("C5/K3", 1, "theta_bar", "value", [CARTESIAN, *PRODUCTS]),
    ("C5/K3", 1, "chi_vec", "value", [CHI_CARTESIAN]),
    ("Petersen/C5", 0, "theta_bar", "value", [CARTESIAN, *PRODUCTS]),
    ("Petersen/C5", 0, "chi_vec", "value", [CHI_CARTESIAN]),
    ("Petersen/C5", 1, "theta_bar", "value", [CATEGORICAL, *PRODUCTS]),
]


@pytest.mark.parametrize("pair, factor, which, field, expected", MUTATIONS)
def test_mutated_factor_fails_its_checks(cfg, param_cache, pair, factor, which,
                                         field, expected):
    G, H = PAIRS[pair]
    X = (G, H)[factor]
    cache = dict(param_cache)
    assert all(c.passed for c in _pair_checks(G, H, cfg, cache))
    res = cache[(X.key(), which)]
    if field == "value":
        mutated = dataclasses.replace(res, value=res.value + 1e-2)
    elif field == "P":
        # a non-edge entry, which a dual-form matrix must keep at zero
        i, j = np.argwhere(~X.adj & ~np.eye(X.n, dtype=bool))[0]
        P = res.dual_certificate.copy()
        P[i, j] += 1e-2
        P[j, i] += 1e-2
        mutated = dataclasses.replace(res, dual_certificate=P)
    else:
        # the largest edge entry, which a witness must keep at -1 (at most -1)
        M = res.primal_certificate.copy()
        i, j = max(np.argwhere(X.adj), key=lambda e: M[e[0], e[1]])
        M[i, j] += 1e-2
        M[j, i] += 1e-2
        mutated = dataclasses.replace(res, primal_certificate=M)
    cache[(X.key(), which)] = mutated
    checks = _pair_checks(G, H, cfg, cache)
    failed = [c for c in checks if not c.passed]
    assert sorted(c.name for c in failed) == sorted(expected)
    for c in failed:
        assert ("rejected" in c.detail) == (field != "value"), c


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_wrong_identity_fails(cfg, param_cache, pair):
    # the certified interval of the Cartesian product refutes the claim
    # that it equals the factor minimum
    G, H = PAIRS[pair]
    for check in sabidussi_checks(G, H, cfg, cache=param_cache)[:2]:
        low, up = check.detail["interval"]
        assert identities._check(check.name, low, up, max(check.detail["factors"]),
                                 check.tolerance).passed
        wrong = identities._check(check.name, low, up, min(check.detail["factors"]),
                                  check.tolerance)
        assert not wrong.passed and wrong.residual > 0.2
