import dataclasses

import numpy as np
import pytest

from conftest import random_graph
from vecchrom import graphs, identities, params
from vecchrom.errors import CapacityError, DimensionError, DomainError, VecchromError
from vecchrom.identities import chain_checks, run_suite
from vecchrom.sdp import SolverConfig

SQRT5 = np.sqrt(5.0)


def test_sabidussi_k3_k4(cfg, param_cache):
    checks = run_suite(
        "sabidussi", graphs.generate("complete", 3), graphs.generate("complete", 4), cfg,
        cache=param_cache,
    )
    by_name = {c.name: c for c in checks}
    theta = by_name["theta_bar(G[]H) = max"]
    assert theta.passed and abs(theta.lhs - 4.0) <= 1e-3
    chi = by_name["chi(G[]H) = max"]
    assert chi.passed and chi.lhs == 4


def test_hedetniemi_c5_k3(cfg, param_cache):
    checks = run_suite(
        "hedetniemi", graphs.generate("cycle", 5), graphs.generate("complete", 3), cfg,
        cache=param_cache,
    )
    (check,) = checks
    assert check.passed
    assert abs(check.lhs - SQRT5) <= 1e-3


def test_products_c5_c5(cfg, param_cache):
    checks = run_suite(
        "products", graphs.generate("cycle", 5), graphs.generate("cycle", 5), cfg,
        cache=param_cache,
    )
    assert len(checks) == 2
    for check in checks:
        assert check.passed
        assert abs(check.lhs - 5.0) <= 1e-3


def test_union_bound(cfg, param_cache):
    G = random_graph(6, seed=201)
    H = random_graph(6, seed=202)
    (check,) = run_suite("union", G, H, cfg, cache=param_cache)
    assert check.passed
    assert check.comparison == "le"


def test_union_needs_same_order(cfg):
    # refused before the SDP cap is checked and before any record is made
    cache = {}
    with pytest.raises(DimensionError):
        run_suite("union", graphs.generate("cycle", 4), graphs.generate("cycle", 5), cfg,
                  cache=cache)
    with pytest.raises(DimensionError):
        run_suite("union", graphs.generate("empty", 130), graphs.generate("empty", 131), cfg,
                  cache=cache)
    assert cache == {}


def test_chain_checks(cfg, param_cache):
    G = graphs.generate("petersen")
    checks = chain_checks(G, identities._facts(G, cfg, param_cache, params.CHROMATIC_CAP_DEFAULT))
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


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_run_suite_refuses_a_tolerance_it_cannot_check(tol):
    # tol = inf would pass every certified interval
    with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
        run_suite("sabidussi", graphs.generate("cycle", 5), graphs.generate("complete", 3),
                  tol=tol)


def test_capacity_guard(cfg):
    big, cache = graphs.generate("empty", 40), {}
    for suite in ("sabidussi", "hedetniemi", "products"):
        with pytest.raises(CapacityError):
            run_suite(suite, big, big, cfg, cache=cache, sdp_cap=100)
    assert cache == {}


def test_identity_check_serialization(cfg, param_cache):
    checks = run_suite(
        "hedetniemi", graphs.generate("complete", 2), graphs.generate("complete", 3), cfg,
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


def test_an_uncertified_interval_fails_even_when_it_fits(monkeypatch):
    # K3 [] K1 is K3: with the witness refused, the trivial interval
    # [fiber bound, n] = [3, 3] still fits the maximum 3, and only the
    # missing certificate fails the check
    monkeypatch.setattr(identities, "witness_bound", lambda *args: None)
    checks = run_suite("sabidussi", graphs.generate("complete", 3),
                       graphs.generate("complete", 1))
    by_name = {c.name: c for c in checks}
    for which in ("theta_bar", "chi_vec"):
        check = by_name[f"{which}(G[]H) = max"]
        assert check.residual <= check.tolerance and check.detail["rejected"] == ["upper"]
        assert check.passed is False


def test_suites_search_each_graph_once(cfg, monkeypatch):
    # one shared cache over the acceptance pairs: each graph that reaches a
    # search (a factor with an edge, and every factor of the sabidussi and
    # chain suites, whose chromatic numbers are searched) is searched once,
    # for its pins and its minimum coloring together, and no product is
    from test_acceptance import PAIR_SEED, _random_pairs

    calls = []
    setup = params._search_setup

    def counting(G, cap):
        calls.append(G.key())
        return setup(G, cap)

    monkeypatch.setattr(params, "_search_setup", counting)
    rng = np.random.default_rng(PAIR_SEED + 2)
    runs = ([(suite, G, H) for G, H in _random_pairs(20, 4, 8, PAIR_SEED)
             for suite in ("sabidussi", "hedetniemi", "chain")]
            + [("products", G, H) for G, H in _random_pairs(10, 4, 6, PAIR_SEED + 1)]
            + [("union", graphs.erdos_renyi(7, 0.5, rng=rng), graphs.erdos_renyi(7, 0.5, rng=rng))
               for _ in range(10)])
    cache, searched = {}, set()
    for suite, G, H in runs:
        checks = run_suite(suite, G, H, cfg, cache=cache)
        assert all(c.passed for c in checks), (suite, G.label, H.label)
        searched |= {X.key() for X in (G, H) if X.edge_count or suite in ("sabidussi", "chain")}
        if suite == "sabidussi":
            # the chi check is certified from the factors' minimum colorings
            chi = checks[-1]
            factors = [cache[G.key()].chromatic_number(), cache[H.key()].chromatic_number()]
            m = max(factors)
            assert chi.detail["factors"] == factors
            assert chi.lhs == chi.rhs == m and chi.detail["interval"] == [m, m]
            assert chi.detail["certificates"] == {"lower": "factor subgraph",
                                                  "upper": "modular coloring"}
    assert sorted(calls) == sorted(searched)


def test_cache_records_follow_the_chromatic_cap(cfg):
    # a record made at a cap that refuses C5's search is made again when
    # the same cache is used at a cap that allows it
    cache = {}
    with pytest.raises(CapacityError):
        run_suite("sabidussi", C5, K3, cfg, cache=cache, chromatic_cap=3)
    assert all(c.passed for c in run_suite("sabidussi", C5, K3, cfg, cache=cache))
    assert cache[C5.key()].cap == params.CHROMATIC_CAP_DEFAULT


def test_cache_records_follow_the_solver_settings():
    # C5 with a pendant vertex is solved, so its value depends on gap_tol:
    # a record made at 1e-1 is not reused at 1e-9
    G = graphs.graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
    loose, tight = SolverConfig(gap_tol=1e-1), SolverConfig(gap_tol=1e-9)
    cache = {}
    (wide,) = run_suite("hedetniemi", G, K3, loose, cache=cache)
    (shared,) = run_suite("hedetniemi", G, K3, tight, cache=cache)
    (fresh,) = run_suite("hedetniemi", G, K3, tight)
    assert shared.as_dict() == fresh.as_dict() != wide.as_dict()
    low, up = shared.detail["interval"]
    assert low <= SQRT5 <= up and up - low <= 1e-8
    assert cache[G.key()].cfg == tight


@pytest.mark.parametrize("suite", identities.SUITES)
def test_run_suite_makes_one_record_per_graph(cfg, monkeypatch, suite):
    # without a cache, a pair of equal graphs is searched once per call
    calls = []
    setup = params._search_setup

    def counting(G, cap):
        calls.append(G.key())
        return setup(G, cap)

    monkeypatch.setattr(params, "_search_setup", counting)
    assert all(c.passed for c in run_suite(suite, C5, C5, cfg))
    assert calls == [C5.key()]


@pytest.mark.parametrize("pair", [(C5, K3), (PETERSEN, C5), "stiff"])
def test_pair_suites_solve_no_product(cfg, param_cache, monkeypatch, pair):
    """Only factor-sized SDPs run, the stiff acceptance pair included."""
    if pair == "stiff":
        from test_acceptance import PAIR_SEED, _random_pairs

        pair = _random_pairs(20, 4, 8, PAIR_SEED)[8]
        assert (pair[0].n, pair[1].n) == (7, 8)
    G, H = pair
    orders = []
    param = params.GraphFacts.param

    def counting(facts, which):
        orders.append(facts.G.n)
        return param(facts, which)

    monkeypatch.setattr(params.GraphFacts, "param", counting)
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
        methods = {res.method for facts in cache.values() for res in facts.results.values()}
        assert cache and methods == {method}


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
def test_mutated_factor_fails_its_checks(cfg, pair, factor, which, field, expected):
    G, H = PAIRS[pair]
    X = (G, H)[factor]
    cache = {}
    assert all(c.passed for c in _pair_checks(G, H, cfg, cache))
    res = cache[X.key()].results[which]
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
    cache[X.key()].results[which] = mutated
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
    for check in run_suite("sabidussi", G, H, cfg, cache=param_cache)[:2]:
        low, up = check.detail["interval"]
        assert identities._check(check.name, low, up, max(check.detail["factors"]),
                                 check.tolerance).passed
        wrong = identities._check(check.name, low, up, min(check.detail["factors"]),
                                  check.tolerance)
        assert not wrong.passed and wrong.residual > 0.2
