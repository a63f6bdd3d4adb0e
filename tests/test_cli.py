import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import certificate_dict, solve_with_raised_witness_edge
from vecchrom import cli, graphs, identities, params, sdp
from vecchrom.cli import main, resolve_graph
from vecchrom.identities import chain_checks
from vecchrom.graphs import parse_edge_list
from vecchrom.errors import DomainError, ParseError, ValidationError
from vecchrom.colorings import ClassicalColoring
from vecchrom.quantum import (
    QuantumHomomorphism,
    classical_embedding,
    quantum_sabidussi,
    save_certificate,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    record = json.loads(out.out) if out.out.strip().startswith("{") else None
    return code, record, out.err


@pytest.fixture
def unpinned_graph(tmp_path):
    """C_5 with a pendant vertex, as a file: omega = 2 < chi = 3 and not
    regular, so neither pin reaches it and every value is solved."""
    path = tmp_path / "c5_pendant.txt"
    graphs.save_graph(path, graphs.graph_from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)]))
    return str(path)


# --- graph argument handling ---------------------------------------------------

def test_parse_graph_file_text_and_path(tmp_path):
    assert parse_edge_list("2 1\n0 1").edge_count == 1
    assert parse_edge_list("3 3\n0 1\n1 2\n0 2").edge_count == 3
    path = tmp_path / "g.txt"
    graphs.save_graph(path, graphs.generate("cycle", 6))
    assert graphs.load_graph(path).edge_count == 6
    G = resolve_graph(str(path))
    assert (G.edge_count, G.label) == (6, "g.txt")


def test_parse_graph_file_errors(tmp_path):
    with pytest.raises(ValidationError) as err:
        parse_edge_list("2 1\n0 0")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_edge_list("not a graph")
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 0\n")
    with pytest.raises(ValidationError):
        graphs.load_graph(path)


@pytest.mark.parametrize("spec", ["cycle:x", "nosuchgraph"])
def test_param_unknown_graph_spec_is_a_usage_error(capsys, spec):
    code, record, err = run_cli(capsys, "param", spec, "--which", "chromatic")
    assert (code, record) == (1, None)
    assert spec in err


def test_resolve_graph_specs():
    assert resolve_graph("petersen").n == 10
    assert resolve_graph("complete:4").edge_count == 6
    assert resolve_graph("omega:3").n == 8


# --- param ----------------------------------------------------------------------

def test_param_theta_bar_c5(capsys, no_spectral_pin):
    code, record, _ = run_cli(capsys, "param", "cycle:5", "--which", "theta-bar")
    assert code == 0
    assert abs(record["result"]["value"] - 2.23607) <= 1e-4
    assert record["result"]["gap"] <= 1e-5
    assert record["status"] == "ok"
    assert record["graphs"][0]["n"] == 5
    assert record["result"]["iterations"] > 0


def test_param_pinned_value(capsys, no_spectral_pin):
    code, record, _ = run_cli(capsys, "param", "complete:5", "--which", "theta-bar")
    assert code == 0
    result = record["result"]
    assert (result["method"], result["value"]) == ("pin", 5.0)
    assert result["gap"] <= 1e-12
    assert "iterations" not in result and "residuals" not in result
    # above the chromatic cap the same graph is solved, by report as well
    code, record, _ = run_cli(capsys, "param", "complete:5", "--which", "theta-bar",
                              "--chromatic-cap", "4")
    assert code == 0 and record["result"]["method"] == "sdp"
    for cap, method in (("5", "pin"), ("4", "sdp")):
        code, record, _ = run_cli(capsys, "report", "complete:5", "--chromatic-cap", cap)
        assert code == 0
        assert [record["params"][w]["method"] for w in ("theta_bar", "chi_vec")] == [method] * 2


@pytest.mark.parametrize("command", [("param", "path:4", "--which", "chromatic"),
                                     ("report", "path:4")])
def test_param_and_report_record_only_the_solver_settings(capsys, command):
    for option in ("--seed", "--tol"):
        code, record, err = run_cli(capsys, *command, option, "1")
        assert (code, record) == (1, None) and option in err
    code, record, _ = run_cli(capsys, *command)
    assert code == 0
    assert record["config"] == {"gap_tol": 1e-5, "max_iter": 50000, "cap": 120,
                                "chromatic_cap": 30}


def test_param_spectral_pinned_value(capsys):
    # C_5 has omega = 2 < chi = 3, so the clique and coloring pin misses it
    # and the closed form 1 - 2/tau = sqrt(5) is certified with no solve
    code, record, _ = run_cli(capsys, "param", "cycle:5", "--which", "theta-bar")
    assert code == 0
    result = record["result"]
    assert result["method"] == "spectral"
    assert abs(result["value"] - np.sqrt(5.0)) <= 1e-12 and result["gap"] <= 1e-12
    assert "iterations" not in result and "residuals" not in result


def test_param_onehom_omega4(capsys):
    code, record, _ = run_cli(capsys, "param", "omega:4", "--which", "onehom")
    assert code == 0
    assert record["result"]["is_one_homogeneous"] is True


def test_param_theta_bar_empty_convention(capsys):
    code, record, _ = run_cli(capsys, "param", "empty:4", "--which", "theta-bar")
    assert code == 0
    assert record["result"]["value"] == 1.0
    assert record["result"]["method"] == "convention"
    assert "iterations" not in record["result"]  # no SDP ran


def test_param_chromatic_with_limit(capsys):
    code, record, _ = run_cli(
        capsys, "param", "complete:5", "--which", "chromatic", "--limit", "3"
    )
    assert code == 0
    assert record["result"]["value"] == "> 3"
    code, record, _ = run_cli(capsys, "param", "cycle:5", "--which", "chromatic")
    assert record["result"]["value"] == 3


def test_param_spectral(capsys):
    code, record, _ = run_cli(capsys, "param", "petersen", "--which", "spectral")
    assert code == 0
    assert abs(record["result"]["vector_chromatic"] - 2.5) <= 1e-9
    assert record["result"]["method"] == "spectral"
    # bipartite fallback for a non-1-homogeneous graph
    code, record, _ = run_cli(capsys, "param", "path:3", "--which", "spectral")
    assert code == 0
    assert record["result"]["vector_chromatic"] == 2.0
    assert record["result"]["method"] == "pin"


def test_param_spectral_fallbacks_are_checked(capsys, monkeypatch):
    # the edgeless convention and the pin of an edge with the bipartite
    # 2-coloring go through the certificate checkers, with no solve
    checked = []

    def recording(*args):
        checked.append(params._checked(*args))
        return checked[-1]

    monkeypatch.setattr(cli, "_checked", recording)
    monkeypatch.setattr(params, "solve", None)
    for spec, value, method in (("path:4", 2.0, "pin"), ("empty:3", 1.0, "convention")):
        code, record, _ = run_cli(capsys, "param", spec, "--which", "spectral")
        assert code == 0
        assert record["result"]["vector_chromatic"] == value
        assert record["result"]["method"] == method
        res = checked[-1]
        assert res.value == res.lower == value and res.upper == pytest.approx(value, abs=1e-12)
    # an improper 2-coloring fails the witness check
    monkeypatch.setattr(cli, "is_bipartite", lambda G: (True, np.zeros(G.n, dtype=int)))
    code, record, err = run_cli(capsys, "param", "path:4", "--which", "spectral")
    assert (code, record) == (3, None)
    assert err.startswith("validation error:") and "Traceback" not in err


@pytest.mark.parametrize("spec", ["petersen", "omega:4", "cycle:7", "omega:6", "path:3"])
def test_param_spectral_one_eigendecomposition(capsys, monkeypatch, spec):
    # the record equals the two functions' values computed apart, from one
    # eigendecomposition of the adjacency matrix per call
    G = resolve_graph(spec)
    expected = {"lower_bound": params.spectral_lower_bound(G)}
    try:
        expected["vector_chromatic"] = params.spectral_vector_chromatic(G).value
    except DomainError:  # path:3 is not regular; it takes the bipartite value
        expected["vector_chromatic"] = 2.0
    eig_sym, calls = params.eig_sym, []

    def counted(M, *args, **kwargs):
        calls.append(M.shape)
        return eig_sym(M, *args, **kwargs)

    monkeypatch.setattr(params, "eig_sym", counted)
    code, record, _ = run_cli(capsys, "param", spec, "--which", "spectral")
    assert code == 0 and len(calls) == 1
    result = record["result"]
    assert result["lower_bound"] == expected["lower_bound"]
    assert result["vector_chromatic"] == expected["vector_chromatic"]


def test_param_spectral_refuses_a_failed_witness(capsys, monkeypatch):
    hoffman = params._hoffman_pair

    def perturbed(G, degree):
        tau, P, M = hoffman(G, degree)
        return tau, P, M + 1e-6 * np.diag([1.0, 0, 0, 0, 0])

    monkeypatch.setattr(params, "_hoffman_pair", perturbed)
    code, record, err = run_cli(capsys, "param", "cycle:5", "--which", "spectral")
    assert (code, record) == (3, None)
    assert "witness check" in err and "Traceback" not in err


def _scale_toward_identity(tau, P, M):
    return tau, (1 - 1e-6) * P + 1e-6 * np.eye(len(P)) / len(P), M


def _raise_non_edge(tau, P, M):
    P[0, 2] += 1e-6  # (0, 2) is not an edge of C_5
    P[2, 0] += 1e-6
    return tau, P, M


@pytest.mark.parametrize("mutate", [
    pytest.param(_raise_non_edge, id="P-refused"),
    # each keeps its checker's conditions and moves its bound by about 1e-6
    pytest.param(_scale_toward_identity, id="P-lower"),
    pytest.param(lambda tau, P, M: (tau, P, M + 1e-6 * np.eye(len(M))), id="M-higher"),
    # the certificates agree, but the value 1 - k/tau leaves their interval
    pytest.param(lambda tau, P, M: (tau * (1 + 1e-6), P, M), id="tau"),
])
def test_param_spectral_refuses_an_uncertified_value(capsys, monkeypatch, mutate):
    hoffman = params._hoffman_pair
    monkeypatch.setattr(params, "_hoffman_pair", lambda G, degree: mutate(*hoffman(G, degree)))
    code, record, err = run_cli(capsys, "param", "cycle:5", "--which", "spectral")
    assert (code, record) == (3, None)
    assert err.startswith("validation error:") and "Traceback" not in err


def test_param_spectral_certifies_a_graph_that_is_not_one_homogeneous(capsys, monkeypatch,
                                                                      tmp_path):
    # the circulant C15{3,7} is regular but not 1-homogeneous; both
    # certificates close at sqrt(5), and no 1-homogeneity test runs
    G = graphs.graph_from_edges(15, [(i, (i + j) % 15) for i in range(15) for j in (3, 7)])
    assert not params.one_homogeneous_check(G).is_one_homogeneous
    path = tmp_path / "c15.txt"
    graphs.save_graph(path, G)
    monkeypatch.setattr(params, "one_homogeneous_check", None)
    code, record, _ = run_cli(capsys, "param", str(path), "--which", "spectral")
    assert code == 0
    result = record["result"]
    assert result["method"] == "spectral"
    assert abs(result["vector_chromatic"] - np.sqrt(5.0)) <= 1e-9
    assert result["lower_bound"] == result["vector_chromatic"]


def test_param_solver_failure_exit_code(capsys, unpinned_graph):
    code, record, _ = run_cli(
        capsys, "param", unpinned_graph, "--which", "theta-bar", "--max-iter", "5"
    )
    assert code == 2
    assert record["status"] == "solver_failure"
    assert record["result"] is not None  # partial values still reported
    assert record["result"]["iterations"] == 5


def test_param_refused_solve_certificate_exits_as_solver_failure(capsys, monkeypatch,
                                                                 unpinned_graph):
    # the refused witness certifies no upper bound, so no partial result
    monkeypatch.setattr(params, "solve", solve_with_raised_witness_edge)
    code, record, _ = run_cli(capsys, "param", unpinned_graph, "--which", "theta-bar")
    assert code == 2
    assert (record["status"], record["result"]) == ("solver_failure", None)


def test_param_lapack_failure_exits_as_solver_failure(capsys, monkeypatch, unpinned_graph):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(sdp.np.linalg, "eigh", failing_eigh)
    code, record, _ = run_cli(capsys, "param", unpinned_graph, "--which", "chi-vec")
    assert code == 2
    assert record["status"] == "solver_failure"
    assert record["result"] is None  # failed before the first check


@pytest.mark.parametrize("failing_call, iterations, value", [
    (8, 8, 1.216429062205281),  # after the first check: its values are reported
    (3, None, None),            # before it: nothing is
])
def test_param_lapack_failure_mid_solve_reports_the_partial_result(
        capsys, monkeypatch, failing_call, iterations, value):
    calls = []
    eigh = np.linalg.eigh

    def failing_eigh(*args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    # a cap of 0 leaves the path unpinned, so its value is solved
    code, record, _ = run_cli(capsys, "param", "path:5", "--which", "theta-bar",
                              "--chromatic-cap", "0")
    assert code == 2 and record["status"] == "solver_failure"
    result = record["result"]
    if iterations is None:
        assert result is None
    else:
        assert result["method"] == "sdp" and result["iterations"] == iterations
        assert result["value"] == pytest.approx(value, rel=1e-9)


def test_spectral_pin_lapack_failure_exits_as_solver_failure(capsys, monkeypatch):
    # Petersen is regular: its one eigendecomposition fails before any solve
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    monkeypatch.setattr(params, "solve", None)
    code, record, err = run_cli(capsys, "param", "petersen", "--which", "chi-vec")
    assert code == 2
    assert (record["status"], record["result"]) == ("solver_failure", None)
    assert "Traceback" not in err


def test_param_spectral_lapack_failure_exits_as_solver_failure(capsys, monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    code, record, err = run_cli(capsys, "param", "petersen", "--which", "spectral")
    assert code == 2
    assert record is None
    assert err.startswith("solver failure: eigensolver failed")
    assert "Traceback" not in err


def test_param_capacity_error(capsys):
    code, record, err = run_cli(
        capsys, "param", "omega:6", "--which", "theta-bar", "--cap", "10"
    )
    assert code == 3
    assert record is None
    assert "cap" in err


@pytest.mark.parametrize("spec", ["empty:1500", "complete:1200"])
def test_param_chromatic_past_the_search_depth_is_refused(capsys, spec):
    code, record, err = run_cli(capsys, "param", spec, "--which", "chromatic",
                                "--chromatic-cap", "5000")
    assert (code, record) == (3, None)
    assert "search depth" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("report", "empty:0"),
    ("param", "empty:0", "--which", "theta-bar"),
    ("param", "empty:0", "--which", "chi-vec"),
    ("param", "empty:0", "--which", "spectral"),
    ("verify", "--suite", "chain", "--random-pairs", "1", "--size", "0"),
    ("verify", "empty:0", "cycle:5", "--suite", "sabidussi"),
])
def test_zero_vertex_graph_is_refused(capsys, argv):
    code, record, err = run_cli(capsys, *argv)
    assert (code, record) == (3, None)
    assert "validation error" in err


# --- verify ----------------------------------------------------------------------

def test_verify_hedetniemi_pair(capsys):
    code, record, _ = run_cli(
        capsys, "verify", "cycle:5", "complete:3", "--suite", "hedetniemi"
    )
    assert code == 0
    assert record["all_passed"] is True
    idents = record["pairs"][0]["identities"]
    assert abs(idents[0]["lhs"] - np.sqrt(5.0)) <= 1e-3
    # two factor solves, no product solve
    assert record["cache"] == {"hits": 0, "misses": 2}
    low, up = idents[0]["detail"]["interval"]
    assert low <= np.sqrt(5.0) + 1e-9 and up >= np.sqrt(5.0) - 1e-9
    assert idents[0]["detail"]["certificates"] == {
        "lower": "eigenvalue tensor", "upper": "pull-back"}


@pytest.mark.parametrize("suite, checks", [("sabidussi", 3), ("products", 2), ("union", 1)])
def test_verify_records_intervals_and_cache(capsys, suite, checks):
    code, record, _ = run_cli(capsys, "verify", "cycle:5", "cycle:5", "--suite", suite)
    assert code == 0
    idents = record["pairs"][0]["identities"]
    assert len(idents) == checks
    for ident in idents:
        assert {"interval", "certificates"} <= set(ident["detail"])
    # the one factor is solved once per parameter and then found again
    lookups = 2 * (2 if suite == "sabidussi" else 1)
    misses = lookups // 2
    assert record["cache"] == {"hits": lookups - misses, "misses": misses}


NAMED_PAIRS = [("cycle:5", "complete:3"), ("petersen", "cycle:5"), ("cycle:5", "cycle:5"),
               ("complete:3", "complete:4"), ("cycle:7", "petersen")]


def test_verify_named_pairs_identity_table(capsys):
    # the certified identity table: three suites on each named pair, and the
    # union of (C5, C5), at the tolerances of the acceptance suites
    runs = [(pair, suite) for pair in NAMED_PAIRS
            for suite in ("sabidussi", "hedetniemi", "products")]
    runs.append((("cycle:5", "cycle:5"), "union"))
    passed = 0
    for (g, h), suite in runs:
        code, record, _ = run_cli(capsys, "verify", g, h, "--suite", suite,
                                  "--max-iter", "150000")
        assert (code, record["all_passed"]) == (0, True), (g, h, suite)
        for ident in record["pairs"][0]["identities"]:
            low, up = ident["detail"]["interval"]
            assert ident["passed"] and low <= up
            passed += 1
    assert passed == 31


@pytest.mark.parametrize("suite", ["sabidussi", "hedetniemi", "products"])
def test_verify_identity_tol_zero_fails(capsys, suite):
    # at tolerance 0 no certified interval of a theta-bar check on C5 is a point
    code, record, _ = run_cli(capsys, "verify", "cycle:5", "complete:3", "--suite", suite,
                              "--identity-tol", "0")
    assert code == 3
    assert record["status"] == "failed" and record["all_passed"] is False
    failed = [i for i in record["pairs"][0]["identities"] if not i["passed"]]
    assert failed and all(i["name"].startswith(("theta_bar", "chi_vec")) for i in failed)


def test_verify_improper_modular_coloring_fails_only_the_chi_check(capsys, monkeypatch):
    def constant(gc, hc):
        return ClassicalColoring(np.zeros(len(gc.colors) * len(hc.colors), dtype=int), gc.m)

    monkeypatch.setattr(identities, "modular_coloring", constant)
    code, record, _ = run_cli(capsys, "verify", "cycle:5", "complete:3", "--suite", "sabidussi")
    assert code == 3 and record["status"] == "failed"
    failed = [i for i in record["pairs"][0]["identities"] if not i["passed"]]
    assert [i["name"] for i in failed] == ["chi(G[]H) = max"]
    # the upper bound falls back to the product order
    assert failed[0]["detail"]["rejected"] == ["upper"]
    assert failed[0]["detail"]["interval"] == [3, 15]


@pytest.mark.parametrize("suite", ["hedetniemi", "sabidussi", "products"])
def test_verify_lapack_failure_on_a_product_certificate_exits_as_solver_failure(
        capsys, monkeypatch, suite):
    eigvalsh = np.linalg.eigvalsh

    def failing_on_products(X, *args, **kwargs):
        # the factor solves (orders 5 and 3) finish; the order-15 checks fail
        if len(X) >= 15:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(X, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_on_products)
    code, record, err = run_cli(capsys, "verify", "cycle:5", "complete:3", "--suite", suite)
    assert code == 2 and record is None
    assert err.startswith("solver failure: eigensolver failed")
    assert "Traceback" not in err


def test_verify_random_pairs_seeded(capsys):
    code, record, _ = run_cli(
        capsys, "verify", "--suite", "union", "--random-pairs", "2",
        "--size", "5", "--seed", "42",
    )
    assert code == 0
    assert len(record["pairs"]) == 2
    assert list(record["config"].items()) == [
        ("gap_tol", 1e-5), ("max_iter", 50000), ("cap", 120),
        ("chromatic_cap", 30), ("seed", 42), ("identity_tol", identities.IDENTITY_TOL_DEFAULT)]
    assert record["graphs"] == [g for pair in record["pairs"] for g in pair["graphs"]]


def test_verify_random_pairs_are_capped_one_pair_at_a_time(capsys, monkeypatch):
    # the first pair already exceeds the SDP cap: no further pair is built
    calls = []

    def counted(n, p, **kwargs):
        calls.append(n)
        return graphs.erdos_renyi(n, p, **kwargs)

    monkeypatch.setattr(cli, "erdos_renyi", counted)
    code, record, err = run_cli(capsys, "verify", "--random-pairs", "50", "--size", "500",
                                "--suite", "chain")
    assert (code, record) == (3, None) and "cap" in err
    assert calls == [500, 500]


def test_verify_usage_error(capsys):
    code, record, err = run_cli(capsys, "verify", "cycle:5", "--suite", "union")
    assert code == 1
    assert record is None


def test_verify_negative_random_pairs_is_a_usage_error(capsys):
    code, record, err = run_cli(capsys, "verify", "--suite", "union", "--random-pairs", "-1")
    assert (code, record) == (1, None)
    assert "--random-pairs" in err


@pytest.mark.parametrize("size", ["-1", str(graphs.MAX_ORDER + 1)])
def test_verify_random_pair_size_outside_the_order_cap_is_refused(capsys, size):
    code, record, err = run_cli(capsys, "verify", "--suite", "union", "--random-pairs", "1",
                                "--size", size)
    assert (code, record) == (3, None)
    assert "vertex count" in err


def test_nan_tolerance_is_refused_before_solving(capsys, monkeypatch):
    monkeypatch.setattr(params, "solve", None)  # any solve would raise
    code, record, err = run_cli(capsys, "param", "cycle:5", "--which", "theta-bar",
                                "--gap-tol", "nan")
    assert (code, record) == (3, None)
    assert "tolerances" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_unusable_identity_tol_is_refused_before_solving(capsys, monkeypatch, value):
    monkeypatch.setattr(cli, "resolve_graph", None)  # any graph load would raise
    monkeypatch.setattr(params, "solve", None)  # and so would any solve
    code, record, err = run_cli(capsys, "verify", "cycle:5", "complete:3", "--suite",
                                "sabidussi", "--identity-tol", value)
    assert (code, record) == (3, None)
    assert "--identity-tol" in err


def test_verify_named_graphs_with_random_pairs_is_a_usage_error(capsys):
    code, record, err = run_cli(capsys, "verify", "petersen", "cycle:5", "--suite",
                                "hedetniemi", "--random-pairs", "1")
    assert (code, record) == (1, None)
    assert "--random-pairs" in err


def test_verify_capacity_error_names_product_size(capsys):
    code, record, err = run_cli(
        capsys, "verify", "omega:6", "omega:6", "--suite", "products", "--cap", "100"
    )
    assert code == 3
    assert record is None
    assert "4096" in err  # the offending product order


# --- qverify ----------------------------------------------------------------------

def _c5_certificate():
    return classical_embedding(
        graphs.generate("cycle", 5), graphs.generate("complete", 3),
        [0, 1, 0, 1, 2],
    )


def test_qverify_pass(tmp_path, capsys):
    path = tmp_path / "cert.json"
    save_certificate(path, _c5_certificate())
    code, record, _ = run_cli(capsys, "qverify", str(path))
    assert code == 0
    assert record["report"]["ok"] is True
    assert record["certificate"]["n_colors"] == 3
    assert record["config"] == {"qtol": 1e-7}


def _readme_cli_commands():
    """(argv, comment) of each command in README's ``## CLI`` block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", text, re.M | re.S).group(1)
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        yield shlex.split(command)[1:], comment


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    # every documented command exits 0, and each method a comment names is
    # the one the record reports
    monkeypatch.chdir(tmp_path)
    save_certificate("certificate.json", _c5_certificate())
    commands = list(_readme_cli_commands())
    assert len(commands) == 9
    methods = []
    for argv, comment in commands:
        code, record, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        for method in re.findall(r'"method": "(\w+)"', comment):
            assert record["result"]["method"] == method, argv
            methods.append(method)
    assert methods == ["spectral", "pin"]


@pytest.mark.parametrize("option", ["--tol", "--gap-tol", "--max-iter", "--cap",
                                    "--chromatic-cap", "--seed"])
def test_qverify_takes_no_solver_option(tmp_path, capsys, option):
    path = tmp_path / "cert.json"
    save_certificate(path, _c5_certificate())
    code, record, err = run_cli(capsys, "qverify", str(path), option, "1")
    assert (code, record) == (1, None) and option in err
    code, record, _ = run_cli(capsys, "qverify", str(path), "--qtol", "1e-6")
    assert code == 0 and record["config"] == {"qtol": 1e-6}


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_qverify_unusable_qtol_is_refused_before_loading(tmp_path, capsys, monkeypatch, value):
    path = tmp_path / "cert.json"
    save_certificate(path, _c5_certificate())
    monkeypatch.setattr(cli, "load_certificate", None)  # any load would raise
    code, record, err = run_cli(capsys, "qverify", str(path), "--qtol", value)
    assert (code, record) == (3, None)
    assert "--qtol" in err


def test_qverify_mutated_fails_named_condition(tmp_path, capsys):
    data = certificate_dict(_c5_certificate())
    data["assignment"][2][0][0][0][0] += 0.01
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, record, _ = run_cli(capsys, "qverify", str(path))
    assert code == 3
    assert record["report"]["ok"] is False
    witness = record["report"]["witness"]
    assert witness["vertex"] == 2
    assert witness["condition"] in {"idempotent", "sum_to_identity", "hermitian"}


def test_qverify_generated_certificate_roundtrip(tmp_path, capsys):
    q = quantum_sabidussi(
        _c5_certificate(),
        classical_embedding(
            graphs.generate("cycle", 7), graphs.generate("complete", 3),
            [0, 1, 0, 1, 0, 1, 2],
        ),
    )
    path = tmp_path / "prod.json"
    save_certificate(path, q)
    code, record, _ = run_cli(capsys, "qverify", str(path))
    assert code == 0
    assert record["report"]["ok"] is True
    assert record["graphs"][0]["n"] == 35


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_qverify_nonfinite_certificate_is_rejected(capsys, tmp_path, value):
    q = classical_embedding(graphs.generate("cycle", 5), graphs.generate("complete", 3),
                            [0, 1, 0, 1, 2])
    path = tmp_path / "cert.json"
    save_certificate(path, q)
    data = json.loads(path.read_text())
    if np.isnan(value):
        data["assignment"] = np.full(np.shape(data["assignment"]), np.nan).tolist()
    else:
        data["assignment"][4][2][0][0][0] = value
    path.write_text(json.dumps(data))
    code, record, _ = run_cli(capsys, "qverify", str(path))
    assert code == 3
    assert record["report"]["ok"] is False
    assert record["report"]["witness"]["condition"] == "finite"
    assert record["status"] == "failed"


def _near_overflow_certificate(d):
    """Finite entries whose tuple products overflow: -2.5e300 in d = 1, and
    in d = 4 a symmetric part whose square sums +inf and -inf terms."""
    if d == 1:
        K2 = graphs.generate("complete", 2)
        assignment = classical_embedding(K2, K2, [0, 1]).assignment.copy()
        assignment[0, 0, 0, 0] = -2.5e300
        return QuantumHomomorphism(K2, K2, 1, assignment)
    part = np.zeros((4, 4))
    for i, j, x in ((0, 2, 1e200), (2, 1, 1e200), (0, 3, 1e200), (3, 1, -1e200)):
        part[i, j] = part[j, i] = x
    return QuantumHomomorphism(graphs.generate("empty", 1), graphs.generate("complete", 2), 4,
                               np.stack([part, np.eye(4) - part])[None])


@pytest.mark.parametrize("d", [1, 4])
def test_qverify_overflowing_certificate_fails_without_warnings(tmp_path, capsys, d):
    # numpy's overflow and invalid-value warnings would print before the
    # record; tier-1 turns them into errors
    path = tmp_path / "cert.json"
    save_certificate(path, _near_overflow_certificate(d))
    code, record, err = run_cli(capsys, "qverify", str(path))
    assert (code, err, record["status"]) == (3, "", "failed")
    witness = record["report"]["witness"]
    assert (witness["vertex"], witness["part"], witness["condition"]) == (0, 0, "idempotent")


def _refuse_constant(token):
    raise ValueError(f"bare {token} token: not strict JSON")


def _nonfinite_certificate_texts():
    """(name, file text) of certificates whose residuals come out NaN or
    infinite: NaN and infinite entries, and finite ones that overflow."""
    data = certificate_dict(_c5_certificate())
    data["assignment"][4][2][0][0][0] = np.inf
    yield "inf", json.dumps(data)
    data["assignment"] = np.full(np.shape(data["assignment"]), np.nan).tolist()
    yield "nan", json.dumps(data)
    for d in (1, 4):
        yield f"overflow-d{d}", json.dumps(certificate_dict(_near_overflow_certificate(d)))


def test_qverify_records_are_strict_json(tmp_path, capsys):
    # a non-finite residual is the string json.dumps spells it with, on
    # stdout and in --out files alike
    for name, text in _nonfinite_certificate_texts():
        path, out = tmp_path / f"{name}.json", tmp_path / "record.json"
        path.write_text(text)
        assert main(["qverify", str(path)]) == 3
        printed = capsys.readouterr().out
        assert main(["qverify", str(path), "--out", str(out)]) == 3
        for record_text in (printed, out.read_text()):
            record = json.loads(record_text, parse_constant=_refuse_constant)
            assert record["status"] == "failed"
            report = record["report"]
            residuals = [report[key] for key in ("hermitian", "idempotent", "sum_to_identity",
                                                 "orthogonality", "adjacency")]
            assert set(residuals) & {"Infinity", "NaN"}, name
            assert all(isinstance(r, float) or r in ("Infinity", "-Infinity", "NaN")
                       for r in residuals)


def _malformed(mutate):
    data = certificate_dict(_c5_certificate())
    mutate(data)
    return data


@pytest.mark.parametrize("data", [
    pytest.param([1, 2], id="top-level-list"),
    pytest.param(_malformed(lambda d: d.update(graph=[1, 2])), id="graph-list"),
    pytest.param(_malformed(lambda d: d.update(graph=5)), id="graph-number"),
    pytest.param(_malformed(lambda d: d["graph"].pop("n")), id="graph-without-n"),
    pytest.param(_malformed(lambda d: d["graph"].update(n="5")), id="n-string"),
    pytest.param(_malformed(lambda d: d["graph"].update(n=5.5)), id="n-float"),
    pytest.param(_malformed(lambda d: d["graph"]["edges"].__setitem__(0, ["x", 1])),
                 id="edge-string"),
    pytest.param(_malformed(lambda d: d["graph"]["edges"].__setitem__(0, [0.5, 1])),
                 id="edge-float"),
    pytest.param(_malformed(lambda d: d["graph"]["edges"].__setitem__(0, 3)), id="edge-scalar"),
    pytest.param(_malformed(lambda d: d["graph"]["edges"].__setitem__(0, [True, 1])),
                 id="edge-true"),
    pytest.param(_malformed(lambda d: d["graph"]["edges"].__setitem__(0, [0, 1.0])),
                 id="edge-integral-float"),
    pytest.param(_malformed(lambda d: d["graph"]["edges"].__setitem__(0, ["1", 2])),
                 id="edge-digit-string"),
    pytest.param(_malformed(lambda d: d["graph"]["edges"].__setitem__(0, [0, 1, 2])),
                 id="edge-triple"),
    pytest.param(_malformed(lambda d: d["assignment"][0][0][0].__setitem__(0, ["x", 0])),
                 id="entry-string"),
    pytest.param(_malformed(lambda d: d["assignment"][0][0][0].__setitem__(0, [None, 0])),
                 id="entry-null"),
    pytest.param(_malformed(lambda d: d["assignment"][0][0][0].__setitem__(0, [1.0])),
                 id="entry-ragged"),
    pytest.param(_malformed(lambda d: d["assignment"][0][0][0].__setitem__(0, [True, 0.0])),
                 id="entry-true"),
    pytest.param(_malformed(lambda d: d.update(d=1.5)), id="d-float"),
])
def test_qverify_malformed_certificate_is_a_parse_error(tmp_path, capsys, data):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, record, err = run_cli(capsys, "qverify", str(path))
    assert code == 1
    assert record is None
    assert err.startswith("error: malformed certificate")


def _c5_text(assignment=None, n=None):
    """The C_5 certificate's JSON text, with its assignment or its graph.n
    replaced by the given text."""
    data = certificate_dict(_c5_certificate())
    if assignment is not None:
        data["assignment"] = "@assignment"
    if n is not None:
        data["graph"]["n"] = "@n"
    text = json.dumps(data)
    return text.replace('"@assignment"', assignment or "").replace('"@n"', n or "").encode()


_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                  reason="no digit limit for integer strings")


@pytest.mark.parametrize("text, code, prefix", [
    pytest.param(b'\xff\xfe{"d": 1}', 1, "error: certificate is not UTF-8", id="not-utf8"),
    pytest.param(_c5_text(assignment="[" * 100_000 + "1.0" + "]" * 100_000), 1,
                 "error: certificate cannot be decoded", id="nested-100000"),
    pytest.param(_c5_text(assignment=json.dumps(certificate_dict(_c5_certificate())[
                     "assignment"]).replace("1.0", "9" * 5000, 1)), 1,
                 "error: certificate cannot be decoded", id="entry-5000-digits",
                 marks=_DIGIT_LIMIT),
    pytest.param(_c5_text(n="9" * 5000), 1, "error: certificate cannot be decoded",
                 id="n-5000-digits", marks=_DIGIT_LIMIT),
    pytest.param(_c5_text(assignment="[" * 100 + "1.0" + "]" * 100), 3,
                 "validation error: assignment shape (1, 1,", id="nested-100"),
])
def test_qverify_undecodable_certificate_is_an_error_not_a_traceback(tmp_path, capsys, text,
                                                                     code, prefix):
    path, out = tmp_path / "cert.json", tmp_path / "record.json"
    path.write_bytes(text)
    got, record, err = run_cli(capsys, "qverify", str(path), "--out", str(out))
    assert (got, record) == (code, None) and not out.exists()
    assert err.startswith(prefix) and "Traceback" not in err


def test_param_non_utf8_graph_file_is_a_parse_error(tmp_path, capsys):
    path, out = tmp_path / "g.txt", tmp_path / "record.json"
    path.write_bytes(b"3 1\n0 1 \xff\n")
    got, record, err = run_cli(capsys, "param", str(path), "--which", "chromatic",
                               "--out", str(out))
    assert (got, record) == (1, None) and not out.exists()
    assert err.startswith("error: graph file is not UTF-8") and "Traceback" not in err


def test_qverify_missing_files_exit_as_usage_errors(tmp_path, capsys):
    code, record, err = run_cli(capsys, "qverify", str(tmp_path / "absent.json"))
    assert (code, record) == (1, None) and err.startswith("error:")
    data = certificate_dict(_c5_certificate())
    data["graph"] = "absent.txt"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, record, err = run_cli(capsys, "qverify", str(path))
    assert (code, record) == (1, None) and "graph must be" in err


def test_certificate_naming_its_graph_file_is_refused(tmp_path, capsys):
    # the graph is inline only: a path string is refused, also when it
    # names a graph file beside the certificate
    graphs.save_graph(tmp_path / "c5.txt", graphs.generate("cycle", 5))
    data = certificate_dict(_c5_certificate())
    data["graph"] = "c5.txt"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, record, err = run_cli(capsys, "qverify", str(path))
    assert (code, record) == (1, None) and "graph must be" in err


# runs each argv of the JSON list in argv[1] through the CLI, in this one
# process, and prints the exit codes and standard errors as a JSON list
_CLI_CASES = """
import contextlib, io, json, sys
from vecchrom.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        results.append([main(argv), err.getvalue()])
print(json.dumps(results))
"""

_NOT_REGULAR_COMMANDS = [["param", "--which", "chromatic"], ["qverify"]]


@pytest.fixture(scope="module")
def not_regular_runs(tmp_path_factory):
    """(command, kind) -> (exit code, stderr) of the CLI on /dev/zero
    (which never ends) and on a FIFO without a writer (which blocks the
    open), all run in one child process limited to 1 GB of address space
    and 10 s, so that a read that never ends fails there; a kind the
    platform lacks is left out."""
    resource = pytest.importorskip("resource")
    paths = {}
    if os.path.exists("/dev/zero"):
        paths["device"] = "/dev/zero"
    if hasattr(os, "mkfifo"):
        paths["fifo"] = str(tmp_path_factory.mktemp("fifo") / "fifo")
        os.mkfifo(paths["fifo"])
    cases = [(tuple(command), kind) for kind in paths for command in _NOT_REGULAR_COMMANDS]

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    argvs = [[*command, paths[kind]] for command, kind in cases]
    done = subprocess.run([sys.executable, "-c", _CLI_CASES, json.dumps(argvs)], env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    return dict(zip(cases, map(tuple, json.loads(done.stdout))))


@pytest.mark.parametrize("command", _NOT_REGULAR_COMMANDS)
@pytest.mark.parametrize("kind", ["device", "fifo"])
def test_files_that_are_not_regular_are_refused(not_regular_runs, command, kind):
    if (tuple(command), kind) not in not_regular_runs:
        pytest.skip(f"no {kind} on this platform")
    code, err = not_regular_runs[tuple(command), kind]
    assert code == 1 and "is not a regular file" in err


def test_declared_order_above_cap_is_refused(tmp_path, capsys):
    graph = tmp_path / "huge.txt"
    graph.write_text("1000000 0\n")
    code, record, err = run_cli(capsys, "param", str(graph), "--which", "spectral")
    assert (code, record) == (1, None) and "order cap" in err
    data = certificate_dict(_c5_certificate())
    data["graph"] = {"n": 10**6, "edges": []}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    code, record, err = run_cli(capsys, "qverify", str(path))
    assert (code, record) == (3, None) and "order cap" in err


def test_certificate_with_no_vertex_round_trips_through_qverify(tmp_path, capsys):
    # its assignment is written [], with no trailing axes
    path = tmp_path / "cert.json"
    save_certificate(path, QuantumHomomorphism(graphs.generate("empty", 0),
                                               graphs.generate("complete", 3), 2,
                                               np.zeros((0, 3, 2, 2))))
    code, record, _ = run_cli(capsys, "qverify", str(path))
    assert (code, record["status"]) == (0, "ok")
    assert record["certificate"]["d"] == 2 and record["certificate"]["n_colors"] == 3


@pytest.mark.parametrize("d, n_colors, message", [
    (2**31, 3, "exceed the largest array"),
    (1, 10**9, "order cap"),
    (1, -1, "nonnegative"),
])
def test_certificate_with_no_vertex_and_absurd_sizes_is_refused(tmp_path, capsys, d, n_colors,
                                                                message):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"d": d, "n_colors": n_colors, "graph": {"n": 0, "edges": []},
                                "assignment": []}))
    code, record, err = run_cli(capsys, "qverify", str(path))
    assert (code, record) == (3, None)
    assert err.startswith("validation error:") and message in err


def test_qverify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ nope")
    code, record, err = run_cli(capsys, "qverify", str(path))
    assert code == 1


# --- report and record hygiene ------------------------------------------------------

def test_report_record(capsys):
    code, record, _ = run_cli(capsys, "report", "cycle:5")
    assert code == 0
    params = record["params"]
    assert abs(params["theta_bar"]["value"] - 2.23607) <= 1e-4
    assert params["bipartite"] is False
    assert params["chromatic"] == 3
    assert all(c["passed"] for c in record["identities"])


def test_report_solves_each_value_once(capsys, monkeypatch, no_spectral_pin):
    calls = []
    solve = params.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(params, "solve", counting_solve)
    code, _, _ = run_cli(capsys, "report", "cycle:5")
    assert code == 0
    assert len(calls) == 2  # theta-bar and chi-vec; the chain checks reuse them


def test_report_searches_and_decomposes_once(capsys, monkeypatch):
    # one record serves theta-bar, chi-vec, the chromatic number and the
    # average-degree bound of C_5: one clique/coloring search and one
    # eigendecomposition, Hoffman's pair's
    calls = []
    for name in ("_search_setup", "_hoffman_pair", "eig_sym"):
        def counting(*args, f=getattr(params, name), name=name):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(params, name, counting)
    code, _, _ = run_cli(capsys, "report", "cycle:5")
    assert code == 0
    assert sorted(calls) == ["_hoffman_pair", "_search_setup", "eig_sym"]


def test_report_matches_values_computed_apart(capsys):
    # the record of one graph equals what the param command and the chain
    # checks give when each computes its values on its own
    code, record, _ = run_cli(capsys, "report", "cycle:5")
    assert code == 0
    assert list(record) == ["tool", "timestamp", "command", "config", "graphs",
                            "params", "identities", "status"]
    G = resolve_graph("cycle:5")
    expected = {}
    for which in ("theta-bar", "chi-vec"):
        _, apart, _ = run_cli(capsys, "param", "cycle:5", "--which", which)
        expected[which.replace("-", "_")] = apart["result"]
    expected.update(spectral_lower_bound=params.spectral_lower_bound(G), bipartite=False,
                    chromatic=params.chromatic_number(G))
    assert list(record["params"].items()) == list(expected.items())
    assert record["identities"] == [c.as_dict() for c in chain_checks(G, params.GraphFacts(G, sdp.SolverConfig()))]
    assert record["status"] == "ok"


def test_report_runs_no_one_homogeneity_test(capsys, monkeypatch):
    # the test runs behind param --which onehom only
    def refuse(G):
        raise AssertionError("report ran the 1-homogeneity test")

    monkeypatch.setattr(params, "one_homogeneous_check", refuse)
    monkeypatch.setattr(cli, "one_homogeneous_check", refuse)
    code, record, _ = run_cli(capsys, "report", "cycle:5")
    assert (code, record["status"]) == (0, "ok")
    assert "one_homogeneous" not in record["params"]


def test_report_solver_failure_keeps_theta_bar_partial(capsys, unpinned_graph):
    code, record, _ = run_cli(capsys, "report", unpinned_graph, "--max-iter", "5")
    assert code == 2
    assert record["status"] == "solver_failure"
    assert list(record["params"]) == ["partial"]  # theta-bar fails first
    assert record["params"]["partial"]["iterations"] == 5
    assert "identities" not in record


def test_report_omega_family(capsys):
    # the orthogonality graphs: odd n is edgeless (value 1), omega:2 is
    # bipartite, and omega:4 has theta-bar equal to the closed form 4 of
    # param --which spectral
    records = {}
    for n in (1, 2, 3, 4):
        code, records[n], _ = run_cli(capsys, "report", f"omega:{n}")
        assert (code, records[n]["status"]) == (0, "ok")
    for n in (1, 3):
        assert records[n]["graphs"][0]["m"] == 0
        assert records[n]["params"]["theta_bar"]["value"] == 1.0
    assert records[2]["params"]["bipartite"] is True
    assert records[4]["params"]["theta_bar"]["value"] == pytest.approx(4.0)
    code, record, _ = run_cli(capsys, "param", "omega:4", "--which", "spectral")
    assert code == 0
    assert record["result"]["vector_chromatic"] == pytest.approx(4.0)


def test_records_deterministic_modulo_timestamp(capsys):
    _, first, _ = run_cli(capsys, "param", "cycle:5", "--which", "theta-bar")
    _, second, _ = run_cli(capsys, "param", "cycle:5", "--which", "theta-bar")
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "record.json"
    code = main(["param", "complete:3", "--which", "chromatic", "--out", str(target)])
    assert code == 0
    record = json.loads(target.read_text())
    assert record["result"]["value"] == 3
    captured = capsys.readouterr()
    assert captured.out == ""


def test_graph_file_argument(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    graphs.save_graph(path, graphs.generate("cycle", 4))
    code, record, _ = run_cli(capsys, "param", str(path), "--which", "chromatic")
    assert code == 0
    assert record["result"]["value"] == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
