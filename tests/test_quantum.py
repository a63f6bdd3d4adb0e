import dataclasses
import io
import itertools
import json
import random
import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import certificate_dict
from vecchrom import graphs, quantum
from vecchrom.errors import DimensionError, DomainError, ParseError, ValidationError
from vecchrom.graphs import generate, is_homomorphism, product
from vecchrom.quantum import (
    ADJ_TOL,
    QuantumHomReport,
    QuantumHomomorphism,
    classical_embedding,
    compose_classical,
    conjugate,
    load_certificate,
    pad_colors,
    product_qhom,
    quantum_sabidussi,
    save_certificate,
    tensor_with_identity,
    verify_quantum_hom,
)

K1 = generate("complete", 1)
K2 = generate("complete", 2)
K3 = generate("complete", 3)
C4 = generate("cycle", 4)
C5 = generate("cycle", 5)
C7 = generate("cycle", 7)

COL5 = np.array([0, 1, 0, 1, 2])
COL7 = np.array([0, 1, 0, 1, 0, 1, 2])


def _single(parts, target):
    """One measurement tuple as a certificate on a one-vertex source; its
    structural checks run at ADJ_TOL / 10 = 1e-8."""
    parts = np.asarray(parts, dtype=complex)
    return QuantumHomomorphism(K1, target, parts.shape[-1], parts[None])


def _tuple(q, u):
    return _single(q.assignment[u], q.target)


def _random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# --- measurement tuples -------------------------------------------------------

def test_indicator_tuple_passes():
    parts = np.zeros((3, 1, 1))
    parts[1] = 1.0
    rep = verify_quantum_hom(_single(parts, K3))
    assert rep.ok
    assert rep.witness is None


def test_scaled_projector_fails_sum():
    parts = np.zeros((3, 1, 1), dtype=complex)
    parts[0, 0, 0] = 0.999
    parts[1, 0, 0] = 0.0
    parts[2, 0, 0] = 0.0
    rep = verify_quantum_hom(_single(parts, K3))
    assert not rep.ok
    assert abs(rep.sum_to_identity - 0.001) <= 1e-9


def test_diagonal_pair_passes_at_d2():
    parts = np.zeros((2, 2, 2), dtype=complex)
    parts[0] = np.diag([1.0, 0.0])
    parts[1] = np.diag([0.0, 1.0])
    rep = verify_quantum_hom(_single(parts, K2))
    assert rep.ok
    assert rep.orthogonality <= 1e-12


def test_distinct_part_orthogonality_checked_independently():
    # parts sum to identity but are not mutually orthogonal projectors
    parts = np.zeros((2, 2, 2), dtype=complex)
    parts[0] = np.array([[0.5, 0.5], [0.5, 0.5]])
    parts[1] = np.eye(2) - parts[0]
    rep = verify_quantum_hom(_single(parts, K2))
    assert rep.ok  # these happen to be orthogonal complementary projectors
    parts2 = np.zeros((2, 2, 2), dtype=complex)
    parts2[0] = np.diag([1.0, 0.0])
    parts2[1] = np.array([[0.0, 0.0], [0.0, 1.0]]) + 1e-6 * np.array([[1.0, 0], [0, 0]])
    rep = verify_quantum_hom(_single(parts2, K2))
    assert not rep.ok


@pytest.mark.parametrize("build, error, match", [
    (lambda q: pad_colors(q, 4), DomainError, "complete"),
    (lambda q: conjugate(q, np.eye(2)), DimensionError, "unitary shape"),
    (lambda q: tensor_with_identity(q, 0), DomainError, "at least 1"),
])
def test_malformed_constructions_are_refused(build, error, match):
    q = classical_embedding(K2, C4, [0, 1])  # d = 1, and C4 is not complete
    with pytest.raises(error, match=match):
        build(q)


# --- adjacency in the measurement graph ----------------------------------------

def test_indicator_tuples_adjacency():
    # distinct indicator tuples are adjacent; equal ones violate at (0, 0)
    q = classical_embedding(K2, K3, [0, 1])
    assert verify_quantum_hom(q).ok
    arr = q.assignment.copy()
    arr[1] = arr[0]
    rep = verify_quantum_hom(QuantumHomomorphism(K2, K3, 1, arr))
    assert not rep.ok
    assert rep.witness["edge"] == [0, 1] and rep.witness["pair"] == [0, 0]


def test_adjacency_requires_same_shape():
    # every tuple of a certificate shares one dimension and one target
    with pytest.raises(DimensionError):
        QuantumHomomorphism(K2, K3, 2, np.zeros((2, 3, 1, 1)))
    with pytest.raises(DimensionError):
        QuantumHomomorphism(K1, K3, 1, np.zeros((1, 4, 1, 1)))


def test_dimension_below_one_is_refused():
    # 0 x 0 parts pass every residual (their sum is the 0 x 0 identity), which
    # would make this a quantum 1-coloring of K5
    K5, K1 = generate("complete", 5), generate("complete", 1)
    with pytest.raises(DimensionError):
        QuantumHomomorphism(K5, K1, 0, np.zeros((5, 1, 0, 0)))
    with pytest.raises(DimensionError):
        QuantumHomomorphism(K1, K3, 0, np.zeros((1, 3, 0, 0)))


def test_tensor_tuples_adjacency_case_split():
    # tuples built like the product construction over K2 cartesian K2:
    # every product edge maps to adjacent tuples
    F = product("cartesian", K2, K2)
    q = product_qhom(
        "cartesian", classical_embedding(K2, K2, [0, 1]), classical_embedding(K2, K2, [0, 1])
    )
    assert q.source.n == F.n and np.array_equal(q.source.adj, F.adj)
    rep = verify_quantum_hom(q)
    assert rep.ok and rep.witness is None
    assert rep.adjacency <= 1e-12


# --- full verification -----------------------------------------------------------

def test_classical_embedding_verifies():
    q = classical_embedding(C5, K3, COL5)
    rep = verify_quantum_hom(q)
    assert rep.ok
    assert rep.witness is None
    q2 = classical_embedding(C4, K2, [0, 1, 0, 1])
    assert verify_quantum_hom(q2).ok
    qid = classical_embedding(K3, K3, [0, 1, 2])
    assert verify_quantum_hom(qid).ok


def test_classical_embedding_rejects_non_homomorphism():
    with pytest.raises(DomainError):
        classical_embedding(K2, K2, [0, 0])


def test_mutated_projector_fails_with_witness():
    q = classical_embedding(C5, K3, COL5)
    arr = q.assignment.copy()
    arr[3, 2, 0, 0] += 0.01
    bad = QuantumHomomorphism(q.source, q.target, q.d, arr)
    rep = verify_quantum_hom(bad)
    assert not rep.ok
    assert rep.witness is not None
    assert rep.witness["vertex"] == 3


@pytest.mark.parametrize("value, where", [(np.nan, ...), (np.inf, (2, 1, 0, 0))])
def test_nonfinite_certificate_fails_with_finite_witness(value, where):
    q = classical_embedding(C5, K3, COL5)
    arr = q.assignment.copy()
    arr[where] = value
    bad = QuantumHomomorphism(q.source, q.target, q.d, arr)
    rep = verify_quantum_hom(bad)
    assert not rep.ok
    assert (rep.witness["scope"], rep.witness["condition"]) == ("entries", "finite")
    assert rep.witness["count"] == np.count_nonzero(~np.isfinite(arr))
    assert not np.isfinite(arr[tuple(rep.witness["index"])])
    residuals = (rep.hermitian, rep.idempotent, rep.sum_to_identity,
                 rep.orthogonality, rep.adjacency)
    assert not any(np.isfinite(residuals))
    assert not verify_quantum_hom(_tuple(bad, rep.witness["index"][0])).ok


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_verify_refuses_a_tolerance_it_cannot_check(tol):
    # color 0 of K3 at every vertex of C5 breaks every edge, yet tol = inf passes it
    assignment = np.zeros((5, 3, 1, 1), dtype=complex)
    assignment[:, 0] = 1.0
    q = QuantumHomomorphism(C5, K3, 1, assignment)
    with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
        verify_quantum_hom(q, tol=tol)


def test_nan_residual_fails_with_a_named_witness(monkeypatch):
    # with the entry scan switched off, a NaN entry reaches the residuals,
    # and the residual tests fail it on their own
    q = classical_embedding(C5, K3, COL5)
    arr = q.assignment.copy()
    arr[3, 2, 0, 0] = np.nan
    monkeypatch.setattr(quantum, "_nonfinite_witness", lambda A: None)
    rep = verify_quantum_hom(QuantumHomomorphism(q.source, q.target, q.d, arr))
    assert not rep.ok
    assert (rep.witness["vertex"], rep.witness["part"]) == (3, 2)
    assert rep.witness["condition"] == "hermitian" and np.isnan(rep.witness["residual"])


def test_random_rank_one_replacement_fails_on_edge():
    rng = np.random.default_rng(3)
    q = tensor_with_identity(classical_embedding(C5, K3, COL5), 2)
    arr = q.assignment.copy()
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    arr[0, COL5[1]] = np.outer(v, v.conj())  # collide with the neighbor's color
    arr[0, COL5[0]] = np.eye(2) - arr[0, COL5[1]]
    bad = QuantumHomomorphism(q.source, q.target, q.d, arr)
    rep = verify_quantum_hom(bad)
    assert not rep.ok
    assert rep.witness["condition"] == "adjacency"
    assert 0 in rep.witness["edge"]


# --- constructions ----------------------------------------------------------------

def test_product_of_classical_embeddings_is_classical_product():
    f = [0, 1, 0, 1]
    g = [0, 1, 2]
    q1 = classical_embedding(C4, K2, f)
    q2 = classical_embedding(K3, K3, g)
    combined = product_qhom("cartesian", q1, q2)
    assert combined.d == 1
    expected = classical_embedding(
        product("cartesian", C4, K3),
        product("cartesian", K2, K3),
        [f[u] * 3 + g[v] for u in range(4) for v in range(3)],
    )
    assert np.allclose(combined.assignment, expected.assignment)


@pytest.mark.parametrize("kind", ["categorical", "cartesian", "strong", "disjunctive", "lexicographic"])
def test_product_qhom_all_kinds_verify(kind):
    q1 = classical_embedding(C4, K2, [0, 1, 0, 1])
    q2 = classical_embedding(K3, K3, [0, 1, 2])
    combined = product_qhom(kind, q1, q2)
    rep = verify_quantum_hom(combined)
    assert rep.ok, (kind, rep.witness)


def test_compose_classical_identity_and_indicators():
    q = classical_embedding(C5, K3, COL5)
    same = compose_classical(q, K3, [0, 1, 2])
    assert np.array_equal(same.assignment, q.assignment)
    # composing two classical maps matches embedding the composition
    g = [1, 2, 0]
    composed = compose_classical(q, K3, g)
    direct = classical_embedding(C5, K3, [g[c] for c in COL5])
    assert np.allclose(composed.assignment, direct.assignment)


def test_classical_embedding_refuses_non_integral_maps():
    with pytest.raises(DomainError, match="integers"):
        classical_embedding(C5, K3, [0, 1, 0, 1.5, 2])
    with pytest.raises(DomainError, match="integers"):
        classical_embedding(K2, K3, [0, np.nan])
    q = classical_embedding(C5, K3, COL5.astype(float))
    assert np.array_equal(q.assignment, classical_embedding(C5, K3, COL5).assignment)


def test_compose_classical_refuses_non_integral_maps():
    q = classical_embedding(C5, K3, COL5)
    # truncated, [0, 1.5, 2] would pass as K3's identity [0, 1, 2]
    for bad in ([0, 1.5, 2], [0, np.inf, 2]):
        with pytest.raises(DomainError, match="integers"):
            compose_classical(q, K3, bad)


def test_compose_classical_rejects_non_homomorphism():
    q = classical_embedding(generate("complete", 4), generate("complete", 4), [0, 1, 2, 3])
    with pytest.raises(DomainError):
        compose_classical(q, K2, [0, 0, 1, 1])


def test_compose_preserves_validity_on_conjugated_instances():
    for seed in range(3):
        U = _random_unitary(2, seed)
        q = conjugate(tensor_with_identity(classical_embedding(C5, K3, COL5), 2), U)
        g = [2, 0, 1]
        out = compose_classical(q, K3, g)
        assert verify_quantum_hom(out).ok


# --- quantum Sabidussi construction ------------------------------------------------

def test_quantum_sabidussi_k2_pair():
    q = classical_embedding(K2, K2, [0, 1])
    combined = quantum_sabidussi(q, q)
    assert combined.target.n == 2
    assert combined.source.n == 4
    assert verify_quantum_hom(combined).ok


def test_quantum_sabidussi_c5_c7():
    q1 = classical_embedding(C5, K3, COL5)
    q2 = classical_embedding(C7, K3, COL7)
    combined = quantum_sabidussi(q1, q2)
    assert combined.source.n == 35
    assert combined.target.n == 3
    rep = verify_quantum_hom(combined, tol=1e-7)
    assert rep.ok


def test_quantum_sabidussi_d2_conjugated():
    U = _random_unitary(2, 11)
    q1 = conjugate(tensor_with_identity(classical_embedding(C5, K3, COL5), 2), U)
    assert verify_quantum_hom(q1).ok
    q2 = classical_embedding(K3, K3, [0, 1, 2])
    combined = quantum_sabidussi(q1, q2)
    assert combined.d == 2
    rep = verify_quantum_hom(combined, tol=1e-7)
    assert rep.ok


def test_quantum_sabidussi_color_mismatch_and_padding():
    q1 = classical_embedding(C5, K3, COL5)
    q2 = classical_embedding(C4, K2, [0, 1, 0, 1])
    with pytest.raises(DomainError):
        quantum_sabidussi(q1, q2)
    assert pad_colors(q2, 2) is q2
    padded = pad_colors(q2, 3)
    assert verify_quantum_hom(padded).ok
    combined = quantum_sabidussi(q1, padded)
    assert verify_quantum_hom(combined).ok
    with pytest.raises(DomainError):
        pad_colors(q1, 2)


# --- d = 1 certificates are exactly classical homomorphisms -------------------------

def test_d1_certificates_match_homomorphisms_exhaustively():
    cases = [(generate("path", 3), K2), (generate("path", 3), K3), (C5, K3)]
    for source, target in cases:
        accepted = 0
        for f in itertools.product(range(target.n), repeat=source.n):
            arr = np.zeros((source.n, target.n, 1, 1), dtype=complex)
            for u, img in enumerate(f):
                arr[u, img, 0, 0] = 1.0
            q = QuantumHomomorphism(source, target, 1, arr)
            ok = verify_quantum_hom(q).ok
            assert ok == is_homomorphism(source, target, list(f))[0]
            accepted += ok
        assert accepted > 0  # proper colorings exist for every case


# --- certificate file format ---------------------------------------------------------

def test_certificate_roundtrip_bit_exact(tmp_path):
    U = _random_unitary(2, 21)
    q = conjugate(tensor_with_identity(classical_embedding(C5, K3, COL5), 2), U)
    path = tmp_path / "cert.json"
    save_certificate(path, q)
    back = load_certificate(path)
    assert back.d == q.d
    assert np.array_equal(back.assignment, q.assignment)
    assert np.array_equal(back.source.adj, q.source.adj)
    assert verify_quantum_hom(back).ok


def _load(tmp_path, data) -> QuantumHomomorphism:
    """The certificate of a file holding ``data``, through both decode routes."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    return load_certificate(path)


def test_certificate_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ParseError):
        load_certificate(bad)
    q = classical_embedding(C4, K2, [0, 1, 0, 1])
    data = certificate_dict(q)
    data["d"] = 2  # now the declared shape disagrees
    with pytest.raises(ValidationError):
        _load(tmp_path, data)
    with pytest.raises(ParseError):
        _load(tmp_path, {"d": 1})


@pytest.mark.parametrize("edges", [[[0, 0]], [[0, 5]], [[1, 2], [3, -1]], [[0, 2**70]],
                                   [[-2**70, 1]], [[0, 2**63]], [[-1, 2**63]]])
def test_certificate_edge_errors_are_those_of_graph_from_edges(tmp_path, edges):
    # the source graph is built from the flat list of endpoints, and refused
    # as graph_from_edges refuses the nested list: an endpoint beyond int64
    # reads as an object or a float array there too
    data = certificate_dict(classical_embedding(C4, K2, [0, 1, 0, 1]))
    data["graph"]["edges"] = edges
    with pytest.raises(ValidationError) as nested:
        graphs.graph_from_edges(4, edges)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(nested.value))}$"):
        _load(tmp_path, data)


@pytest.mark.parametrize("entry", [[True, 0.0], [0.0, False], [1, 0], [1.0, 0.0]])
def test_certificate_entries_must_be_numbers_not_booleans(tmp_path, entry):
    # JSON true would otherwise read as 1.0 and pass the check
    data = certificate_dict(classical_embedding(C4, K2, [0, 1, 0, 1]))
    data["assignment"][0][0][0][0] = entry
    if isinstance(entry[0], bool) or isinstance(entry[1], bool):
        with pytest.raises(ParseError, match="must be numbers"):
            _load(tmp_path, data)
    else:
        assert verify_quantum_hom(_load(tmp_path, data)).ok


def test_certificate_assignment_shapes_and_raggedness(tmp_path):
    data = certificate_dict(classical_embedding(C4, K2, [0, 1, 0, 1]))
    for raw, error in (([], ValidationError), (5, ValidationError),
                       ([[[[[1.0, 0.0]]]], 3], ParseError),
                       ([[[[[1.0]]]], [[[[1.0, 0.0]]]]], ParseError),
                       (np.zeros((5, 2, 1, 1, 2)).tolist(), ValidationError),
                       ([[[[[10**400, 0.0]]]]], ParseError)):
        data["assignment"] = raw
        with pytest.raises(error):
            _load(tmp_path, data)


@pytest.mark.parametrize("d", [0, -1])
def test_certificate_declaring_dimension_below_one_is_refused(tmp_path, monkeypatch, d):
    data = certificate_dict(classical_embedding(C4, K2, [0, 1, 0, 1]))
    data["d"] = d
    # refused before the source graph or the assignment array is built
    monkeypatch.setattr(quantum, "_source_graph", lambda *args: pytest.fail("graph built"))
    with pytest.raises(ValidationError, match="d >= 1"):
        _load(tmp_path, data)


# --- batched code against loop references ---------------------------------------------
#
# Test-only loop versions of the verifier and the builders, one projector
# product or Kronecker block at a time.  The batched code must give equal
# reports (witness included) and bit-identical arrays.


def _loop_maxnorm(M):
    return float(np.abs(M).max()) if M.size else 0.0


def _loop_nonfinite_witness(arr):
    finite = np.isfinite(arr)
    if finite.all():
        return None
    bad = np.argwhere(~finite)
    return {"scope": "entries", "condition": "finite",
            "index": [int(i) for i in bad[0]], "count": len(bad)}


def _loop_check_tuple(parts, tol):
    """(ok, hermitian, idempotent, sum, orthogonality, witness) of one
    finite tuple, orthogonality at 10x tol."""
    count, d = parts.shape[0], parts.shape[1]
    witness = None
    herm = idem = 0.0
    for v in range(count):
        E = parts[v]
        h = _loop_maxnorm(E - E.conj().T)
        i = _loop_maxnorm(E @ E - E)
        if h > tol and witness is None:
            witness = {"scope": "tuple", "part": v, "condition": "hermitian", "residual": h}
        if i > tol and witness is None:
            witness = {"scope": "tuple", "part": v, "condition": "idempotent", "residual": i}
        herm = max(herm, h)
        idem = max(idem, i)
    sum_res = _loop_maxnorm(parts.sum(axis=0) - np.eye(d))
    if sum_res > tol and witness is None:
        witness = {"scope": "tuple", "condition": "sum_to_identity", "residual": sum_res}
    ortho_tol = 10.0 * tol
    ortho = 0.0
    for v in range(count):
        for w in range(v + 1, count):
            r = max(_loop_maxnorm(parts[v] @ parts[w]), _loop_maxnorm(parts[w] @ parts[v]))
            if r > ortho_tol and witness is None:
                witness = {"scope": "tuple", "condition": "orthogonality", "pair": [v, w],
                           "residual": r}
            ortho = max(ortho, r)
    ok = herm <= tol and idem <= tol and sum_res <= tol and ortho <= ortho_tol
    return ok, herm, idem, sum_res, ortho, witness


def _loop_verify_quantum_hom(q, tol=ADJ_TOL):
    witness = _loop_nonfinite_witness(q.assignment)
    if witness is not None:
        inf = float("inf")
        return QuantumHomReport(False, inf, inf, inf, inf, inf, witness)
    struct_tol = tol / 10.0
    herm = idem = sums = ortho = adjacency = 0.0
    for u in range(q.source.n):
        ok, h, i, s, o, tuple_witness = _loop_check_tuple(q.assignment[u], struct_tol)
        herm = max(herm, h)
        idem = max(idem, i)
        sums = max(sums, s)
        ortho = max(ortho, o)
        if not ok and witness is None:
            witness = dict(tuple_witness or {})
            witness["scope"] = "tuple"
            witness["vertex"] = u
    H = q.target
    for u, u2 in np.column_stack(q.source.edge_index).tolist():
        for v in range(H.n):
            for w in range(H.n):
                if H.adj[v, w]:
                    continue
                r = max(_loop_maxnorm(q.assignment[u, v] @ q.assignment[u2, w]),
                        _loop_maxnorm(q.assignment[u2, w] @ q.assignment[u, v]))
                adjacency = max(adjacency, r)
                if r > tol and witness is None:
                    witness = {"scope": "edge", "condition": "adjacency", "edge": [u, u2],
                               "pair": [v, w], "residual": r}
    ok = (herm <= struct_tol and idem <= struct_tol and sums <= struct_tol
          and ortho <= 10 * struct_tol and adjacency <= tol)
    return QuantumHomReport(ok, herm, idem, sums, ortho, adjacency, witness)


def _loop_product_qhom(kind, q1, q2):
    source = product(kind, q1.source, q2.source)
    target = product(kind, q1.target, q2.target)
    nK = q2.target.n
    A = np.zeros((source.n, target.n, q1.d * q2.d, q1.d * q2.d), dtype=complex)
    for u in range(q1.source.n):
        for v in range(q2.source.n):
            for w in range(q1.target.n):
                for z in range(nK):
                    A[u * q2.source.n + v, w * nK + z] = np.kron(q1.assignment[u, w],
                                                                 q2.assignment[v, z])
    return A


def _loop_compose_classical(q, H, f):
    A = np.zeros((q.source.n, H.n, q.d, q.d), dtype=complex)
    for u in range(q.source.n):
        for h in range(q.target.n):
            A[u, f[h]] += q.assignment[u, h]
    return A


def _loop_tensor_with_identity(q, k):
    eye = np.eye(k, dtype=complex)
    A = np.zeros((q.source.n, q.target.n, q.d * k, q.d * k), dtype=complex)
    for u in range(q.source.n):
        for v in range(q.target.n):
            A[u, v] = np.kron(q.assignment[u, v], eye)
    return A


def _loop_certificate_json(q):
    data = certificate_dict(q)
    data["assignment"] = [
        [[[[float(x.real), float(x.imag)] for x in row] for row in q.assignment[u, v]]
         for v in range(q.target.n)]
        for u in range(q.source.n)
    ]
    return data


def _hadamard_coloring(n):
    """The quantum n-coloring of Omega_n: vertex x gets the rank-one
    projectors onto the columns of diag(x) F, F the unitary Fourier matrix.
    For orthogonal x and y the same-color products vanish, since
    f_a* diag(x o y) f_a = (x . y) / n = 0."""
    G = generate("omega", n)
    signs = 1 - 2 * ((np.arange(G.n)[:, None] >> np.arange(n)) & 1)  # generator's bit order
    F = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
    columns = signs[:, :, None] * F[None]
    assignment = np.einsum("xia,xja->xaij", columns, columns.conj())
    return QuantumHomomorphism(G, generate("complete", n), n, assignment)


def _oracle_certificates():
    q5 = conjugate(tensor_with_identity(classical_embedding(C5, K3, COL5), 2),
                   _random_unitary(2, 31))
    q7 = conjugate(tensor_with_identity(classical_embedding(C7, K3, COL7), 2),
                   _random_unitary(2, 32))
    return {
        "d1": classical_embedding(C5, K3, COL5),
        "d2_conjugated": q5,
        "sabidussi_d4": quantum_sabidussi(q5, q7),
        "hadamard_4": _hadamard_coloring(4),
    }


ORACLE_CERTIFICATES = _oracle_certificates()

# Single-entry mutations, except "adjacency", which swaps two part blocks so
# that the tuple stays a valid measurement.  Orthogonality does not become
# the witness: projectors summing to the identity are mutually orthogonal,
# so a tuple that breaks orthogonality breaks the sum, checked first, by a
# comparable amount, and orthogonality is checked at 10x the tolerance.
# "orthogonality" adds an overlapping projector and checks that residual.
MUTATIONS = {
    "hermitian": "hermitian",
    "idempotent": "idempotent",
    "sum": "sum_to_identity",
    "orthogonality": "sum_to_identity",
    "adjacency": "adjacency",
    "nan": "finite",
    "inf": "finite",
}


def _mutate(q, kind, seed):
    rng = np.random.default_rng(seed)
    A = q.assignment.copy()
    u = int(rng.integers(q.source.n))
    i, j = (int(x) for x in rng.integers(q.d, size=2))
    used = np.flatnonzero(np.abs(A[u]).max(axis=(1, 2)) > 1e-9)
    c = int(rng.choice(used))
    if kind == "hermitian":
        A[u, c, i, j] += 1e-3j
    elif kind == "idempotent":
        A[u, c, i, i] += 1e-3
    elif kind == "sum":
        A[u, c, i, i] = 0.0
    elif kind == "orthogonality":
        unused = np.setdiff1d(np.arange(q.target.n), used)
        A[u, unused[0] if unused.size else c, i, i] = 1.0
    elif kind == "adjacency":
        nb = int(np.flatnonzero(q.source.adj[u])[0])
        nb_used = np.flatnonzero(np.abs(A[nb]).max(axis=(1, 2)) > 1e-9)
        c2 = int(nb_used[nb_used != c][0])
        A[u, [c, c2]] = A[u, [c2, c]]
    else:
        A[u, c, i, j] = np.nan if kind == "nan" else np.inf
    return QuantumHomomorphism(q.source, q.target, q.d, A), u


def _assert_same_report(got, want):
    assert got == want
    assert json.dumps(dataclasses.asdict(got)) == json.dumps(dataclasses.asdict(want))


@pytest.mark.parametrize("name", sorted(ORACLE_CERTIFICATES))
def test_batched_verifier_matches_loop_on_valid_certificates(name):
    q = ORACLE_CERTIFICATES[name]
    for tol in (ADJ_TOL, 1e-15):
        _assert_same_report(verify_quantum_hom(q, tol), _loop_verify_quantum_hom(q, tol))
    for u in range(q.source.n):
        _assert_same_report(verify_quantum_hom(_tuple(q, u)),
                            _loop_verify_quantum_hom(_tuple(q, u)))
    assert verify_quantum_hom(q).ok


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
@pytest.mark.parametrize("name", sorted(ORACLE_CERTIFICATES))
def test_batched_verifier_matches_loop_on_mutations(name, kind):
    q = ORACLE_CERTIFICATES[name]
    for seed in range(3):
        bad, u = _mutate(q, kind, seed)
        for tol in (ADJ_TOL, 1e-2):
            _assert_same_report(verify_quantum_hom(bad, tol), _loop_verify_quantum_hom(bad, tol))
        _assert_same_report(verify_quantum_hom(_tuple(bad, u)),
                            _loop_verify_quantum_hom(_tuple(bad, u)))
        rep = verify_quantum_hom(bad)
        assert not rep.ok
        expected = MUTATIONS[kind]
        if name == "hadamard_4" and kind in ("sum", "orthogonality"):
            expected = "idempotent"  # a rank-one part loses idempotence first
        assert rep.witness["condition"] == expected, rep.witness
        if kind == "orthogonality":
            assert rep.orthogonality > ADJ_TOL
        if rep.witness["scope"] == "tuple":
            assert rep.witness["vertex"] == u
        elif rep.witness["scope"] == "entries":
            assert rep.witness["index"][0] == u
        else:
            assert u in rep.witness["edge"]


def test_orthogonality_witness_is_first_failing_pair():
    # at tol 1 the structural checks run at 0.1 and orthogonality at 1:
    # scalar parts 1.09 and -1.18/13 are idempotent within 0.1, thirteen
    # of the latter bring two of the former to the sum 1, and only the
    # product 1.09^2 of those two breaks orthogonality
    parts = np.full(15, -1.18 / 13)
    parts[[3, 7]] = 1.09
    A = np.zeros((4, 15, 1, 1), dtype=complex)
    A[:, 0] = 1.0
    A[1, :, 0, 0] = A[3, :, 0, 0] = parts
    q = QuantumHomomorphism(generate("empty", 4), generate("complete", 15), 1, A)
    rep = verify_quantum_hom(q, tol=1.0)
    assert rep.witness == {"scope": "tuple", "condition": "orthogonality", "pair": [3, 7],
                           "residual": 1.09 * 1.09, "vertex": 1}
    _assert_same_report(rep, _loop_verify_quantum_hom(q, 1.0))


def test_many_colors_verify_in_bounded_memory():
    # one vertex, d = 1 and 2,048 colors: about two million color pairs,
    # whose residuals are kept as one maximum per vertex
    count = 2048
    A = np.zeros((1, count, 1, 1), dtype=complex)
    A[0, 0] = 1.0
    q = QuantumHomomorphism(K1, generate("complete", count), 1, A)
    tracemalloc.start()
    try:
        rep = verify_quantum_hom(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.orthogonality == 0.0
    assert peak < 2 * count * count


def test_many_colors_use_memory_in_proportion_to_the_certificate(tmp_path):
    # no vertex and 4,096 colors: a 76-byte file, whose target's 16 MB
    # adjacency is the one large array.  Saving builds no edge index of the
    # target, loading builds its adjacency once, and the verifier finds its
    # non-adjacent pairs in blocks of rows (an edge index, a negated
    # identity and a negated adjacency peaked at 419, 34 and 17 MB)
    count = 4096
    q = QuantumHomomorphism(generate("empty", 0), generate("complete", count), 1,
                            np.zeros((0, count, 1, 1)))
    path = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        save_certificate(path, q)
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = load_certificate(path)
        held, load_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        rep = verify_quantum_hom(back)
        _, verify_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == 76 and rep.ok
    assert save_peak < 10**6
    assert load_peak < 1.1 * count * count
    assert verify_peak - held < 10**6


@pytest.mark.parametrize("kind", ["categorical", "cartesian", "strong", "disjunctive",
                                  "lexicographic"])
def test_product_qhom_bit_identical_to_kron_loop(kind):
    pairs = [
        (classical_embedding(C4, K2, [0, 1, 0, 1]), classical_embedding(K3, K3, [0, 1, 2])),
        (ORACLE_CERTIFICATES["d2_conjugated"],
         conjugate(tensor_with_identity(classical_embedding(K3, K3, [0, 1, 2]), 3),
                   _random_unitary(3, 41))),
    ]
    for q1, q2 in pairs:
        got = product_qhom(kind, q1, q2).assignment
        assert got.tobytes() == _loop_product_qhom(kind, q1, q2).tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_CERTIFICATES))
def test_edge_blocks_do_not_change_reports(name, monkeypatch):
    # blocks of one or two edges in place of one block for all of them
    monkeypatch.setattr(quantum, "GATHER_ENTRIES", 2)
    q = ORACLE_CERTIFICATES[name]
    for kind in ("adjacency", "hermitian", "nan"):
        bad, _ = _mutate(q, kind, 5)
        _assert_same_report(verify_quantum_hom(bad), _loop_verify_quantum_hom(bad))
    _assert_same_report(verify_quantum_hom(q, 1e-15), _loop_verify_quantum_hom(q, 1e-15))


def test_adjacency_witness_is_first_edge_then_first_pair():
    # edges (0, 3) and (1, 2), colors [2, 0, 0, 2]: edge (0, 3) breaks at
    # pair (2, 2), edge (1, 2) at the earlier pair (0, 0) and has the
    # smaller larger endpoint; the row-major edge order decides
    G = graphs.graph_from_edges(4, [(0, 3), (1, 2)])
    arr = np.zeros((4, 3, 1, 1), dtype=complex)
    arr[[0, 1, 2, 3], [2, 0, 0, 2]] = 1.0
    q = QuantumHomomorphism(G, K3, 1, arr)
    rep = verify_quantum_hom(q)
    assert (rep.witness["edge"], rep.witness["pair"]) == ([0, 3], [2, 2])
    _assert_same_report(rep, _loop_verify_quantum_hom(q))


def test_compose_and_sabidussi_bit_identical_to_loops():
    q = ORACLE_CERTIFICATES["sabidussi_d4"]
    for f in ([0, 1, 2], [2, 0, 1]):
        assert (compose_classical(q, K3, f).assignment.tobytes()
                == _loop_compose_classical(q, K3, f).tobytes())
    # three rounding-sensitive terms per color: the summation order shows
    rng = np.random.default_rng(43)
    arr = rng.standard_normal((5, 6, 2, 2)) + 1j * rng.standard_normal((5, 6, 2, 2))
    noisy = QuantumHomomorphism(C5, generate("cycle", 6), 2, arr)
    f = [0, 1, 0, 1, 0, 1]
    assert (compose_classical(noisy, K2, f).assignment.tobytes()
            == _loop_compose_classical(noisy, K2, f).tobytes())
    q5, q7 = ORACLE_CERTIFICATES["d2_conjugated"], tensor_with_identity(
        classical_embedding(C7, K3, COL7), 2)
    combined = product_qhom("cartesian", q5, q7)
    modular = [(a + b) % 3 for a in range(3) for b in range(3)]
    expected = _loop_compose_classical(combined, K3, modular)
    assert quantum_sabidussi(q5, q7).assignment.tobytes() == expected.tobytes()


def test_tensor_with_identity_bit_identical_to_kron_loop():
    for q in ORACLE_CERTIFICATES.values():
        for k in (1, 2, 3):
            assert (tensor_with_identity(q, k).assignment.tobytes()
                    == _loop_tensor_with_identity(q, k).tobytes())


# --- block-sparse certificates ----------------------------------------------------------
#
# The verifier multiplies only parts with a nonzero entry, as a product with
# a zero part has the residual 0.0; the loop reference multiplies them all.


def _sparse_certificates():
    """Valid certificates with zero parts at seeded colors: oracle
    certificates padded to five colors and relabelled by a permutation of
    K_5, and the quantum Sabidussi certificate of two classical ones."""
    rng = np.random.default_rng(52)
    K5 = generate("complete", 5)
    certs = {f"{name}_padded": compose_classical(pad_colors(ORACLE_CERTIFICATES[name], 5), K5,
                                                 rng.permutation(5))
             for name in ("d1", "d2_conjugated", "sabidussi_d4")}
    certs["classical_sabidussi"] = quantum_sabidussi(classical_embedding(C5, K3, COL5),
                                                     classical_embedding(C7, K3, COL7))
    return certs


SPARSE_CERTIFICATES = _sparse_certificates()


def _with_assignment(q, A):
    return QuantumHomomorphism(q.source, q.target, q.d, A)


@pytest.mark.parametrize("name", sorted(SPARSE_CERTIFICATES))
def test_sparse_certificates_match_loop(name):
    q = SPARSE_CERTIFICATES[name]
    assert not q.assignment.any(axis=(-2, -1)).all()
    for tol in (ADJ_TOL, 1e-15):
        _assert_same_report(verify_quantum_hom(q, tol), _loop_verify_quantum_hom(q, tol))
    assert verify_quantum_hom(q).ok
    for kind in sorted(MUTATIONS):
        for seed in range(2):
            bad, _ = _mutate(q, kind, seed)
            for tol in (ADJ_TOL, 1e-2):
                _assert_same_report(verify_quantum_hom(bad, tol),
                                    _loop_verify_quantum_hom(bad, tol))


@pytest.mark.parametrize("seed", range(8))
def test_random_zero_parts_match_loop(seed):
    # parts zeroed at random in an oracle certificate (odd seeds swap two
    # parts first, to break adjacency) and in random entries, whose every
    # residual maximum is nonzero and compared
    rng = np.random.default_rng(seed)
    q = ORACLE_CERTIFICATES[sorted(ORACLE_CERTIFICATES)[seed % 4]]
    if seed % 2:
        q, _ = _mutate(q, "adjacency", seed)
    A = q.assignment.copy()
    A[rng.random(A.shape[:2]) < 0.4] = 0.0
    zeroed = _with_assignment(q, A)
    _assert_same_report(verify_quantum_hom(zeroed), _loop_verify_quantum_hom(zeroed))
    source = graphs.erdos_renyi(7, 0.5, rng=rng)
    target = graphs.erdos_renyi(4, 0.5, rng=rng)
    R = rng.standard_normal((7, 4, 2, 2)) + 1j * rng.standard_normal((7, 4, 2, 2))
    R[rng.random((7, 4)) < 0.5] = 0.0
    noisy = QuantumHomomorphism(source, target, 2, R)
    for tol in (ADJ_TOL, 10.0):
        _assert_same_report(verify_quantum_hom(noisy, tol), _loop_verify_quantum_hom(noisy, tol))


def test_negative_zero_parts_match_loop():
    q = SPARSE_CERTIFICATES["d2_conjugated_padded"]
    A = q.assignment.copy()
    zero = ~A.any(axis=(-2, -1))
    A[zero] = complex(-0.0, -0.0)
    A[0, np.flatnonzero(zero[0])[0], 0, 1] = complex(0.0, -0.0)  # mixed signs
    signed = _with_assignment(q, A)
    assert np.signbit(signed.assignment[zero].real).any()
    rep = verify_quantum_hom(signed)
    _assert_same_report(rep, _loop_verify_quantum_hom(signed))
    assert rep == verify_quantum_hom(q) and rep.ok


def test_subnormal_parts_are_multiplied():
    # a part of 5e-324 entries is not zero: its residuals are, to the last bit
    q = SPARSE_CERTIFICATES["d1_padded"]
    A = q.assignment.copy()
    zero = ~A.any(axis=(-2, -1))
    A[zero] = 5e-324
    tiny = _with_assignment(q, A)
    rep = verify_quantum_hom(tiny)
    _assert_same_report(rep, _loop_verify_quantum_hom(tiny))
    assert rep.ok and rep.idempotent == 5e-324
    assert rep.orthogonality > 0.0 and rep.adjacency > 0.0


def test_tiny_part_meeting_a_huge_part_is_multiplied():
    # nilpotent parts, so that nothing overflows: T E and E T have the
    # entry 1e-200 * 1e200 = 1, across the edge (0, 1) at the pair (1, 1)
    # and within the tuple of vertex 2
    T = np.array([[0, 0], [1e-200, 0]], dtype=complex)
    E = np.array([[0, 1e200], [0, 0]], dtype=complex)
    A = np.zeros((3, 2, 2, 2), dtype=complex)
    A[0] = np.eye(2), T
    A[1, 1] = A[2, 1] = E
    A[2, 0] = T
    q = QuantumHomomorphism(graphs.graph_from_edges(3, [(0, 1)]), K2, 2, A)
    rep = verify_quantum_hom(q)
    _assert_same_report(rep, _loop_verify_quantum_hom(q))
    assert rep.adjacency == 1.0 and rep.orthogonality == 1.0 and not rep.ok


def test_products_with_a_zero_part_are_skipped(monkeypatch):
    pair_residuals, blocks = quantum._pair_residuals, []

    def counting(X, Y):
        blocks.append(int(np.prod(np.broadcast_shapes(X.shape[:-2], Y.shape[:-2]))))
        return pair_residuals(X, Y)

    monkeypatch.setattr(quantum, "_pair_residuals", counting)
    for q in (classical_embedding(C5, K3, COL5), SPARSE_CERTIFICATES["classical_sabidussi"]):
        blocks.clear()
        assert verify_quantum_hom(q).ok and sum(blocks) == 0
    # every part of a Hadamard coloring is nonzero: every product runs
    q = _hadamard_coloring(4)
    blocks.clear()
    assert verify_quantum_hom(q).ok
    non_adjacent = np.count_nonzero(~q.target.adj)
    count = q.target.n
    assert sum(blocks) == (q.source.edge_count * non_adjacent
                           + q.source.n * count * (count - 1) // 2)


def test_saved_certificate_text_matches_streamed_json(tmp_path):
    for name, q in ORACLE_CERTIFICATES.items():
        path = tmp_path / f"{name}.json"
        save_certificate(path, q)
        reference = io.StringIO()
        json.dump(_loop_certificate_json(q), reference)
        assert path.read_text(encoding="utf-8") == reference.getvalue()


# save_certificate streams its text a block of rows at a time; json.dumps of
# the file's object (conftest.certificate_dict) is the reference.

_WRITER_ENTRIES = [0.0, -0.0, 1.0, -0.5, 0.1, 2.5e-8, 1e300, -1e300, 5e-324, -5e-324,
                   float("nan"), float("inf"), float("-inf")]


@settings(max_examples=60)
@given(d=st.integers(1, 2), chunk=st.integers(1, 3), offset=st.sampled_from([-1, 0, 1]),
       seed=st.integers(0, 2**32 - 1))
def test_saved_certificate_text_is_json_dumps(cert_path, d, chunk, offset, seed):
    # blocks of `chunk` vertices, and chunk - 1, chunk or chunk + 1 vertices
    rng = random.Random(seed)
    n = chunk + offset
    pairs = list(itertools.combinations(range(n), 2))
    source = graphs.graph_from_edges(n, rng.sample(pairs, rng.randint(0, len(pairs))))
    parts = [complex(rng.choice(_WRITER_ENTRIES), rng.choice(_WRITER_ENTRIES))
             for _ in range(n * 3 * d * d)]
    q = QuantumHomomorphism(source, K3, d, np.array(parts).reshape(n, 3, d, d))
    with mock.patch.object(quantum, "WRITE_ENTRIES", chunk * 2 * 3 * d * d):
        save_certificate(cert_path, q)
    assert cert_path.read_text(encoding="utf-8") == json.dumps(certificate_dict(q))


@pytest.mark.parametrize("q", [
    pytest.param(QuantumHomomorphism(generate("empty", 0), K3, 2, np.zeros((0, 3, 2, 2))),
                 id="no-vertex"),
    pytest.param(QuantumHomomorphism(C4, generate("complete", 0), 1, np.zeros((4, 0, 1, 1))),
                 id="no-color"),
])
def test_saved_certificate_of_empty_arrays_is_json_dumps(tmp_path, q):
    path = tmp_path / "cert.json"
    save_certificate(path, q)
    assert path.read_text(encoding="utf-8") == json.dumps(certificate_dict(q))


def test_certificate_save_and_load_memory_is_bounded(tmp_path):
    # a d = 4 quantum 3-coloring of C35 [] C35: 1,225 vertices, 4,900 edges,
    # about 1.2 MB of text.  One json.dumps of the nested lists peaked at
    # about 11x the file's size, and a decode of the whole assignment at 8x;
    # the streamed text peaks below the file's size, and the load holds the
    # text (1x) and the certificate (2x: adjacency and assignment) besides
    # its chunks and skeleton
    C35 = product("cartesian", C5, C7)
    q35 = conjugate(tensor_with_identity(classical_embedding(
        C35, K3, (COL5[:, None] + COL7[None, :]).ravel() % 3), 2), _random_unitary(2, 51))
    q = quantum_sabidussi(q35, q35)
    path = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        save_certificate(path, q)
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = load_certificate(path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert q.source.n == 1225 and size > 10**6
    assert save_peak < 1.0 * size
    assert load_peak < 5.0 * size
    assert back.assignment.tobytes() == q.assignment.tobytes()


# --- the flat decode of certificate files against the json route ---------------------
#
# load_certificate decodes the assignment array of a file without its nested
# lists when it can prove that json would give the same; otherwise json
# decodes the file.  Both routes must give the same certificate, or the same
# error.

def _load_outcome(path):
    """What load_certificate gives for a file: the certificate's arrays and
    sizes, or the class and message of what it raises."""
    try:
        q = load_certificate(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (q.assignment.shape, q.assignment.tobytes(), q.source.adj.tobytes(), q.d,
            q.target.n)


def _json_route_outcome(path):
    with mock.patch.object(quantum, "_flat_decode", lambda text: None):
        return _load_outcome(path)


def _assert_routes_agree(path, text, flat=None):
    """Both routes give the same outcome on ``text``, written to ``path``;
    ``flat`` says whether the flat decode must take the text (True) or
    decline it (False)."""
    if flat is not None:
        assert (quantum._flat_decode(text) is not None) is flat
    path.write_text(text, encoding="utf-8")
    outcome = _load_outcome(path)
    assert outcome == _json_route_outcome(path)
    return outcome


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    """One file for the texts of a module's examples."""
    return tmp_path_factory.mktemp("flat") / "cert.json"


@pytest.mark.parametrize("name", sorted(ORACLE_CERTIFICATES))
def test_flat_decode_is_bit_identical_on_oracle_certificates(cert_path, name):
    q = ORACLE_CERTIFICATES[name]
    shape, data, adj, d, n_colors = _assert_routes_agree(cert_path, json.dumps(certificate_dict(q)), True)
    assert (shape, data, adj, d, n_colors) == (q.assignment.shape, q.assignment.tobytes(),
                                               q.source.adj.tobytes(), q.d, q.target.n)


_TOKEN = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|NaN|-?Infinity")
_SWAPS = ["true", "null", '"1"', "1e400", "-0", "NaN", "-Infinity", "9" * 400]


_ENTRIES = [0.0, -0.0, 1.0, 0.5, -2.5e300, 1e-17, 0.1, float("nan"), float("inf"), 0, 1, -3]


@st.composite
def _certificate_texts(draw):
    """A small certificate, dumped with random separators, indentation, key
    order and whitespace, then perhaps mutated.  All but the sizes and the
    kind of mutation come from a drawn seed."""
    d, n, n_colors = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    shape = (n, n_colors, d, d, 2)
    assignment = np.array([rng.choice(_ENTRIES) for _ in range(int(np.prod(shape)))],
                          dtype=object).reshape(shape).tolist()
    pairs = [list(e) for e in itertools.combinations(range(n), 2)]
    members = {"d": d, "n_colors": n_colors,
               "graph": {"n": n, "edges": rng.sample(pairs, rng.randint(0, len(pairs)))},
               "assignment": assignment}
    mutation = draw(st.sampled_from(["none", "delete", "insert", "swap", "duplicate",
                                     "nested", "empty"]))
    if mutation == "nested":
        members["graph"]["assignment"] = rng.choice([assignment, [[1.0]], "x"])
    elif mutation == "empty":
        members["assignment"] = rng.choice([[], [[]], [assignment[0], []],
                                            np.zeros((n, 0, d, d, 2)).tolist()])
    keys = rng.sample(list(members), len(members))
    text = json.dumps({key: members[key] for key in keys},
                      separators=rng.choice([(", ", ": "), (",", ":"), (" , ", " : ")]),
                      indent=rng.choice([None, None, 0, 2, "\t"]))
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice([" ", "\n", "\t", "\r\n"]) + text[at:]
    if mutation in ("delete", "insert"):
        at = rng.choice([i for i, c in enumerate(text) if c in "[],0123456789"])
        extra = rng.choice("[],7") if mutation == "insert" else ""
        text = text[:at] + extra + text[at + (mutation == "delete"):]
    elif mutation == "swap":
        token = rng.choice(list(_TOKEN.finditer(text)))
        text = text[:token.start()] + rng.choice(_SWAPS) + text[token.end():]
    elif mutation == "duplicate":
        other = json.dumps(rng.choice([assignment, [[0.5]], 7]))
        text = rng.choice([text[:1] + f'"assignment": {other}, ' + text[1:],
                           text[:-1] + f', "assignment": {other}' + text[-1:]])
    return text


@settings(max_examples=200)
@given(_certificate_texts())
def test_flat_decode_agrees_with_json_route(cert_path, text):
    _assert_routes_agree(cert_path, text)


@settings(max_examples=100)
@given(_certificate_texts(), st.sampled_from([1, 2, 5, 16]))
def test_flat_decode_in_small_pieces_agrees_with_json_route(cert_path, text, size):
    # pieces of a few bytes: a cut lands on nearly every comma, so a piece
    # may begin or end with brackets or whitespace, or hold no number at all
    with mock.patch.object(quantum, "DECODE_BYTES", size):
        _assert_routes_agree(cert_path, text)


@pytest.mark.parametrize("size", [1, 7, 64])
def test_flat_decode_in_small_pieces_is_bit_identical(cert_path, monkeypatch, size):
    monkeypatch.setattr(quantum, "DECODE_BYTES", size)
    for q in ORACLE_CERTIFICATES.values():
        outcome = _assert_routes_agree(cert_path, json.dumps(certificate_dict(q)), True)
        assert outcome == (q.assignment.shape, q.assignment.tobytes(), q.source.adj.tobytes(),
                           q.d, q.target.n)
    # an empty entry: its skeleton is a pair's, and with a cut on its comma
    # (at size 1) json reads the piece after it, "]" and more brackets, as
    # no number at all, so only the count of numbers declines it
    text = json.dumps(certificate_dict(classical_embedding(C4, K2, [0, 1, 0, 1])))
    cls, _ = _assert_routes_agree(cert_path, text.replace("[1.0, 0.0]", "[1.0, ]", 1), False)
    assert cls is ParseError


@pytest.mark.parametrize("separators", [(", ", ": "), (",", ":")])
def test_flat_decode_takes_compact_files_in_any_key_order(cert_path, separators):
    members = certificate_dict(ORACLE_CERTIFICATES["d2_conjugated"])
    for keys in itertools.permutations(members):
        text = json.dumps({key: members[key] for key in keys}, separators=separators)
        _assert_routes_agree(cert_path, text, True)


def _keeps_and_declines():
    """Full certificates that json keeps and the flat decode must take,
    and ones it must decline, each named by the property it has."""
    data = certificate_dict(classical_embedding(C4, K2, [0, 1, 0, 1]))
    text = json.dumps(data)
    nested, nonfinite = json.loads(text), json.loads(text)
    nested["graph"]["assignment"] = [7]
    nonfinite["assignment"][1][0][0][0] = [float("nan"), float("-inf")]
    nested_last = {"d": 1, "n_colors": 2, "assignment": data["assignment"],
                   "graph": dict(data["graph"], assignment=data["assignment"])}
    keeps = {
        "last-duplicate-wins": '{"assignment": [[0.0, 1.0]], ' + text[1:],
        "nested-key-first": json.dumps(nested),
        "nan-and-infinity": json.dumps(nonfinite),
        "whitespace-inside": text.replace('"assignment": [[', '"assignment" :\n [\t[')
                                 .replace(", ", " ,\r\n ").replace("1.0", "1e400", 1)
                                 .replace("0.0", "-0", 1),
    }
    declines = {
        "not-an-object": "[" + text + "]",
        "holds-the-placeholder": text[:-1] + ', "x": "\\u2603"}',
        "holds-the-raw-placeholder": text[:-1] + ', "x": "☃"}',
        "ragged": text.replace("[1.0, 0.0]", "[1.0]", 1),
        "misplaced-entry": text.replace("[1.0, 0.0]]", "[1.0,]0.0]", 1),
        "beyond-float64": text.replace("1.0", "9" * 400, 1),
        "not-ascii": text.replace("1.0", "²", 1),
        "not-a-number": text.replace("1.0", "true", 1),
        "nested-key-last": json.dumps(nested_last),
        "closing-brackets-apart": text[:-6] + "]]]]\n]}",
        "d-not-an-integer": text.replace('"d": 1', '"d": true'),
        "rows-disagree-with-d": text.replace('"d": 1', '"d": 2'),
    }
    return keeps, declines


_KEEPS, _DECLINES = _keeps_and_declines()


@pytest.mark.parametrize("text", [
    # documents that are not certificates: the flat decode takes none
    '[{"assignment": [[1.0]]}]',                                        # not an object
    '{"assignment": [[1.0], [2.0]], "x": "\\u2603"}',                   # holds the placeholder
    '{"assignment": [[1.0], [2.0]], "x": "☃"}',
    '{"assignment": [[1.0, 2.0], [3.0]]}',                              # ragged
    '{"assignment": [[1.0, 2.0], []]}',                                 # an empty axis
    '{"assignment": [[1.0,]2.0]]}',                                     # a misplaced entry
    '{"assignment": [[1.0, 2.0], [3.0, ' + "9" * 400 + ']]}',           # beyond float64
    '{"assignment": [[1.0, 2.0], [3.0, ²]]}',                      # not ASCII
    '{"assignment": [[true, 2.0]]}',                                    # not a number
    '{"graph": {"assignment": [[1.0]]}, "assignment": 5}',              # nested key last
    '{"assignment": ' + "[" * 33 + "1.0" + "]" * 33 + '}',              # deeper than 32
    '{"assignment": [[1.0, 2.0]\n]}',                                   # closing brackets apart
    *(pytest.param(text, id=name) for name, text in _DECLINES.items()),
])
def test_flat_decode_declines_what_it_cannot_prove(cert_path, text):
    _assert_routes_agree(cert_path, text, False)


@pytest.mark.parametrize("text", [pytest.param(text, id=name) for name, text in _KEEPS.items()])
def test_flat_decode_takes_what_json_keeps(cert_path, text):
    _assert_routes_agree(cert_path, text, True)
    data = json.loads(text)
    data["assignment"] = np.array(data["assignment"], dtype=float)
    got = quantum._flat_decode(text)
    assert list(got) == list(data) and got["assignment"].tobytes() == data["assignment"].tobytes()
    assert all(got[key] == data[key] for key in data if key != "assignment")


@pytest.mark.parametrize("members", [
    pytest.param({"d": 10**6, "assignment": [[[[[1.0]]]]]}, id="d-1e6"),
    pytest.param({"n_colors": 10**9, "assignment": [[[[[1.0]]]]]}, id="n_colors-1e9"),
    pytest.param({"assignment": [[0.5] * k for k in range(1, 160) for _ in range(4)]},
                 id="1MB-ragged"),
])
def test_absurd_certificates_fail_fast(cert_path, members):
    data = certificate_dict(classical_embedding(C4, K2, [0, 1, 0, 1]))
    data.update(members)
    text = json.dumps(data)
    start = time.perf_counter()
    cls, message = _assert_routes_agree(cert_path, text)
    assert time.perf_counter() - start < 1.0
    assert cls in (ParseError, ValidationError), message


# --- the Hadamard coloring of Omega_n: a genuinely quantum certificate ------------

@pytest.mark.parametrize("n, edges", [(4, 48), (8, 8960)])
def test_hadamard_coloring_verifies(n, edges):
    q = _hadamard_coloring(n)
    assert (q.source.n, q.source.edge_count, q.d, q.target.n) == (2 ** n, edges, n, n)
    rep = verify_quantum_hom(q)
    assert rep.ok and rep.witness is None
    assert rep.adjacency <= 1e-14
    assert rep.orthogonality <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_hadamard_coloring_mutation_names_vertex(seed):
    q = _hadamard_coloring(8)
    rng = np.random.default_rng(seed)
    u, c, i, j = (int(rng.integers(m)) for m in (q.source.n, 8, 8, 8))
    A = q.assignment.copy()
    A[u, c, i, j] += 1e-3
    rep = verify_quantum_hom(QuantumHomomorphism(q.source, q.target, q.d, A))
    assert not rep.ok
    assert rep.witness["scope"] == "tuple" and rep.witness["vertex"] == u
    assert rep.witness["part"] == c
