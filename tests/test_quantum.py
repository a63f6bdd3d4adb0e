import itertools

import numpy as np
import pytest

from vecchrom import graphs
from vecchrom.errors import DimensionError, DomainError, ParseError, ValidationError
from vecchrom.graphs import generate, is_homomorphism, product
from vecchrom.quantum import (
    MeasurementTuple,
    QuantumHomomorphism,
    certificate_from_json,
    certificate_to_json,
    classical_embedding,
    compose_classical,
    conjugate,
    load_certificate,
    pad_colors,
    product_qhom,
    quantum_sabidussi,
    save_certificate,
    tensor_with_identity,
    verify_measurement,
    verify_quantum_hom,
)

K2 = generate("complete", 2)
K3 = generate("complete", 3)
C4 = generate("cycle", 4)
C5 = generate("cycle", 5)
C7 = generate("cycle", 7)

COL5 = np.array([0, 1, 0, 1, 2])
COL7 = np.array([0, 1, 0, 1, 0, 1, 2])


def _indicator_tuple(target, at, d=1):
    parts = np.zeros((target.n, d, d), dtype=complex)
    parts[at] = np.eye(d)
    return MeasurementTuple(parts, target)


def _random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


# --- measurement tuples -------------------------------------------------------

def test_indicator_tuple_passes():
    rep = verify_measurement(_indicator_tuple(K3, 1))
    assert rep.ok
    assert rep.witness is None


def test_scaled_projector_fails_sum():
    parts = np.zeros((3, 1, 1), dtype=complex)
    parts[0, 0, 0] = 0.999
    parts[1, 0, 0] = 0.0
    parts[2, 0, 0] = 0.0
    rep = verify_measurement(MeasurementTuple(parts, K3))
    assert not rep.ok
    assert abs(rep.sum_to_identity - 0.001) <= 1e-9


def test_diagonal_pair_passes_at_d2():
    parts = np.zeros((2, 2, 2), dtype=complex)
    parts[0] = np.diag([1.0, 0.0])
    parts[1] = np.diag([0.0, 1.0])
    rep = verify_measurement(MeasurementTuple(parts, K2))
    assert rep.ok
    assert rep.orthogonality <= 1e-12


def test_distinct_part_orthogonality_checked_independently():
    # parts sum to identity but are not mutually orthogonal projectors
    parts = np.zeros((2, 2, 2), dtype=complex)
    parts[0] = np.array([[0.5, 0.5], [0.5, 0.5]])
    parts[1] = np.eye(2) - parts[0]
    rep = verify_measurement(MeasurementTuple(parts, K2))
    assert rep.ok  # these happen to be orthogonal complementary projectors
    parts2 = np.zeros((2, 2, 2), dtype=complex)
    parts2[0] = np.diag([1.0, 0.0])
    parts2[1] = np.array([[0.0, 0.0], [0.0, 1.0]]) + 1e-6 * np.array([[1.0, 0], [0, 0]])
    rep = verify_measurement(MeasurementTuple(parts2, K2))
    assert not rep.ok


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
        MeasurementTuple(np.zeros((4, 1, 1)), K3)


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
    assert not verify_measurement(bad.tuple_at(rep.witness["index"][0])).ok


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


def test_certificate_graph_reference(tmp_path):
    gpath = tmp_path / "c5.txt"
    graphs.save_graph(gpath, C5)
    q = classical_embedding(C5, K3, COL5)
    data = certificate_to_json(q)
    data["graph"] = "c5.txt"
    import json

    cpath = tmp_path / "cert.json"
    cpath.write_text(json.dumps(data))
    back = load_certificate(cpath)
    assert np.array_equal(back.source.adj, C5.adj)


def test_certificate_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ParseError):
        load_certificate(bad)
    q = classical_embedding(C4, K2, [0, 1, 0, 1])
    data = certificate_to_json(q)
    data["d"] = 2  # now the declared shape disagrees
    with pytest.raises(ValidationError):
        certificate_from_json(data)
    with pytest.raises(ParseError):
        certificate_from_json({"d": 1})
