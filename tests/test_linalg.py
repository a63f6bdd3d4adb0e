import numpy as np
import pytest

from vecchrom import graphs
from vecchrom.colorings import extract_coloring
from vecchrom.errors import ConvergenceError, DomainError, FeasibilityError
from vecchrom.linalg import eig_sym, symmetrize
from vecchrom.sdp import _clip_psd


def _random_sym(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


# --- eigensolver ------------------------------------------------------------

def test_eig_identity():
    spec = eig_sym(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1, 1, 1])
    P, rank = spec.least_eigenspace()
    assert rank == 3
    assert np.allclose(P, np.eye(3), atol=1e-12)


def test_eig_c5_circulant_oracle():
    # eigenvalues of the 5-cycle are 2 cos(2 pi j / 5)
    expected = sorted((2 * np.cos(2 * np.pi * j / 5) for j in range(5)), reverse=True)
    spec = eig_sym(graphs.generate("cycle", 5).adjacency())
    assert np.allclose(spec.eigenvalues, expected, atol=1e-8)
    assert spec.least_eigenspace()[1] == 2


def test_eig_petersen():
    A = graphs.generate("petersen").adjacency()
    spec = eig_sym(A)
    expected = [3.0] + [1.0] * 5 + [-2.0] * 4
    assert np.allclose(spec.eigenvalues, expected, atol=1e-8)
    # direct verification of the eigenpairs
    for idx in range(10):
        v = spec.eigenvectors[:, idx]
        assert np.abs(A @ v - spec.eigenvalues[idx] * v).max() <= 1e-8
    # the least eigenspace is the last four columns, -2 with multiplicity 4
    P, rank = spec.least_eigenspace()
    V = spec.eigenvectors[:, 6:]
    assert rank == 4
    assert np.array_equal(P, (V @ V.T + (V @ V.T).T) / 2.0)


@pytest.mark.parametrize("seed,n", [(0, 4), (1, 8), (2, 13), (3, 20)])
def test_spectrum_invariants(seed, n):
    M = _random_sym(seed, n)
    spec = eig_sym(M)
    V, w = spec.eigenvectors, spec.eigenvalues
    scale = 1.0 + np.abs(M).max()
    assert np.abs(M @ V - V * w).max() <= 1e-8 * scale
    assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-8
    # a random matrix has simple eigenvalues: the least eigenspace is the
    # last eigenvector's line, and its projector is idempotent and fixed by M
    P, rank = spec.least_eigenspace()
    assert rank == 1
    assert np.abs(P @ P - P).max() <= 1e-8
    assert np.abs(M @ P - spec.least * P).max() <= 1e-8 * scale
    assert np.abs(P - np.outer(V[:, -1], V[:, -1])).max() <= 1e-12


def test_eig_matches_lapack():
    for seed in range(5):
        M = _random_sym(seed + 10, 12)
        ours = eig_sym(M).eigenvalues
        ref = np.linalg.eigvalsh(M)[::-1]
        assert np.abs(ours - ref).max() <= 1e-10 * (1 + np.abs(ref).max())


def test_eig_rejects_nonfinite_and_asymmetric():
    with pytest.raises(DomainError):
        eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(DomainError):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eig_lapack_failure_is_a_convergence_error(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(ConvergenceError) as err:
        eig_sym(np.eye(3))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


def test_eig_grouping_tolerance():
    M = np.diag([1.0, 1.0 + 1e-9, 5.0])
    P, rank = eig_sym(M, tol=1e-6).least_eigenspace()
    assert rank == 2
    assert np.allclose(P, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert eig_sym(M, tol=1e-12).least_eigenspace()[1] == 1


# --- gram factorization -----------------------------------------------------
# The Gram factorization is the core of colorings.extract_coloring: a PSD
# matrix with diagonal lam - 1 becomes unit vectors with Gram matrix
# M / (lam - 1), one coordinate per significant eigenvalue.

def test_gram_identity():
    vecs = extract_coloring(np.eye(4), 2.0).vectors
    assert vecs.shape == (4, 4)
    assert np.abs(vecs @ vecs.T - np.eye(4)).max() <= 1e-10


def test_gram_simplex():
    n = 5
    M = np.full((n, n), -1.0)
    np.fill_diagonal(M, n - 1.0)
    vecs = extract_coloring(M, float(n), tol=1e-9).vectors
    assert vecs.shape[1] == n - 1
    gram = vecs @ vecs.T
    assert np.abs(np.diag(gram) - 1.0).max() <= 1e-9
    off = gram[~np.eye(n, dtype=bool)]
    assert np.abs(off + 1.0 / (n - 1)).max() <= 1e-9


def test_gram_roundtrip_random_low_rank():
    # oracle: build PSD matrices of known deficient rank directly, scaled
    # to unit diagonal
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n, r = 8, 3
        B = rng.standard_normal((n, r))
        B /= np.linalg.norm(B, axis=1)[:, None]
        M = B @ B.T
        vecs = extract_coloring(M, 2.0, tol=1e-9).vectors
        assert vecs.shape[1] == r
        assert np.abs(vecs @ vecs.T - M).max() <= 1e-6


def test_gram_rejects_indefinite():
    with pytest.raises(FeasibilityError):
        extract_coloring(np.array([[1.0, 2.0], [2.0, 1.0]]), 2.0, tol=1e-9)


# --- PSD projection ---------------------------------------------------------
# the eigenvalue clipping of the splitting solver's cone step

def test_project_psd_fixed_point():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((5, 3))
    M = B @ B.T
    assert np.abs(_clip_psd(M) - M).max() <= 1e-9


def test_project_psd_negative_definite():
    assert np.abs(_clip_psd(-np.eye(4))).max() <= 1e-12


def test_project_psd_is_nearest():
    # oracle: random search never finds a PSD matrix meaningfully closer
    rng = np.random.default_rng(4)
    M = _random_sym(5, 5)
    P = _clip_psd(M)
    base = np.linalg.norm(P - M)
    for _ in range(1000):
        B = rng.standard_normal((5, 5)) * rng.uniform(0.1, 2.0)
        Q = B @ B.T
        assert np.linalg.norm(Q - M) >= base - 1e-9


# --- helpers ----------------------------------------------------------------

def test_symmetrize_tolerance():
    M = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
    out = symmetrize(M)
    assert np.array_equal(out, out.T)
    with pytest.raises(DomainError):
        symmetrize(np.array([[0.0, 1.0], [2.0, 0.0]]))
