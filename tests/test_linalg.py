import numpy as np
import pytest

from vecchrom import graphs, params
from vecchrom.colorings import extract_coloring
from vecchrom.errors import ConvergenceError, DomainError, FeasibilityError
from vecchrom.linalg import eig_sym
from vecchrom.sdp import _clip_psd


def _random_sym(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


# --- eigensolver ------------------------------------------------------------

def test_eig_identity():
    vals, vecs = eig_sym(np.eye(3))
    assert np.allclose(vals, [1, 1, 1])
    assert np.abs(vecs.T @ vecs - np.eye(3)).max() <= 1e-12


def test_eig_empty():
    vals, vecs = eig_sym(np.zeros((0, 0)))
    assert vals.shape == (0,) and vecs.shape == (0, 0)


def test_eig_c5_circulant_oracle():
    # eigenvalues of the 5-cycle are 2 cos(2 pi j / 5)
    expected = sorted(2 * np.cos(2 * np.pi * j / 5) for j in range(5))
    vals, _ = eig_sym(graphs.generate("cycle", 5).adjacency())
    assert np.allclose(vals, expected, atol=1e-8)


def test_eig_petersen():
    A = graphs.generate("petersen").adjacency()
    vals, vecs = eig_sym(A)
    assert np.allclose(vals, [-2.0] * 4 + [1.0] * 5 + [3.0], atol=1e-8)
    # direct verification of the eigenpairs
    for idx in range(10):
        v = vecs[:, idx]
        assert np.abs(A @ v - vals[idx] * v).max() <= 1e-8


@pytest.mark.parametrize("seed,n", [(0, 4), (1, 8), (2, 13), (3, 20)])
def test_spectrum_invariants(seed, n):
    M = _random_sym(seed, n)
    w, V = eig_sym(M)
    scale = 1.0 + np.abs(M).max()
    assert (np.diff(w) >= 0).all()
    assert np.abs(M @ V - V * w).max() <= 1e-8 * scale
    assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-8
    # a random matrix has simple eigenvalues: the projector onto the first
    # eigenvector's line is idempotent and fixed by M
    P = np.outer(V[:, 0], V[:, 0])
    assert np.abs(P @ P - P).max() <= 1e-8
    assert np.abs(M @ P - w[0] * P).max() <= 1e-8 * scale


def test_eig_matches_lapack():
    for seed in range(5):
        M = _random_sym(seed + 10, 12)
        vals, vecs = eig_sym(M)
        ref_vals, ref_vecs = np.linalg.eigh(M)
        # (M + M^T)/2 is M itself, so the pair is LAPACK's, bit for bit
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
        assert np.abs(vals - np.linalg.eigvalsh(M)).max() <= 1e-10 * (1 + np.abs(vals).max())


def test_eig_symmetrizes_within_tolerance():
    M = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
    vals, vecs = eig_sym(M)
    ref_vals, ref_vecs = np.linalg.eigh((M + M.T) / 2.0)
    assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
    with pytest.raises(DomainError, match="asymmetry"):
        eig_sym(np.array([[0.0, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("M", [np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))])
def test_eig_rejects_non_square(M):
    with pytest.raises(DomainError, match="square"):
        eig_sym(M)


def test_eig_rejects_nonfinite_and_asymmetric():
    with pytest.raises(DomainError):
        eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite"):
            eig_sym(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_eig_lapack_failure_is_a_convergence_error(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(ConvergenceError) as err:
        eig_sym(np.eye(3))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


# --- the least eigenspace of params._hoffman_pair -----------------------------
# The scaled projector M = -(n k / (rank tau)) E_tau: its rank is the
# multiplicity of tau, with eigenvalues within EIGENSPACE_TOL (1 + spread)
# of their neighbour grouped.

@pytest.mark.parametrize("G, rank", [(graphs.generate("cycle", 5), 2),
                                     (graphs.generate("petersen"), 4)], ids=["C5", "petersen"])
def test_hoffman_pair_least_eigenspace(G, rank):
    A, k = G.adjacency(), int(G.degrees()[0])
    tau, P, M = params._hoffman_pair(G, k)
    assert tau == eig_sym(A)[0][0]
    assert np.linalg.matrix_rank(M) == rank
    E = M * (rank * tau) / -(G.n * k)  # the orthogonal projector E_tau
    assert np.abs(E @ E - E).max() <= 1e-12 and abs(np.trace(E) - rank) <= 1e-12
    assert np.abs(A @ E - tau * E).max() <= 1e-12
    assert np.array_equal(P, (np.eye(G.n) - A / tau) / G.n)


def test_hoffman_pair_projector_sums_in_descending_order():
    # the block's columns run from the last eigenvector of the least
    # eigenspace to the first, the order every stored certificate has
    G = graphs.generate("petersen")
    _, vecs = eig_sym(G.adjacency())
    tau, _, M = params._hoffman_pair(G, 3)
    V = vecs[:, 3::-1]
    assert np.array_equal(M, -(10 * 3) / (4 * tau) * ((V @ V.T + (V @ V.T).T) / 2.0))


@pytest.mark.parametrize("factor, rank", [(0.5, 2), (2.0, 1)])
def test_hoffman_pair_grouping_at_the_tolerance(monkeypatch, factor, rank):
    # spectrum -2, -2 + delta, 3 (spread 5): delta below EIGENSPACE_TOL
    # (1e-6) times 6 shares the least eigenspace, above it does not
    delta = factor * 6e-6
    vals = np.array([-2.0, -2.0 + delta, 3.0])
    monkeypatch.setattr(params, "eig_sym", lambda A: (vals, np.eye(3)))
    tau, _, M = params._hoffman_pair(graphs.generate("complete", 3), 2)
    E = np.diag([1.0] * rank + [0.0] * (3 - rank))
    assert tau == -2.0
    assert np.array_equal(M, -(3 * 2) / (rank * tau) * E)


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
