import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vecchrom import graphs
from vecchrom.colorings import (
    ClassicalColoring,
    VectorColoring,
    extract_coloring,
    modular_coloring,
    verify_coloring,
)
from vecchrom.errors import DimensionError, DomainError, FeasibilityError
from vecchrom.identities import _cartesian_witness, _lift
from vecchrom.params import GraphFacts, chi_vec, chromatic_number, theta_bar
from vecchrom.sdp import SolverConfig

SQRT5 = np.sqrt(5.0)
CFG = SolverConfig()


def simplex_coloring(n: int) -> VectorColoring:
    """The n vertices of the regular simplex in dimension n-1.

    All pairwise inner products equal -1/(n-1); this is a strict vector
    n-coloring of the complete graph.
    """
    if n < 2:
        raise DomainError("simplex coloring needs n >= 2")
    # rows of the Helmert matrix span the orthogonal complement of the
    # all-ones vector; centered standard basis vectors expressed there
    W = np.zeros((n - 1, n))
    for k in range(1, n):
        W[k - 1, :k] = 1.0
        W[k - 1, k] = -float(k)
        W[k - 1] /= np.sqrt(k * (k + 1.0))
    vectors = W.T * np.sqrt(n / (n - 1.0))
    norms = np.linalg.norm(vectors, axis=1)
    vectors = vectors / norms[:, None]
    return VectorColoring(vectors, float(n), strict=True)


def _simplex_gram(n):
    M = np.full((n, n), -1.0 / (n - 1))
    np.fill_diagonal(M, 1.0)
    return M


# --- simplex ------------------------------------------------------------------

def test_simplex_two_points():
    c = simplex_coloring(2)
    assert c.vectors.shape == (2, 1)
    assert np.allclose(sorted(c.vectors.ravel()), [-1.0, 1.0])
    assert abs(float(c.vectors[0] @ c.vectors[1]) + 1.0) <= 1e-12


def test_simplex_three_points_at_120_degrees():
    c = simplex_coloring(3)
    gram = c.vectors @ c.vectors.T
    off = gram[~np.eye(3, dtype=bool)]
    assert np.abs(off + 0.5).max() <= 1e-10


def test_simplex_six_points():
    c = simplex_coloring(6)
    assert c.vectors.shape == (6, 5)
    gram = c.vectors @ c.vectors.T
    off = gram[~np.eye(6, dtype=bool)]
    assert np.abs(off + 0.2).max() <= 1e-10


def test_simplex_colors_complete_graph():
    for n in (2, 4, 7):
        rep = verify_coloring(graphs.generate("complete", n), simplex_coloring(n), tol=1e-9)
        assert rep.ok
        assert rep.worst_residual <= 1e-10


def test_simplex_needs_two_points():
    with pytest.raises(DomainError):
        simplex_coloring(1)


# --- verification -------------------------------------------------------------

def test_two_coloring_attempt_on_c5_fails_with_witness():
    base = simplex_coloring(2)
    attempt = VectorColoring(base.vectors[[0, 1, 0, 1, 0]], 2.0, strict=True)
    rep = verify_coloring(graphs.generate("cycle", 5), attempt, tol=1e-6)
    assert not rep.ok
    assert rep.worst_edge is not None
    u, v = rep.worst_edge
    # the witness edge really does violate the inner-product condition
    inner = float(attempt.vectors[u] @ attempt.vectors[v])
    assert abs(inner - attempt.edge_target) > 1e-6


def test_rotation_invariance():
    rng = np.random.default_rng(5)
    c = simplex_coloring(4)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = VectorColoring(c.vectors @ Q.T, c.k, c.strict)
    rep = verify_coloring(graphs.generate("complete", 4), rotated, tol=1e-9)
    assert rep.ok
    assert rep.worst_residual <= 1e-9


def _edge_residuals(G, c):
    gram = c.vectors @ c.vectors.T
    for u, v in np.column_stack(G.edge_index).tolist():
        inner = float(gram[u, v])
        yield (u, v), abs(inner - c.edge_target) if c.strict else max(inner - c.edge_target, 0.0)


def _scan_worst_edge(G, c):
    # the per-edge loop that the gather over the upper triangle replaced
    worst_edge, worst_res = None, 0.0
    for edge, res in _edge_residuals(G, c):
        if res > worst_res:
            worst_edge, worst_res = edge, res
    return worst_edge, worst_res


def test_worst_edge_matches_edge_scan_with_ties():
    # four unit vectors have two inner products, so most edges tie
    palette = simplex_coloring(4).vectors
    rng = np.random.default_rng(11)
    seen_none = seen_tie = 0
    for trial in range(200):
        G = graphs.erdos_renyi(int(rng.integers(0, 9)), 0.5, rng=trial)
        c = VectorColoring(palette[rng.integers(0, 4, G.n)], float(rng.choice([2, 3, 4])),
                           strict=bool(trial % 2))
        rep = verify_coloring(G, c)
        assert (rep.worst_edge, rep.worst_residual) == _scan_worst_edge(G, c)
        seen_none += rep.worst_edge is None
        ties = sum(res == rep.worst_residual for _, res in _edge_residuals(G, c))
        seen_tie += rep.worst_edge is not None and ties > 1
    assert seen_none and seen_tie
    # every edge ties: the first one is the worst
    same = VectorColoring(np.ones((5, 1)), 2.0, strict=True)
    assert verify_coloring(graphs.generate("cycle", 5), same).worst_edge == (0, 1)
    # every residual 0: no worst edge
    path = VectorColoring(np.array([[1.0], [-1.0]] * 2), 2.0, strict=True)
    rep = verify_coloring(graphs.generate("path", 4), path)
    assert rep.ok and rep.worst_edge is None and rep.worst_residual == 0.0


def test_unit_norm_enforced():
    with pytest.raises(DomainError):
        VectorColoring(np.array([[2.0, 0.0]]), 2.0, True)
    with pytest.raises(DomainError):
        VectorColoring(np.array([[1.0, 0.0]]), 1.0, True)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_vectors_rejected(value):
    # all-NaN rows once passed, since the norm check compared NaN
    with pytest.raises(DomainError, match="finite"):
        VectorColoring(np.full((3, 2), value), 3.0, True)
    vectors = simplex_coloring(3).vectors.copy()
    vectors[1, 0] = value
    with pytest.raises(DomainError, match="finite"):
        VectorColoring(vectors, 3.0, True)


@pytest.mark.parametrize("build, error, match", [
    (lambda: VectorColoring(np.ones(3), 2.0, True), DomainError, "2-d"),
    # a norm off by 1e-6 is refused: the bound is 1e-8, not a looser one
    (lambda: VectorColoring(np.array([[1.0 + 1e-6, 0.0]] * 2), 2.0, True),
     DomainError, "unit norm"),
    (lambda: ClassicalColoring(np.zeros(2, dtype=int), 0), DomainError, "positive"),
    (lambda: ClassicalColoring(np.array([0, 2]), 2), DomainError, "outside"),
    (lambda: ClassicalColoring(np.array([-1, 0]), 2), DomainError, "outside"),
    (lambda: verify_coloring(graphs.generate("cycle", 5), simplex_coloring(3)),
     DimensionError, "covers 3 vertices"),
])
def test_malformed_colorings_are_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_vector_coloring_refuses_a_non_finite_k():
    # k = inf would make the edge target -0.0, which any obtuse vectors meet
    vectors = simplex_coloring(3).vectors
    for k in (float("1e400"), np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            VectorColoring(vectors, k, True)


# --- extraction -----------------------------------------------------------------

def test_extract_roundtrip_from_simplex_gram():
    n = 5
    M = (n - 1.0) * _simplex_gram(n)
    c = extract_coloring(M, float(n), tol=1e-9, strict=True)
    gram = c.vectors @ c.vectors.T
    expected = _simplex_gram(n)
    assert np.abs(gram - expected).max() <= 1e-6
    assert verify_coloring(graphs.generate("complete", n), c, tol=1e-6).ok


def test_extract_from_solved_theta_primal_c5():
    G = graphs.generate("cycle", 5)
    res = theta_bar(G, CFG, want_primal=True)
    c = extract_coloring(res.primal_certificate, res.value, tol=1e-5, strict=True)
    rep = verify_coloring(G, c, tol=1e-4)
    assert rep.ok
    assert abs(c.k - SQRT5) <= 1e-4


def test_extract_from_solved_chivec_primal_petersen():
    G = graphs.generate("petersen")
    res = chi_vec(G, CFG, want_primal=True)
    c = extract_coloring(res.primal_certificate, res.value, tol=1e-5, strict=False)
    rep = verify_coloring(G, c, tol=1e-4)
    assert rep.ok
    assert abs(c.k - 2.5) <= 1e-3


def test_extract_rejects_bad_inputs():
    with pytest.raises(DomainError):
        extract_coloring(np.eye(3), 1.0, tol=1e-6)
    # a value that is not finite leaves no scale for the vectors
    for lam in (np.inf, np.nan):
        with pytest.raises(DomainError, match="degenerate target value"):
            extract_coloring(0.5 * np.eye(3), lam)
    with pytest.raises(FeasibilityError, match="no significant eigenvalues"):
        extract_coloring(4 * np.eye(3), 5.0, tol=1.0)
    wrong_diag = np.diag([1.0, 2.0, 1.0])
    with pytest.raises(FeasibilityError) as err:
        extract_coloring(wrong_diag, 2.0, tol=1e-6)
    assert "diagonal" in str(err.value)
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FeasibilityError) as err:
        extract_coloring(indefinite, 2.0, tol=1e-6)
    assert "PSD" in str(err.value)
    # refused before np.diag reads a vector as a diagonal or a 3-d array
    # escapes as numpy's ValueError
    for bad in ([1.0, 1.0], np.ones((2, 2, 2)), np.ones((2, 3))):
        with pytest.raises(DomainError, match="expected a square matrix, got shape"):
            extract_coloring(bad, 2.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_verify_coloring_refuses_a_tolerance_it_cannot_check(tol):
    # every edge residual of five equal vectors on C5 is 1.5, which tol = inf passes
    same = VectorColoring(np.tile([1.0, 0.0], (5, 1)), 3.0, strict=True)
    with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
        verify_coloring(graphs.generate("cycle", 5), same, tol=tol)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_extract_coloring_refuses_a_tolerance_it_cannot_check(tol):
    # a NaN tolerance skips the diagonal and PSD checks of this wrong diagonal
    with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
        extract_coloring(np.diag([1.0, 2.0, 1.0]), 2.0, tol=tol)


def test_extract_refuses_an_empty_matrix():
    # refused before the diagonal check reduces over no entries
    for empty in (np.zeros((0, 0)), []):
        with pytest.raises(DomainError, match="empty"):
            extract_coloring(empty, 2.0)


# --- lifting and tensoring ------------------------------------------------------
# identities builds the Sabidussi upper certificate as a Gram matrix: both
# factor witnesses Z = M + J lifted to the larger value t, then tensored.
# The colorings extracted from it are checked edge by edge.

def _z(c):
    """Z = M + J for the primal witness M = (k - 1) V V^T of a coloring."""
    return (c.k - 1.0) * (c.vectors @ c.vectors.T) + 1.0


def _colored(M, k, tol=1e-6):
    return extract_coloring(M, k, tol=tol, strict=True)


def test_lift_same_target_appends_zero():
    # lifting to the value a witness already has leaves it unchanged (the
    # coordinate a vector lift would append is zero)
    c = simplex_coloring(3)
    M = _lift(_z(c), 3.0)
    assert np.abs(M - (_z(c) - 1.0)).max() <= 1e-12
    assert verify_coloring(graphs.generate("complete", 3), _colored(M, 3.0, 1e-9), tol=1e-9).ok


def test_lift_k2_to_three():
    # K2's witness [[1, -1], [-1, 1]] lifted to 3 keeps the edge entry -1 at
    # diagonal 2, so the edge inner product becomes -1/2
    M = _lift(_z(simplex_coloring(2)), 3.0)
    assert np.abs(M - np.array([[2.0, -1.0], [-1.0, 2.0]])).max() <= 1e-12
    lifted = _colored(M, 3.0, 1e-9)
    assert abs(float(lifted.vectors[0] @ lifted.vectors[1]) + 0.5) <= 1e-12


def test_lift_c5_to_three_passes_strict():
    # a 1e-6 grade coloring needs the solve pushed past the default gap
    tight = SolverConfig(tol=1e-9, gap_tol=1e-7)
    G = graphs.generate("cycle", 5)
    res = theta_bar(G, tight, want_primal=True)
    lifted = _colored(_lift(res.primal_certificate + 1.0, 3.0), 3.0)
    rep = verify_coloring(G, lifted, tol=1e-6)
    assert rep.ok, rep


@given(st.integers(2, 6), st.floats(0.0, 4.0))
def test_lift_preserves_unit_norms(n, bump):
    # the lifted witness has diagonal t - 1 and edge entries -1, so its
    # Gram vectors scaled by sqrt(t - 1) are unit
    t = n + bump
    M = _lift(_z(simplex_coloring(n)), t)
    assert np.abs(np.diag(M) - (t - 1.0)).max() <= 1e-10 * t
    assert np.abs(M[~np.eye(n, dtype=bool)] + 1.0).max() <= 1e-10 * t
    norms = np.linalg.norm(_colored(M, t, 1e-9).vectors, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-10


def test_tensor_k2_k2_gives_square_coloring():
    c = simplex_coloring(2)
    combined = _colored(_cartesian_witness(_z(c), _z(c)), 2.0, 1e-9)
    P = graphs.product("cartesian", graphs.generate("complete", 2), graphs.generate("complete", 2))
    rep = verify_coloring(P, combined, tol=1e-9)
    assert rep.ok
    gram = combined.vectors @ combined.vectors.T
    for u, v in zip(*P.edge_index):
        assert abs(gram[u, v] + 1.0) <= 1e-12


def test_tensor_c5_with_k3():
    tight = SolverConfig(tol=1e-9, gap_tol=1e-7)
    G = graphs.generate("cycle", 5)
    H = graphs.generate("complete", 3)
    res = theta_bar(G, tight, want_primal=True)
    M = _cartesian_witness(res.primal_certificate + 1.0, _z(simplex_coloring(3)))
    combined = _colored(M, 3.0)
    P = graphs.product("cartesian", G, H)
    rep = verify_coloring(P, combined, tol=1e-6)
    assert rep.ok, rep


def test_tensor_edge_inner_products_factor():
    # on an edge that fixes the H coordinate, the product inner product
    # equals the G edge inner product
    cg = simplex_coloring(3)
    ch = simplex_coloring(3)
    combined = _colored(_cartesian_witness(_z(cg), _z(ch)), 3.0, 1e-9)
    gram_g = cg.vectors @ cg.vectors.T
    gram = combined.vectors @ combined.vectors.T
    nH = 3
    for u1 in range(3):
        for u2 in range(3):
            if u1 == u2:
                continue
            for v in range(nH):
                a, b = u1 * nH + v, u2 * nH + v
                assert abs(gram[a, b] - gram_g[u1, u2]) <= 1e-12


def test_tensor_constructive_sabidussi_bound(theta):
    # the coloring extracted from the witness certifies theta(G cart H) <= max
    for seed in range(10):
        G = graphs.erdos_renyi(5, 0.5, rng=seed, label=f"a{seed}")
        H = graphs.erdos_renyi(5, 0.5, rng=seed + 10, label=f"b{seed}")
        if G.edge_count == 0 or H.edge_count == 0:
            continue
        rg = theta_bar(G, CFG, want_primal=True)
        rh = theta_bar(H, CFG, want_primal=True)
        k = max(rg.value, rh.value)
        M = _cartesian_witness(rg.primal_certificate + 1.0, rh.primal_certificate + 1.0)
        combined = _colored(M, k, tol=1e-5)
        P = graphs.product("cartesian", G, H)
        rep = verify_coloring(P, combined, tol=1e-5)
        assert rep.ok, rep
        assert theta(P).value <= k + 1e-3


def test_tensor_lifts_the_smaller_factor():
    # K2 and K3 have different values; the witness lifts K2 to 3 itself
    K2, K3 = graphs.generate("complete", 2), graphs.generate("complete", 3)
    M = _cartesian_witness(_z(simplex_coloring(2)), _z(simplex_coloring(3)))
    assert np.abs(np.diag(M) - 2.0).max() <= 1e-12
    rep = verify_coloring(graphs.product("cartesian", K2, K3), _colored(M, 3.0, 1e-9), tol=1e-9)
    assert rep.ok, rep


# --- modular coloring -------------------------------------------------------------

def test_modular_k2_pair():
    two = ClassicalColoring(np.array([0, 1]), 2)
    combined = modular_coloring(two, two)
    P = graphs.product("cartesian", graphs.generate("complete", 2), graphs.generate("complete", 2))
    ok, _ = graphs.is_homomorphism(P, graphs.generate("complete", 2), combined.colors)
    assert ok and combined.m == 2


def test_modular_c5_k3():
    G = graphs.generate("cycle", 5)
    H = graphs.generate("complete", 3)
    gc = ClassicalColoring(GraphFacts(G).chromatic_coloring(), 3)
    hc = ClassicalColoring(GraphFacts(H).chromatic_coloring(), 3)
    combined = modular_coloring(gc, hc)
    P = graphs.product("cartesian", G, H)
    ok, witness = graphs.is_homomorphism(P, graphs.generate("complete", 3), combined.colors)
    assert ok, witness


def test_modular_reproduces_cartesian_chromatic():
    for seed in range(6):
        G = graphs.erdos_renyi(6, 0.5, rng=seed + 60)
        H = graphs.erdos_renyi(7, 0.5, rng=seed + 70)
        # a minimum coloring of the factor with fewer colors is also an m-coloring
        g_colors, h_colors = GraphFacts(G).chromatic_coloring(), GraphFacts(H).chromatic_coloring()
        m = int(max(g_colors.max(), h_colors.max())) + 1
        gc = ClassicalColoring(g_colors, m)
        hc = ClassicalColoring(h_colors, m)
        combined = modular_coloring(gc, hc)
        P = graphs.product("cartesian", G, H)
        ok, _ = graphs.is_homomorphism(P, graphs.generate("complete", m), combined.colors)
        assert ok
        # each factor embeds in the product, so m colors is also necessary
        assert m == max(chromatic_number(G), chromatic_number(H))


@pytest.mark.parametrize("colors", [[0.5, 1.7], [0, np.nan], [np.inf, 0], [0, None]])
def test_classical_coloring_refuses_non_integral_colors(colors):
    # never truncated: [0.5, 1.7] is not the coloring [0, 1]
    with pytest.raises(DomainError, match="integers"):
        ClassicalColoring(colors, 2)


def test_classical_coloring_takes_integer_valued_floats():
    c = ClassicalColoring([1.0, 0.0, 1.0], 2)
    assert c.colors.tolist() == [1, 0, 1] and c.colors.dtype.kind == "i"


def test_modular_mismatch():
    with pytest.raises(DomainError):
        modular_coloring(
            ClassicalColoring(np.array([0, 1]), 2), ClassicalColoring(np.array([0]), 3)
        )
