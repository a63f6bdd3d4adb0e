"""Product and union identities for the coloring parameters, checked from
factor certificates.

No check solves an SDP on a product or union graph.  Each factor's value
comes from its :class:`~vecchrom.params.GraphFacts` record, cached by
:meth:`Graph.key`: one pin or dual solve with two certificates, the
dual-form matrix ``P``, whose entry sum bounds the value from below, and
the primal witness ``M``, PSD with constant diagonal ``t - 1`` and edge
entries -1 (at most -1 for chi-vec), which bounds it by ``t`` from
above.  Write ``Z = M + J``.  An edgeless factor has ``P = e_0 e_0^T``
and ``M = 0`` (value 1).  As in the paper's proofs, the checks build
certificates for the product from those of the factors:

* Cartesian, theta-bar and chi-vec.  Lower: the larger factor's ``P`` on
  one fiber, ``P_G (x) e_0 e_0^T``.  Upper: both witnesses lifted to the
  larger value ``t``, ``A = (t / t_G) Z_G - J`` (diagonal ``t - 1``, edge
  entries unchanged), then tensored, ``(A (x) B) / (t - 1)``.
* Categorical, theta-bar.  Lower: Lovasz's eigenvalue form
  ``W_G (x) W_H``, where a factor's ``W`` is its ``P`` scaled to unit
  diagonal with the diagonal zeroed; the tensor attains the factor
  minimum.  Upper: the smaller factor's witness pulled back along the
  projection, ``M_G (x) J``.
* Strong and disjunctive, theta-bar.  Lower: ``P_G (x) P_H``.  Upper:
  ``Z_G (x) Z_H - J``.
* Edge union, theta-bar, one-sided.  Upper: the Schur product
  ``Z_G o Z_H - J``.  Lower, for the record: the larger factor's ``P``.

Every certificate is checked again on the product graph by
:mod:`vecchrom.certificates`, which gives the bound it certifies there.
A certificate that fails leaves the trivial bound (1 below, the order
above) and fails its check.  A check records the interval ``[lower,
upper]`` and the certificate kinds in ``detail``; its ``lhs`` is the
interval midpoint (the upper bound for the one-sided union check) and
its ``residual`` the larger distance of an endpoint from ``rhs``.

The chromatic number of a Cartesian product is checked the same way,
with no search on the product: each factor is a subgraph of it (lower
bound m, the larger factor value), and the modular coloring ``(a + b)
mod m`` of the factors' minimum colorings, one search each, checked edge
by edge as a homomorphism to ``K_m``, bounds it by m from above.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .certificates import dual_form_bound, eigenvalue_bound, witness_bound
from .colorings import ClassicalColoring, modular_coloring
from .errors import CapacityError, DimensionError, VecchromError, _check_tolerance
from .graphs import Graph, generate, is_homomorphism, product, union
from .params import CHROMATIC_CAP_DEFAULT, GraphFacts
from .sdp import SolverConfig

IDENTITY_TOL_DEFAULT = 1e-3
SDP_CAP_DEFAULT = 120
# vertices whose P diagonal is below this share of the largest leave the
# eigenvalue form: rounding leaves some at 1e-16 where the optimum has 0
EIGENVALUE_FORM_CUTOFF = 1e-8


@dataclass
class IdentityCheck:
    name: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    comparison: str = "eq"  # "eq" (two-sided) or "le" (one-sided)
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The record of the check; an empty ``detail`` is left out."""
        out = asdict(self)
        if not self.detail:
            del out["detail"]
        return out


def check_sdp_cap(order: int, cap: int, context: str = "graph"):
    """Refuse an SDP or certificate matrix on more than ``cap`` vertices;
    products call it with the product order before building the product."""
    if order > cap:
        raise CapacityError(f"{context} has {order} vertices, above the SDP cap {cap}")


def _check(name: str, low: float, up: float, rhs: float, tol: float,
           comparison: str = "eq", detail: dict | None = None,
           certified: bool = True) -> IdentityCheck:
    """Compare the interval [low, up] holding the left side against ``rhs``:
    both endpoints within ``tol`` ("eq"), or the upper one at most
    ``rhs + tol`` ("le").  An uncertified interval fails."""
    if comparison == "eq":
        lhs, res = (low + up) / 2.0, max(abs(low - rhs), abs(up - rhs))
    else:
        lhs, res = up, max(up - rhs, 0.0)
    return IdentityCheck(name, float(lhs), float(rhs), float(res), tol,
                         bool(res <= tol and certified), comparison, detail or {})


# ---------------------------------------------------------------------------
# factor certificates and their product-side checks


def _facts(G: Graph, cfg: SolverConfig | None, cache: dict, chromatic_cap: int) -> GraphFacts:
    """G's record in ``cache`` (by :meth:`Graph.key`), made on first use
    and made again under other solver settings or another chromatic cap."""
    key = G.key()
    facts = cache.get(key)
    if facts is None or (facts.cfg, facts.cap) != (cfg or SolverConfig(), chromatic_cap):
        facts = cache[key] = GraphFacts(G, cfg, chromatic_cap)
    return facts


def _factor(facts: GraphFacts, which: str):
    """(value, P, Z) of one factor's record, with Z = M + J."""
    res = facts.param(which)
    return res.value, res.dual_certificate, res.primal_certificate + 1.0


def _corner(n: int) -> np.ndarray:
    """e_0 e_0^T of order n."""
    E = np.zeros((n, n))
    E[0, 0] = 1.0
    return E


def _lift(Z: np.ndarray, t: float) -> np.ndarray:
    """The witness Z - J lifted to diagonal t - 1, edge entries unchanged."""
    return t / Z.diagonal().max() * Z - 1.0


def _cartesian_witness(Zg: np.ndarray, Zh: np.ndarray) -> np.ndarray:
    """Primal witness on the Cartesian product of two factor witnesses
    Z = M + J: both lifted to the larger value t and tensored, scaled back
    to diagonal t - 1."""
    t = max(Zg.diagonal().max(), Zh.diagonal().max())
    lifted = np.kron(_lift(Zg, t), _lift(Zh, t))
    if t > 1.0:
        lifted /= t - 1.0
    return lifted


def _eigenvalue_form(P: np.ndarray) -> np.ndarray:
    """P scaled to unit diagonal on its significant vertices, diagonal zeroed."""
    d = P.diagonal()
    keep = d > EIGENVALUE_FORM_CUTOFF * d.max()
    s = np.zeros_like(d)
    s[keep] = d[keep] ** -0.5
    W = s[:, None] * P * s
    np.fill_diagonal(W, 0.0)
    return W


def _interval_check(name: str, F: Graph, rhs: float, tol: float, factors: list,
                    lower: tuple, upper: tuple, comparison: str = "eq") -> IdentityCheck:
    """Check ``rhs`` against the interval certified on F.

    ``lower`` and ``upper`` are (certificate kind, bound or None).
    """
    (low_kind, low), (up_kind, up) = lower, upper
    rejected = [side for side, bound in (("lower", low), ("upper", up)) if bound is None]
    low = 1.0 if low is None else low
    up = float(F.n) if up is None else up
    detail = {"factors": factors, "interval": [low, up],
              "certificates": {"lower": low_kind, "upper": up_kind}}
    if rejected:
        detail["rejected"] = rejected
    return _check(name, low, up, rhs, tol, comparison, detail, certified=not rejected)


# ---------------------------------------------------------------------------
# the suites: each body takes the pair, ``facts`` (a graph's record in the
# run's cache), the tolerance and the SDP cap, and refuses what it cannot
# check before it builds any product or record


def _sabidussi(G: Graph, H: Graph, facts, tol: float, sdp_cap: int) -> list[IdentityCheck]:
    """Cartesian product equals the factor maximum, for theta-bar,
    chi-vec, and the chromatic number."""
    check_sdp_cap(G.n * H.n, sdp_cap, "Cartesian product")
    F = product("cartesian", G, H)
    fg, fh = facts(G), facts(H)
    checks = []
    for which in ("theta_bar", "chi_vec"):
        nonneg = which == "chi_vec"
        rg, Pg, Zg = _factor(fg, which)
        rh, Ph, Zh = _factor(fh, which)
        if Pg.sum() >= Ph.sum():
            fiber = np.kron(Pg, _corner(H.n))
        else:
            fiber = np.kron(_corner(G.n), Ph)
        checks.append(_interval_check(
            f"{which}(G[]H) = max", F, max(rg, rh), tol, [rg, rh],
            ("fiber", dual_form_bound(F, fiber, nonneg)),
            ("lifted tensor", witness_bound(F, _cartesian_witness(Zg, Zh), nonneg)),
        ))
    # a chi-coloring of each factor is also an m-coloring
    colors_g, colors_h = fg.chromatic_coloring(), fh.chromatic_coloring()
    cg, ch = int(colors_g.max()) + 1, int(colors_h.max()) + 1
    m = max(cg, ch)
    modular = modular_coloring(ClassicalColoring(colors_g, m), ClassicalColoring(colors_h, m))
    proper, _ = is_homomorphism(F, generate("complete", m), modular.colors)
    checks.append(_interval_check(
        "chi(G[]H) = max", F, m, 0.0, [cg, ch],
        ("factor subgraph", m), ("modular coloring", m if proper else None),
    ))
    return checks


def _hedetniemi(G: Graph, H: Graph, facts, tol: float, sdp_cap: int) -> list[IdentityCheck]:
    """Categorical product equals the factor minimum for theta-bar."""
    check_sdp_cap(G.n * H.n, sdp_cap, "categorical product")
    F = product("categorical", G, H)
    rg, Pg, Zg = _factor(facts(G), "theta_bar")
    rh, Ph, Zh = _factor(facts(H), "theta_bar")
    eigenvalue_form = np.kron(_eigenvalue_form(Pg), _eigenvalue_form(Ph))
    if Zg.diagonal().max() <= Zh.diagonal().max():
        pullback = np.kron(Zg, np.ones((H.n, H.n))) - 1.0
    else:
        pullback = np.kron(np.ones((G.n, G.n)), Zh) - 1.0
    return [_interval_check(
        "theta_bar(GxH) = min", F, min(rg, rh), tol, [rg, rh],
        ("eigenvalue tensor", eigenvalue_bound(F, eigenvalue_form)),
        ("pull-back", witness_bound(F, pullback, False)),
    )]


def _products(G: Graph, H: Graph, facts, tol: float, sdp_cap: int) -> list[IdentityCheck]:
    """Strong and disjunctive products are multiplicative for theta-bar."""
    # both products have order G.n * H.n
    check_sdp_cap(G.n * H.n, sdp_cap, "strong product")
    rg, Pg, Zg = _factor(facts(G), "theta_bar")
    rh, Ph, Zh = _factor(facts(H), "theta_bar")
    # one pair of certificates serves both products: P_G (x) P_H lives on
    # the strong product's edges, which the disjunctive product contains,
    # and Z_G (x) Z_H vanishes on the disjunctive product's edges
    dual = np.kron(Pg, Ph)
    witness = np.kron(Zg, Zh) - 1.0
    checks = []
    for kind, sym in (("strong", "<>"), ("disjunctive", "*")):
        F = product(kind, G, H)
        checks.append(_interval_check(
            f"theta_bar(G{sym}H) = product", F, rg * rh, tol, [rg, rh],
            ("dual tensor", dual_form_bound(F, dual, False)),
            ("primal tensor", witness_bound(F, witness, False)),
        ))
    return checks


def _union(G: Graph, H: Graph, facts, tol: float, sdp_cap: int) -> list[IdentityCheck]:
    """Edge union is submultiplicative for theta-bar (same vertex set)."""
    if G.n != H.n:
        raise DimensionError("union suite needs graphs on the same vertex count")
    check_sdp_cap(G.n, sdp_cap, "union")
    U = union(G, H)
    rg, Pg, Zg = _factor(facts(G), "theta_bar")
    rh, Ph, Zh = _factor(facts(H), "theta_bar")
    return [_interval_check(
        "theta_bar(GuH) <= product", U, rg * rh, tol, [rg, rh],
        ("factor", dual_form_bound(U, Pg if Pg.sum() >= Ph.sum() else Ph, False)),
        ("Schur product", witness_bound(U, Zg * Zh - 1.0, False)),
        comparison="le",
    )]


def _chain(G: Graph, H: Graph, facts, tol: float, sdp_cap: int) -> list[IdentityCheck]:
    """The sandwich chain of each graph, at a tolerance of at most 1e-4."""
    check_sdp_cap(G.n, sdp_cap)
    check_sdp_cap(H.n, sdp_cap)
    tol = min(tol, 1e-4)
    return chain_checks(G, facts(G), tol) + chain_checks(H, facts(H), tol)


def chain_checks(G: Graph, facts: GraphFacts, tol: float = 1e-4) -> list[IdentityCheck]:
    """Sandwich chain for one graph from its record (which a graph of
    another label may have made): average-degree bound (with an edge),
    chi_vec, theta_bar, and (within the record's cap) the chromatic number."""
    cv, tb = facts.param("chi_vec").value, facts.param("theta_bar").value
    label = G.label or f"n{G.n}"
    checks = [_check(f"chi_vec <= theta_bar [{label}]", cv, cv, tb, tol, "le")]
    if (lb := facts.spectral_bound) is not None:
        checks.insert(0, _check(f"spectral bound <= chi_vec [{label}]", lb, lb, cv, tol, "le"))
    if G.n <= facts.cap:
        chi = facts.chromatic_number()
        checks.append(_check(f"theta_bar <= chi [{label}]", tb, tb, float(chi), 2 * tol, "le"))
    return checks


_SUITES = {"sabidussi": _sabidussi, "hedetniemi": _hedetniemi, "products": _products,
           "union": _union, "chain": _chain}
SUITES = tuple(_SUITES)


def run_suite(suite: str, G: Graph, H: Graph, cfg: SolverConfig | None = None,
              tol: float = IDENTITY_TOL_DEFAULT, cache: dict | None = None,
              sdp_cap: int = SDP_CAP_DEFAULT,
              chromatic_cap: int = CHROMATIC_CAP_DEFAULT) -> list[IdentityCheck]:
    """The checks of one suite on the pair (G, H).  Each graph's record
    comes from ``cache`` (a dict from :meth:`Graph.key` to its
    :class:`~vecchrom.params.GraphFacts`), or from one cache made for this
    call, so that a graph is searched and solved once per call."""
    _check_tolerance("tol", tol)
    if suite not in _SUITES:
        raise VecchromError(f"unknown suite {suite!r}; choose from {SUITES}")
    cache = {} if cache is None else cache
    return _SUITES[suite](G, H, lambda X: _facts(X, cfg, cache, chromatic_cap), tol, sdp_cap)
