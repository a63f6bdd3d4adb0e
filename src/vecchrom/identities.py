"""Product and union identities for the coloring parameters.

Each check compares a computed left side against a computed right side
at an absolute tolerance and reports both, so a suite run is an
auditable list of (lhs, rhs, residual) records rather than a bare flag.

Chromatic numbers of Cartesian products larger than the backtracking
cap are still determined exactly: the product contains each factor as a
subgraph (lower bound max of the factor values), and the modular
coloring of the factors, verified edge by edge, matches that bound from
above.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .colorings import ClassicalColoring, is_proper_coloring, modular_coloring
from .errors import CapacityError, DimensionError, VecchromError
from .graphs import Graph, product, union
from .params import (
    CHROMATIC_CAP_DEFAULT,
    ParamResult,
    chi_vec,
    chromatic_number,
    proper_coloring,
    spectral_lower_bound,
    theta_bar,
)
from .sdp import SolverConfig

SUITES = ("sabidussi", "hedetniemi", "products", "union", "chain")
IDENTITY_TOL_DEFAULT = 1e-3
SDP_CAP_DEFAULT = 120


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
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "comparison": self.comparison,
            **({"detail": self.detail} if self.detail else {}),
        }


def cached_param(G: Graph, which: str, cfg: SolverConfig | None = None,
                 cache: dict | None = None) -> ParamResult:
    """Memoized parameter lookup keyed by the graph's canonical identity."""
    key = (G.key(), which)
    if cache is not None and key in cache:
        return cache[key]
    if which == "theta_bar":
        result = theta_bar(G, cfg)
    elif which == "chi_vec":
        result = chi_vec(G, cfg)
    else:
        raise VecchromError(f"unknown parameter {which!r}")
    if cache is not None:
        cache[key] = result
    return result


def check_sdp_cap(order: int, cap: int, context: str = "graph"):
    """Refuse an SDP solve on more than ``cap`` vertices; products call it
    with the product order before building the product."""
    if order > cap:
        raise CapacityError(f"{context} has {order} vertices, above the SDP cap {cap}")


def _eq_check(name, lhs, rhs, tol, detail=None) -> IdentityCheck:
    res = abs(lhs - rhs)
    return IdentityCheck(name, float(lhs), float(rhs), float(res), tol,
                         res <= tol, "eq", detail or {})


def _le_check(name, lhs, rhs, tol, detail=None) -> IdentityCheck:
    res = max(lhs - rhs, 0.0)
    return IdentityCheck(name, float(lhs), float(rhs), float(res), tol,
                         res <= tol, "le", detail or {})


def chi_cartesian_exact(G: Graph, H: Graph, *, cap: int = CHROMATIC_CAP_DEFAULT):
    """Exact chromatic number of the Cartesian product, with method tag.

    Below the cap this is direct backtracking.  Above it, the value is
    pinned between the factor maximum (each factor embeds in the
    product) and a verified modular coloring with that many colors.
    """
    P = product("cartesian", G, H)
    if P.n <= cap:
        return chromatic_number(P, cap=cap), "backtracking"
    cg = chromatic_number(G, cap=cap)
    ch = chromatic_number(H, cap=cap)
    m = max(cg, ch)
    gcol = proper_coloring(G, m, cap=cap)
    hcol = proper_coloring(H, m, cap=cap)
    combined = modular_coloring(ClassicalColoring(gcol, m), ClassicalColoring(hcol, m))
    ok, bad = is_proper_coloring(P, combined.colors)
    if not ok:
        raise VecchromError(f"modular coloring failed on product edge {bad}")
    return m, "factor-bound"


def sabidussi_checks(G: Graph, H: Graph, cfg: SolverConfig | None = None,
                     tol: float = IDENTITY_TOL_DEFAULT, cache: dict | None = None,
                     sdp_cap: int = SDP_CAP_DEFAULT,
                     chromatic_cap: int = CHROMATIC_CAP_DEFAULT) -> list[IdentityCheck]:
    """Cartesian product equals the factor maximum, for theta-bar,
    chi-vec, and the chromatic number."""
    check_sdp_cap(G.n * H.n, sdp_cap, "Cartesian product")
    P = product("cartesian", G, H)
    checks = []
    for which, label in (("theta_bar", "theta_bar"), ("chi_vec", "chi_vec")):
        lhs = cached_param(P, which, cfg, cache).value
        rg = cached_param(G, which, cfg, cache).value
        rh = cached_param(H, which, cfg, cache).value
        checks.append(_eq_check(f"{label}(G[]H) = max", lhs, max(rg, rh), tol,
                                {"factors": [rg, rh]}))
    chi_p, method = chi_cartesian_exact(G, H, cap=chromatic_cap)
    chi_g = chromatic_number(G, cap=chromatic_cap)
    chi_h = chromatic_number(H, cap=chromatic_cap)
    checks.append(_eq_check("chi(G[]H) = max", chi_p, max(chi_g, chi_h), 0.0,
                            {"factors": [chi_g, chi_h], "method": method}))
    return checks


def hedetniemi_checks(G: Graph, H: Graph, cfg: SolverConfig | None = None,
                      tol: float = IDENTITY_TOL_DEFAULT, cache: dict | None = None,
                      sdp_cap: int = SDP_CAP_DEFAULT) -> list[IdentityCheck]:
    """Categorical product equals the factor minimum for theta-bar."""
    check_sdp_cap(G.n * H.n, sdp_cap, "categorical product")
    P = product("categorical", G, H)
    lhs = cached_param(P, "theta_bar", cfg, cache).value
    rg = cached_param(G, "theta_bar", cfg, cache).value
    rh = cached_param(H, "theta_bar", cfg, cache).value
    return [_eq_check("theta_bar(GxH) = min", lhs, min(rg, rh), tol,
                      {"factors": [rg, rh]})]


def product_checks(G: Graph, H: Graph, cfg: SolverConfig | None = None,
                   tol: float = IDENTITY_TOL_DEFAULT, cache: dict | None = None,
                   sdp_cap: int = SDP_CAP_DEFAULT) -> list[IdentityCheck]:
    """Strong and disjunctive products are multiplicative for theta-bar."""
    # both products have order G.n * H.n
    check_sdp_cap(G.n * H.n, sdp_cap, "strong product")
    rg = cached_param(G, "theta_bar", cfg, cache).value
    rh = cached_param(H, "theta_bar", cfg, cache).value
    checks = []
    for kind, sym in (("strong", "<>"), ("disjunctive", "*")):
        P = product(kind, G, H)
        lhs = cached_param(P, "theta_bar", cfg, cache).value
        checks.append(_eq_check(f"theta_bar(G{sym}H) = product", lhs, rg * rh, tol,
                                {"factors": [rg, rh]}))
    return checks


def union_checks(G: Graph, H: Graph, cfg: SolverConfig | None = None,
                 tol: float = IDENTITY_TOL_DEFAULT, cache: dict | None = None,
                 sdp_cap: int = SDP_CAP_DEFAULT) -> list[IdentityCheck]:
    """Edge union is submultiplicative for theta-bar (same vertex set)."""
    if G.n != H.n:
        raise DimensionError("union suite needs graphs on the same vertex count")
    check_sdp_cap(G.n, sdp_cap, "union")
    U = union(G, H)
    lhs = cached_param(U, "theta_bar", cfg, cache).value
    rg = cached_param(G, "theta_bar", cfg, cache).value
    rh = cached_param(H, "theta_bar", cfg, cache).value
    return [_le_check("theta_bar(GuH) <= product", lhs, rg * rh, tol,
                      {"factors": [rg, rh]})]


def chain_checks(G: Graph, cfg: SolverConfig | None = None,
                 tol: float = 1e-4, cache: dict | None = None,
                 chromatic_cap: int = CHROMATIC_CAP_DEFAULT) -> list[IdentityCheck]:
    """Sandwich chain for one graph: average-degree bound, chi_vec,
    theta_bar, and (when computable) the chromatic number."""
    label = G.label or f"n{G.n}"
    cv = cached_param(G, "chi_vec", cfg, cache).value
    tb = cached_param(G, "theta_bar", cfg, cache).value
    checks = [_le_check(f"chi_vec <= theta_bar [{label}]", cv, tb, tol)]
    if G.edge_count:
        lb = spectral_lower_bound(G)
        checks.insert(0, _le_check(f"spectral bound <= chi_vec [{label}]", lb, cv, tol))
    if G.n <= chromatic_cap:
        chi = chromatic_number(G, cap=chromatic_cap)
        checks.append(_le_check(f"theta_bar <= chi [{label}]", tb, float(chi), 2 * tol))
    return checks


def run_suite(suite: str, G: Graph, H: Graph, cfg: SolverConfig | None = None,
              tol: float = IDENTITY_TOL_DEFAULT, cache: dict | None = None,
              sdp_cap: int = SDP_CAP_DEFAULT,
              chromatic_cap: int = CHROMATIC_CAP_DEFAULT) -> list[IdentityCheck]:
    if suite == "sabidussi":
        return sabidussi_checks(G, H, cfg, tol, cache, sdp_cap, chromatic_cap)
    if suite == "hedetniemi":
        return hedetniemi_checks(G, H, cfg, tol, cache, sdp_cap)
    if suite == "products":
        return product_checks(G, H, cfg, tol, cache, sdp_cap)
    if suite == "union":
        return union_checks(G, H, cfg, tol, cache, sdp_cap)
    if suite == "chain":
        out = chain_checks(G, cfg, min(tol, 1e-4), cache, chromatic_cap)
        out.extend(chain_checks(H, cfg, min(tol, 1e-4), cache, chromatic_cap))
        return out
    raise VecchromError(f"unknown suite {suite!r}; choose from {SUITES}")
