"""Command-line interface: parameters, identity suites, certificate checks.

Subcommands:

* ``param``   one graph, one parameter (theta-bar, chi-vec, chromatic,
              spectral, onehom); ``spectral`` is the closed form
              1 - k/tau of a regular graph, certified by Hoffman's two
              certificates with no 1-homogeneity test, else the checked
              convention (edgeless) or pin (bipartite)
* ``verify``  identity suite over a pair of graphs, or over seeded
              random pairs
* ``qverify`` a quantum coloring certificate file
* ``report``  every parameter of one graph in a single record

Graphs are named generator specs like ``cycle:5``, ``petersen`` or
``omega:4``, or paths to edge-list files.  Records are JSON, printed to
stdout or written with ``--out``.  Exit codes: 0 success, 1 usage, parse
or file error, 2 solver non-convergence, 3 validation failure (including
failed identity or certificate checks).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    CapacityError,
    ConvergenceError,
    DimensionError,
    DomainError,
    FeasibilityError,
    LimitExceededError,
    ParseError,
    ValidationError,
    VecchromError,
)
from .graphs import (
    GENERATOR_FAMILIES,
    Graph,
    edge_hash,
    erdos_renyi,
    generate,
    is_bipartite,
    load_graph,
)
from .identities import (
    IDENTITY_TOL_DEFAULT,
    SDP_CAP_DEFAULT,
    SUITES,
    check_sdp_cap,
    run_suite,
    sandwich_checks,
    spectral_bound,
)
from .params import (
    CHROMATIC_CAP_DEFAULT,
    GraphFacts,
    _checked,
    _pin_pair,
    chromatic_number,
    one_homogeneous_check,
    spectral_lower_bound,
    spectral_vector_chromatic,
)
from .quantum import load_certificate, verify_quantum_hom
from .sdp import SolverConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_VALIDATION = 3


class UsageError(VecchromError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


def resolve_graph(spec: str) -> Graph:
    """Interpret a CLI graph argument as a generator spec or a file."""
    if os.path.exists(spec):
        return load_graph(spec, label=os.path.basename(spec))
    family, _, size = spec.partition(":")
    if family in GENERATOR_FAMILIES:
        try:
            n = int(size) if size else 0
        except ValueError:
            raise UsageError(f"bad size in graph spec {spec!r}")
        return generate(family, n)
    raise UsageError(
        f"{spec!r} is neither a file nor a generator spec "
        f"(families: {', '.join(GENERATOR_FAMILIES)})"
    )


def _graph_descriptor(G: Graph) -> dict:
    return {"label": G.label, "n": G.n, "m": G.edge_count, "edge_hash": edge_hash(G)}


_CONFIG_KEYS = ("gap_tol", "max_iter", "cap", "chromatic_cap", "seed", "identity_tol", "qtol")


def _config_snapshot(args) -> dict:
    """The settings the command parsed, in a fixed order."""
    return {key: getattr(args, key) for key in _CONFIG_KEYS if hasattr(args, key)}


def _base_record(command: str, args, graphs: list[Graph]) -> dict:
    return {
        "tool": {"name": "vecchrom", "version": __version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": _config_snapshot(args),
        "graphs": [_graph_descriptor(G) for G in graphs],
    }


def _solver_config(args) -> SolverConfig:
    return SolverConfig(gap_tol=args.gap_tol, max_iter=args.max_iter)


def _param_payload(res) -> dict:
    out = {"value": res.value, "gap": res.gap, "method": res.method}
    if res.residuals is not None:
        out["residuals"] = list(res.residuals)
    if res.method == "sdp":
        out["iterations"] = res.iterations
    return out


def _sdp_value(facts: GraphFacts, which: str) -> tuple[dict | None, int]:
    """Payload and exit code of one SDP value of a record; a solver failure
    gives the partial payload (None before the first convergence check) and exit 2."""
    try:
        return _param_payload(facts.param(which)), EXIT_OK
    except ConvergenceError as exc:
        return (_param_payload(exc.partial) if exc.partial else None), EXIT_SOLVER


def cmd_param(args) -> tuple[dict, int]:
    G = resolve_graph(args.graph)
    cfg = _solver_config(args)
    record = _base_record("param", args, [G])
    record["which"] = args.which
    if args.which in ("theta-bar", "chi-vec"):
        check_sdp_cap(G.n, args.cap)
        record["result"], code = _sdp_value(GraphFacts(G, cfg, args.chromatic_cap),
                                            args.which.replace("-", "_"))
        if code:
            record["status"] = "solver_failure"
            return record, code
    elif args.which == "chromatic":
        try:
            record["result"] = {"value": chromatic_number(G, args.limit, cap=args.chromatic_cap)}
        except LimitExceededError as exc:
            record["result"] = {"value": f"> {exc.limit}"}
    elif args.which == "spectral":
        try:
            res = spectral_vector_chromatic(G)
        except DomainError:
            # an edgeless graph takes the convention and a bipartite one the
            # pin of an edge and its 2-coloring; K_0's DomainError stands
            bipartite, colors = is_bipartite(G)
            if not (G.n and bipartite):
                raise
            clique = [int(e[0]) for e in G.edge_index] if G.edge_count else [0]
            res = _checked(G, True, *_pin_pair(G.n, clique, colors))
            if res.gap == np.inf:
                raise ValidationError(f"a checker refuses the {res.method} certificates")
        record["result"] = result = {"vector_chromatic": res.value, "method": res.method}
        if G.edge_count:  # a closed-form graph is regular: its bound 1 - (2e/n)/tau is 1 - k/tau
            result["lower_bound"] = (res.value if res.method == "spectral"
                                     else spectral_lower_bound(G))
    else:  # onehom
        record["result"] = asdict(one_homogeneous_check(G))
    record["status"] = "ok"
    return record, EXIT_OK


def _check_tolerance(flag: str, value: float):
    """Refuse a tolerance no residual can be checked against."""
    if not 0.0 <= value < float("inf"):  # NaN compares False
        raise DomainError(f"{flag} must be finite and nonnegative, got {value}")


def _verify_pairs(args):
    """The pairs of a verify run, each built when the one before it has
    been checked: the seeded G(n, 1/2) pairs in their draw order, or the
    two named graphs."""
    if args.random_pairs:
        rng = np.random.default_rng(args.seed)
        for i in range(args.random_pairs):
            yield (erdos_renyi(args.size, 0.5, rng=rng, label=f"gnp_{args.size}_a{i}"),
                   erdos_renyi(args.size, 0.5, rng=rng, label=f"gnp_{args.size}_b{i}"))
    else:
        yield resolve_graph(args.graphs[0]), resolve_graph(args.graphs[1])


def cmd_verify(args) -> tuple[dict, int]:
    cfg = _solver_config(args)
    _check_tolerance("--identity-tol", args.identity_tol)
    if args.random_pairs < 0:
        raise UsageError(f"--random-pairs must be nonnegative, got {args.random_pairs}")
    if args.random_pairs and args.graphs:
        raise UsageError("verify takes two graphs or --random-pairs N, not both")
    if not args.random_pairs and len(args.graphs) != 2:
        raise UsageError("verify needs two graphs, or --random-pairs N")
    record = _base_record("verify", args, [])
    record["suite"] = args.suite
    cache = {}  # Graph.key() -> GraphFacts
    runs = []
    all_passed = True
    for G, H in _verify_pairs(args):
        record["graphs"] += [_graph_descriptor(G), _graph_descriptor(H)]
        checks = run_suite(args.suite, G, H, cfg, args.identity_tol, cache,
                           sdp_cap=args.cap, chromatic_cap=args.chromatic_cap)
        all_passed &= all(c.passed for c in checks)
        runs.append({
            "graphs": [_graph_descriptor(G), _graph_descriptor(H)],
            "identities": [c.as_dict() for c in checks],
        })
    record["pairs"] = runs
    record["cache"] = {"hits": sum(f.hits for f in cache.values()),
                       "misses": sum(f.misses for f in cache.values())}
    record["all_passed"] = bool(all_passed)
    record["status"] = "ok" if all_passed else "failed"
    return record, EXIT_OK if all_passed else EXIT_VALIDATION


def cmd_qverify(args) -> tuple[dict, int]:
    _check_tolerance("--qtol", args.qtol)
    q = load_certificate(args.certificate)
    rep = verify_quantum_hom(q, tol=args.qtol)
    record = _base_record("qverify", args, [q.source])
    record["certificate"] = {
        "path": args.certificate,
        "d": q.d,
        "n_colors": q.target.n,
    }
    record["report"] = asdict(rep)
    record["status"] = "ok" if rep.ok else "failed"
    return record, EXIT_OK if rep.ok else EXIT_VALIDATION


def cmd_report(args) -> tuple[dict, int]:
    G = resolve_graph(args.graph)
    check_sdp_cap(G.n, args.cap)
    cfg = _solver_config(args)
    record = _base_record("report", args, [G])
    params = record["params"] = {}
    # one record: each value is computed once, and the chain checks reuse them
    facts = GraphFacts(G, cfg, args.chromatic_cap)
    for which in ("theta_bar", "chi_vec"):
        payload, code = _sdp_value(facts, which)
        if code:
            if payload:
                params["partial"] = payload
            record["status"] = "solver_failure"
            return record, code
        params[which] = payload
    lb = spectral_bound(facts)
    if lb is not None:
        params["spectral_lower_bound"] = lb
    params["one_homogeneous"] = one_homogeneous_check(G).is_one_homogeneous
    params["bipartite"] = is_bipartite(G)[0]
    chi = facts.chromatic_number() if G.n <= args.chromatic_cap else None
    if chi is not None:
        params["chromatic"] = chi
    checks = sandwich_checks(G, lb, params["chi_vec"]["value"], params["theta_bar"]["value"], chi)
    record["identities"] = [c.as_dict() for c in checks]
    passed = all(c.passed for c in checks)
    record["status"] = "ok" if passed else "failed"
    return record, EXIT_OK if passed else EXIT_VALIDATION


def build_parser() -> _Parser:
    parser = _Parser(prog="vecchrom", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"vecchrom {__version__}")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write the JSON record to this file")
    solver = argparse.ArgumentParser(add_help=False, parents=[out])
    solver.add_argument("--gap-tol", dest="gap_tol", type=float, default=1e-5,
                        help="solver duality-gap tolerance")
    solver.add_argument("--max-iter", dest="max_iter", type=int, default=50000)
    solver.add_argument("--cap", type=int, default=SDP_CAP_DEFAULT,
                        help="vertex cap for SDP solves and certificate matrices")
    solver.add_argument("--chromatic-cap", dest="chromatic_cap", type=int,
                        default=CHROMATIC_CAP_DEFAULT,
                        help="vertex cap for exact chromatic numbers")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("param", parents=[solver], help="one parameter of one graph")
    p.add_argument("graph")
    p.add_argument("--which", required=True,
                   choices=["theta-bar", "chi-vec", "chromatic", "spectral", "onehom"])
    p.add_argument("--limit", type=int, default=None, help="color limit for chromatic")
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("verify", parents=[solver], help="identity suite on a pair")
    p.add_argument("graphs", nargs="*", help="two graph specs")
    p.add_argument("--seed", type=int, default=0, help="seed for --random-pairs")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--identity-tol", dest="identity_tol", type=float,
                   default=IDENTITY_TOL_DEFAULT)
    p.add_argument("--random-pairs", dest="random_pairs", type=int, default=0,
                   help="run the suite on this many seeded G(n, 1/2) pairs")
    p.add_argument("--size", type=int, default=6, help="vertex count for random pairs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("qverify", parents=[out], help="check a certificate file")
    p.add_argument("certificate")
    p.add_argument("--qtol", type=float, default=1e-7,
                   help="adjacency tolerance (structural checks run at a tenth)")
    p.set_defaults(func=cmd_qverify)

    p = sub.add_parser("report", parents=[solver], help="full record for one graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _emit(record: dict, out: str | None):
    text = json.dumps(record, indent=2, sort_keys=False)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        record, code = args.func(args)
        _emit(record, args.out)
        return code
    except (UsageError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValidationError, DomainError, DimensionError, CapacityError,
            FeasibilityError, LimitExceededError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except VecchromError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
