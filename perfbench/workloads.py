"""The three benchmark workloads: seeded inputs, op lists, reference checks.

Every workload is a fixed corpus whose vertices are relabelled by a
permutation drawn from the run seed.  The values, certificates and exit
codes do not depend on the labelling, and in exact arithmetic neither does
the solver's work (the splitting iteration is permutation-equivariant).
Measured iteration counts agreed across seeds too, except where the known
eigh defect below ends a solve early, so different seeds give different
inputs but comparable timings.  The suites corpus is the acceptance pair
set drawn from ``PAIR_SEED``; one permutation per vertex count keeps
distinct graphs distinct, so the parameter cache sees the same hits under
every seed.

An op returns an outcome; its ``check`` returns ``None`` when the outcome
matches the independent reference and a message otherwise.  An op's
``defects`` are defects of the program that it is known to expose: a
failed outcome that one of them ``reproduces`` is counted apart from
unexpected failures.  The defects stay in the workloads on purpose, so
that the change that fixes one shows up in the numbers.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from vecchrom import cli, colorings, graphs, identities, params
from vecchrom.colorings import ClassicalColoring, modular_coloring
from vecchrom.graphs import Graph
from vecchrom.quantum import (
    QuantumHomomorphism,
    classical_embedding,
    conjugate,
    quantum_sabidussi,
    save_certificate,
    tensor_with_identity,
)
from vecchrom.sdp import SolverConfig

PAIR_SEED = 20250808

# suite-scale solver settings and identity tolerance of the acceptance tests
SUITE_CFG = SolverConfig(tol=1e-6, max_iter=150000)
SUITE_TOL = 1e-3
# coloring-pipeline tolerances of acceptance criterion c11
CERTIFY_CFG = SolverConfig(tol=1e-9, gap_tol=1e-6)
EXTRACT_TOL = 1e-6
COLORING_TOL = 1e-5
VALUE_TOL = 1e-4
SPECTRAL_TOL = 1e-6

EXIT_OK = 0
EXIT_VALIDATION = 3


def theta_bar_cycle(n: int) -> float:
    """Closed form 1 + 1/cos(pi/n) of theta-bar on an odd cycle."""
    return 1.0 + 1.0 / math.cos(math.pi / n)


@dataclass(frozen=True)
class Defect:
    """A known defect; ``always`` when it shows under every seed."""

    description: str
    reproduces: Callable[[object, str | None], bool]
    always: bool = True


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    defects: tuple[Defect, ...] = ()
    counters: Callable[[object], dict] | None = None


@dataclass
class Workload:
    """An op list; ``pass_s`` is the nominal time of one pass over it.

    ``pass_s`` was measured on a 2-vCPU Xeon VM with one BLAS thread.  It
    turns ``--seconds`` into a fixed number of passes, so every run of a
    workload takes the same samples however fast the host is that day.
    """

    ops: list[Op]
    warmup: Callable[[], None]
    pass_s: float
    begin_pass: Callable[[], None] = lambda: None


# Seen on some vertex relabellings of Petersen [] C5 (5 seeds in 60) and
# of C5 x C7: LAPACK's eigh (dsyevd) does not converge on a finite,
# symmetric iterate of the primal-form solve, and the numpy LinAlgError
# leaves the solver as a traceback instead of a VecchromError.
EIGH_NONCONVERGENCE = Defect(
    "LAPACK eigh does not converge inside the splitting solver on some vertex "
    "relabellings; numpy LinAlgError escapes the solver",
    lambda outcome, error: error is not None and error.startswith("LinAlgError"),
    always=False,
)


def relabel(G: Graph, perm) -> Graph:
    """G with vertex perm[i] renamed i; an isomorphic copy."""
    return Graph(G.n, G.adj[np.ix_(perm, perm)], G.label)


def _random_pairs(count, n_low, n_high, seed):
    # same draw order as the acceptance tests' pair generator
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n1 = int(rng.integers(n_low, n_high + 1))
        n2 = int(rng.integers(n_low, n_high + 1))
        pairs.append((graphs.erdos_renyi(n1, 0.5, rng=rng),
                      graphs.erdos_renyi(n2, 0.5, rng=rng)))
    return pairs


def _union_pairs(count, n, seed):
    rng = np.random.default_rng(seed)
    return [(graphs.erdos_renyi(n, 0.5, rng=rng), graphs.erdos_renyi(n, 0.5, rng=rng))
            for _ in range(count)]


# ---------------------------------------------------------------------------
# suites: identity-suite traffic over seeded G(n, 1/2) pairs, one shared
# parameter cache per pass


SUITE_CHECK_COUNTS = {"sabidussi": 3, "hedetniemi": 1, "products": 2, "union": 1}

# Index of the (gnp_7, gnp_8) pair among the acceptance pairs.  Its three
# 56-vertex solves take about 19 s, twice the rest of a pass together, so
# no run could repeat a pass holding them; they are left out of the suites.
STIFF_PAIR = 8


def _suite_plan(scale):
    if scale == "tiny":
        both = _random_pairs(2, 4, 5, PAIR_SEED)
        return ([("sabidussi", p) for p in both] + [("hedetniemi", p) for p in both]
                + [("products", p) for p in _random_pairs(1, 4, 4, PAIR_SEED + 1)]
                + [("union", p) for p in _union_pairs(1, 5, PAIR_SEED + 2)])
    both = _random_pairs(20, 4, 8, PAIR_SEED)
    del both[STIFF_PAIR]
    return ([("sabidussi", p) for p in both] + [("hedetniemi", p) for p in both]
            + [("products", p) for p in _random_pairs(10, 4, 6, PAIR_SEED + 1)]
            + [("union", p) for p in _union_pairs(10, 7, PAIR_SEED + 2)])


def _suite_check(suite):
    def check(checks):
        expected = SUITE_CHECK_COUNTS[suite]
        if len(checks) != expected:
            return f"{len(checks)} checks returned, expected {expected}"
        failed = [c.name for c in checks if not c.passed]
        return f"identity checks failed: {failed}" if failed else None
    return check


def build_suites(seed, scale, workdir) -> Workload:
    plan = _suite_plan(scale)
    rng = np.random.default_rng(seed)
    orders = sorted({G.n for _, pair in plan for G in pair})
    perms = {n: rng.permutation(n) for n in orders}
    state = {"cache": {}}

    def make(suite, G, H):
        return lambda: identities.run_suite(suite, G, H, SUITE_CFG, SUITE_TOL, state["cache"])

    ops = []
    for suite, (G, H) in plan:
        G, H = relabel(G, perms[G.n]), relabel(H, perms[H.n])
        ops.append(Op(f"{suite} n={G.n},{H.n}", make(suite, G, H), _suite_check(suite),
                      (EIGH_NONCONVERGENCE,)))

    def warmup():
        C5, K3 = graphs.generate("cycle", 5), graphs.generate("complete", 3)
        identities.run_suite("sabidussi", C5, K3, SUITE_CFG, SUITE_TOL, {})

    def begin_pass():
        state["cache"] = {}

    return Workload(ops, warmup, 0.3 if scale == "tiny" else 9.5, begin_pass)


# ---------------------------------------------------------------------------
# certify: dual solve, bordered primal solve, extraction and verification
# of one vector coloring per op


def _primal_max_iter(outcome, error):
    return error is not None and error.startswith("ConvergenceError") and "max_iter" in error


PRIMAL_MAX_ITER = Defect("theta-bar primal-form solve on C5xC7 hits max_iter and raises "
                         "ConvergenceError", _primal_max_iter)


def _certify_corpus(scale):
    """(parameter, graph, reference value[, known defect]) per op."""
    gen = graphs.generate
    C5, C7, K3, K5 = gen("cycle", 5), gen("cycle", 7), gen("complete", 3), gen("complete", 5)
    P = gen("petersen")
    sqrt5 = math.sqrt(5.0)
    if scale == "tiny":
        return [("theta_bar", C5, sqrt5), ("theta_bar", K5, 5.0), ("chi_vec", P, 2.5)]
    return [
        ("theta_bar", C5, sqrt5),
        ("theta_bar", K5, 5.0),
        ("theta_bar", P, 2.5),
        ("theta_bar", gen("omega", 4), 4.0),
        # Sabidussi: Cartesian product takes the factor maximum
        ("theta_bar", graphs.product("cartesian", C5, K3), 3.0),
        # strong product is multiplicative
        ("theta_bar", graphs.product("strong", C5, C5), sqrt5 * sqrt5),
        ("theta_bar", graphs.product("cartesian", P, C5), 2.5),
        # Hedetniemi: categorical product takes the factor minimum
        ("theta_bar", graphs.product("categorical", C5, C7), theta_bar_cycle(7), PRIMAL_MAX_ITER),
        ("chi_vec", P, 2.5),
        ("chi_vec", graphs.product("cartesian", P, K3), 3.0),
        # cheap closed-form cases, so that the tail percentile has ten
        # ops beyond it: complete graphs n, odd cycles 1 + 1/cos(pi/n),
        # bipartite graphs 2, and the complement of Petersen, which is
        # 1-homogeneous with degree 6 and least eigenvalue -2, 1 + 6/2
        *[(which, G, value) for which in ("theta_bar", "chi_vec") for G, value in (
            (K3, 3.0), (gen("complete", 4), 4.0), (gen("complete", 6), 6.0),
            (gen("complete", 7), 7.0), (C7, theta_bar_cycle(7)),
            (gen("cycle", 9), theta_bar_cycle(9)), (gen("cycle", 11), theta_bar_cycle(11)),
            (gen("cycle", 6), 2.0), (gen("path", 4), 2.0), (graphs.complement(P), 4.0))],
        ("theta_bar", gen("complete", 8), 8.0),
        ("chi_vec", C5, sqrt5),
        ("chi_vec", K5, 5.0),
        ("chi_vec", gen("omega", 4), 4.0),
    ]


def _certify_run(which, G):
    strict = which == "theta_bar"

    def run():
        res = getattr(params, which)(G, CERTIFY_CFG, want_primal=True)
        col = colorings.extract_coloring(res.primal_certificate, res.value,
                                         tol=EXTRACT_TOL, strict=strict)
        rep = colorings.verify_coloring(G, col, tol=COLORING_TOL)
        return res.value, rep.ok
    return run


def _certify_check(reference):
    def check(outcome):
        value, ok = outcome
        if abs(value - reference) > VALUE_TOL:
            return f"value {value!r} differs from reference {reference!r}"
        return None if ok else "extracted coloring fails verify_coloring"
    return check


def build_certify(seed, scale, workdir) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for which, G, reference, *defects in _certify_corpus(scale):
        ops.append(Op(f"{which} {G.label}", _certify_run(which, relabel(G, rng.permutation(G.n))),
                      _certify_check(reference), (*defects, EIGH_NONCONVERGENCE)))
    warm = _certify_run("theta_bar", graphs.generate("complete", 4))
    return Workload(ops, lambda: warm(), 0.1 if scale == "tiny" else 14.5)


# ---------------------------------------------------------------------------
# exact: SDP-free CLI calls on edge-list and certificate files


def mycielskian(G: Graph) -> Graph:
    """Mycielski construction: triangle-free stays triangle-free, chi + 1."""
    n = G.n
    adj = np.zeros((2 * n + 1, 2 * n + 1), dtype=bool)
    adj[:n, :n] = G.adj
    adj[:n, n:2 * n] = G.adj
    adj[n:2 * n, :n] = G.adj
    adj[n:2 * n, 2 * n] = True
    adj[2 * n, n:2 * n] = True
    return Graph(2 * n + 1, adj, f"M({G.label})")


def planted_coloring_graph(n, k, p, rng) -> Graph:
    """Random k-partite graph with a planted k-clique: chi is exactly k."""
    classes = rng.permutation(np.arange(n) % k)
    adj = (rng.random((n, n)) < p) & (classes[:, None] != classes[None, :])
    adj = np.triu(adj, 1)
    reps = [int(np.flatnonzero(classes == c)[0]) for c in range(k)]
    for a in reps:
        for b in reps:
            if a < b:
                adj[a, b] = True
    return Graph(n, adj | adj.T, f"planted_{n}_{k}")


def _rotated(q: QuantumHomomorphism, rng) -> QuantumHomomorphism:
    """A genuinely quantum d = 2 certificate from a classical one."""
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(M)
    return conjugate(tensor_with_identity(q, 2), U)


def _relabel_certificate(q: QuantumHomomorphism, perm) -> QuantumHomomorphism:
    return QuantumHomomorphism(relabel(q.source, perm), q.target, q.d, q.assignment[perm])


def _certificates(scale, rng):
    """Quantum-Sabidussi 3-colorings with d = 4 over Cartesian products."""
    gen = graphs.generate
    K3 = gen("complete", 3)
    C5, C7 = gen("cycle", 5), gen("cycle", 7)
    col5, col7 = [0, 1, 0, 1, 2], [0, 1, 0, 1, 0, 1, 2]
    q5 = _rotated(classical_embedding(C5, K3, col5), rng)
    q7 = _rotated(classical_embedding(C7, K3, col7), rng)
    small = quantum_sabidussi(q5, q7)  # source C5 [] C7, 35 vertices
    if scale == "tiny":
        return {"sab35": small}
    C35 = graphs.product("cartesian", C5, C7)
    col35 = modular_coloring(ClassicalColoring(col5, 3), ClassicalColoring(col7, 3)).colors
    q35 = _rotated(classical_embedding(C35, K3, col35), rng)
    return {
        "sab35": small,
        "sab175": quantum_sabidussi(q35, q5),
        "sab1225": quantum_sabidussi(q35, q35),
    }


def _write_certificate_json(path, q, mutate=None):
    save_certificate(path, q)
    if mutate is None:
        return
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    mutate(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def _nan_everywhere(data):
    data["assignment"] = (np.full(np.shape(data["assignment"]), np.nan)).tolist()


def _exact_graphs(scale, rng):
    """(file stem, graph) pairs plus the per-op plan."""
    gen = graphs.generate
    C5, C7, P, K4 = gen("cycle", 5), gen("cycle", 7), gen("petersen"), gen("complete", 4)
    factor_value = {"C5": math.sqrt(5.0), "C7": theta_bar_cycle(7), "P": 2.5, "K4": 4.0}
    factors = {"C5": C5, "C7": C7, "P": P, "K4": K4}
    names = list(factors) if scale == "full" else ["C5", "K4"]
    files, onehom, spectral, chromatic = {}, [], [], []
    if scale == "full":
        files["omega8"] = gen("omega", 8)
        onehom.append("omega8")
    else:
        files["omega4"] = gen("omega", 4)
        onehom.append("omega4")
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            stem = f"{a}x{b}"
            files[stem] = graphs.product("categorical", factors[a], factors[b])
            onehom.append(stem)
            spectral.append((stem, min(factor_value[a], factor_value[b])))
    if scale == "full":
        files["omega6"] = gen("omega", 6)  # bipartite: value 2
        spectral.append(("omega6", 2.0))
    files["C5sC5"] = graphs.product("strong", C5, C5)
    chromatic.append(("C5sC5", 5))
    if scale == "full":
        files["myc23"] = mycielskian(mycielskian(C5))
        chromatic.append(("myc23", 5))
        for k in (4, 5, 6):
            files[f"planted30_{k}"] = planted_coloring_graph(30, k, 0.5, rng)
            chromatic.append((f"planted30_{k}", k))
    return files, onehom, spectral, chromatic


def _cli_run(argv, out_path):
    def run():
        if os.path.exists(out_path):
            os.remove(out_path)
        code = cli.main(argv + ["--out", out_path])
        record, size = None, 0
        if os.path.exists(out_path):
            size = os.path.getsize(out_path)
            with open(out_path, encoding="utf-8") as fh:
                record = json.load(fh)
        return code, record, size
    return run


def _record_bytes(outcome):
    return {"cli.record_bytes": outcome[2]}


def _expect(code, predicate, what):
    def check(outcome):
        got, record, _ = outcome
        if got != code:
            return f"exit code {got}, expected {code}"
        if record is None:
            return "no record written"
        try:
            ok = predicate(record)
        except (KeyError, TypeError, ValueError) as exc:
            return f"record lacks {what}: {exc!r}"
        return None if ok else f"record fails reference: {what}"
    return check


NAN_ACCEPTED = Defect('all-NaN quantum certificate passes qverify with exit 0 and "ok": true '
                      "(max(0.0, nan) reads as 0)",
                      lambda outcome, error: error is None and outcome[0] == EXIT_OK)


def build_exact(seed, scale, workdir) -> Workload:
    rng = np.random.default_rng(seed)
    build_rng = np.random.default_rng(PAIR_SEED)
    files, onehom, spectral, chromatic = _exact_graphs(scale, build_rng)
    paths = {}
    for stem, G in files.items():
        paths[stem] = os.path.join(workdir, f"{stem}.txt")
        graphs.save_graph(paths[stem], relabel(G, rng.permutation(G.n)))
    certs = _certificates(scale, build_rng)
    cert_paths = {}
    for stem, q in certs.items():
        cert_paths[stem] = os.path.join(workdir, f"{stem}.json")
        relabelled = _relabel_certificate(q, rng.permutation(q.source.n))
        _write_certificate_json(cert_paths[stem], relabelled)
    base = _relabel_certificate(certs["sab35"], rng.permutation(certs["sab35"].source.n))
    u, c, i = (int(rng.integers(base.source.n)), int(rng.integers(3)), int(rng.integers(base.d)))

    def bump(data):
        data["assignment"][u][c][i][i][0] += 1e-2

    cert_paths["mutated"] = os.path.join(workdir, "mutated.json")
    _write_certificate_json(cert_paths["mutated"], base, bump)
    cert_paths["nan"] = os.path.join(workdir, "nan.json")
    _write_certificate_json(cert_paths["nan"], base, _nan_everywhere)

    out = os.path.join(workdir, "record.json")
    ops = []
    for stem in onehom:
        ops.append(Op(f"onehom {stem}", _cli_run(["param", paths[stem], "--which", "onehom"], out),
                      _expect(EXIT_OK, lambda r: r["result"]["is_one_homogeneous"] is True,
                              "is_one_homogeneous true")))
    for stem, ref in spectral:
        ops.append(Op(f"spectral {stem}",
                      _cli_run(["param", paths[stem], "--which", "spectral"], out),
                      _expect(EXIT_OK, lambda r, ref=ref: abs(r["result"]["vector_chromatic"] - ref)
                              <= SPECTRAL_TOL, f"vector_chromatic {ref}")))
    for stem, ref in chromatic:
        ops.append(Op(f"chromatic {stem}",
                      _cli_run(["param", paths[stem], "--which", "chromatic"], out),
                      _expect(EXIT_OK, lambda r, ref=ref: r["result"]["value"] == ref,
                              f"chromatic number {ref}")))
    for stem in certs:
        ops.append(Op(f"qverify {stem}", _cli_run(["qverify", cert_paths[stem]], out),
                      _expect(EXIT_OK, lambda r: r["report"]["ok"] is True, '"ok": true')))
    ops.append(Op("qverify mutated", _cli_run(["qverify", cert_paths["mutated"]], out),
                  _expect(EXIT_VALIDATION, lambda r: r["report"]["ok"] is False, '"ok": false')))
    ops.append(Op("qverify nan", _cli_run(["qverify", cert_paths["nan"]], out),
                  _expect(EXIT_VALIDATION, lambda r: r["report"]["ok"] is False, '"ok": false'),
                  (NAN_ACCEPTED,)))

    for op in ops:
        op.counters = _record_bytes

    warm_graph = os.path.join(workdir, "warm.txt")
    graphs.save_graph(warm_graph, graphs.generate("cycle", 5))
    warm_ops = [_cli_run(["param", warm_graph, "--which", "spectral"], out),
                _cli_run(["qverify", cert_paths["sab35"]], out)]

    def warmup():
        for run in warm_ops:
            run()

    return Workload(ops, warmup, 0.25 if scale == "tiny" else 11.5)


BUILDERS = {"suites": build_suites, "certify": build_certify, "exact": build_exact}


def build(name, seed, scale, workdir) -> Workload:
    return BUILDERS[name](seed, scale, workdir)
