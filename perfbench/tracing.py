"""Traced runs: spans around calls into each vecchrom layer, and their sums.

Nothing in ``src/`` is touched.  :func:`install` replaces each public
function at the place where its caller binds it (``vecchrom.params.solve``,
``vecchrom.identities.cached_param``, ``vecchrom.cli.verify_quantum_hom``
and so on) with a wrapper that records a span: name, start, end, parent
span, op id and attributes read off the arguments and the return value.
Solve counts, iterations and status therefore come from the returned
``SdpSolution``.  Calls made once per solver iteration (LAPACK ``eigh`` and
the affine projection) are too many for spans; they only add their time
and count to the enclosing span.  Spans stay in memory until the run
writes them out; :func:`layer_metrics` reduces one pass of them to the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import types
from time import perf_counter

import numpy as np

import vecchrom.cli
import vecchrom.colorings
import vecchrom.identities
import vecchrom.linalg
import vecchrom.params
import vecchrom.sdp


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.op: int | None = None
        self.overhead_s = 0.0
        self.counters: dict[str, float] = {}
        self._restore: list[tuple] = []

    def reset(self):
        self.spans, self.counters, self.overhead_s = [], {}, 0.0

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so that every call records one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            span = {"name": name, "op": tracer.op, "id": len(tracer.spans),
                    "parent": tracer.stack[-1]["id"] if tracer.stack else None, "attrs": {}}
            if before is not None:
                span["attrs"].update(before(*args, **kwargs))
            tracer.spans.append(span)
            tracer.stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                span["start"], span["end"] = t0, t1
            if after is not None:
                span["attrs"].update(after(result))
            tracer.overhead_s += (t0 - t_in) + (perf_counter() - t1)
            return result
        return traced

    def tally(self, name, fn):
        """Wrap a per-iteration fn: add its time and count to the open span."""
        tracer = self

        @functools.wraps(fn)
        def tallied(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if tracer.stack:
                    attrs = tracer.stack[-1]["attrs"]
                    attrs[name + "_s"] = attrs.get(name + "_s", 0.0) + (t1 - t0)
                    attrs[name + "_calls"] = attrs.get(name + "_calls", 0) + 1
                tracer.overhead_s += perf_counter() - t1
        return tallied

    def patch(self, owner, attr, wrapper):
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)



def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _solve_attrs(problem, *args, **kwargs):
    return {"order": problem.order, "kind": problem.kind, "label": problem.label}


def _solution_attrs(sol):
    return {"iterations": sol.iterations, "status": sol.status, "gap": sol.gap}


def _param_attrs(G, *args, want_primal=False, **kwargs):
    return {"order": G.n, "want_primal": bool(want_primal)}


def _order_attrs(M, *args, **kwargs):
    return {"order": int(np.shape(M)[0])}


def _lookup_attrs(G, which, cfg=None, cache=None):
    return {"hit": cache is not None and (G.key(), which) in cache}


def _suite_result(checks):
    return {"checks": len(checks), "failed": sum(not c.passed for c in checks)}


def _cert_bytes(path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _products_computed(q, *args, **kwargs):
    # per source edge, both orders of every non-adjacent ordered target
    # pair (v, w), v = w included
    H = q.target
    return {"products": q.source.edge_count * (H.n * H.n - 2 * H.edge_count) * 2}


def _numpy_with_tallied_eigh(tracer) -> types.ModuleType:
    """A copy of the numpy namespace whose linalg.eigh tallies its calls."""
    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(np.linalg.__dict__)
    linalg.eigh = tracer.tally("eigh", np.linalg.eigh)
    proxy = types.ModuleType("numpy")
    proxy.__dict__.update(np.__dict__)
    proxy.linalg = linalg
    return proxy


def install(tracer: Tracer):
    """Wrap the layer boundaries; :meth:`Tracer.uninstall` undoes it."""
    cli, col, ide, lin, par, sdp = (vecchrom.cli, vecchrom.colorings, vecchrom.identities,
                                    vecchrom.linalg, vecchrom.params, vecchrom.sdp)
    span = tracer.span

    tracer.patch(par, "solve", lambda f: span("sdp.solve", f, _solve_attrs, _solution_attrs))
    tracer.patch(sdp, "np", lambda mod: _numpy_with_tallied_eigh(tracer))
    affine = getattr(sdp, "_AffineSet", None)
    if affine is not None:
        tracer.patch(affine, "project", lambda f: tracer.tally("affine", f))

    for owner in (par, col, lin, sdp):
        tracer.patch(owner, "eig_sym", lambda f: span("linalg.eig_sym", f, _order_attrs))

    for owner in (par, ide, cli):
        for which in ("theta_bar", "chi_vec"):
            tracer.patch(owner, which, lambda f, w=which: span(f"params.{w}", f, _param_attrs))
    for owner in (par, cli):
        tracer.patch(owner, "one_homogeneous_check", lambda f: span("params.onehom", f))
    for attr in ("spectral_vector_chromatic", "spectral_lower_bound"):
        tracer.patch(cli, attr, lambda f: span("params.spectral", f))
        tracer.patch(ide, attr, lambda f: span("params.spectral", f))
    for owner, attr in ((ide, "chromatic_number"), (ide, "proper_coloring"),
                        (cli, "chromatic_number")):
        tracer.patch(owner, attr, lambda f: span("params.chromatic", f))

    tracer.patch(ide, "run_suite", lambda f: span("identities.run_suite", f, after=_suite_result))
    tracer.patch(ide, "cached_param", lambda f: span("identities.cached_param", f, _lookup_attrs))
    for attr in ("product", "union"):
        tracer.patch(ide, attr, lambda f: span("graphs.product", f))
    tracer.patch(cli, "load_graph", lambda f: span("graphs.io", f))

    tracer.patch(col, "extract_coloring", lambda f: span("colorings.extract", f))
    tracer.patch(col, "verify_coloring", lambda f: span("colorings.verify", f))

    tracer.patch(cli, "load_certificate", lambda f: span("quantum.load", f, _cert_bytes))
    tracer.patch(cli, "verify_quantum_hom",
                 lambda f: span("quantum.verify", f, _products_computed))
    tracer.patch(cli, "main", lambda f: span("cli.main", f))


# ---------------------------------------------------------------------------
# reduction of one pass of spans to per-layer metrics


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, counters, overhead_s) -> tuple[dict, list]:
    """Per-layer metrics of one pass, and its three heaviest solves.

    Solves are ranked by work, iterations times order cubed, not by time,
    so that the same solves lead in every pass however the host's speed
    varies; ``sdp.top3_share`` is their share of ``sdp.busy_s``.
    """
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + dur[s["id"]]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def busy(*names):
        return sum(dur[s["id"]] for s in named(*names))

    def self_time(*names):
        return sum(dur[s["id"]] - child.get(s["id"], 0.0) for s in named(*names))

    m = {}
    solves = named("sdp.solve")
    sdp_busy = busy("sdp.solve")
    iters = [s["attrs"]["iterations"] for s in solves]
    work = sum(s["attrs"]["iterations"] * s["attrs"]["order"] ** 3 for s in solves)
    heaviest = sorted(solves, key=lambda s: -s["attrs"]["iterations"] * s["attrs"]["order"] ** 3)
    heaviest = heaviest[:3]
    m["sdp.solves"] = len(solves)
    m["sdp.busy_s"] = sdp_busy
    m["sdp.iterations"] = sum(iters)
    m["sdp.iterations_dual"] = sum(s["attrs"]["iterations"] for s in solves
                                   if s["attrs"]["kind"].endswith("_dual"))
    m["sdp.iterations_primal"] = sum(s["attrs"]["iterations"] for s in solves
                                     if s["attrs"]["kind"].endswith("_primal"))
    m["sdp.max_iter_hits"] = sum(s["attrs"]["status"] == "max_iter" for s in solves)
    m["sdp.optimal_ratio"] = _ratio(sum(s["attrs"]["status"] == "optimal" for s in solves),
                                    len(solves))
    m["sdp.max_gap"] = max((s["attrs"]["gap"] for s in solves), default=0.0)
    m["sdp.us_per_iter"] = _ratio(sdp_busy, sum(iters)) * 1e6
    m["sdp.work_n3"] = work
    m["sdp.ns_per_n3"] = _ratio(sdp_busy, work) * 1e9
    m["sdp.top3_share"] = _ratio(sum(dur[s["id"]] for s in heaviest), sdp_busy)
    m["sdp.top_solve_s"] = dur[heaviest[0]["id"]] if heaviest else 0.0
    m["sdp.top_solve_iterations"] = heaviest[0]["attrs"]["iterations"] if heaviest else 0
    m["sdp.top_solve_order"] = heaviest[0]["attrs"]["order"] if heaviest else 0
    m["sdp.eigh_calls"] = sum(s["attrs"].get("eigh_calls", 0) for s in solves)
    m["sdp.eigh_share"] = _ratio(sum(s["attrs"].get("eigh_s", 0.0) for s in solves), sdp_busy)
    m["sdp.affine_share"] = _ratio(sum(s["attrs"].get("affine_s", 0.0) for s in solves),
                                   sdp_busy)

    suites = named("identities.run_suite")
    lookups = named("identities.cached_param")
    hits = sum(s["attrs"]["hit"] for s in lookups)
    m["identities.suite_calls"] = len(suites)
    m["identities.busy_s"] = busy("identities.run_suite")
    m["identities.param_lookups"] = len(lookups)
    m["identities.cache_hits"] = hits
    m["identities.cache_hit_ratio"] = _ratio(hits, len(lookups))
    m["identities.checks_failed"] = sum(s["attrs"].get("failed", 0) for s in suites)

    sdp_params = named("params.theta_bar", "params.chi_vec")
    m["params.sdp_calls"] = len(sdp_params)
    m["params.primal_calls"] = sum(s["attrs"]["want_primal"] for s in sdp_params)
    m["params.sdp_busy_s"] = self_time("params.theta_bar", "params.chi_vec")
    for short in ("onehom", "spectral", "chromatic"):
        m[f"params.{short}_calls"] = len(named(f"params.{short}"))
        m[f"params.{short}_busy_s"] = busy(f"params.{short}")

    eigs = named("linalg.eig_sym")
    m["linalg.eig_sym_calls"] = len(eigs)
    m["linalg.eig_sym_busy_s"] = busy("linalg.eig_sym")
    m["linalg.eig_sym_max_order"] = max((s["attrs"]["order"] for s in eigs), default=0)
    m["linalg.eig_sym_work_n3"] = sum(s["attrs"]["order"] ** 3 for s in eigs)

    m["colorings.extract_calls"] = len(named("colorings.extract"))
    m["colorings.extract_busy_s"] = busy("colorings.extract")
    m["colorings.verify_busy_s"] = busy("colorings.verify")

    m["quantum.load_busy_s"] = busy("quantum.load")
    m["quantum.bytes_parsed"] = sum(s["attrs"]["bytes"] for s in named("quantum.load"))
    m["quantum.verify_calls"] = len(named("quantum.verify"))
    m["quantum.verify_busy_s"] = busy("quantum.verify")
    m["quantum.products_computed"] = sum(s["attrs"]["products"] for s in named("quantum.verify"))

    m["graphs.product_busy_s"] = busy("graphs.product")
    m["graphs.io_busy_s"] = busy("graphs.io")
    m["cli.self_s"] = self_time("cli.main")
    m["cli.record_bytes"] = counters.get("cli.record_bytes", 0)

    ops = named("op")
    m["ops.count"] = len(ops)
    m["trace.overhead_s"] = overhead_s
    top = [{"label": s["attrs"]["label"], "order": s["attrs"]["order"],
            "iterations": s["attrs"]["iterations"], "status": s["attrs"]["status"],
            "seconds": dur[s["id"]]} for s in heaviest]
    return m, top


def median_metrics(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
