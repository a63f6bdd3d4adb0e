"""Metric names and units; ``BENCHMARK.json`` lists the same names.

Kept free of numpy and vecchrom imports so that the runner can read it
before any thread setting matters.
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed with the end-to-end metrics by every run, but gated nowhere: on
#: a shared host the latency of single ops spreads beyond any bound.
UNGATED = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "failed_frac": "ratio",
}

PER_LAYER = {
    "sdp.solves": "count",
    "sdp.busy_s": "s",
    "sdp.iterations": "count",
    "sdp.iterations_dual": "count",
    "sdp.iterations_primal": "count",
    "sdp.max_iter_hits": "count",
    "sdp.optimal_ratio": "ratio",
    "sdp.max_gap": "value",
    "sdp.us_per_iter": "us",
    "sdp.work_n3": "count",
    "sdp.ns_per_n3": "ns",
    "sdp.top3_share": "ratio",
    "sdp.top_solve_s": "s",
    "sdp.top_solve_iterations": "count",
    "sdp.top_solve_order": "count",
    "sdp.eigh_calls": "count",
    "sdp.eigh_share": "ratio",
    "sdp.affine_share": "ratio",
    "identities.suite_calls": "count",
    "identities.busy_s": "s",
    "identities.param_lookups": "count",
    "identities.cache_hits": "count",
    "identities.cache_hit_ratio": "ratio",
    "identities.checks_failed": "count",
    "params.sdp_calls": "count",
    "params.primal_calls": "count",
    "params.sdp_busy_s": "s",
    "params.onehom_calls": "count",
    "params.onehom_busy_s": "s",
    "params.spectral_calls": "count",
    "params.spectral_busy_s": "s",
    "params.chromatic_calls": "count",
    "params.chromatic_busy_s": "s",
    "linalg.eig_sym_calls": "count",
    "linalg.eig_sym_busy_s": "s",
    "linalg.eig_sym_max_order": "count",
    "linalg.eig_sym_work_n3": "count",
    "colorings.extract_calls": "count",
    "colorings.extract_busy_s": "s",
    "colorings.verify_busy_s": "s",
    "quantum.load_busy_s": "s",
    "quantum.bytes_parsed": "bytes",
    "quantum.verify_calls": "count",
    "quantum.verify_busy_s": "s",
    "quantum.products_computed": "count",
    "graphs.product_busy_s": "s",
    "graphs.io_busy_s": "s",
    "cli.self_s": "s",
    "cli.record_bytes": "bytes",
    "ops.count": "count",
    "ops.p50_ms": "ms",
    "ops.tail_ms": "ms",
    "ops.known_defects": "count",
    "ops.failed_frac": "ratio",
    "trace.overhead_s": "s",
}

#: Counts that must repeat exactly for a fixed seed and source tree.
EXACT_COUNTS = ("ops.count", "sdp.solves", "sdp.iterations_dual", "sdp.iterations_primal",
                "identities.cache_hits", "linalg.eig_sym_calls")
