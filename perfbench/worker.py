"""One benchmark process: pinned BLAS, set-up, warm-up, timed passes.

Started by ``run.py`` with a fresh interpreter per sample.  It refuses to
run unless the BLAS and OpenMP thread counts are pinned to one before
numpy is imported, and unless vecchrom is imported from this checkout's
``src``.  It prints ``READY`` once set-up and the untimed warm-up op are
done, then (unless ``--setup-only``) one ``RESULT`` line of JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

from metrics import EXACT_COUNTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_PASSES = 200


def refuse(message):
    print(f"worker refuses to run: {message}", file=sys.stderr)
    sys.exit(2)


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def pinned_environment(seed):
    """Check the thread pinning and the vecchrom import; return the record."""
    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            refuse(f"{var} is {os.environ.get(var)!r}; it must be pinned to 1 before numpy loads")
    if not (SRC / "vecchrom" / "__init__.py").is_file():
        refuse(f"no vecchrom sources under {SRC}")
    sys.path.insert(0, str(SRC))

    import numpy as np

    import vecchrom

    if Path(vecchrom.__file__).resolve().parent != (SRC / "vecchrom").resolve():
        refuse(f"vecchrom imported from {vecchrom.__file__}, not from {SRC}")
    threads = blas_threads()
    if threads not in (None, 1):
        refuse(f"BLAS reports {threads} threads despite the pinned environment")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "seed": seed,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_pass(workload, tracer):
    from numpy.linalg import LinAlgError

    from vecchrom.errors import VecchromError

    workload.begin_pass()
    walls, cpus, outcomes = [], [], []
    for index, op in enumerate(workload.ops):
        run = op.run
        if tracer is not None:
            tracer.op = index
            run = tracer.span("op", run)
        start, cpu_start = perf_counter(), process_time()
        try:
            outcome, error = run(), None
        except (VecchromError, LinAlgError) as exc:
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        walls.append(perf_counter() - start)
        cpus.append(process_time() - cpu_start)
        outcomes.append((op, outcome, error))
    return walls, cpus, outcomes


def classify(outcomes, tracer):
    """Check every outcome against its reference."""
    unexpected, known, fixed = [], [], []
    for op, outcome, error in outcomes:
        problem = error if error is not None else op.check(outcome)
        if tracer is not None and op.counters is not None and outcome is not None:
            for name, amount in op.counters(outcome).items():
                tracer.count(name, amount)
        if problem is None:
            fixed += [f"{op.name}: {d.description}" for d in op.defects if d.always]
            continue
        defect = next((d for d in op.defects if d.reproduces(outcome, error)), None)
        if defect is not None:
            known.append({"op": op.name, "defect": defect.description})
        else:
            unexpected.append({"op": op.name, "problem": problem})
    return unexpected, known, fixed


def measure(workload, seconds, tracer):
    """As many whole passes as fit ``seconds`` at the nominal pass time.

    Returns the result record, the per-layer metrics of every pass (empty
    when untraced), and the spans and slowest solves of the first pass.
    """
    import tracing

    result = {"op_walls": [], "op_cpus": [], "attempted": 0, "unexpected": [],
              "known_defects": [], "fixed_defects": []}
    layers, first_spans, top_solves = [], None, None
    for _ in range(max(1, min(MAX_PASSES, int(seconds // workload.pass_s)))):
        if tracer is not None:
            tracer.reset()
        walls, cpus, outcomes = run_pass(workload, tracer)
        bad, known, fixed = classify(outcomes, tracer)
        result["op_walls"].append(walls)
        result["op_cpus"].append(cpus)
        result["attempted"] += len(outcomes)
        result["unexpected"] += bad
        result["known_defects"] += known
        result["fixed_defects"] += [n for n in fixed if n not in result["fixed_defects"]]
        if tracer is not None:
            metrics, top = tracing.layer_metrics(tracer.spans, tracer.counters,
                                                 tracer.overhead_s)
            metrics["ops.known_defects"] = len(known)
            metrics["ops.failed_frac"] = (len(bad) + len(known)) / len(outcomes)
            layers.append(metrics)
            if first_spans is None:
                first_spans, top_solves = tracer.spans, top
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result, layers, first_spans, top_solves


def check_determinism(counts_per_pass, key):
    """Exact counts must agree across passes and with earlier runs of this key."""
    first = counts_per_pass[0]
    mismatches = [f"pass {i + 1}: {name} {c[name]} != {first[name]}"
                  for i, c in enumerate(counts_per_pass) for name in EXACT_COUNTS
                  if c[name] != first[name]]
    store = STATE_DIR / "counts.json"
    recorded = json.loads(store.read_text()) if store.exists() else {}
    earlier = recorded.get(key)
    if earlier is not None:
        mismatches += [f"earlier run: {name} {first[name]} != {earlier[name]}"
                       for name in EXACT_COUNTS if earlier.get(name) != first[name]]
    recorded[key] = {name: first[name] for name in EXACT_COUNTS}
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return {"compared_passes": len(counts_per_pass), "compared_earlier": earlier is not None,
            "mismatches": mismatches}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    env = pinned_environment(args.seed)
    import tracing
    import workloads

    STATE_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=STATE_DIR)
    try:
        workload = workloads.build(args.workload, args.seed, args.scale, workdir)
        workload.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        result, layers, spans, top_solves = measure(workload, args.seconds, tracer)
        result["env"] = env
        if tracer is not None:
            tracer.uninstall()
            key = f"{args.workload}|{args.scale}|{args.seed}|{source_digest()}"
            result["determinism"] = check_determinism(layers, key)
            result["layers"] = tracing.median_metrics(layers)
            result["top_solves"] = top_solves
            spans_path = STATE_DIR / f"spans-{args.workload}-{args.scale}-{args.seed}.jsonl"
            tracing.write_spans(spans, spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
