"""vecchrom benchmark runner.

    python3 perfbench/run.py --workload {suites,certify,exact} --seed N \\
        --seconds S --trace {0,1} [--scale {full,tiny}]

Run from the root of a checkout.  Each sample is a fresh process
(``worker.py``) with OpenBLAS, OpenMP and MKL pinned to one thread before
numpy is imported; the runner refuses to start if the caller's
environment sets any of them to another value.  Set-up (interpreter start,
imports, input generation, one untimed warm-up op) is timed from process
start to the worker's ``READY`` line, in five processes, and reported as
the median.  The last of them then runs as many whole passes over the
workload's op list as fit ``--seconds`` at the workload's nominal pass
time (at least one), and checks every op against its reference.

Every op does the same work in every pass, and a shared host slows down
in bursts, so each op is taken at its fastest pass: ``wall_s`` and
``cpu_s`` are one pass at those per-op times, ``op_p50_ms`` and
``op_tail_ms`` the median and tail over ops.  The last two and
``failed_frac`` are printed but not in the result object (the traced run
reports them as ``ops.p50_ms``, ``ops.tail_ms`` and ``ops.failed_frac``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the per-layer metrics of a
traced run.  Lines before it give the same numbers by name and unit, the
environment and every failure.  The exit code is 1 when an op disagrees
with its reference other than by a known defect listed in
``workloads.py``, or when the exact counts of a traced run do not repeat.
Known defects are reported by name and counted in ``failed_frac`` and the
per-layer ``ops.known_defects``, not in the result's ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("suites", "certify", "exact")
PAIR_SEED = 20250808
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10


class WorkerFailed(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, deadline, setup_only):
    """Start one worker; return (set-up seconds, RESULT payload or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    try:
        setup_s, payload = None, None
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = perf_counter() - start
            elif line.startswith("RESULT "):
                payload = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or (payload is None and not setup_only):
        raise WorkerFailed(f"worker exited with code {code} "
                           f"({'no READY' if setup_s is None else 'no RESULT'})")
    return setup_s, payload


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples above it, else the maximum.

    Returns (value, percentile, samples beyond it).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def report(args, setups, res):
    env = res["env"]
    print(f"vecchrom benchmark: workload={args.workload} scale={args.scale} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']} "
          f"(threads {env['blas_threads']}), nproc {env['nproc']}, seed {env['seed']}, "
          + ", ".join(f"{v}={env[v]}" for v in THREAD_VARS))
    attempted = res["attempted"]
    unexpected, known = res["unexpected"], res["known_defects"]
    passes = len(res["op_walls"])
    best_walls = [min(op) for op in zip(*res["op_walls"])]
    best_cpus = [min(op) for op in zip(*res["op_cpus"])]
    tail_value, tail_pct, beyond = tail(best_walls)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best_walls),
        "cpu_s": sum(best_cpus),
        "op_p50_ms": statistics.median(best_walls) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    layers = res.get("layers", {})
    layers["ops.p50_ms"], layers["ops.tail_ms"] = e2e["op_p50_ms"], e2e["op_tail_ms"]
    pass_walls = ", ".join(f"{sum(p):.3f}" for p in res["op_walls"])
    print(f"passes: {passes} ({pass_walls} s), ops attempted {attempted}, unexpected failures "
          f"{len(unexpected)}, known defects {len(known)}")
    print(f"  {'setup_s':<12} {e2e['setup_s']:.4f} s  (median of {len(setups)} processes)")
    print(f"  {'wall_s':<12} {e2e['wall_s']:.4f} s  (one pass, each op at its fastest of "
          f"{passes})")
    print(f"  {'cpu_s':<12} {e2e['cpu_s']:.4f} s  (one pass, each op at its least CPU time)")
    print(f"  {'op_p50_ms':<12} {e2e['op_p50_ms']:.4f} ms  (median of {len(best_walls)} ops)")
    print(f"  {'op_tail_ms':<12} {e2e['op_tail_ms']:.4f} ms  (p{tail_pct:.1f} of "
          f"{len(best_walls)} ops, {beyond} beyond)")
    print(f"  {'failed_frac':<12} {(len(unexpected) + len(known)) / attempted:.4f} ratio  "
          f"({len(unexpected)} unexpected + {len(known)} known of {attempted})")
    print(f"  {'peak_rss_mb':<12} {e2e['peak_rss_mb']:.1f} MB")
    for item in sorted({json.dumps(k, sort_keys=True) for k in known}):
        item = json.loads(item)
        print(f"known defect: {item['op']}: {item['defect']}")
    for item in res["fixed_defects"]:
        print(f"known defect no longer reproduces: {item}")
    for item in unexpected:
        print(f"FAILED: {item['op']}: {item['problem']}")
    correct = not unexpected
    if args.trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28} {layers[name]:.6g} {unit}")
        for solve in res["top_solves"]:
            print(f"heaviest solve: {solve['label']} order {solve['order']}: {solve['iterations']} "
                  f"iterations, {solve['status']}, {solve['seconds']:.4f} s")
        det = res["determinism"]
        print(f"exact counts: compared over {det['compared_passes']} pass(es)"
              f"{' and an earlier run' if det['compared_earlier'] else ''}, "
              f"{len(det['mismatches'])} mismatches; spans in {res['spans_file']}")
        for line in det["mismatches"]:
            print(f"NON-DETERMINISM: {line}")
        correct = correct and not det["mismatches"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(unexpected),
                      "metrics": metrics}))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PAIR_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs a few small ops, for the self-test")
    args = parser.parse_args()
    overridden = [f"{v}={os.environ[v]}" for v in THREAD_VARS if os.environ.get(v, "1") != "1"]
    if overridden:
        print(f"refusing to run: {', '.join(overridden)}; the benchmark pins BLAS/OpenMP "
              "to one thread", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT_S
    try:
        setups = [run_worker(args, deadline, setup_only=True)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, result = run_worker(args, deadline, setup_only=False)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    return report(args, setups + [setup_s], result)


if __name__ == "__main__":
    sys.exit(main())
