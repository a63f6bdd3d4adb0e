"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in ``BENCHMARK.json`` is printed with its
unit by both kinds of run, that the reference checks flag deliberately
wrong values, that a known defect does not hide a different failure, that
exact counts repeat for a fixed seed, and that the runner refuses a
thread override and fails without a result when the sources are missing.
It runs outside the test suite, so the tests take no longer.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from metrics import END_TO_END, PER_LAYER, UNGATED  # noqa: E402

failures: list[str] = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expect(listed[0] == END_TO_END, "BENCHMARK.json end_to_end matches metrics.END_TO_END")
    expect(listed[1] == PER_LAYER, "BENCHMARK.json per_layer matches metrics.PER_LAYER")
    for workload in ("suites", "certify", "exact"):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--scale", "tiny"])
            what = f"{workload} trace={trace}"
            expect(proc.returncode == 0, f"{what} exits 0 ({proc.stderr.strip()[-200:]})")
            result = last_json(proc.stdout)
            expect(result is not None and set(result) == {"correct", "attempted", "failed",
                                                          "metrics"},
                   f"{what} ends with the result object")
            if result is None:
                continue
            expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                   f"{what} is correct with no failed op")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == listed[trace], f"{what} reports exactly the listed metrics and units")
            text = proc.stdout.splitlines()[:-1]
            printed = {**listed[trace], **(UNGATED if trace == 0 else {})}
            missing = [name for name, unit in printed.items()
                       if not any(name in line and f" {unit}" in line for line in text)]
            expect(not missing, f"{what} prints every metric with its unit {missing or ''}")


def check_reference_checks():
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as workdir:
        certify = workloads.build("certify", 7, "full", workdir)
        theta_c5 = certify.ops[0]
        root5 = math.sqrt(5.0)
        expect(theta_c5.check((root5, True)) is None, "certify accepts the reference value")
        expect(theta_c5.check((root5 + 1e-3, True)) is not None, "certify flags a wrong value")
        expect(theta_c5.check((root5, False)) is not None, "certify flags a failed coloring")
        [c5xc7] = [op for op in certify.ops if workloads.PRIMAL_MAX_ITER in op.defects]

        def absorbed(op, outcome, error):
            return any(d.reproduces(outcome, error) for d in op.defects)

        expect(absorbed(c5xc7, None, "ConvergenceError: primal-form solve disagrees "
                                     "(status max_iter)"),
               "the C5xC7 primal failure is recognised as a known defect")
        expect(absorbed(theta_c5, None, "LinAlgError: Eigenvalues did not converge"),
               "an eigh non-convergence is recognised as a known defect")
        expect(not absorbed(c5xc7, None, "DomainError: degenerate target value"),
               "a different failure of that op is not absorbed by a known defect")

        exact = workloads.build("exact", 7, "tiny", workdir)
        by_kind = {op.name.split()[0]: op for op in exact.ops}
        code, record, size = by_kind["spectral"].run()
        expect(by_kind["spectral"].check((code, record, size)) is None,
               "exact accepts the spectral reference value")
        record["result"]["vector_chromatic"] += 1e-3
        expect(by_kind["spectral"].check((code, record, size)) is not None,
               "exact flags a wrong spectral value")
        expect(by_kind["onehom"].check((1, None, 0)) is not None, "exact flags a wrong exit code")
        nan = next(op for op in exact.ops if op.defects)
        expect(not absorbed(nan, (1, None, 0), None),
               "a usage error on the NaN certificate is not absorbed by the known defect")

        suites = workloads.build("suites", 7, "tiny", workdir)
        op = suites.ops[0]
        checks = op.run()
        expect(op.check(checks) is None, "suites accepts passing identity checks")
        checks[0].passed = False
        expect(op.check(checks) is not None, "suites flags a failed identity check")
        expect(op.check(checks[1:]) is not None, "suites flags a missing identity check")


def check_determinism():
    args = ["--workload", "certify", "--seed", "11", "--seconds", "1", "--trace", "1",
            "--scale", "tiny"]
    run(args)
    proc = run(args)
    expect(proc.returncode == 0 and "and an earlier run, 0 mismatches" in proc.stdout,
           "exact counts repeat across two traced runs of one seed")


def check_refusals():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="4")
    proc = run(["--workload", "exact", "--seed", "1", "--seconds", "1", "--scale", "tiny"],
               env=env)
    expect(proc.returncode != 0 and last_json(proc.stdout) is None,
           "a thread override is refused without a result")
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
        expect(proc.returncode != 0 and last_json(proc.stdout) is None,
               "without the program's sources the runner fails without a result")


def main():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_metric_names()
    check_reference_checks()
    check_determinism()
    check_refusals()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
