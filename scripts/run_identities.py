#!/usr/bin/env python3
"""Sweep the product identities over named pairs and print a table.

Covers the Cartesian maximum rule, the categorical minimum rule for
theta-bar, strong/disjunctive multiplicativity, and the union bound.
Each row gives the certified interval of the left side and the claimed
right side; the script exits 1 when any check fails.

    python scripts/run_identities.py [--tol 1e-3] [--pairs N --size M --seed S]
"""

import argparse
import sys
import time

from vecchrom import generate, erdos_renyi
from vecchrom.identities import run_suite
from vecchrom.sdp import SolverConfig


def named_pairs():
    return [
        ("C_5, K_3", generate("cycle", 5), generate("complete", 3)),
        ("petersen, C_5", generate("petersen"), generate("cycle", 5)),
        ("C_5, C_5", generate("cycle", 5), generate("cycle", 5)),
        ("K_3, K_4", generate("complete", 3), generate("complete", 4)),
        ("C_7, petersen", generate("cycle", 7), generate("petersen")),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-3)
    parser.add_argument("--pairs", type=int, default=0, help="extra random pairs")
    parser.add_argument("--size", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = SolverConfig(tol=1e-6, max_iter=150000)
    cache = {}
    work = named_pairs()
    if args.pairs:
        import numpy as np

        rng = np.random.default_rng(args.seed)
        for i in range(args.pairs):
            work.append(
                (f"random pair {i}",
                 erdos_renyi(args.size, 0.5, rng=rng),
                 erdos_renyi(args.size, 0.5, rng=rng))
            )

    print(f"{'pair':18s} {'identity':28s} {'lower':>12s} {'upper':>12s} "
          f"{'rhs':>12s} {'resid':>9s}  ok")
    started = time.perf_counter()
    failed = 0
    for label, G, H in work:
        suites = ["sabidussi", "hedetniemi", "products"]
        if G.n == H.n:
            suites.append("union")
        for suite in suites:
            for check in run_suite(suite, G, H, cfg, args.tol, cache):
                low, up = check.detail["interval"]
                failed += not check.passed
                print(
                    f"{label:18s} {check.name:28s} {low:12.6f} {up:12.6f} "
                    f"{check.rhs:12.6f} {check.residual:9.2e}  {'yes' if check.passed else 'NO'}"
                )
    print(f"done in {time.perf_counter() - started:.1f}s over {len(cache)} cached "
          f"parameter values, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
