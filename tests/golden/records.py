"""The record corpus: theta-bar and chi-vec records of 146 graphs.

The graphs are K_1-K_10, C_3-C_20, P_2-P_10, Petersen, omega 2, 4 and 6;
every product of at most 60 vertices, in the five kinds, over ordered
pairs of C5, C7, Petersen and K3; and 40 seeded G(n, 1/2) of orders
6-16.  Each graph's line gives its label, order and edge hash, and for
each program the status, the method, the iterations and the ``float.hex``
of the value and of the certified interval, at the default solver
settings.

Run ``PYTHONPATH=src python tests/golden/records.py`` from the repository
root to write ``records.json`` beside this script.  A change that moves
no record leaves the file as it is; ``tests/test_records.py`` rebuilds
the records and compares them with the file.
"""

import json
from pathlib import Path

from vecchrom.errors import ConvergenceError
from vecchrom.graphs import ProductKind, edge_hash, erdos_renyi, generate, product
from vecchrom.params import GraphFacts

PATH = Path(__file__).with_name("records.json")


def corpus() -> list:
    graphs = [generate("complete", n) for n in range(1, 11)]
    graphs += [generate("cycle", n) for n in range(3, 21)]
    graphs += [generate("path", n) for n in range(2, 11)]
    graphs += [generate("petersen")] + [generate("omega", n) for n in (2, 4, 6)]
    factors = [generate("cycle", 5), generate("cycle", 7), generate("petersen"),
               generate("complete", 3)]
    graphs += [product(kind, G, H) for kind in ProductKind
               for G in factors for H in factors if G.n * H.n <= 60]
    graphs += [erdos_renyi(6 + seed % 11, 0.5, rng=seed, label=f"gnp_{6 + seed % 11}_s{seed}")
               for seed in range(40)]
    return graphs


def record(G) -> dict:
    """G's line: a failed solve gives status "solver_failure" and the
    fields of its partial result, when it has one."""
    facts, out = GraphFacts(G), {"graph": G.label, "n": G.n, "edge_hash": edge_hash(G)}
    for which in ("theta_bar", "chi_vec"):
        try:
            result, status = facts.param(which), "ok"
        except ConvergenceError as exc:
            result, status = exc.partial, "solver_failure"
        out[which] = {"status": status}
        if result is not None:
            out[which].update(
                method=result.method, iterations=result.iterations,
                **{key: float(getattr(result, key)).hex() for key in ("value", "lower", "upper")})
    return out


def records() -> list:
    return [record(G) for G in corpus()]


def dumps(lines: list) -> str:
    """One record a line, keys sorted, so that a moved record is one changed line."""
    return "[\n" + ",\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n]\n"


if __name__ == "__main__":
    PATH.write_text(dumps(records()), encoding="utf-8")
