"""Mutation gate for the checks that "certified" rests on.

Each mutant below is one edit of a file under ``src/`` that breaks a
stated claim.  For each, the script copies ``src/`` to a temporary
directory, applies the edit there (its old text must occur exactly once
in the file), and runs the named test modules against the copy with
``pytest -x``.  The tests must fail: a mutant that passes them survives.
The script exits 1 when a mutant survives or an edit does not apply, and
leaves the repository's own files as they are.

Run from anywhere: ``python tests/mutants.py``.  The file is not named
``test_*.py``, so pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple  # pytest paths, relative to the repository root
    claim: str  # what the edit breaks


MUTANTS = [
    Mutant("vecchrom/identities.py",
           "bool(res <= tol and certified)", "bool(res <= tol)",
           ("tests/test_identities.py",),
           "an identity check whose interval lacks a certificate fails, even when it fits"),
    Mutant("vecchrom/colorings.py",
           "UNIT_NORM_TOL = 1e-8", "UNIT_NORM_TOL = 1e-3",
           ("tests/test_colorings.py",),
           "a vector coloring's rows have unit norm within 1e-8"),
]


def run(mutant: Mutant) -> str | None:
    """None when the tests kill the mutant, else what went wrong."""
    with tempfile.TemporaryDirectory(prefix="vecchrom-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text(encoding="utf-8")
        if (count := text.count(mutant.old)) != 1:
            return f"the old text occurs {count} times in {mutant.file}, not once"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # PYTHONPATH comes before site-packages, so an installed vecchrom
        # does not shadow the copy
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    if tests.returncode == 0:
        return "survived: the tests pass with the edit"
    if tests.returncode != 1:  # 1 is "tests failed"; anything else is a broken run
        return f"pytest exited {tests.returncode}:\n{tests.stdout}{tests.stderr}"
    return None


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        problem = run(mutant)
        verdict = "killed" if problem is None else f"FAILED, {problem}"
        print(f"{mutant.file}: {mutant.old!r} -> {mutant.new!r} ({mutant.claim}): {verdict}")
        failed += problem is not None
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
