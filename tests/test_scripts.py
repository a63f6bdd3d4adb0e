"""Smoke tests of the command-line scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[1:]


def test_omega_table_script():
    rows = _run_script("omega_table.py", "--max-n", "4")
    assert [row.split()[0] for row in rows] == ["1", "2", "3", "4"]
    # omega_4: 1-homogeneous, closed form 4 and the SDP agreeing with it
    *_, onehom, formula, value = rows[-1].split()
    assert onehom == "yes"
    assert float(formula) == pytest.approx(4.0) and float(value) == pytest.approx(4.0)
