"""Smoke tests of the command-line scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args, code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert rows
    if code == 0:
        assert not [row for row in rows if "NO" in row.split()]
    return rows


def test_run_identities_script():
    rows = _run_script("run_identities.py")
    # five named pairs, six checks each, plus the union check of (C_5, C_5)
    assert len([row for row in rows if row.endswith("yes")]) == 31
    assert rows[-1].startswith("done in") and rows[-1].endswith(", 0 failed")


def test_run_identities_script_exits_on_failure():
    # at tolerance 0 no certified interval of a C_5 row is a single point
    rows = _run_script("run_identities.py", "--tol", "0", code=1)
    c5_rows = [row for row in rows if row.startswith("C_5")]
    assert c5_rows and any(row.endswith("NO") for row in c5_rows)
    assert not rows[-1].endswith(", 0 failed")


def test_omega_table_script():
    rows = _run_script("omega_table.py", "--max-n", "4")
    assert [row.split()[0] for row in rows] == ["1", "2", "3", "4"]
    # omega_4: 1-homogeneous, closed form 4 and the SDP agreeing with it
    *_, onehom, formula, value = rows[-1].split()
    assert onehom == "yes"
    assert float(formula) == pytest.approx(4.0) and float(value) == pytest.approx(4.0)
