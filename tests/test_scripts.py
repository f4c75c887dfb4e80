"""Smoke tests of the scripts."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_convergence_study_prints_every_sweep():
    proc = run_script("convergence_study.py", "--samples", "1", "--rungs", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for header in ("structure equations", "linearized equations", "divergence identities"):
        assert f"== {header} ==" in proc.stdout
