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


def test_run_verification_writes_every_report(tmp_path):
    proc = run_script(
        "run_verification.py",
        "--skip-exact", "--trials", "1", "--samples", "1", "--cl-samples", "1",
        "--outdir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.json")) == [
        "algebra-float.json", "cl-identities.json", "gray.json",
        "linearized.json", "spectral.json",
    ]


def test_convergence_study_prints_every_sweep():
    proc = run_script("convergence_study.py", "--samples", "1", "--rungs", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for header in ("structure equations", "linearized equations", "divergence identities"):
        assert f"== {header} ==" in proc.stdout
