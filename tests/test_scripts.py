"""Smoke test of the verification battery script."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_verification_writes_every_report(tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "run_verification.py"),
            "--skip-exact", "--trials", "1", "--samples", "1", "--cl-samples", "1",
            "--outdir", str(tmp_path),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sorted(p.name for p in tmp_path.glob("*.json")) == [
        "algebra-float.json", "cl-identities.json", "gray.json",
        "linearized.json", "spectral.json",
    ]
