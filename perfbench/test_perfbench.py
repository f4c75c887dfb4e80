"""Self-tests of the benchmark: its gate catches injected defects, it fails
closed, and its output matches the declared metrics.

Run from the repository root with:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
from su3forms import verify_gray, verify_linearized  # noqa: E402
from su3forms.report import CheckResult, VerificationReport  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, JobRecord, deterministic, exact_gate, run_job  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_defective_gray_job_raises_fail_ratio():
    w = WORKLOADS["s6-stencil"]
    healthy = run_job(w, 3, job=lambda s: [verify_gray(samples=2, seed=s)])
    broken = run_job(
        w, 3, job=lambda s: [verify_gray(samples=2, seed=s, defect="flip_psi_minus")]
    )
    assert healthy.passed and not broken.passed
    assert bench.verdict([healthy], 0) == (True, 1, 0)
    assert bench.verdict([healthy, broken], 0) == (False, 2, 1)


def test_defective_linearized_job_raises_fail_ratio():
    w = WORKLOADS["s6-stencil"]
    a = np.eye(7)[2]
    healthy = run_job(w, 4, job=lambda s: [verify_linearized(a, samples=2, seed=s)])
    broken = run_job(
        w, 4,
        job=lambda s: [
            verify_linearized(a, samples=2, seed=s, defect="scale_psi_plus_dot")
        ],
    )
    assert healthy.passed and not broken.passed
    assert bench.verdict([healthy, broken], 0) == (False, 2, 1)


def test_zero_job_run_cannot_pass():
    assert bench.verdict([], 0) == (False, 0, 0)


def test_raising_or_empty_job_counts_as_failed():
    w = WORKLOADS["algebra-float"]
    crashed = run_job(w, 0, job=lambda s: 1 / 0)
    assert not crashed.passed and "ZeroDivisionError" in crashed.error
    assert not run_job(w, 0, job=lambda s: []).passed


def test_exact_gate_rejects_any_nonzero_residual():
    tiny = VerificationReport(
        "algebra-exact", None, 1, 0, (CheckResult("c", 1e-300, None, True),)
    )
    assert not exact_gate(tiny)


def test_determinism_mismatch_fails_the_run():
    w = WORKLOADS["algebra-float"]
    first = run_job(w, 5)
    assert first.passed and deterministic(first, run_job(w, 5))
    drifted = JobRecord(first.seed, 0.0, True, ("{}",))
    assert not deterministic(first, drifted)
    assert bench.verdict([first, drifted], 1) == (False, 2, 1)


def test_tracer_restores_every_binding():
    import su3forms
    from su3forms import forms, identities, sampling, suites

    before = (forms.wedge, identities.wedge, identities.CHECKS,
              sampling.random_form, su3forms.verify_gray, suites.verify_gray)
    tracer = Tracer()
    tracer.install()
    try:
        assert identities.wedge is forms.wedge is not before[0]
    finally:
        tracer.uninstall()
    after = (forms.wedge, identities.wedge, identities.CHECKS,
             sampling.random_form, su3forms.verify_gray, suites.verify_gray)
    assert all(a is b for a, b in zip(after, before))


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_untraced_run_prints_the_end_to_end_metrics():
    out = _result(_run("--workload", "algebra-float", "--seed", "1", "--seconds", "1"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == _declared("end_to_end")


def test_traced_runs_repeat_their_call_counts():
    args = ("--workload", "algebra-float", "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    assert first["correct"] and second["correct"]
    got = {k: v["unit"] for k, v in first["metrics"].items()}
    assert got == _declared("per_layer")
    calls = [k for k in got if k.endswith(".calls")]
    assert first["metrics"]["forms.wedge.calls"]["value"] > 0
    assert all(
        first["metrics"][k]["value"] == second["metrics"][k]["value"] for k in calls
    )


def test_fails_closed_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "algebra-exact", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
