"""Workloads, jobs and the per-job correctness gate.

A job is one call (or, on s6-stencil, one fixed group of calls) into the
public suite entry points, with its own seed derived from the workload
seed.  Entry points are looked up on the `su3forms` package at call time,
so a tracer that rebinds them there sees every job, and so importing this
module loads neither su3forms nor numpy before the runner has limited the
BLAS thread pools.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

#: float-mode residual limit of the algebra suite
FLOAT_TOL = 1e-12


def _su3():
    import su3forms

    return su3forms


def _algebra_job(mode: str, trials: int):
    def job(seed: int):
        return [_su3().run_algebra_suite(trials=trials, seed=seed, mode=mode)]

    return job


def _stencil_job(samples: int):
    def job(seed: int):
        s = _su3()
        return [
            s.verify_gray(samples=samples, seed=seed),
            s.verify_spectral(samples=samples, seed=seed),
            s.verify_linearized_basis(samples=samples, seed=seed),
        ]

    return job


def _divergence_job(samples: int):
    def job(seed: int):
        return [_su3().verify_cl_identities(samples=samples, seed=seed)]

    return job


def _stencil_probe(seed: int):
    """The stencil job's lazy set-up at a fraction of its cost: one
    deformation direction instead of seven builds the same tables."""
    import numpy as np

    s = _su3()
    return [
        s.verify_gray(samples=1, seed=seed),
        s.verify_spectral(samples=1, seed=seed),
        s.verify_linearized(np.eye(7)[0], samples=1, seed=seed),
    ]


def _divergence_probe(seed: int):
    """A cl call costs seconds; the stencil probe plus one float 3-form
    decomposition builds the tables a cl job builds."""
    s = _su3()
    return _stencil_probe(seed) + [s.decompose_three_form(s.psi_minus("float"))]


def exact_gate(report) -> bool:
    return report.all_passed and all(c.max_residual == 0 for c in report.checks)


def float_gate(report) -> bool:
    return report.all_passed and all(c.max_residual <= FLOAT_TOL for c in report.checks)


def suite_gate(report) -> bool:
    return report.all_passed


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `items_per_job` counts `item`s: trials (algebra) or sample points
    (sphere); `probe` is a cheap call that triggers the job's lazy set-up;
    `trace_jobs_per_s` fixes the traced run's job count from the run length,
    so traced call counts repeat exactly for a fixed seed and length;
    `acceptance_items`, `acceptance_budget_s` and `acceptance_label` name the
    suite's acceptance configuration for the projection line.
    """

    name: str
    job: Callable[[int], list]
    gate: Callable[[object], bool]
    item: str
    items_per_job: int
    probe: Callable[[int], list]
    trace_jobs_per_s: float
    acceptance_items: int
    acceptance_budget_s: float | None
    acceptance_label: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="algebra-exact", job=_algebra_job("exact", 1), gate=exact_gate,
            item="trial", items_per_job=1, probe=_algebra_job("exact", 1),
            trace_jobs_per_s=2.0, acceptance_items=1000, acceptance_budget_s=60.0,
            acceptance_label="exact suite, 1000 trials",
        ),
        # Runnable by name but not listed in BENCHMARK.json: ten-run sets
        # spread by up to 0.27 of their median on a shared 2-vCPU host, and
        # two workloads leave room for longer runs.
        Workload(
            name="algebra-float", job=_algebra_job("float", 2), gate=float_gate,
            item="trial", items_per_job=2, probe=_algebra_job("float", 1),
            trace_jobs_per_s=4.0, acceptance_items=1000, acceptance_budget_s=None,
            acceptance_label="float suite, 1000 trials",
        ),
        Workload(
            name="s6-stencil", job=_stencil_job(1), gate=suite_gate,
            item="point", items_per_job=1, probe=_stencil_probe,
            trace_jobs_per_s=0.8, acceptance_items=50, acceptance_budget_s=None,
            acceptance_label="gray + spectral + linearized, 50 points",
        ),
        # 20 points keep two gate points per job, so the co-closed gate takes
        # about the share of the job it takes at the 30-point acceptance run.
        # Runnable by name but not listed in BENCHMARK.json: on a shared
        # 2-vCPU host its runs spread by 0.23-0.32 of their median, more
        # than any bound allows.
        Workload(
            name="s6-divergence", job=_divergence_job(20), gate=suite_gate,
            item="point", items_per_job=20, probe=_divergence_probe,
            trace_jobs_per_s=0.05, acceptance_items=30, acceptance_budget_s=None,
            acceptance_label="cl identities, 30 points",
        ),
    )
}


def job_seeds(seed: int):
    """Endless stream of per-job seeds derived from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


@dataclass
class JobRecord:
    seed: int
    seconds: float
    passed: bool
    reports_json: tuple[str, ...] = ()
    error: str | None = None


def run_job(workload: Workload, seed: int, job=None) -> JobRecord:
    """Run one job, time it and gate every report it returns.

    A job that raises, returns no report, or returns a report that fails
    the workload's gate is recorded as failed.
    """
    job = job or workload.job
    t0 = time.perf_counter()
    try:
        reports = job(seed)
    except Exception as exc:  # a crashing job is a failed job, not a crashed run
        return JobRecord(seed, time.perf_counter() - t0, False, error=repr(exc))
    seconds = time.perf_counter() - t0
    passed = bool(reports) and all(
        r.samples >= 1 and r.checks and workload.gate(r) for r in reports
    )
    return JobRecord(seed, seconds, passed, tuple(r.to_json() for r in reports))


def deterministic(first: JobRecord, again: JobRecord) -> bool:
    """Same seed, same bytes: the re-run must reproduce every report."""
    return first.error is None and again.reports_json == first.reports_json
