#!/usr/bin/env python3
"""su3forms benchmark: a closed loop from one client (one process, one thread).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each job is a call into the public suite
entry points with its own seed, derived from --seed; its reports must pass
the workload's gate (exact residuals exactly 0, float residuals <= 1e-12,
sphere suites within their tolerances and order band).  One job per run is
re-run with the same seed and must reproduce its reports byte for byte.

--trace 0 prints the end-to-end metrics of an untraced run.  --trace 1 runs
a fixed number of jobs (set by the run length) untraced and then traced,
and prints the per-layer metrics, the per-primitive microbenchmarks and the
tracing overhead.  The last line of standard output is the result object;
the lines before it give provenance, sample counts and the projection of
the suite's acceptance configuration.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_FUNCTIONS, SUITE_FUNCTIONS, Tracer
from workloads import WORKLOADS, deterministic, job_seeds, run_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh interpreters timed for set-up; the median is reported
SETUP_RUNS = 7

#: child process: import su3forms, then the lazy set-up of the first job,
#: taken as the first probe call minus the faster of two warm ones
_SETUP_CHILD = """
import sys, time
from workloads import WORKLOADS
probe = WORKLOADS[sys.argv[1]].probe
seed = int(sys.argv[2])
t0 = time.perf_counter()
import su3forms
t1 = time.perf_counter()
probe(seed)
t2 = time.perf_counter()
warm = []
for _ in range(2):
    t = time.perf_counter()
    probe(seed)
    warm.append(time.perf_counter() - t)
print((t1 - t0) + max(0.0, (t2 - t1) - min(warm)))
"""


def measure_setup(workload: str, seed: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = []
    for i in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, workload, str(seed + i)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def prepare() -> None:
    """Put the sources on the path and keep BLAS pools to one thread, in
    this process and its set-up children; call before numpy is imported."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def machine() -> dict:
    """Where a number was measured: figures from another host are marked."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def provenance(args, workload) -> dict:
    return {
        **machine(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "job_size": f"{workload.items_per_job} {workload.item}(s)",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def verdict(records, mismatches: int) -> tuple[bool, int, int]:
    """(correct, attempted, failed); a run with no jobs cannot pass."""
    failed = sum(not r.passed for r in records) + mismatches
    return len(records) >= 1 and failed == 0, len(records), failed


def warm_up(workload, seed: int) -> None:
    workload.probe(seed)
    gc.collect()
    gc.freeze()


def end_to_end(args, workload) -> tuple[dict, list, int]:
    setup = measure_setup(workload.name, args.seed)
    seeds = job_seeds(args.seed)
    warm_up(workload, next(seeds))

    # the second job re-runs the first one's seed: the determinism check
    first = next(seeds)
    plan = itertools.chain([first, first], seeds)
    records = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds or len(records) < 2:
        records.append(run_job(workload, next(plan)))
    elapsed = time.perf_counter() - t0
    mismatches = 0 if deterministic(records[0], records[1]) else 1

    latencies = [r.seconds for r in records]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    items_per_s = sum(r.passed for r in records) * workload.items_per_job / elapsed
    _, attempted, failed = verdict(records, mismatches)
    print(f"samples: {len(latencies)} timed jobs, {SETUP_RUNS} set-up runs")
    # the median job reads whichever host speed held most of the run, so it
    # is printed but not reported as a bounded metric
    print(f"job_s_p50: {statistics.median(latencies):.4g} s")
    if items_per_s:
        projected = workload.acceptance_items / items_per_s
        budget = workload.acceptance_budget_s
        print(
            f"projection: {workload.acceptance_label} would take {projected:.1f} s"
            + (f" against its {budget:.0f} s budget" if budget else " (no budget)")
        )
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "items_per_s": metric(items_per_s, "1/s"),
        "job_s_p90": metric(p90, "s"),
        "pass_ratio": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
    }
    return metrics, records, mismatches


def per_layer(args, workload) -> tuple[dict, list, int]:
    from micro import microbenchmarks

    seeds = job_seeds(args.seed)
    warm_up(workload, next(seeds))
    micro = microbenchmarks(args.seed)

    n_jobs = max(1, int(args.seconds * workload.trace_jobs_per_s))
    job_list = [next(seeds) for _ in range(n_jobs)]
    t0 = time.perf_counter()
    plain = [run_job(workload, s) for s in job_list]
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = [run_job(workload, s) for s in job_list]
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    mismatches = sum(not deterministic(a, b) for a, b in zip(plain, traced))
    items = len(job_list) * workload.items_per_job
    trials = items if workload.item == "trial" else 0
    print(f"samples: {len(job_list)} jobs, {items} items, untraced then traced")

    def per_item(seconds: float) -> float:
        return seconds * 1e3 / items

    metrics = {}
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            stat = tracer.stat(f"{module}.{name}")
            metrics[f"{module}.{name}.calls"] = metric(stat.calls, "count")
            metrics[f"{module}.{name}.self_ms_per_item"] = metric(per_item(stat.self_s), "ms")
    sampling = tracer.stat("sampling")
    metrics["sampling.calls"] = metric(sampling.calls, "count")
    metrics["sampling.self_ms_per_item"] = metric(per_item(sampling.self_s), "ms")
    from su3forms.identities import CHECKS

    for name, _ in CHECKS:
        total = tracer.stat(f"identities.{name}").total_s
        metrics[f"identities.{name}.ms_per_trial"] = metric(
            total * 1e3 / trials if trials else 0.0, "ms"
        )
    for module, names in SUITE_FUNCTIONS.items():
        for name in names:
            stat = tracer.stat(f"{module}.{name}")
            metrics[f"{module}.{name}.self_ms_per_item"] = metric(per_item(stat.self_s), "ms")
    for key in ("sphere.adapted_frame", "sphere.pullback_form"):
        metrics[f"{key}.distinct_ratio"] = metric(tracer.distinct_ratio(key), "ratio")
    metrics["sphere.pullback_form.minors"] = metric(tracer.minors, "count-computed")
    metrics["trace.overhead_ratio"] = metric(plain_s / traced_s, "ratio")
    for name, us in micro.items():
        metrics[name] = metric(us, "us")
    return metrics, plain + traced, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "su3forms" / "__init__.py").is_file():
        print(f"su3forms sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    prepare()
    workload = WORKLOADS[args.workload]
    run = per_layer if args.trace else end_to_end
    metrics, records, mismatches = run(args, workload)
    correct, attempted, failed = verdict(records, mismatches)
    for r in records:
        if not r.passed:
            print(f"failed job: seed {r.seed}: {r.error or 'gate failed'}")
    if mismatches:
        print(f"failed determinism re-run: {mismatches} job(s) changed their report")
    print("provenance: " + json.dumps(provenance(args, workload), sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
