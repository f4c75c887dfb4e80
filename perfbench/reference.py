#!/usr/bin/env python3
"""One-off reference pass: every suite once at its acceptance configuration.

    python3 perfbench/reference.py

Runs the exact and float algebra suites at 1000 trials, the gray, spectral
and linearized suites at 50 points and the cl suite at 30 points, with
seed 0 as the acceptance tests use, and prints one JSON line per suite: its
wall time, the budget the acceptance gate sets for it (criterion 1: 60 s,
criterion 4: 120 s; null where there is none) and whether it passed.  This
is not part of the repeated workloads; it takes about three minutes on a
2-vCPU host.
"""

from __future__ import annotations

import json
import sys
import time

from run import machine, prepare

#: (name, entry point, keyword arguments, budget in seconds or None)
PASSES = (
    ("algebra-exact", "run_algebra_suite", {"trials": 1000, "mode": "exact"}, 60.0),
    ("algebra-float", "run_algebra_suite", {"trials": 1000, "mode": "float"}, None),
    ("gray", "verify_gray", {"samples": 50}, 120.0),
    ("spectral", "verify_spectral", {"samples": 50}, None),
    ("linearized", "verify_linearized_basis", {"samples": 50}, None),
    ("cl", "verify_cl_identities", {"samples": 30}, None),
)


def main() -> int:
    prepare()
    import su3forms

    print("provenance: " + json.dumps(machine(), sort_keys=True))
    ok = True
    for name, entry, kwargs, budget in PASSES:
        t0 = time.perf_counter()
        report = getattr(su3forms, entry)(seed=0, **kwargs)
        seconds = time.perf_counter() - t0
        within = budget is None or seconds <= budget
        ok &= report.all_passed and within
        print(json.dumps({
            "suite": name, "config": kwargs, "seconds": round(seconds, 2),
            "budget_s": budget, "passed": report.all_passed, "within_budget": within,
        }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
