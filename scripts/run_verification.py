#!/usr/bin/env python3
"""Run the full verification battery and write one JSON report per suite.

The exact algebra run dominates the runtime (about 24-29 s at 1000 trials
on a 2-vCPU host, of about 39-42 s for the whole battery); --skip-exact
drops it when iterating on the sphere suites.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from su3forms.forms import EXACT, FLOAT
from su3forms.identities import run_algebra_suite
from su3forms.report import VerificationReport
from su3forms.suites import (
    verify_cl_identities,
    verify_gray,
    verify_linearized_basis,
    verify_spectral,
)


def emit(report: VerificationReport, outdir: Path, name: str) -> bool:
    print(f"== {name} ==")
    for line in report.summary_lines():
        print(line)
    (outdir / f"{name}.json").write_text(report.to_json() + "\n")
    print()
    return report.all_passed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--cl-samples", type=int, default=30)
    ap.add_argument("--h", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    ap.add_argument("--skip-exact", action="store_true")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    ok = True
    if not args.skip_exact:
        ok &= emit(
            run_algebra_suite(args.trials, args.seed, EXACT),
            args.outdir, "algebra-exact",
        )
    ok &= emit(
        run_algebra_suite(args.trials, args.seed, FLOAT),
        args.outdir, "algebra-float",
    )
    ok &= emit(verify_gray(args.samples, args.h, args.seed), args.outdir, "gray")
    ok &= emit(
        verify_spectral(args.samples, args.h, args.seed), args.outdir, "spectral"
    )
    ok &= emit(
        verify_linearized_basis(args.samples, args.h, args.seed),
        args.outdir, "linearized",
    )
    ok &= emit(
        verify_cl_identities(args.cl_samples, args.h, args.seed),
        args.outdir, "cl-identities",
    )
    print(f"{'all suites pass' if ok else 'FAILURES above'}"
          f"  ({time.perf_counter() - t0:.1f}s, reports in {args.outdir}/)")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
