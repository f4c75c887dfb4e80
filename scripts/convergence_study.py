#!/usr/bin/env python3
"""Step-size sweep for the finite-difference suites.

Halving ladders make the observed order readable directly: a column of
residuals should shrink by about 4x per row for the second-order stencils.
The five-form check is Richardson-extrapolated in the suite, so it drops
much faster; its plain-stencil order is reported by the suite itself.
"""

from __future__ import annotations

import argparse

import numpy as np

from su3forms.suites import verify_cl_identities, verify_gray, verify_linearized


def ladder(top: float, rungs: int) -> list[float]:
    return [top / 2**i for i in range(rungs)]


def sweep(name: str, runner, steps: list[float]) -> None:
    reports = [runner(h) for h in steps]
    names = [c.name for c in reports[0].checks if c.conv_order is not None]
    print(f"== {name} ==")
    header = "h".rjust(10) + "".join(n[-24:].rjust(26) for n in names)
    print(header)
    prev = None
    for h, report in zip(steps, reports):
        res = {c.name: c.max_residual for c in report.checks}
        row = f"{h:10.1e}"
        for n in names:
            order = ""
            if prev is not None and res[n] > 0:
                order = f" (o={np.log2(prev[n] / res[n]):4.2f})"
            row += f"{res[n]:14.3e}{order:>12}"
        print(row)
        prev = res
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--top", type=float, default=8e-3, help="largest step")
    ap.add_argument("--rungs", type=int, default=5, help="halvings from --top")
    args = ap.parse_args()
    steps = ladder(args.top, args.rungs)

    sweep("structure equations", lambda h: verify_gray(args.samples, h, args.seed), steps)
    sweep(
        "linearized equations",
        lambda h: verify_linearized(np.eye(7)[6], args.samples, h, args.seed),
        steps,
    )
    sweep(
        "divergence identities",
        lambda h: verify_cl_identities(max(2, args.samples // 2), h, args.seed),
        steps,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
