"""Command-line driver for the verification suites and decompositions.

    su3forms verify-algebra --trials 1000 --mode exact --out report.json
    su3forms decompose --kind 3form < form.json
    su3forms verify-s6 --suite all --samples 50 --h 1e-3
    su3forms verify-s6 --suite linearized --deform a=e7

Verify commands print one line per check and write the full report as JSON
when --out is given; identical configurations produce byte-identical files.
Exit code 0 means every check passed, 1 means at least one failed, 2 is a
usage or input error.  `decompose` reads one form (or endomorphism) as JSON
on stdin and prints its components plus the reconstruction residual.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from su3forms import suites
from su3forms.forms import (
    EXACT,
    FLOAT,
    AlgebraError,
    Form,
    decode_scalar,
    encode_scalar,
)
from su3forms.identities import run_algebra_suite
from su3forms.report import VerificationReport, merge_reports
from su3forms.sphere import MIN_STEP
from su3forms.structure import (
    Endo,
    decompose_anti_endo,
    decompose_three_form,
    decompose_two_form,
    vector_cross_endo,
)

ALGEBRA = "algebra"
S6_SUITES = ("gray", "linearized", "spectral", "cl", "all")


@dataclass(frozen=True)
class SuiteConfig:
    """Validated parameter bundle shared by the verify commands."""

    suite: str
    trials: int = 1000
    seed: int = 0
    mode: str = EXACT
    h: float = 1e-3
    samples: int = 50
    out: str | None = None

    def problem(self) -> str | None:
        if self.suite != ALGEBRA and self.suite not in S6_SUITES:
            return f"unknown suite {self.suite!r}"
        if self.trials < 1:
            return "trials must be at least 1"
        if self.samples < 1:
            return "samples must be at least 1"
        if not MIN_STEP < self.h < 1e-1:
            return f"step {self.h} outside the usable range ({MIN_STEP:g}, 0.1)"
        if self.mode not in (EXACT, FLOAT):
            return f"unknown mode {self.mode!r}"
        return None


def _emit(report: VerificationReport, out: str | None) -> int:
    for line in report.summary_lines():
        print(line)
    if out:
        with open(out, "w") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.all_passed else 1


def cmd_verify_algebra(cfg: SuiteConfig) -> int:
    report = run_algebra_suite(trials=cfg.trials, seed=cfg.seed, mode=cfg.mode)
    return _emit(report, cfg.out)


def _parse_direction(text: str) -> np.ndarray:
    body = text[2:] if text.startswith("a=") else text
    if body.startswith("e") and body[1:].isdigit():
        i = int(body[1:])
        if not 1 <= i <= 7:
            raise ValueError(f"basis direction must be e1..e7, got {body!r}")
        return np.eye(7)[i - 1]
    parts = [float(x) for x in body.split(",")]
    if len(parts) != 7:
        raise ValueError(f"direction needs 7 components, got {len(parts)}")
    v = np.asarray(parts)
    if not np.linalg.norm(v):
        raise ValueError("direction must be nonzero")
    return v


def cmd_verify_s6(cfg: SuiteConfig, deform: str | None) -> int:
    if deform is not None:
        a = _parse_direction(deform)
        report = suites.verify_linearized(a, cfg.samples, cfg.h, cfg.seed)
        return _emit(report, cfg.out)
    if cfg.suite == "gray":
        report = suites.verify_gray(cfg.samples, cfg.h, cfg.seed)
    elif cfg.suite == "spectral":
        report = suites.verify_spectral(cfg.samples, cfg.h, cfg.seed)
    elif cfg.suite == "linearized":
        report = suites.verify_linearized_basis(cfg.samples, cfg.h, cfg.seed)
    elif cfg.suite == "cl":
        report = suites.verify_cl_identities(cfg.samples, cfg.h, cfg.seed)
    else:
        report = merge_reports(
            "s6",
            [
                suites.verify_gray(cfg.samples, cfg.h, cfg.seed),
                suites.verify_spectral(cfg.samples, cfg.h, cfg.seed),
                suites.verify_linearized_basis(cfg.samples, cfg.h, cfg.seed),
                suites.verify_cl_identities(cfg.samples, cfg.h, cfg.seed),
            ],
        )
    return _emit(report, cfg.out)


# ---------------------------------------------------------------------------
# decompositions on stdin/stdout


def _vector_components(u: Form, mode: str) -> list:
    return [encode_scalar(u.coeff(1 << i), mode) for i in range(6)]


def _endo_rows(e: Endo, mode: str) -> list:
    return [[encode_scalar(v, mode) for v in row] for row in e.rows]


def _decompose_payload(kind: str, data) -> dict:
    if kind == "endo":
        mode = data["mode"]
        f = Endo(mode, [[decode_scalar(v, mode) for v in row] for row in data["rows"]])
        s, xi = decompose_anti_endo(f)
        residual = (f - (s + vector_cross_endo(xi))).max_norm()
        return {
            "S": _endo_rows(s, f.mode),
            "xi": _vector_components(xi, f.mode),
            "residual": float(residual),
        }
    u = Form.from_json_dict(data)
    if kind == "3form":
        parts = decompose_three_form(u)
        return {
            "alpha": _vector_components(parts.alpha, u.mode),
            "lambda": encode_scalar(parts.lam, u.mode),
            "mu": encode_scalar(parts.mu, u.mode),
            "S": _endo_rows(parts.s, u.mode),
            "residual": float((u - parts.reconstruct()).max_norm()),
        }
    parts = decompose_two_form(u)
    return {
        "phi0": parts.primitive.to_json_dict(),
        "c": encode_scalar(parts.omega_coeff, u.mode),
        "xi": _vector_components(parts.xi, u.mode),
        "residual": float((u - parts.reconstruct()).max_norm()),
    }


def cmd_decompose(kind: str, stream=None) -> int:
    stream = sys.stdin if stream is None else stream
    try:
        data = json.load(stream)
        payload = _decompose_payload(kind, data)
    except (json.JSONDecodeError, AlgebraError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su3forms",
        description="identity suites and six-sphere verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("verify-algebra", help="exact/float identity suites")
    alg.add_argument("--trials", type=int, default=1000)
    alg.add_argument("--seed", type=int, default=0)
    alg.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    alg.add_argument("--out", help="write the JSON report here")

    dec = sub.add_parser("decompose", help="split a form into its components")
    dec.add_argument("--kind", choices=("2form", "3form", "endo"), required=True)

    s6 = sub.add_parser("verify-s6", help="finite-difference sphere suites")
    s6.add_argument("--suite", choices=S6_SUITES, default="all")
    s6.add_argument("--samples", type=int, default=50)
    s6.add_argument("--h", type=float, default=1e-3)
    s6.add_argument("--seed", type=int, default=0)
    s6.add_argument("--deform", help="single deformation direction, e.g. a=e7")
    s6.add_argument("--out", help="write the JSON report here")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "verify-algebra":
        cfg = SuiteConfig(
            suite=ALGEBRA, trials=args.trials, seed=args.seed,
            mode=args.mode, out=args.out,
        )
        if (msg := cfg.problem()):
            parser.error(msg)
        return cmd_verify_algebra(cfg)

    if args.command == "decompose":
        return cmd_decompose(args.kind)

    cfg = SuiteConfig(
        suite=args.suite, seed=args.seed, mode=FLOAT,
        h=args.h, samples=args.samples, out=args.out,
    )
    if (msg := cfg.problem()):
        parser.error(msg)
    if args.deform is not None:
        try:
            _parse_direction(args.deform)
        except ValueError as exc:
            parser.error(str(exc))
    return cmd_verify_s6(cfg, args.deform)


if __name__ == "__main__":
    sys.exit(main())
