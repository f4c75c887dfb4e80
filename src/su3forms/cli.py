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
import os
import sys
from typing import TYPE_CHECKING, Sequence

from su3forms.forms import (
    EXACT,
    FLOAT,
    AlgebraError,
    Form,
    decode_scalar,
    encode_scalar,
)
from su3forms.identities import run_algebra_suite
from su3forms.report import VerificationReport, merge_reports, require_count
from su3forms.structure import (
    Endo,
    decompose_anti_endo,
    decompose_three_form,
    decompose_two_form,
    vector_cross_endo,
)

# numpy, `sphere` and `suites` are imported only on the verify-s6 path
if TYPE_CHECKING:
    import numpy as np

S6_SUITES = ("gray", "linearized", "spectral", "cl", "all")


def _emit(report: VerificationReport, out: str | None) -> int:
    # the report goes first, so a failed write leaves nothing on stdout
    if out is not None:
        try:
            with open(out, "w") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for line in report.summary_lines():
        print(line)
    return 0 if report.all_passed else 1


def _parse_direction(text: str) -> np.ndarray:
    import numpy as np

    body = text[2:] if text.startswith("a=") else text
    if not body.isascii():
        raise ValueError(f"direction must be written in ASCII, got {body!r}")
    if body.startswith("e") and body[1:].isdigit():
        i = int(body[1:])
        if not 1 <= i <= 7:
            raise ValueError(f"basis direction must be e1..e7, got {body!r}")
        return np.eye(7)[i - 1]
    parts = [float(x) for x in body.split(",")]
    if len(parts) != 7:
        raise ValueError(f"direction needs 7 components, got {len(parts)}")
    return np.asarray(parts)


def cmd_verify_s6(args: argparse.Namespace, a: np.ndarray | None) -> int:
    from su3forms import suites

    samples, h, seed = args.samples, args.h, args.seed
    if a is not None:
        return _emit(suites.verify_linearized(a, samples, h, seed), args.out)
    runs = {
        "gray": suites.verify_gray,
        "spectral": suites.verify_spectral,
        "linearized": suites.verify_linearized_basis,
        "cl": suites.verify_cl_identities,
    }
    suite = args.suite or "all"
    if suite == "all":
        report = merge_reports("s6", [run(samples, h, seed) for run in runs.values()])
    else:
        report = runs[suite](samples, h, seed)
    return _emit(report, args.out)


# ---------------------------------------------------------------------------
# decompositions on stdin/stdout


def _vector_components(u: Form, mode: str) -> list:
    return [encode_scalar(u.coeff(1 << i), mode) for i in range(6)]


def _endo_rows(e: Endo, mode: str) -> list:
    return [[encode_scalar(v, mode) for v in row] for row in e.rows]


def _decompose_payload(kind: str, data) -> dict:
    if kind == "endo":
        try:
            mode = data["mode"]
            f = Endo(mode, [[decode_scalar(v, mode) for v in row] for row in data["rows"]])
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"endomorphism object needs 'mode' and 'rows', a list of lists: {exc}"
            ) from exc
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
        payload = _decompose_payload(kind, json.load(stream))
    except (AlgebraError, ValueError, OverflowError, RecursionError) as exc:
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

    alg = sub.add_parser("verify-algebra", help="exact/float identity suites", allow_abbrev=False)
    alg.add_argument("--trials", type=int, default=1000)
    alg.add_argument("--seed", type=int, default=0)
    alg.add_argument("--mode", choices=(EXACT, FLOAT), default=EXACT)
    alg.add_argument("--out", help="write the JSON report here")

    dec = sub.add_parser("decompose", help="split a form into its components", allow_abbrev=False)
    dec.add_argument("--kind", choices=("2form", "3form", "endo"), required=True)

    s6 = sub.add_parser("verify-s6", help="finite-difference sphere suites", allow_abbrev=False)
    s6.add_argument("--suite", choices=S6_SUITES, help="default: all")
    s6.add_argument("--samples", type=int, default=50)
    s6.add_argument("--h", type=float, default=1e-3)
    s6.add_argument("--seed", type=int, default=0)
    s6.add_argument("--deform", help="one linearized direction alone, e.g. a=e7")
    s6.add_argument("--out", help="write the JSON report here")

    return parser


def _check_report_path(parser: argparse.ArgumentParser, out: str | None) -> None:
    """Reject an --out that cannot be written, before any suite runs."""
    if out is None:
        return
    if not out:
        parser.error("report path is empty")
    if os.path.isdir(out):
        parser.error(f"report path {out} is a directory")
    folder = os.path.dirname(os.path.abspath(out))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        parser.error(f"report directory {folder} is missing or not writable")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "decompose":
        return cmd_decompose(args.kind)

    try:  # the library states each rule on counts, steps and directions
        if args.command == "verify-algebra":
            require_count("trials", args.trials)
        else:
            if args.deform is not None and args.suite not in (None, "linearized"):
                parser.error(f"--deform runs the linearized suite, not --suite {args.suite}")
            from su3forms import sphere, suites

            require_count("samples", args.samples)
            sphere.require_suite_step(args.h)
            a = None if args.deform is None else _parse_direction(args.deform)
            if a is not None:
                suites.require_direction(a)
    except ValueError as exc:
        parser.error(str(exc))
    _check_report_path(parser, args.out)
    if args.command == "verify-algebra":
        report = run_algebra_suite(trials=args.trials, seed=args.seed, mode=args.mode)
        return _emit(report, args.out)
    return cmd_verify_s6(args, a)


if __name__ == "__main__":
    sys.exit(main())
