"""Machine-readable results shared by every verification suite.

A report is a flat list of named checks, each carrying the worst residual
seen, an observed convergence order where one makes sense, and a pass flag.
Every suite keeps its worst residuals in a `Ledger`, which also judges them.
Serialization is deterministic (sorted checks, sorted keys) so identical
configurations produce byte-identical JSON, and strict: JSON has no NaN or
infinity, so a non-finite residual or order is written as the string "nan",
"inf" or "-inf", and any other non-finite float raises.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

#: residuals below this are treated as roundoff floor; ratios between two
#: such numbers say nothing about the truncation order
ORDER_FLOOR = 1e-10

#: convergence-order window for the second-order schemes under step halving
ORDER_BAND = (1.8, 2.2)


def _json_float(value) -> float | str:
    # numpy scalars sneak in from the suites; json will not take them
    x = float(value)
    return x if math.isfinite(x) else str(x)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    conv_order: float | None
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": _json_float(self.max_residual),
            "conv_order": None if self.conv_order is None else _json_float(self.conv_order),
            "pass": bool(self.passed),
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    h: float | None
    samples: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "h": self.h,
            "samples": int(self.samples),  # a numpy integer is a valid count
            "seed": self.seed,
            "checks": [
                c.to_json_dict() for c in sorted(self.checks, key=lambda c: c.name)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.name):
            order = "  n/a" if c.conv_order is None else f"{c.conv_order:5.2f}"
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.name:<44} residual {c.max_residual:.3e}  order {order}"
            )
        return lines


def require_count(name: str, value: int) -> None:
    """Reject a count that is not an integer (a bool or a float, say), and a
    run with no trials or samples: a check that saw no data would report
    residual 0 and pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def observed_order(residual_h: float, residual_half: float) -> float | None:
    """log2 ratio of residuals under step halving, or None at roundoff floor."""
    if residual_h < ORDER_FLOOR or residual_half < ORDER_FLOOR:
        return None
    return math.log2(residual_h / residual_half)


def merge_reports(suite: str, reports: list[VerificationReport]) -> VerificationReport:
    """Aggregate sub-suite reports, prefixing check names by sub-suite."""
    checks = []
    for r in reports:
        for c in r.checks:
            checks.append(
                CheckResult(f"{r.suite}/{c.name}", c.max_residual, c.conv_order, c.passed)
            )
    first = reports[0]
    return VerificationReport(suite, first.h, first.samples, first.seed, tuple(checks))


class Ledger:
    """Worst residual per check name and step slot, built into CheckResults.

    A NaN residual stays the worst value of its slot, and a NaN in any slot
    fails its check.  Residuals keep their type, so an exact residual is
    judged as a rational and only reported as a float.
    """

    def __init__(self) -> None:
        self._worst: dict[str, dict[int, object]] = {}

    def add(self, name: str, residual, slot: int = 0) -> None:
        slots = self._worst.setdefault(name, {})
        prev = slots.get(slot)
        if prev is None or residual > prev or residual != residual:
            slots[slot] = residual

    def result(
        self, name: str, tol: float, order: tuple[int, int] | None = None
    ) -> CheckResult:
        """Slot 0 judged against tol; with an order pair (i, j), the observed
        order of slots i -> j must fall inside ORDER_BAND where it can be
        measured."""
        slots = self._worst[name]
        residual = slots[0]
        conv = observed_order(slots[order[0]], slots[order[1]]) if order else None
        ok = residual <= tol and all(r == r for r in slots.values())
        if conv is not None:
            ok = ok and ORDER_BAND[0] <= conv <= ORDER_BAND[1]
        return CheckResult(name, float(residual), conv, ok)

    def results(
        self, tol: float, order: tuple[int, int] | None = None
    ) -> tuple[CheckResult, ...]:
        """Every name added, in first-added order, judged as by `result`."""
        return tuple(self.result(name, tol, order) for name in self._worst)
