"""The residual ledger every suite keeps its worst cases in."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from su3forms.identities import run_algebra_suite
from su3forms.report import ORDER_BAND, CheckResult, Ledger, VerificationReport

NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("residuals", [[NAN, 0.0, 1e-3], [0.0, NAN, 1e-3], [1e-3, 0.0, NAN]])
def test_nan_stays_worst(residuals):
    ledger = Ledger()
    for r in residuals:
        ledger.add("x", r)
    check = ledger.result("x", 1.0)
    assert check.max_residual != check.max_residual
    assert not check.passed


def test_worst_residual_is_kept_per_slot():
    ledger = Ledger()
    for r0, r1 in [(2e-6, 1e-6), (8e-6, 1e-6), (4e-6, 2e-6)]:
        ledger.add("x", r0, 0)
        ledger.add("x", r1, 1)
    check = ledger.result("x", 1e-5, order=(0, 1))
    assert check.max_residual == 8e-6
    assert check.conv_order == pytest.approx(2.0)
    assert check.passed
    assert not ledger.result("x", 1e-6).passed


def test_tiny_exact_residual_fails():
    # 10**-400 converts to the float 0.0, yet it is not an exact zero
    ledger = Ledger()
    ledger.add("x", Fraction(0))
    ledger.add("x", Fraction(1, 10**400))
    ledger.add("x", Fraction(0))
    check = ledger.result("x", 0)
    assert check.max_residual == 0.0
    assert not check.passed


def test_order_band_applies_when_measured():
    ledger = Ledger()
    ledger.add("second", 4e-6, 0)
    ledger.add("second", 1e-6, 1)
    ledger.add("first", 2e-6, 0)
    ledger.add("first", 1e-6, 1)
    assert ledger.result("second", 1e-5, order=(0, 1)).passed
    first = ledger.result("first", 1e-5, order=(0, 1))
    assert first.conv_order == pytest.approx(1.0)
    assert not ORDER_BAND[0] <= first.conv_order <= ORDER_BAND[1]
    assert not first.passed
    # without an order pair only the tolerance is judged
    assert ledger.result("first", 1e-5).passed


def test_order_at_roundoff_floor_is_not_judged():
    ledger = Ledger()
    ledger.add("x", 1e-14, 0)
    ledger.add("x", 1e-14, 1)
    check = ledger.result("x", 1e-5, order=(0, 1))
    assert check.conv_order is None
    assert check.passed


def test_nan_in_an_order_slot_fails():
    # slot 0 sits at the roundoff floor, so the order is not measured
    ledger = Ledger()
    ledger.add("x", 0.0, 0)
    ledger.add("x", NAN, 1)
    check = ledger.result("x", 1e-5, order=(0, 1))
    assert check.max_residual == 0.0
    assert not check.passed


def _strict_loads(text: str):
    """json.loads that rejects NaN and Infinity, as jq and JSON.parse do."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("value, text", [(NAN, "nan"), (INF, "inf"), (-INF, "-inf")])
def test_non_finite_check_is_written_as_a_string(value, text):
    report = VerificationReport("s", 0.1, 1, 0, (CheckResult("x", value, value, False),))
    (check,) = _strict_loads(report.to_json())["checks"]
    assert check["max_residual"] == text
    assert check["conv_order"] == text


def test_failing_report_parses_strictly():
    # a NaN in slot 0 makes both the residual and the order NaN
    ledger = Ledger()
    ledger.add("x", NAN, 0)
    ledger.add("x", 1e-6, 1)
    report = VerificationReport("s", 0.1, 1, 0, (ledger.result("x", 1.0, order=(0, 1)),))
    (check,) = _strict_loads(report.to_json())["checks"]
    assert check == {"name": "x", "max_residual": "nan", "conv_order": "nan", "pass": False}
    # any other non-finite float raises rather than writing invalid JSON
    with pytest.raises(ValueError):
        VerificationReport("s", NAN, 1, 0, ()).to_json()


#: sha256 of `run_algebra_suite(30, seed=11, mode=...).to_json()`.  A kernel
#: change must keep the algebra reports byte-identical, or update these pins
#: and say which bytes moved and why.  The float report is pure Python floats;
#: its samples come from `random.gauss`, so it also rests on the C library's
#: `log`, `cos` and `sin`.  The sphere reports are not pinned: they go through
#: numpy's BLAS and LAPACK, whose rounding depends on the build.
ALGEBRA_REPORT_SHA256 = {
    "exact": "2f1c99cffb3bcdc67b083346c4eb3b6200853b27265d3b7e498885a16d7a18e4",
    "float": "39966032322609a8ef67b2172355f493233af0661cfa5dbc9c6f82e6774518c9",
}


@pytest.mark.parametrize("mode", sorted(ALGEBRA_REPORT_SHA256))
def test_algebra_report_bytes_are_pinned(mode):
    report = run_algebra_suite(30, seed=11, mode=mode).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == ALGEBRA_REPORT_SHA256[mode]
