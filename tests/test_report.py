"""The residual ledger every suite keeps its worst cases in."""

from __future__ import annotations

from fractions import Fraction

import pytest

from su3forms.report import ORDER_BAND, Ledger

NAN = float("nan")


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
