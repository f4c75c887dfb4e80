"""The residual ledger every suite keeps its worst cases in."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from su3forms.identities import run_algebra_suite
from su3forms.report import ORDER_BAND, CheckResult, Ledger, VerificationReport, merge_reports
from su3forms.suites import (
    verify_cl_identities,
    verify_gray,
    verify_linearized,
    verify_linearized_basis,
    verify_spectral,
)

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


def test_results_judge_every_name_in_first_added_order():
    ledger = Ledger()
    for name, r0, r1 in [("b", 4e-6, 1e-6), ("a", 2e-6, 1e-6), ("c", NAN, 0.0), ("b", 8e-6, 2e-6)]:
        ledger.add(name, r0, 0)
        ledger.add(name, r1, 1)
    ledger.add("d", 1e-6, 0)
    ledger.add("d", NAN, 1)
    checks = ledger.results(1e-5, order=(0, 1))
    assert [c.name for c in checks] == ["b", "a", "c", "d"]
    b, a, c, d = checks
    assert (b.max_residual, b.passed) == (8e-6, True)
    assert b.conv_order == pytest.approx(2.0)
    # order 1 falls outside the band, and a NaN in either slot fails
    assert a.conv_order == pytest.approx(1.0) and not a.passed
    assert not c.passed and not d.passed
    # without an order pair no order is measured, and b fails the tighter tolerance
    unordered = ledger.results(5e-6)
    assert all(c.conv_order is None for c in unordered)
    assert [c.passed for c in unordered] == [False, True, False, False]


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


@pytest.mark.parametrize("count", [np.int64(2), np.uint8(2)])
def test_numpy_integer_counts_are_accepted(count):
    report = run_algebra_suite(count, mode="float")
    assert _strict_loads(report.to_json())["samples"] == 2


#: the six suite entry points at one trial or sample, by the seed alone
SEEDED_SUITES = {
    "algebra": lambda seed: run_algebra_suite(1, seed=seed),
    "gray": lambda seed: verify_gray(1, seed=seed),
    "spectral": lambda seed: verify_spectral(1, seed=seed),
    "linearized": lambda seed: verify_linearized(np.eye(7)[0], 1, seed=seed),
    "linearized_basis": lambda seed: verify_linearized_basis(1, seed=seed),
    "cl": lambda seed: verify_cl_identities(1, seed=seed),
}


@pytest.mark.parametrize("suite", sorted(SEEDED_SUITES))
@pytest.mark.parametrize("seed", [True, 1.5, "x", None])
def test_seeds_that_are_not_integers_are_rejected_on_entry(monkeypatch, suite, seed):
    # True, 1.5 and "x" would seed `random` and be written into the report
    def no_work(*args):
        raise AssertionError("a rejected seed reached the samples")

    monkeypatch.setattr("su3forms.suites._frames", no_work)
    monkeypatch.setattr("su3forms.identities.CHECKS", (("none", no_work),))
    with pytest.raises(ValueError, match="seed must be an integer"):
        SEEDED_SUITES[suite](seed)


@pytest.mark.parametrize("suite", sorted(SEEDED_SUITES))
def test_numpy_integer_seed_writes_the_report_of_the_equal_int(suite):
    run = SEEDED_SUITES[suite]
    assert run(np.int64(3)).to_json() == run(3).to_json()


#: sha256 of `run_algebra_suite(30, seed=11, mode=...).to_json()`.  A kernel
#: change must keep the algebra reports byte-identical, or update these pins
#: and say which bytes moved and why.  The float report is pure Python floats;
#: its samples come from `random.gauss`, so it also rests on the C library's
#: `log`, `cos` and `sin`.
ALGEBRA_REPORT_SHA256 = {
    "exact": "2f1c99cffb3bcdc67b083346c4eb3b6200853b27265d3b7e498885a16d7a18e4",
    "float": "39966032322609a8ef67b2172355f493233af0661cfa5dbc9c6f82e6774518c9",
}


@pytest.mark.parametrize("mode", sorted(ALGEBRA_REPORT_SHA256))
def test_algebra_report_bytes_are_pinned(mode):
    report = run_algebra_suite(30, seed=11, mode=mode).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == ALGEBRA_REPORT_SHA256[mode]


#: sha256 of the merged sphere report below, which is what `verify-s6 --suite
#: all --samples 3 --seed 1` writes before its final newline.  The sphere
#: suites go through numpy's BLAS and LAPACK, whose rounding depends on the
#: build: this digest belongs to numpy 2.4.6 with its bundled OpenBLAS 0.3.31
#: on x86-64 (Python 3.11.7), where it held under PYTHONHASHSEED 1-3 and
#: OPENBLAS_NUM_THREADS 1-3.  A build that rounds differently needs a new pin;
#: a change to the sphere code must keep it, or say which bytes moved and why.
SPHERE_REPORT_SHA256 = "080e47056da6ce9eabf885e5712629edf845bb08577dddb29b5261ff08123ddb"


def test_sphere_report_bytes_are_pinned():
    suites = (verify_gray, verify_spectral, verify_linearized_basis, verify_cl_identities)
    report = merge_reports("s6", [s(3, 1e-3, 1) for s in suites]).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == SPHERE_REPORT_SHA256
