"""Verification suites: clean runs, determinism, and injected defects."""

from __future__ import annotations

import re

import numpy as np
import pytest

from su3forms.report import (
    CheckResult,
    VerificationReport,
    merge_reports,
    observed_order,
)
from su3forms.suites import (
    deformation_span_ratio,
    sphere_deformation,
    verify_cl_identities,
    verify_gray,
    verify_linearized,
    verify_linearized_basis,
    verify_spectral,
)


def _by_name(report: VerificationReport) -> dict[str, CheckResult]:
    return {c.name: c for c in report.checks}


def test_gray_suite_small_run():
    report = verify_gray(samples=8)
    assert report.all_passed
    for c in report.checks:
        assert c.max_residual < 1e-5
        if c.conv_order is not None:
            assert 1.8 < c.conv_order < 2.2


def test_spectral_suite_small_run():
    report = verify_spectral(samples=8)
    assert report.all_passed
    assert {c.name for c in report.checks} == {
        "laplacian_linear_harmonics",
        "laplacian_quadratic_harmonic",
    }


def test_spectral_point_where_a_harmonic_nearly_vanishes(monkeypatch):
    # q0 = 4e-7: both harmonics through q0 are tiny there, so a scale taken
    # from the sample would judge the order band on roundoff
    from su3forms import sphere as sp

    q = np.array([4e-7, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    q[1:] *= np.sqrt(1.0 - q[0] ** 2) / np.linalg.norm(q[1:])
    monkeypatch.setattr(sp, "random_points", lambda seed, n: q[None, :])
    assert verify_spectral(samples=1).all_passed


def test_spectral_wrong_eigenvalue_fails(monkeypatch):
    from su3forms import suites

    wrong = {6.0: 5.0, 14.0: 12.0}
    monkeypatch.setattr(
        suites, "_HARMONICS",
        tuple((name, fn, wrong[ev], sup) for name, fn, ev, sup in suites._HARMONICS),
    )
    report = verify_spectral(samples=4)
    assert not any(c.passed for c in report.checks)
    assert min(c.max_residual for c in report.checks) > 1e-2


def test_linearized_suite_single_direction():
    report = verify_linearized(np.eye(7)[4], samples=8)
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert "span_rank_singular_ratio" in names


def test_long_direction_is_judged_along_its_unit_direction():
    # the fields are linear in a, and the tolerance is absolute
    long = verify_linearized(1e6 * np.eye(7)[6], samples=2)
    assert long.all_passed
    assert long.to_json() == verify_linearized(np.eye(7)[6], samples=2).to_json()


def test_linearized_suite_all_directions():
    report = verify_linearized_basis(samples=6)
    assert report.all_passed
    # aggregated over directions, so the rank check appears exactly once
    names = [c.name for c in report.checks]
    assert names == sorted(names)
    assert names.count("span_rank_singular_ratio") == 1


def test_cl_identity_suite_small_run():
    report = verify_cl_identities(samples=6)
    assert report.all_passed
    checks = _by_name(report)
    assert checks["coclosed_gate"].max_residual < 1e-6


def test_suites_are_deterministic():
    a = verify_gray(samples=6, seed=3)
    b = verify_gray(samples=6, seed=3)
    assert a.to_json() == b.to_json()
    c = verify_gray(samples=6, seed=4)
    assert c.to_json() != a.to_json()
    for suite in (verify_linearized_basis, verify_cl_identities):
        first = suite(samples=2, seed=3)
        assert suite(samples=2, seed=3).to_json() == first.to_json()


def test_flipped_psi_minus_is_caught():
    report = verify_gray(samples=6, defect="flip_psi_minus")
    assert not report.all_passed
    checks = _by_name(report)
    assert checks["d_psi_minus_vs_omega_sq"].max_residual > 1e-2
    # the defect leaves d omega = 3 psi_plus intact
    assert checks["d_omega_vs_psi_plus"].passed


def test_scaled_psi_plus_dot_is_caught():
    report = verify_linearized(np.eye(7)[6], samples=6, defect="scale_psi_plus_dot")
    assert not report.all_passed
    checks = _by_name(report)
    assert checks["d_omega_dot_vs_psi_plus_dot"].max_residual > 1e-2


SUITES = [
    verify_gray,
    verify_spectral,
    lambda samples, h=1e-3: verify_linearized(np.eye(7)[0], samples=samples, h=h),
    verify_linearized_basis,
    verify_cl_identities,
]


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("samples", [0, -1])
def test_empty_runs_are_rejected(suite, samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        suite(samples=samples)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("samples", [True, 2.5, 1.0, "3"])
def test_sample_counts_that_are_not_integers_are_rejected(suite, samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        suite(samples=samples)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("h", [1.5e-7, 2e-7, 0.1, 1.0, np.inf, np.nan])
def test_steps_outside_the_usable_range_are_rejected_on_entry(monkeypatch, suite, h):
    # each suite also runs at h/2, so h must exceed 2 MIN_STEP, and h < MAX_STEP
    def no_work(*args):
        raise AssertionError("rejected step reached the sample points")

    monkeypatch.setattr("su3forms.suites._frames", no_work)
    with pytest.raises(ValueError, match="outside the usable range"):
        suite(samples=1, h=h)


@pytest.mark.parametrize("component", [0.0, np.nan, np.inf])
def test_zero_or_non_finite_direction_is_rejected(monkeypatch, component):
    def no_work(*args):
        raise AssertionError("rejected direction reached the checks")

    a = np.zeros(7)
    a[3] = component
    monkeypatch.setattr("su3forms.suites._linearized_checks", no_work)
    with pytest.raises(ValueError, match="finite and nonzero"):
        verify_linearized(a, samples=2)
    # so is one of the wrong shape, with the shape named
    for shape in ((6,), (7, 1)):
        with pytest.raises(ValueError, match=re.escape(f"of shape {shape}")):
            verify_linearized(np.ones(shape), samples=2)


def test_unknown_defect_rejected():
    with pytest.raises(ValueError):
        verify_gray(samples=2, defect="typo")
    with pytest.raises(ValueError):
        verify_linearized(np.eye(7)[0], samples=2, defect="typo")


def test_deformation_span_is_well_conditioned():
    # |q x a|^2 + <q, a>^2 = |a|^2 on the unit sphere, so the probe matrix
    # has orthogonal rows of equal norm
    for seed in range(5):
        assert abs(deformation_span_ratio(seed) - 1) < 1e-12


def test_sphere_deformation_fields_are_killing():
    # xi = q x a is tangent and mu is the matching divergence datum
    a = np.array([1.0, 0.5, -0.25, 0.0, 2.0, -1.5, 0.75])
    bundle = sphere_deformation(a)
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = rng.standard_normal(7)
        q /= np.linalg.norm(q)
        assert abs(bundle.xi(q) @ q) < 1e-13
        assert abs(bundle.mu(q) - a @ q) < 1e-14


def test_observed_order_near_floor_is_suppressed():
    assert observed_order(1e-14, 1e-14) is None
    order = observed_order(4e-4, 1e-4)
    assert order is not None and abs(order - 2.0) < 1e-12


def test_merge_reports_prefixes_names():
    r1 = VerificationReport("alpha", None, 3, 0, [CheckResult("x", 0.0, None, True)])
    r2 = VerificationReport("beta", 1e-3, 3, 0, [CheckResult("y", 1.0, None, False)])
    merged = merge_reports("both", [r1, r2])
    assert [c.name for c in merged.checks] == ["alpha/x", "beta/y"]
    assert not merged.all_passed


def test_report_json_shape():
    report = verify_spectral(samples=4)
    data = report.to_json_dict()
    assert set(data) == {"suite", "h", "samples", "seed", "checks"}
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)
    for c in data["checks"]:
        assert set(c) == {"name", "max_residual", "conv_order", "pass"}


def test_nan_field_fails_gray(monkeypatch):
    from su3forms import sphere as sp

    monkeypatch.setattr(
        sp, "omega_field", lambda: sp.FormField(2, lambda q: np.full(21, np.nan))
    )
    checks = _by_name(verify_gray(samples=2))
    for name in ("d_omega_vs_psi_plus", "nabla_omega_vs_contraction"):
        assert checks[name].max_residual != checks[name].max_residual
        assert not checks[name].passed
    assert checks["d_psi_minus_vs_omega_sq"].passed


def test_basis_merge_keeps_failing_directions(monkeypatch):
    from su3forms import suites

    real = suites._linearized_checks

    def patched(a, *args):
        checks = real(a, *args)
        if a[3]:  # e4 misses the order band at a passing residual
            bad = CheckResult("d_omega_dot_vs_psi_plus_dot", 1e-12, 1.0, False)
        elif a[5]:  # e6 returns NaN
            bad = CheckResult("five_form_vs_volume", float("nan"), None, False)
        else:
            return checks
        return [bad if c.name == bad.name else c for c in checks]

    monkeypatch.setattr(suites, "_linearized_checks", patched)
    report = verify_linearized_basis(samples=1)
    assert not report.all_passed
    checks = _by_name(report)
    order_fail = checks["d_omega_dot_vs_psi_plus_dot"]
    assert (order_fail.max_residual, order_fail.conv_order) == (1e-12, 1.0)
    assert not order_fail.passed
    nan_fail = checks["five_form_vs_volume"]
    assert nan_fail.max_residual != nan_fail.max_residual and not nan_fail.passed
    assert checks["d_psi_minus_dot_vs_omega_dot_wedge"].passed


def test_stale_step_stencil_is_caught(monkeypatch):
    # a per-frame stencil cache keyed without the step: the fields at h/2
    # are evaluated at the points of the h stencil
    from su3forms import sphere as sp

    real = sp._stencil
    kept: dict[tuple[bytes, bytes], np.ndarray] = {}

    def stale(p, x, h):
        return kept.setdefault((p.tobytes(), x.tobytes()), real(p, x, h))

    assert verify_gray(samples=2).all_passed
    assert verify_linearized_basis(samples=1).all_passed
    monkeypatch.setattr(sp, "_stencil", stale)
    assert not verify_gray(samples=2).all_passed
    assert not verify_linearized_basis(samples=1).all_passed
