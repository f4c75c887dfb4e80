"""Acceptance gate: every advertised guarantee at its stated tolerance.

One test per criterion; each prints a single pass/fail line so a -v run
reads as a checklist.  The expensive suite runs are shared module-scoped
fixtures, timed against their budgets.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from su3forms.forms import EXACT, FLOAT
from su3forms.identities import run_algebra_suite
from su3forms.report import CheckResult, VerificationReport
from su3forms.suites import (
    verify_cl_identities,
    verify_gray,
    verify_linearized,
    verify_linearized_basis,
    verify_spectral,
)

IDENTITY_CHECKS = (
    "structure_compatibility",
    "psi_minus_from_j",
    "psi_plus_wedge_contractions",
    "psi_minus_wedge_contractions",
    "lefschetz_on_vector_psi",
    "lefschetz_omega_commutation",
    "contraction_wedge_adjoint",
    "star_involution_isometry",
    "star_of_sym_minus_images",
    "star_primitive_and_vector_wedge",
    "sym_minus_j_conjugation",
    "sym_plus_action_trace",
    "alpha_map_normalization",
    "three_form_contraction",
    "su3_invariance",
    "anti_endo_round_trip",
    "three_form_round_trip",
    "two_form_round_trip",
    "sym_minus_isomorphism",
    "type_projector_algebra",
)
JET_CHECKS = (
    "params_jet_round_trip",
    "jet_constraint_residuals",
    "scaling_curve",
    "phase_curve",
)


def _timed(fn, *args, **kwargs) -> tuple[VerificationReport, float]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _by_name(report: VerificationReport) -> dict[str, CheckResult]:
    return {c.name: c for c in report.checks}


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def exact_run():
    return _timed(run_algebra_suite, trials=1000, seed=0, mode=EXACT)


@pytest.fixture(scope="module")
def float_run():
    return _timed(run_algebra_suite, trials=1000, seed=0, mode=FLOAT)


@pytest.fixture(scope="module")
def gray_run():
    return _timed(verify_gray, samples=50, h=1e-3, seed=0)


@pytest.fixture(scope="module")
def spectral_run():
    return verify_spectral(samples=50, h=1e-3, seed=0)


@pytest.fixture(scope="module")
def linearized_run():
    return verify_linearized_basis(samples=50, h=1e-3, seed=0)


@pytest.fixture(scope="module")
def cl_run():
    return verify_cl_identities(samples=30, h=1e-3, seed=0)


def test_criterion_1_exact_identities(exact_run):
    report, seconds = exact_run
    checks = _by_name(report)
    worst = max(checks[name].max_residual for name in IDENTITY_CHECKS)
    ok = worst == 0.0 and report.samples >= 1000 and seconds <= 60.0
    _verdict(
        1,
        ok,
        f"{len(IDENTITY_CHECKS)} identities x {report.samples} rational trials, "
        f"worst residual {worst}, {seconds:.1f}s",
    )


def test_criterion_2_float_identities(float_run):
    report, _ = float_run
    worst = max(c.max_residual for c in report.checks)
    projector = _by_name(report)["type_projector_algebra"].max_residual
    ok = worst <= 1e-12 and projector <= 1e-12
    _verdict(
        2,
        ok,
        f"float suite worst {worst:.2e}, type projectors {projector:.2e}",
    )


def test_criterion_3_deformation_jets(exact_run):
    report, _ = exact_run
    checks = _by_name(report)
    worst = max(checks[name].max_residual for name in JET_CHECKS)
    ok = worst == 0.0 and report.samples >= 1000
    _verdict(
        3,
        ok,
        f"round trips, constraints and curves over {report.samples} trials, "
        f"worst residual {worst}",
    )


def test_criterion_4_structure_equations(gray_run):
    report, seconds = gray_run
    worst = max(c.max_residual for c in report.checks)
    orders = [c.conv_order for c in report.checks if c.conv_order is not None]
    ok = (
        worst <= 1e-5
        and len(orders) == len(report.checks)
        and all(1.8 <= o <= 2.2 for o in orders)
        and seconds <= 120.0
    )
    _verdict(
        4,
        ok,
        f"50 points, worst residual {worst:.2e}, orders "
        f"{min(orders):.2f}..{max(orders):.2f}, {seconds:.1f}s",
    )


def test_criterion_5_laplacian_spectrum(spectral_run):
    checks = _by_name(spectral_run)
    lin = checks["laplacian_linear_harmonics"].max_residual
    quad = checks["laplacian_quadratic_harmonic"].max_residual
    ok = lin <= 1e-4 and quad <= 1e-4
    _verdict(5, ok, f"linear harmonics {lin:.2e}, quadratic harmonic {quad:.2e}")


def test_criterion_6_linearized_equations(linearized_run):
    checks = _by_name(linearized_run)
    fd = max(
        checks[name].max_residual
        for name in (
            "d_omega_dot_vs_psi_plus_dot",
            "d_psi_minus_dot_vs_omega_dot_wedge",
            "five_form_vs_volume",
        )
    )
    ratio = checks["span_rank_singular_ratio"].max_residual
    ok = fd <= 1e-5 and ratio >= 1e-3
    _verdict(
        6,
        ok,
        f"7 directions x 50 points, worst residual {fd:.2e}, "
        f"rank ratio {ratio:.2f}",
    )


def test_criterion_7_divergence_identities(cl_run):
    checks = _by_name(cl_run)
    identity_names = (
        "lefschetz_d_phi_vs_divergence",
        "divergence_h_vs_j_delta_phi",
        "delta_s_psi_plus_identity",
        "alpha_lefschetz_vs_divergence_s",
        "lefschetz_delta_s_psi_plus",
    )
    worst = max(checks[n].max_residual for n in identity_names)
    orders = [checks[n].conv_order for n in identity_names]
    gate = checks["coclosed_gate"].max_residual
    cond = max(
        checks[n].max_residual
        for n in (
            "coclosed_d_phi_wedge_psi_plus",
            "coclosed_d_phi_wedge_psi_minus",
            "coclosed_d_phi_lefschetz",
        )
    )
    ok = (
        worst <= 1e-4
        and all(o is not None and 1.8 <= o <= 2.2 for o in orders)
        and gate <= 1e-6
        and cond <= 1e-4
    )
    _verdict(
        7,
        ok,
        f"five identities worst {worst:.2e}, gate {gate:.2e}, "
        f"coclosed consequences {cond:.2e}",
    )


def test_criterion_8_defect_sensitivity():
    flipped = _by_name(verify_gray(samples=10, defect="flip_psi_minus"))
    scaled = _by_name(
        verify_linearized(np.eye(7)[6], samples=10, defect="scale_psi_plus_dot")
    )
    r1 = flipped["d_psi_minus_vs_omega_sq"].max_residual
    r2 = scaled["d_omega_dot_vs_psi_plus_dot"].max_residual
    ok = r1 >= 1e-2 and r2 >= 1e-2
    _verdict(8, ok, f"flipped form residual {r1:.2e}, scaled rate residual {r2:.2e}")
