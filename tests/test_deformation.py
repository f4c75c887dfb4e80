"""Deformation parametrization: jets, inversion, consistency checks."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su3forms.deformation import (
    DeformationParams,
    InconsistentJetError,
    SU3Jet,
    check_jet_consistency,
    jet_to_params,
    linearized_gray_lhs,
    params_to_jet,
)
from su3forms.forms import EXACT, FLOAT, Form, wedge
from su3forms.structure import (
    Endo,
    alpha_map,
    endo_act,
    lefschetz_contract,
    omega,
    psi_minus,
    psi_plus,
    vector_cross_endo,
)
from su3forms.sampling import (
    random_j_invariant_two_form,
    random_sym_minus,
    random_vector,
    sample_scalar,
)


def random_params(rng, mode=EXACT) -> DeformationParams:
    return DeformationParams(
        random_vector(rng, mode),
        random_sym_minus(rng, mode),
        random_j_invariant_two_form(rng, mode),
        sample_scalar(rng, mode),
    )


# ---------------------------------------------------------------------------
# special curves


def test_scaling_curve_jet():
    # d/dt at t=0 of g_t = (1+t) g, omega_t = (1+t) omega,
    # psi_t = (1+t)^{3/2} psi: the (0, 0, omega, 0) parameters
    params = DeformationParams(
        Form.zero(EXACT), Endo.zero(EXACT), omega(), Fraction(0)
    )
    jet = params_to_jet(params)
    assert jet.omega_dot == omega()
    assert jet.psi_plus_dot == psi_plus().scale(Fraction(3, 2))
    assert jet.psi_minus_dot == psi_minus().scale(Fraction(3, 2))
    assert jet.g_dot == Endo.identity(EXACT)
    assert jet.j_dot.max_norm() == 0
    assert params.lam == Fraction(3, 2)


def test_phase_curve_jet():
    # rotating the complex volume form: mu alone
    params = DeformationParams(
        Form.zero(EXACT), Endo.zero(EXACT), Form.zero(EXACT), Fraction(1)
    )
    jet = params_to_jet(params)
    assert jet.omega_dot.is_zero()
    assert jet.psi_plus_dot == psi_minus()
    assert jet.psi_minus_dot == -psi_plus()
    assert jet.g_dot.max_norm() == 0


def test_pure_s_jet():
    rng = random.Random(1)
    s = random_sym_minus(rng)
    jet = params_to_jet(
        DeformationParams(Form.zero(EXACT), s, Form.zero(EXACT), Fraction(0))
    )
    assert jet.psi_plus_dot == endo_act(s, psi_plus()).scale(Fraction(-1, 2))
    assert jet.psi_minus_dot == endo_act(s, psi_minus()).scale(Fraction(-1, 2))
    assert jet.omega_dot.is_zero()
    assert jet.g_dot == s


def test_pure_xi_jet_coherence():
    rng = random.Random(2)
    xi = random_vector(rng)
    jet = params_to_jet(
        DeformationParams(xi, Endo.zero(EXACT), Form.zero(EXACT), Fraction(0))
    )
    assert lefschetz_contract(jet.psi_plus_dot) == xi.scale(-2)
    assert alpha_map(jet.omega_dot) == xi.scale(2)
    assert jet.j_dot == vector_cross_endo(xi)


def test_zero_params_zero_jet():
    jet = params_to_jet(DeformationParams.zero(EXACT))
    assert jet.omega_dot.is_zero()
    assert jet.psi_plus_dot.is_zero()
    assert jet.psi_minus_dot.is_zero()
    assert jet.g_dot.max_norm() == 0
    assert jet.j_dot.max_norm() == 0
    params = jet_to_params(jet)
    assert params.xi.is_zero() and params.mu == 0


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_exact():
    rng = random.Random(3)
    for _ in range(50):
        p = random_params(rng)
        jet = params_to_jet(p)
        q = jet_to_params(jet)
        assert q.xi == p.xi
        assert q.s == p.s
        assert q.phi == p.phi
        assert q.mu == p.mu


def test_round_trip_float():
    rng = random.Random(4)
    for _ in range(50):
        p = random_params(rng, FLOAT)
        jet = params_to_jet(p)
        q = jet_to_params(jet)
        assert (q.xi - p.xi).max_norm() <= 1e-12
        assert (q.s - p.s).max_norm() <= 1e-12
        assert (q.phi - p.phi).max_norm() <= 1e-12
        assert abs(q.mu - p.mu) <= 1e-12


def test_jet_consistency_residuals_vanish_on_valid_jets():
    rng = random.Random(5)
    for _ in range(25):
        jet = params_to_jet(random_params(rng))
        assert all(r == 0 for r in check_jet_consistency(jet).values())
    for _ in range(25):
        jet = params_to_jet(random_params(rng, FLOAT))
        assert all(r <= 1e-12 for r in check_jet_consistency(jet).values())


def test_params_to_jet_is_linear():
    rng = random.Random(6)
    p1, p2 = random_params(rng), random_params(rng)
    c = Fraction(rng.randint(-9, 9))
    combined = DeformationParams(
        p1.xi + p2.xi.scale(c),
        p1.s + p2.s.scale(c),
        p1.phi + p2.phi.scale(c),
        p1.mu + c * p2.mu,
    )
    j1, j2, jc = params_to_jet(p1), params_to_jet(p2), params_to_jet(combined)
    assert jc.omega_dot == j1.omega_dot + j2.omega_dot.scale(c)
    assert jc.psi_plus_dot == j1.psi_plus_dot + j2.psi_plus_dot.scale(c)
    assert jc.psi_minus_dot == j1.psi_minus_dot + j2.psi_minus_dot.scale(c)
    assert jc.g_dot == j1.g_dot + j2.g_dot.scale(c)
    assert jc.j_dot == j1.j_dot + j2.j_dot.scale(c)


# ---------------------------------------------------------------------------
# validation and defects


def test_params_validation_rejects_bad_s():
    bad = Endo.identity(EXACT)
    params = DeformationParams(
        Form.zero(EXACT), bad, Form.zero(EXACT), Fraction(0)
    )
    with pytest.raises(ValueError):
        params.validate()


def test_params_validation_rejects_non_invariant_phi():
    from su3forms.forms import contract

    rng = random.Random(7)
    xi = random_vector(rng)
    phi = contract(xi, psi_plus())  # pure (2,0)+(0,2), not J-invariant
    params = DeformationParams(Form.zero(EXACT), Endo.zero(EXACT), phi, Fraction(0))
    with pytest.raises(ValueError):
        params.validate()


def test_inconsistent_jet_is_rejected_with_diagnostics():
    rng = random.Random(8)
    jet = params_to_jet(random_params(rng))
    tampered = SU3Jet(
        jet.g_dot,
        jet.j_dot,
        jet.omega_dot,
        jet.psi_plus_dot + wedge(Form.blade("e1", EXACT), omega()),
        jet.psi_minus_dot,
    )
    res = check_jet_consistency(tampered)
    assert res["wedge_constraint"] != 0
    assert res["xi_coherence"] != 0
    with pytest.raises(InconsistentJetError) as err:
        jet_to_params(tampered)
    assert "wedge_constraint" in err.value.failures


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_params_fail_validation(value):
    params = random_params(random.Random(9), FLOAT)
    rows = [list(row) for row in params.s.rows]
    rows[0][0] = value
    bad_s = replace(params, s=Endo(FLOAT, rows))
    bad_phi = replace(params, phi=params.phi + Form.blade("e12", FLOAT, value))
    for bad in (bad_s, bad_phi):
        with pytest.raises(ValueError):
            bad.validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_jet_is_rejected(value):
    params = random_params(random.Random(10), FLOAT)
    jet = params_to_jet(params)
    # nothing constrains xi alone, so a non-finite xi reaches the jet
    from_xi = params_to_jet(replace(params, xi=params.xi + Form.blade("e1", FLOAT, value)))
    tampered = replace(jet, omega_dot=jet.omega_dot + Form.blade("e12", FLOAT, value))
    for bad in (from_xi, tampered):
        with pytest.raises(InconsistentJetError):
            jet_to_params(bad)


def test_scaled_psi_plus_dot_breaks_norm_constraint():
    params = DeformationParams(
        Form.zero(EXACT), Endo.zero(EXACT), omega(), Fraction(0)
    )
    jet = params_to_jet(params)
    tampered = SU3Jet(
        jet.g_dot,
        jet.j_dot,
        jet.omega_dot,
        jet.psi_plus_dot.scale(2),
        jet.psi_minus_dot,
    )
    res = check_jet_consistency(tampered)
    assert res["norm_constraint"] != 0


# ---------------------------------------------------------------------------
# linearized Gray residuals (pointwise algebra; field derivatives supplied)


def test_linearized_gray_lhs_zero_jet():
    jet = SU3Jet.zero(EXACT)
    r1, r2 = linearized_gray_lhs(jet, Form.zero(EXACT), Form.zero(EXACT))
    assert r1.is_zero() and r2.is_zero()


def test_linearized_gray_lhs_detects_scaled_psi_plus_dot():
    rng = random.Random(9)
    jet = params_to_jet(random_params(rng))
    # pretend the field derivatives are exactly right, then scale psi_plus_dot
    d_omega_dot = jet.psi_plus_dot.scale(3)
    d_psi_minus_dot = wedge(jet.omega_dot, omega()).scale(-4)
    r1, r2 = linearized_gray_lhs(jet, d_omega_dot, d_psi_minus_dot)
    assert r1.is_zero() and r2.is_zero()
    tampered = SU3Jet(
        jet.g_dot, jet.j_dot, jet.omega_dot,
        jet.psi_plus_dot.scale(2), jet.psi_minus_dot,
    )
    r1, r2 = linearized_gray_lhs(tampered, d_omega_dot, d_psi_minus_dot)
    assert r1 == jet.psi_plus_dot.scale(-3)


# ---------------------------------------------------------------------------
# serialization


def test_params_json_round_trip():
    rng = random.Random(10)
    for mode in (EXACT, FLOAT):
        p = random_params(rng, mode)
        data = json.loads(json.dumps(p.to_json_dict()))
        q = DeformationParams.from_json_dict(data)
        assert q.mode == mode
        if mode == EXACT:
            assert (q.xi, q.s, q.phi, q.mu) == (p.xi, p.s, p.phi, p.mu)
        else:
            assert (q.xi - p.xi).max_norm() == 0
            assert (q.s - p.s).max_norm() == 0


def test_jet_json_round_trip():
    rng = random.Random(11)
    jet = params_to_jet(random_params(rng))
    data = json.loads(json.dumps(jet.to_json_dict()))
    back = SU3Jet.from_json_dict(data)
    assert back.omega_dot == jet.omega_dot
    assert back.psi_plus_dot == jet.psi_plus_dot
    assert back.psi_minus_dot == jet.psi_minus_dot
    assert back.g_dot == jet.g_dot
    assert back.j_dot == jet.j_dot


def test_params_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        DeformationParams.from_json_dict({"xi": [0] * 6})


@given(st.integers(0, 10**6))
def test_lam_is_quarter_trace(seed):
    rng = random.Random(seed)
    p = random_params(rng)
    assert p.lam == p.h.trace() / 4
    assert p.lam == lefschetz_contract(p.phi).coeff(0) / 2
