"""Seeded identity suites for the flat algebra kernel.

Every check draws fresh random inputs (rational in exact mode, standard
normal in float mode) and returns the worst residual over its family of
identities.  Every check is multilinear in its random inputs, or has none;
`su3_invariance` is linear in its random element of su(3), which acts on
the structure through `endo_act`.  Exact-mode residuals must vanish
identically; float mode is held to 1e-12 in coefficient max-norm.
`run_algebra_suite` loops the whole registry and keeps per-check worst
cases in a `Ledger`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Callable

from su3forms import sampling
from su3forms.deformation import (
    DeformationParams,
    check_jet_consistency,
    jet_to_params,
    params_to_jet,
)
from su3forms.forms import (
    DEFAULT_TOL,
    EXACT,
    MODES,
    AlgebraError,
    Form,
    ModeError,
    coerce_scalar,
    contract,
    evaluate,
    hodge_star,
    inner,
    scalar_zero,
    wedge,
)
from su3forms.report import Ledger, VerificationReport, require_count, require_seed
from su3forms.structure import (
    TYPE_EIGENVALUES,
    Endo,
    alpha_map,
    complex_structure,
    decompose_anti_endo,
    decompose_three_form,
    decompose_two_form,
    endo_act,
    form_to_sym_minus,
    lefschetz_contract,
    omega,
    psi_minus,
    psi_plus,
    type_project,
    vector_cross_endo,
    volume_form,
)


def _norm(x) -> object:
    if isinstance(x, (Form, Endo)):
        return x.max_norm()
    return abs(x)


def _worst(*items):
    """Largest norm among the items, NaN if any norm is NaN."""
    norms = [_norm(x) for x in items]
    return next((n for n in norms if n != n), max(norms))


# ---------------------------------------------------------------------------
# checks; each takes (rng, mode) and returns the worst residual of one trial


def structure_compatibility(rng, mode):
    om, pp, pm = omega(mode), psi_plus(mode), psi_minus(mode)
    om3 = wedge(om, wedge(om, om))
    dv = volume_form(mode)
    return _worst(
        wedge(om, pp),
        wedge(om, pm),
        wedge(pp, pm) - om3.scale(Fraction(2, 3)),
        wedge(pp, pm) - dv.scale(4),
        dv - om3.scale(Fraction(1, 6)),
        inner(pp, pp) - 4,
        inner(pm, pm) - 4,
        inner(om, om) - 3,
    )


def psi_minus_from_j(rng, mode):
    x, y, z = (sampling.random_vector(rng, mode) for _ in range(3))
    j = complex_structure(mode)
    return _worst(
        evaluate(psi_minus(mode), x, y, z)
        + evaluate(psi_plus(mode), j.apply(x), y, z),
        hodge_star(psi_plus(mode)) - psi_minus(mode),
        hodge_star(psi_minus(mode)) + psi_plus(mode),
    )


def psi_plus_wedge_contractions(rng, mode):
    x = sampling.random_vector(rng, mode)
    jx = complex_structure(mode).apply(x)
    om2 = wedge(omega(mode), omega(mode))
    pp, pm = psi_plus(mode), psi_minus(mode)
    return _worst(
        wedge(pp, contract(x, pp)) - wedge(x, om2),
        wedge(pp, contract(x, pm)) + wedge(jx, om2),
    )


def psi_minus_wedge_contractions(rng, mode):
    x = sampling.random_vector(rng, mode)
    jx = complex_structure(mode).apply(x)
    om2 = wedge(omega(mode), omega(mode))
    pp, pm = psi_plus(mode), psi_minus(mode)
    return _worst(
        wedge(pm, contract(x, pp)) - wedge(jx, om2),
        wedge(pm, contract(x, pm)) - wedge(x, om2),
    )


def lefschetz_on_vector_psi(rng, mode):
    x = sampling.random_vector(rng, mode)
    jx = complex_structure(mode).apply(x)
    om, pp, pm = omega(mode), psi_plus(mode), psi_minus(mode)
    return _worst(
        lefschetz_contract(contract(x, pp)),
        lefschetz_contract(contract(x, pm)),
        lefschetz_contract(wedge(x, pp)) - contract(jx, pp),
        lefschetz_contract(wedge(x, pm)) - contract(jx, pm),
        lefschetz_contract(om) - Form.scalar(3, mode),
        lefschetz_contract(wedge(om, om)) - om.scale(4),
        lefschetz_contract(pp),
        lefschetz_contract(pm),
    )


def lefschetz_omega_commutation(rng, mode):
    om = omega(mode)
    residuals = []
    for p in range(5):
        tau = sampling.random_form(rng, p, mode)
        residuals.append(
            lefschetz_contract(wedge(tau, om))
            - wedge(om, lefschetz_contract(tau))
            - tau.scale(3 - p)
        )
    return _worst(*residuals)


def contraction_wedge_adjoint(rng, mode):
    k = rng.randrange(1, 7)
    a = sampling.random_form(rng, k, mode)
    b = sampling.random_form(rng, k - 1, mode)
    x = sampling.random_vector(rng, mode)
    return _worst(inner(contract(x, a), b) - inner(a, wedge(x, b)))


def star_involution_isometry(rng, mode):
    om = omega(mode)
    k = rng.randrange(0, 7)
    a = sampling.random_form(rng, k, mode)
    b = sampling.random_form(rng, k, mode)
    sign = -1 if k % 2 else 1
    return _worst(
        hodge_star(om) - wedge(om, om).scale(Fraction(1, 2)),
        inner(hodge_star(a), hodge_star(b)) - inner(a, b),
        hodge_star(hodge_star(a)) - a.scale(sign),
        wedge(a, hodge_star(b)) - volume_form(mode).scale(inner(a, b)),
    )


def star_of_sym_minus_images(rng, mode):
    s = sampling.random_sym_minus(rng, mode)
    spp = endo_act(s, psi_plus(mode))
    spm = endo_act(s, psi_minus(mode))
    return _worst(hodge_star(spm) - spp, hodge_star(spp) + spm)


def star_primitive_and_vector_wedge(rng, mode):
    phi0 = sampling.random_primitive_two_form(rng, mode)
    p = rng.randrange(0, 6)
    a = sampling.random_form(rng, p, mode)
    xi = sampling.random_vector(rng, mode)
    sign = -1 if p % 2 else 1
    return _worst(
        hodge_star(wedge(phi0, omega(mode))) + phi0,
        hodge_star(wedge(xi, a)) - contract(xi, hodge_star(a)).scale(sign),
    )


def sym_minus_j_conjugation(rng, mode):
    s = sampling.random_sym_minus(rng, mode)
    js = complex_structure(mode) @ s
    return _worst(endo_act(s, psi_plus(mode)) - endo_act(js, psi_minus(mode)))


def sym_plus_action_trace(rng, mode):
    h = sampling.random_sym_plus(rng, mode)
    pp = psi_plus(mode)
    return _worst(endo_act(h, pp).scale(2) + pp.scale(h.trace()))


def alpha_map_normalization(rng, mode):
    x = sampling.random_vector(rng, mode)
    jx = complex_structure(mode).apply(x)
    return _worst(
        alpha_map(contract(x, psi_plus(mode))) - x.scale(2),
        alpha_map(contract(x, psi_minus(mode))) + jx.scale(2),
        alpha_map(sampling.random_j_invariant_two_form(rng, mode)),
    )


def three_form_contraction(rng, mode):
    al = sampling.random_vector(rng, mode)
    u = (
        wedge(al, omega(mode))
        + psi_plus(mode).scale(sampling.sample_scalar(rng, mode))
        + psi_minus(mode).scale(sampling.sample_scalar(rng, mode))
        + endo_act(sampling.random_sym_minus(rng, mode), psi_plus(mode))
    )
    return _worst(
        lefschetz_contract(wedge(al, omega(mode))) - al.scale(2),
        lefschetz_contract(u) - al.scale(2),
    )


def su3_invariance(rng, mode):
    a = sampling.random_su3(rng, mode)
    j = complex_structure(mode)
    return _worst(
        endo_act(a, omega(mode)),
        endo_act(a, psi_plus(mode)),
        a @ j - j @ a,
    )


def anti_endo_round_trip(rng, mode):
    s = sampling.random_sym_minus(rng, mode)
    xi = sampling.random_vector(rng, mode)
    f = s + vector_cross_endo(xi)
    s2, xi2 = decompose_anti_endo(f)
    return _worst(s2 - s, xi2 - xi)


def three_form_round_trip(rng, mode):
    al = sampling.random_vector(rng, mode)
    lam = sampling.sample_scalar(rng, mode)
    mu = sampling.sample_scalar(rng, mode)
    s = sampling.random_sym_minus(rng, mode)
    u = (
        wedge(al, omega(mode))
        + psi_plus(mode).scale(lam)
        + psi_minus(mode).scale(mu)
        + endo_act(s, psi_plus(mode))
    )
    parts = decompose_three_form(u)
    return _worst(parts.alpha - al, parts.lam - lam, parts.mu - mu, parts.s - s)


def two_form_round_trip(rng, mode):
    phi0 = sampling.random_primitive_two_form(rng, mode)
    c = sampling.sample_scalar(rng, mode)
    xi = sampling.random_vector(rng, mode)
    a = phi0 + omega(mode).scale(c) + contract(xi, psi_plus(mode))
    parts = decompose_two_form(a)
    return _worst(parts.primitive - phi0, parts.omega_coeff - c, parts.xi - xi)


def sym_minus_isomorphism(rng, mode):
    s = sampling.random_sym_minus(rng, mode)
    return _worst(form_to_sym_minus(endo_act(s, psi_plus(mode))) - s)


def type_projector_algebra(rng, mode):
    j = complex_structure(mode)
    residuals = []
    for degree in (2, 3):
        u = sampling.random_form(rng, degree, mode)
        total = Form.zero(mode)
        for (p, q), ev in TYPE_EIGENVALUES[degree].items():
            piece = type_project(u, p, q)
            total = total + piece
            residuals.append(type_project(piece, p, q) - piece)
            residuals.append(endo_act(j, endo_act(j, piece)) - piece.scale(ev))
        residuals.append(total - u)
    return _worst(*residuals)


def _random_params(rng, mode) -> DeformationParams:
    return DeformationParams(
        xi=sampling.random_vector(rng, mode),
        s=sampling.random_sym_minus(rng, mode),
        phi=sampling.random_j_invariant_two_form(rng, mode),
        mu=sampling.sample_scalar(rng, mode),
    )


def params_jet_round_trip(rng, mode):
    params = _random_params(rng, mode)
    back = jet_to_params(params_to_jet(params))
    return _worst(
        back.xi - params.xi,
        back.s - params.s,
        back.phi - params.phi,
        back.mu - params.mu,
    )


def jet_constraint_residuals(rng, mode):
    residuals = check_jet_consistency(params_to_jet(_random_params(rng, mode)))
    return _worst(*residuals.values())


@cache
def _curve_jet(kind: str, mode: str):
    if kind == "scaling":
        phi, mu = omega(mode), scalar_zero(mode)
    else:
        phi, mu = Form.zero(mode), coerce_scalar(1, mode)
    return params_to_jet(
        DeformationParams(xi=Form.zero(mode), s=Endo.zero(mode), phi=phi, mu=mu)
    )


def scaling_curve(rng, mode):
    jet = _curve_jet("scaling", mode)
    return _worst(
        jet.omega_dot - omega(mode),
        jet.psi_plus_dot - psi_plus(mode).scale(Fraction(3, 2)),
        jet.psi_minus_dot - psi_minus(mode).scale(Fraction(3, 2)),
    )


def phase_curve(rng, mode):
    jet = _curve_jet("phase", mode)
    return _worst(
        jet.omega_dot,
        jet.psi_plus_dot - psi_minus(mode),
        jet.psi_minus_dot + psi_plus(mode),
        jet.g_dot,
    )


CHECKS: tuple[tuple[str, Callable[[random.Random, str], object]], ...] = (
    ("structure_compatibility", structure_compatibility),
    ("psi_minus_from_j", psi_minus_from_j),
    ("psi_plus_wedge_contractions", psi_plus_wedge_contractions),
    ("psi_minus_wedge_contractions", psi_minus_wedge_contractions),
    ("lefschetz_on_vector_psi", lefschetz_on_vector_psi),
    ("lefschetz_omega_commutation", lefschetz_omega_commutation),
    ("contraction_wedge_adjoint", contraction_wedge_adjoint),
    ("star_involution_isometry", star_involution_isometry),
    ("star_of_sym_minus_images", star_of_sym_minus_images),
    ("star_primitive_and_vector_wedge", star_primitive_and_vector_wedge),
    ("sym_minus_j_conjugation", sym_minus_j_conjugation),
    ("sym_plus_action_trace", sym_plus_action_trace),
    ("alpha_map_normalization", alpha_map_normalization),
    ("three_form_contraction", three_form_contraction),
    ("su3_invariance", su3_invariance),
    ("anti_endo_round_trip", anti_endo_round_trip),
    ("three_form_round_trip", three_form_round_trip),
    ("two_form_round_trip", two_form_round_trip),
    ("sym_minus_isomorphism", sym_minus_isomorphism),
    ("type_projector_algebra", type_projector_algebra),
    ("params_jet_round_trip", params_jet_round_trip),
    ("jet_constraint_residuals", jet_constraint_residuals),
    ("scaling_curve", scaling_curve),
    ("phase_curve", phase_curve),
)


def run_algebra_suite(
    trials: int = 1000, seed: int = 0, mode: str = EXACT
) -> VerificationReport:
    """Run every registered identity for the given number of trials.

    Exact mode demands literal zeros, judged on the rational residual itself
    (a nonzero rational too small for a float still fails); float mode allows
    1e-12.  The report carries each worst residual as a float.  Its step
    field is null (no discretization is involved) and samples carries the
    trial count.  A NaN residual stays the worst one, so its check fails;
    a check that raises an AlgebraError (a decomposition's residual guard,
    say) records NaN for that trial, and the suite goes on.  An unknown mode
    raises ModeError before the first trial.
    """
    require_count("trials", trials)
    seed = require_seed(seed)
    if mode not in MODES:
        raise ModeError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    ledger = Ledger()
    for _ in range(trials):
        for name, fn in CHECKS:
            try:
                residual = fn(rng, mode)
            except AlgebraError:
                residual = float("nan")
            ledger.add(name, residual)
    tol = 0 if mode == EXACT else DEFAULT_TOL
    return VerificationReport(f"algebra-{mode}", None, trials, seed, ledger.results(tol))
