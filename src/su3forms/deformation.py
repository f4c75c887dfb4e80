"""Infinitesimal deformations of the standard SU(3) structure.

A first-order deformation is parametrized pointwise by a tuple
(xi, S, phi, mu): a vector, a symmetric J-anticommuting endomorphism, a
J-invariant 2-form and a scalar.  `params_to_jet` produces the induced
first-order jet (g_dot, J_dot, omega_dot, psi_plus_dot, psi_minus_dot) and
`jet_to_params` inverts it, rejecting jets that do not satisfy the linearized
SU(3) constraints.  The scalar lam is always derived from phi (as a quarter
of the trace of the associated symmetric endomorphism), never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite

from su3forms.forms import (
    FLOAT,
    AlgebraError,
    DegreeError,
    Form,
    ModeError,
    Scalar,
    coerce_scalar,
    contract,
    inner,
    wedge,
)
from su3forms.structure import (
    Endo,
    alpha_map,
    complex_structure,
    decompose_anti_endo,
    endo_act,
    endo_from_two_form,
    gate_fails,
    j_compose_left,
    j_compose_right,
    lefschetz_contract,
    omega,
    psi_minus,
    psi_plus,
    sym_minus_residual,
    sym_plus_from_two_form,
    type_project,
    vector_cross_endo,
)


class InvalidParamsError(AlgebraError, ValueError):
    """Deformation parameters outside their modules: non-finite xi or mu, an
    S that is not symmetric J-anticommuting, or a phi that is not
    J-invariant.  An `AlgebraError`, so a suite records a failed check."""


class InconsistentJetError(AlgebraError):
    """A jet violates the linearized SU(3) constraints; see `failures`."""

    def __init__(self, failures: list[str]):
        super().__init__(
            "jet violates linearized constraints: " + ", ".join(failures)
        )
        self.failures = failures


@dataclass(frozen=True)
class DeformationParams:
    """Pointwise deformation data (xi, S, phi, mu).

    xi: vector part (degree-1 form); s: symmetric J-anticommuting endo;
    phi: J-invariant 2-form; mu: scalar.  The symmetric J-commuting
    endomorphism h attached to phi is derived, and `params_to_jet` takes
    lam = tr(h) / 4 from it.
    """

    xi: Form
    s: Endo
    phi: Form
    mu: Scalar

    @property
    def mode(self) -> str:
        return self.phi.mode

    @property
    def h(self) -> Endo:
        return sym_plus_from_two_form(self.phi)

    def validate(self) -> None:
        modes = {self.xi.mode, self.s.mode, self.phi.mode}
        if len(modes) != 1:
            raise ModeError(f"mixed modes in params: {sorted(modes)}")
        if self.xi.degrees not in ((), (1,)):
            raise DegreeError("xi must be a 1-form")
        if self.phi.degrees not in ((), (2,)):
            raise DegreeError("phi must be a 2-form")
        values = (*self.xi.components(), self.mu)
        if self.mode == FLOAT and not all(map(isfinite, values)):
            raise InvalidParamsError(f"xi and mu must be finite: xi {self.xi}, mu {self.mu}")
        s_err = sym_minus_residual(self.s)
        if gate_fails(s_err, self.mode):
            raise InvalidParamsError(f"S is not symmetric J-anticommuting: residual {s_err}")
        phi_err = (self.phi - type_project(self.phi, 1, 1)).max_norm()
        if gate_fails(phi_err, self.mode):
            raise InvalidParamsError(f"phi is not J-invariant: residual {phi_err}")


@dataclass(frozen=True)
class SU3Jet:
    """First-order jet of a curve of SU(3) structures at the standard one.

    g_dot is the symmetric endomorphism representing the metric velocity in
    the ground metric; j_dot anticommutes with J.
    """

    g_dot: Endo
    j_dot: Endo
    omega_dot: Form
    psi_plus_dot: Form
    psi_minus_dot: Form

    @property
    def mode(self) -> str:
        return self.omega_dot.mode


def params_to_jet(params: DeformationParams) -> SU3Jet:
    """The first-order jet induced by (xi, S, phi, mu).

    J_dot = JS + K_xi, g_dot = h + S, omega_dot = phi + xi -| psi_plus,
    psi_plus_dot = -xi ^ omega + lam psi_plus + mu psi_minus - S . psi_plus/2
    and the psi_minus_dot companion with (lam, mu) rotated and J xi in place
    of xi.
    """
    params.validate()
    mode = params.mode
    j = complex_structure(mode)
    om, pp, pm = omega(mode), psi_plus(mode), psi_minus(mode)
    half = Fraction(1, 2)
    h = params.h
    lam, mu = h.trace() / coerce_scalar(4, mode), params.mu
    s_psi_p = endo_act(params.s, pp)
    s_psi_m = endo_act(params.s, pm)
    xi_j = j.apply(params.xi)
    return SU3Jet(
        g_dot=h + params.s,
        j_dot=j_compose_left(params.s) + vector_cross_endo(params.xi),
        omega_dot=params.phi + contract(params.xi, pp),
        psi_plus_dot=(
            -wedge(params.xi, om)
            + pp.scale(lam)
            + pm.scale(mu)
            - s_psi_p.scale(half)
        ),
        psi_minus_dot=(
            -wedge(xi_j, om)
            - pp.scale(mu)
            + pm.scale(lam)
            - s_psi_m.scale(half)
        ),
    )


def check_jet_consistency(jet: SU3Jet) -> dict[str, Scalar]:
    """Residual magnitudes of the linearized SU(3) constraints.

    Returns max-norm residuals, all zero exactly on any `params_to_jet`
    output:

    - wedge_constraint: psi_plus_dot ^ omega + psi_plus ^ omega_dot
    - norm_constraint: tr(h) - <psi_plus_dot, psi_plus> with h recovered
      from the J-invariant part of omega_dot (the linearized unit-volume
      normalization of the complex volume form)
    - j_dot_anticommutes: J_dot J + J J_dot
    - g_dot_symmetric: g_dot - g_dot^T
    - xi_coherence: Lambda psi_plus_dot + alpha(omega_dot), the two
      extractions of xi agreeing
    - metric_compatibility: omega_dot - (g_dot J + J_dot) as endomorphisms,
      the derivative of omega = g(J., .)
    """
    mode = jet.mode
    j = complex_structure(mode)
    om, pp = omega(mode), psi_plus(mode)
    wedge_res = wedge(jet.psi_plus_dot, om) + wedge(pp, jet.omega_dot)
    h = sym_plus_from_two_form(type_project(jet.omega_dot, 1, 1))
    norm_res = abs(h.trace() - inner(jet.psi_plus_dot, pp))
    anti_res = (j_compose_right(jet.j_dot) + j_compose_left(jet.j_dot)).max_norm()
    sym_res = (jet.g_dot - jet.g_dot.transpose()).max_norm()
    xi_res = (lefschetz_contract(jet.psi_plus_dot) + alpha_map(jet.omega_dot)).max_norm()
    metric_res = endo_from_two_form(jet.omega_dot) - (j_compose_right(jet.g_dot) + jet.j_dot)
    return {
        "wedge_constraint": wedge_res.max_norm(),
        "norm_constraint": norm_res,
        "j_dot_anticommutes": anti_res,
        "g_dot_symmetric": sym_res,
        "xi_coherence": xi_res,
        "metric_compatibility": metric_res.max_norm(),
    }


def jet_to_params(jet: SU3Jet) -> DeformationParams:
    """Invert `params_to_jet`, verifying the constraints first.

    xi = -Lambda psi_plus_dot / 2, mu = <psi_plus_dot, psi_minus> / 4, phi is
    the J-invariant part of omega_dot, and S comes from the symmetric part of
    J_dot.  Raises `InconsistentJetError` naming every violated constraint.
    """
    mode = jet.mode
    residuals = check_jet_consistency(jet)
    failures = [name for name, r in residuals.items() if gate_fails(r, mode)]
    if failures:
        raise InconsistentJetError(failures)
    j = complex_structure(mode)
    xi = lefschetz_contract(jet.psi_plus_dot).scale(Fraction(-1, 2))
    mu = inner(jet.psi_plus_dot, psi_minus(mode)) / coerce_scalar(4, mode)
    phi = type_project(jet.omega_dot, 1, 1)
    j_s, xi_from_j = decompose_anti_endo(jet.j_dot)
    s = -j_compose_left(j_s)
    xi_err = (xi - xi_from_j).max_norm()
    if gate_fails(xi_err, mode):
        raise InconsistentJetError(["xi_from_j_dot"])
    return DeformationParams(xi, s, phi, mu)
