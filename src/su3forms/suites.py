"""Verification suites for the sphere model.

Each suite draws seeded sample points, measures coefficient max-norm
residuals of the claimed identities in the adapted frame at step h and h/2,
and reports the observed convergence order of the second-order scheme.
Where a tolerance is tighter than plain central differences can deliver at
the working step (the 5-form volume identity), the residual is judged on
the Richardson extrapolation of the h and h/2 values, while the order is
still measured on the plain scheme; both numbers appear in the report.

Test fields for the divergence identities are polynomials in the point q,
built from constant ambient data without any frame: the invariant
projection of the restriction of a 2-form, and endomorphism fields made of
that form, a constant symmetric matrix, the tangent projector I - q q^T and
J = q x .  Like every sphere field, they are evaluated on batches of points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from su3forms.forms import Form, contract, wedge
from su3forms.report import CheckResult, Ledger, VerificationReport, require_count, require_seed
from su3forms.structure import (
    alpha_map,
    complex_structure,
    lefschetz_contract,
    omega,
    psi_minus,
    psi_plus,
    volume_form,
)
from su3forms import sphere as sp

GRAY_TOL = 1e-5
SPECTRAL_TOL = 1e-4
LINEARIZED_TOL = 1e-5
CL_TOL = 1e-4
COCLOSED_GATE_TOL = 1e-6
RANK_RATIO_MIN = 1e-3

_PP = sp.frame_coeffs_from_form(psi_plus(), 3)
_OM2 = sp.frame_coeffs_from_form(wedge(omega(), omega()), 4)
_VOL = sp.frame_coeffs_from_form(volume_form(), 6)


# Kernel operators on frame values, applied as sp.kernel_matrix(op, k, k_out);
# lefschetz_contract and alpha_map enter directly.


def _j(x: Form) -> Form:
    return complex_structure(x.mode).apply(x)


def _into_psi_plus(x: Form) -> Form:
    return contract(x, psi_plus(x.mode))


def _wedge_omega(u: Form) -> Form:
    return wedge(u, omega(u.mode))


def _wedge_psi_plus(u: Form) -> Form:
    return wedge(u, psi_plus(u.mode))


def _wedge_psi_minus(u: Form) -> Form:
    return wedge(u, psi_minus(u.mode))


def _max_norm(v: np.ndarray) -> float:
    """Largest absolute coefficient; NaN if any coefficient is NaN."""
    return np.abs(v).max()


def _frames(seed: int, samples: int) -> list[sp.AdaptedFrame]:
    """Adapted frames at the seeded sample points."""
    return [sp.adapted_frame(p) for p in sp.random_points(seed, samples)]


def _sweep(ledger: Ledger, h: float, residuals: Callable[[float], Iterable[tuple]]) -> None:
    """Max-norm of each (name, residual) of residuals(step), at h into slot 0
    and at h/2 into slot 1."""
    for slot, step in enumerate((h, h / 2)):
        for name, r in residuals(step):
            ledger.add(name, _max_norm(r), slot)


# ---------------------------------------------------------------------------
# Gray system


def verify_gray(
    samples: int = 50, h: float = 1e-3, seed: int = 0, defect: str | None = None
) -> VerificationReport:
    """Residuals of d(omega) = 3 psi_plus, d(psi_minus) = -2 omega^2 and the
    first-derivative relations nabla_X omega = X -| psi_plus,
    nabla_X psi_plus = -X ^ omega.

    defect="flip_psi_minus" negates the psi_minus field, which a healthy
    suite must flag with an O(1) residual.
    """
    require_count("samples", samples)
    seed = require_seed(seed)
    sp.require_suite_step(h)
    rng = random.Random(seed)
    ofield = sp.omega_field()
    pmfield = sp.psi_minus_field()
    if defect == "flip_psi_minus":
        base = pmfield.ambient
        pmfield = sp.FormField(3, lambda q: -base(q))
    elif defect is not None:
        raise ValueError(f"unknown defect {defect!r}")
    ppfield = sp.psi_plus_field()

    ledger = Ledger()
    for frame in _frames(seed, samples):
        f = frame.matrix
        x = f @ sp.standard_normals(rng, 6)
        x /= np.linalg.norm(x)
        xf = f.T @ x
        x_pp = xf @ sp.kernel_matrix(_into_psi_plus, 1, 2)
        x_om = xf @ sp.kernel_matrix(_wedge_omega, 1, 3)
        _sweep(ledger, h, lambda step: (
            ("d_omega_vs_psi_plus", sp.ext_d(ofield, frame, step) - 3.0 * _PP),
            ("d_psi_minus_vs_omega_sq", sp.ext_d(pmfield, frame, step) + 2.0 * _OM2),
            ("nabla_omega_vs_contraction", sp.covariant_d(ofield, x, frame, step) - x_pp),
            ("nabla_psi_plus_vs_wedge", sp.covariant_d(ppfield, x, frame, step) + x_om),
        ))
    return VerificationReport("gray", h, samples, seed, ledger.results(GRAY_TOL, order=(0, 1)))


# ---------------------------------------------------------------------------
# Laplace spectrum spot checks


#: (check, harmonic, its eigenvalue, its sup |f| on the unit sphere)
_HARMONICS = tuple(
    ("laplacian_linear_harmonics", lambda q, i=i: q[..., i], 6.0, 1.0) for i in range(7)
) + (("laplacian_quadratic_harmonic", lambda q: q[..., 0] * q[..., 1], 14.0, 0.5),)


def verify_spectral(samples: int = 50, h: float = 1e-3, seed: int = 0) -> VerificationReport:
    """Eigenfunction checks: coordinate restrictions have eigenvalue 6 and a
    harmonic quadratic has eigenvalue 14 = k(k+5).  Residuals are relative
    to the eigenvalue scale lambda sup|f| on the sphere (6 for a coordinate,
    7 for q0 q1), which no sample point can shrink.
    """
    require_count("samples", samples)
    seed = require_seed(seed)
    sp.require_suite_step(h)
    frames = _frames(seed, samples)
    ledger = Ledger()
    for f in frames:
        _sweep(ledger, h, lambda step: (
            (name, (sp.laplacian(fn, f, step) - ev * fn(f.point)) / (ev * sup))
            for name, fn, ev, sup in _HARMONICS
        ))
    checks = ledger.results(SPECTRAL_TOL, order=(0, 1))
    return VerificationReport("spectral", h, samples, seed, checks)


# ---------------------------------------------------------------------------
# linearized system along the eigenvalue-6 deformations


@dataclass(frozen=True)
class DeformationBundle:
    """Deformation fields generated by an ambient direction a.

    mu is the first spherical harmonic <a, .>, xi its Hamiltonian partner
    J grad(mu) = q x a, and the form fields are the associated variations
    of the structure.
    """

    mu: Callable[[np.ndarray], np.ndarray]
    xi: Callable[[np.ndarray], np.ndarray]
    omega_dot: sp.FormField
    psi_plus_dot: sp.FormField
    psi_minus_dot: sp.FormField
    xi_omega_sq: sp.FormField


def sphere_deformation(a: np.ndarray) -> DeformationBundle:
    a = np.asarray(a, dtype=float)
    phi3 = sp.associative_three_form()

    def mu(q: np.ndarray) -> np.ndarray:
        return q @ a

    def xi(q: np.ndarray) -> np.ndarray:
        return sp.cross(q, a)

    def omega_dot(q: np.ndarray) -> np.ndarray:
        return sp.contract_ambient(xi(q), phi3, 3)

    def psi_plus_dot(q: np.ndarray) -> np.ndarray:
        return (
            -sp.wedge_ambient(xi(q), 1, sp.omega_ambient(q), 2)
            + mu(q)[..., None] * sp.psi_minus_ambient(q)
        )

    def psi_minus_dot(q: np.ndarray) -> np.ndarray:
        jxi = sp.cross(q, xi(q))
        return -sp.wedge_ambient(jxi, 1, sp.omega_ambient(q), 2) - mu(q)[..., None] * phi3

    def xi_omega_sq(q: np.ndarray) -> np.ndarray:
        om = sp.omega_ambient(q)
        return sp.wedge_ambient(xi(q), 1, sp.wedge_ambient(om, 2, om, 2), 4)

    return DeformationBundle(
        mu,
        xi,
        sp.FormField(2, omega_dot),
        sp.FormField(3, psi_plus_dot),
        sp.FormField(3, psi_minus_dot),
        sp.FormField(5, xi_omega_sq),
    )


def deformation_span_ratio(seed: int = 0) -> float:
    """Smallest/largest singular value of the (mu, xi) probe matrix over the
    seven coordinate bundles, at five fixed seeded points.

    On the unit sphere |q x a|^2 + <q, a>^2 = |a|^2, so the Gram matrix of
    the seven rows is 5 I and the ratio is 1 up to roundoff."""
    pts = sp.random_points(seed + 1000, 5)
    rows = []
    for a in np.eye(7):
        bundle = sphere_deformation(a)
        rows.append(np.concatenate([bundle.mu(pts), bundle.xi(pts).ravel()]))
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    return float(s[-1] / s[0])


def _linearized_checks(
    a: np.ndarray, frames: list[sp.AdaptedFrame], h: float, defect: str | None
) -> tuple[CheckResult, ...]:
    """The three linearized identities along the bundle of a, at frames."""
    bundle = sphere_deformation(a)
    pp_dot = bundle.psi_plus_dot
    if defect == "scale_psi_plus_dot":
        base = pp_dot.ambient
        pp_dot = sp.FormField(3, lambda q: 1.1 * base(q))
    elif defect is not None:
        raise ValueError(f"unknown defect {defect!r}")

    ledger = Ledger()
    for frame in frames:
        p, f = frame.point, frame.matrix
        ppd_p = sp.pullback_form(pp_dot.ambient(p), 3, f)
        od_p = sp.pullback_form(bundle.omega_dot.ambient(p), 2, f)
        od_om = od_p @ sp.kernel_matrix(_wedge_omega, 2, 4)
        # (check, field, its claimed exterior derivative), in name order
        identities = (
            ("d_omega_dot_vs_psi_plus_dot", bundle.omega_dot, 3.0 * ppd_p),
            ("d_psi_minus_dot_vs_omega_dot_wedge", bundle.psi_minus_dot, -4.0 * od_om),
            ("five_form_vs_volume", bundle.xi_omega_sq, -12.0 * bundle.mu(p) * _VOL),
        )
        for name, field, claimed in identities:
            d_h, d_half = (sp.ext_d(field, frame, step) for step in (h, h / 2))
            # slot 0: their Richardson extrapolation; slots 1 and 2: h and h/2
            for idx, d in enumerate(((4.0 * d_half - d_h) / 3.0, d_h, d_half)):
                ledger.add(name, _max_norm(d - claimed), idx)
    return ledger.results(LINEARIZED_TOL, order=(1, 2))


def _span_check(seed: int) -> CheckResult:
    ratio = deformation_span_ratio(seed)
    return CheckResult("span_rank_singular_ratio", ratio, None, ratio >= RANK_RATIO_MIN)


def require_direction(a: np.ndarray) -> None:
    """Reject an a that is not finite and nonzero of shape (7,): zero fields would pass."""
    if not (np.shape(a) == (7,) and np.isfinite(a).all() and np.any(a)):
        raise ValueError(
            f"direction must be finite and nonzero of shape (7,), got {a} of shape {np.shape(a)}"
        )


def verify_linearized(
    a: np.ndarray,
    samples: int = 50,
    h: float = 1e-3,
    seed: int = 0,
    defect: str | None = None,
) -> VerificationReport:
    """Linearized structure equations along one deformation bundle.

    Checks d(omega_dot) = 3 psi_plus_dot, d(psi_minus_dot) = -4 omega_dot ^
    omega and d(xi ^ omega^2) = -12 mu dv.  Residuals are judged on the
    Richardson extrapolation (4 d(h/2) - d(h)) / 3 of the plain values at h
    and h/2 (the 5-form identity's truncation constant exceeds the tolerance
    under the plain scheme); orders come from the plain values.

    The identities are linear in a, and the tolerance is absolute, so they
    are checked along the unit direction a/|a|; a is scaled by its largest
    component first, so that the norm cannot overflow.

    defect="scale_psi_plus_dot" multiplies psi_plus_dot by 1.1.
    """
    require_count("samples", samples)
    seed = require_seed(seed)
    sp.require_suite_step(h)
    require_direction(a)
    a = np.asarray(a, dtype=float) / np.abs(a).max()
    checks = _linearized_checks(a / np.linalg.norm(a), _frames(seed, samples), h, defect)
    return VerificationReport("linearized", h, samples, seed, (*checks, _span_check(seed)))


def _severity(c: CheckResult) -> tuple:
    """Sort key of one direction's check: failing first, then NaN, then the
    larger residual."""
    bad = c.max_residual != c.max_residual
    return (not c.passed, bad, 0.0 if bad else c.max_residual)


def verify_linearized_basis(
    samples: int = 50, h: float = 1e-3, seed: int = 0
) -> VerificationReport:
    """Aggregate of verify_linearized over the seven coordinate directions,
    on one set of frames: per check, the worst direction (a failing one
    before a passing one, then the larger residual, NaN largest; ties keep
    the first).  The span-rank check has no direction and is taken once."""
    require_count("samples", samples)
    seed = require_seed(seed)
    sp.require_suite_step(h)
    frames = _frames(seed, samples)
    by_name: dict[str, list[CheckResult]] = {}
    for a in np.eye(7):
        for c in _linearized_checks(a, frames, h, None):
            by_name.setdefault(c.name, []).append(c)
    checks = tuple(max(cs, key=_severity) for cs in by_name.values())
    return VerificationReport("linearized", h, samples, seed, (*checks, _span_check(seed)))


# ---------------------------------------------------------------------------
# divergence identities for the invariant-projection fields


def invariant_two_form_field(
    const_part: np.ndarray, lin_part: np.ndarray | None = None, primitive: bool = False
) -> sp.FormField:
    """J-invariant projection of the restriction of an ambient 2-form.

    The ambient input is beta(q) = const_part + q @ lin_part (lin_part
    optional), projected pointwise to its (1,1) part; with primitive=True
    the omega trace is removed as well.
    """

    def ambient(q: np.ndarray) -> np.ndarray:
        beta = const_part if lin_part is None else const_part + q @ lin_part
        inv = 0.5 * (beta + sp.pullback_form(beta, 2, sp.cross_matrix(q)))
        if primitive:
            # omega(q) is tangent, so the ambient inner product is the omega
            # trace of the restriction; |omega|^2 = 3
            om = sp.omega_ambient(q)
            inv = inv - np.sum(inv * om, axis=-1, keepdims=True) / 3.0 * om
        return inv

    return sp.FormField(2, ambient)


def _tangent_projector(q: np.ndarray) -> np.ndarray:
    """Matrices of I - q q^T, shape (..., 7) -> (..., 7, 7)."""
    return np.eye(7) - q[..., :, None] * q[..., None, :]


def _cl_fields(beta: np.ndarray, a: np.ndarray):
    """Test fields of the divergence identities, each a polynomial in q,
    with P = I - q q^T and J = q x . : phi, the 2-form field cut out of
    beta; h = -phi o J, so that phi = g(h J ., .); lambda = tr(h)/4;
    S = (P A P + J A J)/2 for the symmetric part A of the (7, 7) matrix a,
    symmetric, J-anticommuting and zero on q, so a section of Sym^-; and
    the form fields S . psi_plus and S . psi_minus."""
    phif = invariant_two_form_field(beta)
    sym = (a + a.T) / 2

    def h_amb(q: np.ndarray) -> np.ndarray:
        # row x of the contraction is phi(e_x, .)
        rows = sp.contract_ambient(np.eye(7), phif.ambient(q)[..., None, :], 2)
        return _tangent_projector(q) @ rows @ sp.cross_matrix(q)

    def s_amb(q: np.ndarray) -> np.ndarray:
        p, j = _tangent_projector(q), sp.cross_matrix(q)
        return (p @ sym @ p + j @ sym @ j) / 2

    # h kills q and P removes its normal row, so its trace is the frame trace
    lam_field = sp.FormField(0, lambda q: np.trace(h_amb(q), axis1=-2, axis2=-1)[..., None] / 4)
    phi3 = sp.associative_three_form()
    s_pp = sp.FormField(3, lambda q: sp.endo_act_ambient(s_amb(q), phi3, 3))
    s_pm = sp.FormField(
        3, lambda q: sp.endo_act_ambient(s_amb(q), sp.psi_minus_ambient(q), 3)
    )
    return phif, h_amb, lam_field, s_amb, s_pp, s_pm


def verify_cl_identities(
    samples: int = 30, h: float = 1e-3, seed: int = 0
) -> VerificationReport:
    """Divergence identities for the invariant test fields.

    Two sets of `_cl_fields`, from seeded (beta, a), are built once per run
    and alternate over the sample points.  Five identities on
    (phi, h, lambda) and (S, S . psi_plus, S . psi_minus):
      1. Lambda d(phi) = div(h) + 2 d(lambda)
      2. div(h) = -J (delta phi)
      3. delta(S . psi_plus) = -Lambda d(S . psi_minus) - 2 div(S) -| psi_plus
      4. alpha(Lambda d(S . psi_minus)) = -2 div(S)
      5. Lambda delta(S . psi_plus) = 0
    with div the negative nabla-trace and delta = -*d*.

    Additionally constructs co-closed primitive (1,1) inputs by solving
    delta(phi_0) = 0 within a family of invariant fields with affine ambient
    coefficients (the codifferential is linear in the coefficients, so a
    kernel vector of its sampled matrix qualifies), verifies the gate
    |delta phi_0| <= 1e-6, and checks the three conditions for
    d(phi_0) to have pure symmetric type: d(phi_0) ^ psi_plus = 0,
    d(phi_0) ^ psi_minus = 0, Lambda d(phi_0) = 0.
    """
    require_count("samples", samples)
    seed = require_seed(seed)
    sp.require_suite_step(h)
    rng = random.Random(seed)
    n_fields = 2
    betas = [sp.standard_normals(rng, 21) for _ in range(n_fields)]
    mats = [sp.standard_normals(rng, 49).reshape(7, 7) for _ in range(n_fields)]
    fields = [_cl_fields(beta, a) for beta, a in zip(betas, mats)]

    # identities 1-5 at one step, each operator value computed once for all of them
    def residuals(frame_fields, frame, step):
        phif, h_amb, lam_field, s_amb, s_pp, s_pm = frame_fields
        dlam, d_phi, d_spm = (sp.ext_d(f, frame, step) for f in (lam_field, phif, s_pm))
        delta_phi, delta_spp = (sp.codifferential(f, frame, step) for f in (phif, s_pp))
        div_h, div_s = (sp.divergence_endo(e, frame, step) for e in (h_amb, s_amb))
        lam_d_spm = d_spm @ sp.kernel_matrix(lefschetz_contract, 4, 2)
        rhs3 = -lam_d_spm - 2.0 * (div_s @ sp.kernel_matrix(_into_psi_plus, 1, 2))
        return (
            ("lefschetz_d_phi_vs_divergence",
             d_phi @ sp.kernel_matrix(lefschetz_contract, 3, 1) - (div_h + 2.0 * dlam)),
            ("divergence_h_vs_j_delta_phi", div_h + delta_phi @ sp.kernel_matrix(_j, 1, 1)),
            ("delta_s_psi_plus_identity", delta_spp - rhs3),
            ("alpha_lefschetz_vs_divergence_s",
             lam_d_spm @ sp.kernel_matrix(alpha_map, 2, 1) + 2.0 * div_s),
            ("lefschetz_delta_s_psi_plus", delta_spp @ sp.kernel_matrix(lefschetz_contract, 2, 0)),
        )

    ledger = Ledger()
    for n, frame in enumerate(_frames(seed, samples)):
        _sweep(ledger, h, lambda step: residuals(fields[n % n_fields], frame, step))

    n_gate = max(2, samples // 10)
    # the family's unit coefficients: constant parts, then each (m, i) entry of lin
    units = [(c, None) for c in np.eye(21)]
    units += [(np.zeros(21), lin.reshape(7, 21)) for lin in np.eye(7 * 21)]
    gate, coclosed = Ledger(), Ledger()
    for frame in _frames(seed + 1, n_gate):
        columns = [
            sp.codifferential(invariant_two_form_field(c, lin, primitive=True), frame, h)
            for c, lin in units
        ]
        kernel = np.linalg.svd(np.column_stack(columns))[2][6:].T
        for _ in range(2):
            k = kernel @ sp.standard_normals(rng, kernel.shape[1])
            k /= np.linalg.norm(k)
            field = invariant_two_form_field(k[:21], k[21:].reshape(7, 21), primitive=True)
            gate.add("coclosed_gate", np.linalg.norm(sp.codifferential(field, frame, h)))
            dphi0 = sp.ext_d(field, frame, h)
            coclosed.add("coclosed_d_phi_wedge_psi_plus",
                         _max_norm(dphi0 @ sp.kernel_matrix(_wedge_psi_plus, 3, 6)))
            coclosed.add("coclosed_d_phi_wedge_psi_minus",
                         _max_norm(dphi0 @ sp.kernel_matrix(_wedge_psi_minus, 3, 6)))
            coclosed.add("coclosed_d_phi_lefschetz",
                         _max_norm(dphi0 @ sp.kernel_matrix(lefschetz_contract, 3, 1)))

    checks = (
        ledger.results(CL_TOL, order=(0, 1))
        + gate.results(COCLOSED_GATE_TOL)
        + coclosed.results(CL_TOL)
    )
    return VerificationReport("cl", h, samples, seed, checks)
