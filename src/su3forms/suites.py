"""Verification suites for the sphere model.

Each suite draws seeded sample points, measures coefficient max-norm
residuals of the claimed identities in the adapted frame at step h and h/2,
and reports the observed convergence order of the second-order scheme.
Where a tolerance is tighter than plain central differences can deliver at
the working step (the 5-form volume identity), the residual is judged on
the Richardson extrapolation of the h and h/2 values, while the order is
still measured on the plain scheme; both numbers appear in the report.

Test fields for the divergence identities are built from constant ambient
forms: restriction to the tangent space, invariant projection, and (for the
endomorphism fields) a kernel operator in the adapted frame, conjugated back
to ambient coordinates.  Equivariance of the operators makes these fields
frame-independent, hence smooth.  Like every sphere field, they are
evaluated on batches of points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from su3forms.forms import Form, contract, wedge
from su3forms.report import CheckResult, Ledger, VerificationReport, require_count
from su3forms.structure import (
    Endo,
    alpha_map,
    complex_structure,
    decompose_three_form,
    lefschetz_contract,
    omega,
    psi_minus,
    psi_plus,
    sym_plus_from_two_form,
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


# Kernel operators on frame values, applied as sp.kernel_matrix(op, degree);
# lefschetz_contract, alpha_map and sym_plus_from_two_form enter directly.


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


def _sym_minus_part(u: Form) -> Endo:
    return decompose_three_form(u).s


def _max_norm(v: np.ndarray) -> float:
    """Largest absolute coefficient; NaN if any coefficient is NaN."""
    return np.abs(v).max()


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
    rng = random.Random(seed)
    pts = sp.random_points(seed, samples)
    ofield = sp.omega_field()
    pmfield = sp.psi_minus_field()
    if defect == "flip_psi_minus":
        base = pmfield.ambient
        pmfield = sp.FormField(3, lambda q: -base(q))
    elif defect is not None:
        raise ValueError(f"unknown defect {defect!r}")
    ppfield = sp.psi_plus_field()

    ledger = Ledger()
    for frame in map(sp.adapted_frame, pts):
        f = frame.matrix
        x = f @ sp.standard_normals(rng, 6)
        x /= np.linalg.norm(x)
        xf = f.T @ x
        x_pp = xf @ sp.kernel_matrix(_into_psi_plus, 1)
        x_om = xf @ sp.kernel_matrix(_wedge_omega, 1)
        for idx, step in enumerate((h, h / 2)):
            ledger.add("d_omega_vs_psi_plus",
                       _max_norm(sp.ext_d(ofield, frame, step) - 3.0 * _PP), idx)
            ledger.add("d_psi_minus_vs_omega_sq",
                       _max_norm(sp.ext_d(pmfield, frame, step) + 2.0 * _OM2), idx)
            ledger.add("nabla_omega_vs_contraction",
                       _max_norm(sp.covariant_d(ofield, x, frame, step) - x_pp), idx)
            ledger.add("nabla_psi_plus_vs_wedge",
                       _max_norm(sp.covariant_d(ppfield, x, frame, step) + x_om), idx)

    checks = tuple(
        ledger.result(name, GRAY_TOL, order=(0, 1))
        for name in ("d_omega_vs_psi_plus", "d_psi_minus_vs_omega_sq",
                     "nabla_omega_vs_contraction", "nabla_psi_plus_vs_wedge")
    )
    return VerificationReport("gray", h, samples, seed, checks)


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
    frames = [sp.adapted_frame(p) for p in sp.random_points(seed, samples)]
    ledger = Ledger()
    for name, fn, ev, sup in _HARMONICS:
        scale = ev * sup
        for idx, step in enumerate((h, h / 2)):
            for f in frames:
                ledger.add(name, abs(sp.laplacian(fn, f, step) - ev * fn(f.point)) / scale, idx)

    checks = (
        ledger.result("laplacian_linear_harmonics", SPECTRAL_TOL, order=(0, 1)),
        ledger.result("laplacian_quadratic_harmonic", SPECTRAL_TOL, order=(0, 1)),
    )
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

    a: np.ndarray
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
        a,
        mu,
        xi,
        sp.FormField(2, omega_dot),
        sp.FormField(3, psi_plus_dot),
        sp.FormField(3, psi_minus_dot),
        sp.FormField(5, xi_omega_sq),
    )


def deformation_span_ratio(seed: int = 0, probes: int = 5) -> float:
    """Smallest/largest singular value of the (mu, xi) probe matrix over the
    seven coordinate bundles, at fixed seeded probe points.

    On the unit sphere |q x a|^2 + <q, a>^2 = |a|^2, so the Gram matrix of
    the seven rows is probes * I and the ratio is 1 up to roundoff."""
    pts = sp.random_points(seed + 1000, probes)
    rows = []
    for a in np.eye(7):
        bundle = sphere_deformation(a)
        rows.append(np.concatenate([bundle.mu(pts), bundle.xi(pts).ravel()]))
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    return float(s[-1] / s[0])


def verify_linearized(
    a: np.ndarray,
    samples: int = 50,
    h: float = 1e-3,
    seed: int = 0,
    defect: str | None = None,
    rank_check: bool = True,
) -> VerificationReport:
    """Linearized structure equations along one deformation bundle.

    Checks d(omega_dot) = 3 psi_plus_dot, d(psi_minus_dot) = -4 omega_dot ^
    omega and d(xi ^ omega^2) = -12 mu dv.  Residuals are judged on the
    Richardson extrapolation (4 d(h/2) - d(h)) / 3 of the plain values at h
    and h/2 (the 5-form identity's truncation constant exceeds the tolerance
    under the plain scheme); orders come from the plain values.

    defect="scale_psi_plus_dot" multiplies psi_plus_dot by 1.1.
    """
    require_count("samples", samples)
    bundle = sphere_deformation(a)
    pp_dot = bundle.psi_plus_dot
    if defect == "scale_psi_plus_dot":
        base = pp_dot.ambient
        pp_dot = sp.FormField(3, lambda q: 1.1 * base(q))
    elif defect is not None:
        raise ValueError(f"unknown defect {defect!r}")

    pts = sp.random_points(seed, samples)
    ledger = Ledger()
    for frame in map(sp.adapted_frame, pts):
        p, f = frame.point, frame.matrix
        ppd_p = sp.pullback_form(pp_dot.ambient(p), 3, f)
        od_p = sp.pullback_form(bundle.omega_dot.ambient(p), 2, f)
        od_om = od_p @ sp.kernel_matrix(_wedge_omega, 2)
        # (check, field, its claimed exterior derivative)
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

    checks = [ledger.result(name, LINEARIZED_TOL, order=(1, 2)) for name, _, _ in identities]
    if rank_check:
        ratio = deformation_span_ratio(seed)
        checks.append(
            CheckResult("span_rank_singular_ratio", ratio, None, ratio >= RANK_RATIO_MIN)
        )
    return VerificationReport("linearized", h, samples, seed, tuple(checks))


def _severity(c: CheckResult) -> tuple:
    """Sort key of one direction's check: failing first, then NaN, then the
    larger residual."""
    bad = c.max_residual != c.max_residual
    return (not c.passed, bad, 0.0 if bad else c.max_residual)


def verify_linearized_basis(
    samples: int = 50, h: float = 1e-3, seed: int = 0, defect: str | None = None
) -> VerificationReport:
    """Aggregate of verify_linearized over the seven coordinate directions:
    per check, the worst direction (a failing one before a passing one,
    then the larger residual, NaN largest; ties keep the first), plus the
    common span-rank check."""
    by_name: dict[str, list[CheckResult]] = {}
    for i in range(7):
        rep = verify_linearized(
            np.eye(7)[i], samples, h, seed, defect=defect, rank_check=False
        )
        for c in rep.checks:
            by_name.setdefault(c.name, []).append(c)
    merged = {name: max(cs, key=_severity) for name, cs in by_name.items()}
    ratio = deformation_span_ratio(seed)
    merged["span_rank_singular_ratio"] = CheckResult(
        "span_rank_singular_ratio", ratio, None, ratio >= RANK_RATIO_MIN
    )
    checks = tuple(merged[k] for k in sorted(merged))
    return VerificationReport("linearized", h, samples, seed, checks)


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


def _endo_field(
    form: Callable[[np.ndarray], np.ndarray], k: int, op: Callable,
    selection: tuple[int, int],
) -> Callable[[np.ndarray], np.ndarray]:
    """Ambient matrices of op applied to a k-form field in the adapted frame
    from `selection`, conjugated back; equivariance of op makes them
    independent of the frame."""

    def ambient(q: np.ndarray) -> np.ndarray:
        f = sp.adapted_frame(q, selection).matrix
        m = sp.pullback_form(form(q), k, f) @ sp.kernel_matrix(op, k)
        return f @ m.reshape(*m.shape[:-1], 6, 6) @ np.swapaxes(f, -1, -2)

    return ambient


def _cl_fields(beta: np.ndarray, gamma: np.ndarray, selection: tuple[int, int]):
    """Test fields of the divergence identities near a point with frame
    selection `selection`: phi, the 2-form field cut out of beta; h with
    phi = g(h J ., .); lambda = tr(h)/4; S, the Sym^- part of the constant
    3-form gamma; and the form fields S . psi_plus and S . psi_minus."""
    phif = invariant_two_form_field(beta)
    h_amb = _endo_field(phif.ambient, 2, sym_plus_from_two_form, selection)
    # the ambient matrix has zero normal block, so its trace is the frame trace
    lam_field = sp.FormField(0, lambda q: np.trace(h_amb(q), axis1=-2, axis2=-1)[..., None] / 4)
    s_amb = _endo_field(lambda q: gamma, 3, _sym_minus_part, selection)
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

    Five identities on (phi, h, lambda) and (S, S . psi_plus, S . psi_minus):
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
    rng = random.Random(seed)
    pts = sp.random_points(seed, samples)
    n_fields = 2
    betas = [sp.standard_normals(rng, 21) for _ in range(n_fields)]
    gammas = [sp.standard_normals(rng, 35) for _ in range(n_fields)]

    ledger = Ledger()
    for n, frame in enumerate(map(sp.adapted_frame, pts)):
        phif, h_amb, lam_field, s_amb, s_pp, s_pm = _cl_fields(
            betas[n % n_fields], gammas[n % n_fields], frame.selection
        )
        for idx, step in enumerate((h, h / 2)):
            div_h = sp.divergence_endo(h_amb, frame, step)
            dlam = sp.ext_d(lam_field, frame, step)
            lhs1 = sp.ext_d(phif, frame, step) @ sp.kernel_matrix(lefschetz_contract, 3)
            ledger.add("lefschetz_d_phi_vs_divergence",
                       _max_norm(lhs1 - (div_h + 2.0 * dlam)), idx)

            dphi = sp.codifferential(phif, frame, step)
            ledger.add("divergence_h_vs_j_delta_phi",
                       _max_norm(div_h + dphi @ sp.kernel_matrix(_j, 1)), idx)

            div_s = sp.divergence_endo(s_amb, frame, step)
            delta_spp = sp.codifferential(s_pp, frame, step)
            lam_d_spm = sp.ext_d(s_pm, frame, step) @ sp.kernel_matrix(lefschetz_contract, 4)
            rhs3 = -lam_d_spm - 2.0 * (div_s @ sp.kernel_matrix(_into_psi_plus, 1))
            ledger.add("delta_s_psi_plus_identity", _max_norm(delta_spp - rhs3), idx)
            alpha = lam_d_spm @ sp.kernel_matrix(alpha_map, 2)
            ledger.add("alpha_lefschetz_vs_divergence_s",
                       _max_norm(alpha + 2.0 * div_s), idx)
            ledger.add("lefschetz_delta_s_psi_plus",
                       _max_norm(delta_spp @ sp.kernel_matrix(lefschetz_contract, 2)), idx)

    n_gate = max(2, samples // 10)
    # the family's unit coefficients: constant parts, then each (m, i) entry of lin
    units = [(c, None) for c in np.eye(21)]
    units += [(np.zeros(21), lin.reshape(7, 21)) for lin in np.eye(7 * 21)]
    for frame in map(sp.adapted_frame, sp.random_points(seed + 1, n_gate)):
        columns = [
            sp.codifferential(invariant_two_form_field(c, lin, primitive=True), frame, h)
            for c, lin in units
        ]
        kernel = np.linalg.svd(np.column_stack(columns))[2][6:].T
        for _ in range(2):
            k = kernel @ sp.standard_normals(rng, kernel.shape[1])
            k /= np.linalg.norm(k)
            field = invariant_two_form_field(k[:21], k[21:].reshape(7, 21), primitive=True)
            ledger.add("coclosed_gate", np.linalg.norm(sp.codifferential(field, frame, h)))
            dphi0 = sp.ext_d(field, frame, h)
            ledger.add("coclosed_d_phi_wedge_psi_plus",
                       _max_norm(dphi0 @ sp.kernel_matrix(_wedge_psi_plus, 3)))
            ledger.add("coclosed_d_phi_wedge_psi_minus",
                       _max_norm(dphi0 @ sp.kernel_matrix(_wedge_psi_minus, 3)))
            ledger.add("coclosed_d_phi_lefschetz",
                       _max_norm(dphi0 @ sp.kernel_matrix(lefschetz_contract, 3)))

    checks = tuple(
        ledger.result(name, CL_TOL, order=(0, 1))
        for name in ("lefschetz_d_phi_vs_divergence", "divergence_h_vs_j_delta_phi",
                     "delta_s_psi_plus_identity", "alpha_lefschetz_vs_divergence_s",
                     "lefschetz_delta_s_psi_plus")
    ) + (
        ledger.result("coclosed_gate", COCLOSED_GATE_TOL),
        ledger.result("coclosed_d_phi_wedge_psi_plus", CL_TOL),
        ledger.result("coclosed_d_phi_wedge_psi_minus", CL_TOL),
        ledger.result("coclosed_d_phi_lefschetz", CL_TOL),
    )
    return VerificationReport("cl", h, samples, seed, checks)
