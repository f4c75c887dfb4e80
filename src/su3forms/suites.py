"""Verification suites for the sphere model.

Each suite draws seeded sample points, measures coefficient max-norm
residuals of the claimed identities in the adapted frame at step h and h/2,
and reports the observed convergence order of the second-order scheme.
Where a tolerance is tighter than plain central differences can deliver at
the working step (the 5-form volume identity), the residual is evaluated
with the Richardson variant of `ext_d` while the order is still measured on
the plain scheme; both numbers appear in the report.

Test fields for the divergence identities are built pointwise from constant
ambient forms: restriction to the tangent space, invariant projection, and
(for the symmetric-endomorphism field) the 3-form decomposition, conjugated
back to ambient coordinates.  Equivariance of the decomposition makes these
fields frame-independent, hence smooth.
"""

from __future__ import annotations

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
    rng = np.random.default_rng(seed)
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
    for p in pts:
        f = sp.adapted_frame(p).matrix
        x = f @ rng.standard_normal(6)
        x /= np.linalg.norm(x)
        xf = f.T @ x
        x_pp = xf @ sp.kernel_matrix(_into_psi_plus, 1)
        x_om = xf @ sp.kernel_matrix(_wedge_omega, 1)
        for idx, step in enumerate((h, h / 2)):
            ledger.add("d_omega_vs_psi_plus",
                       _max_norm(sp.ext_d(ofield, p, step) - 3.0 * _PP), idx)
            ledger.add("d_psi_minus_vs_omega_sq",
                       _max_norm(sp.ext_d(pmfield, p, step) + 2.0 * _OM2), idx)
            ledger.add("nabla_omega_vs_contraction",
                       _max_norm(sp.covariant_d(ofield, x, p, step) - x_pp), idx)
            ledger.add("nabla_psi_plus_vs_wedge",
                       _max_norm(sp.covariant_d(ppfield, x, p, step) + x_om), idx)

    checks = tuple(
        ledger.result(name, GRAY_TOL, order=(0, 1))
        for name in ("d_omega_vs_psi_plus", "d_psi_minus_vs_omega_sq",
                     "nabla_omega_vs_contraction", "nabla_psi_plus_vs_wedge")
    )
    return VerificationReport("gray", h, samples, seed, checks)


# ---------------------------------------------------------------------------
# Laplace spectrum spot checks


def verify_spectral(samples: int = 50, h: float = 1e-3, seed: int = 0) -> VerificationReport:
    """Eigenfunction checks: coordinate restrictions have eigenvalue 6 and a
    harmonic quadratic has eigenvalue 14 = k(k+5).  Residuals are relative
    to the eigenvalue scale max |lambda f| over the sample.
    """
    require_count("samples", samples)
    pts = sp.random_points(seed, samples)
    harmonics = [("laplacian_linear_harmonics", lambda q, i=i: q[i], 6.0) for i in range(7)]
    harmonics.append(("laplacian_quadratic_harmonic", lambda q: q[0] * q[1], 14.0))
    ledger = Ledger()
    for name, fn, ev in harmonics:
        scale = max(abs(ev * fn(p)) for p in pts)
        for idx, step in enumerate((h, h / 2)):
            for p in pts:
                ledger.add(name, abs(sp.laplacian(fn, p, step) - ev * fn(p)) / scale, idx)

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
    mu: Callable[[np.ndarray], float]
    xi: Callable[[np.ndarray], np.ndarray]
    omega_dot: sp.FormField
    psi_plus_dot: sp.FormField
    psi_minus_dot: sp.FormField
    xi_omega_sq: sp.FormField


def sphere_deformation(a: np.ndarray) -> DeformationBundle:
    a = np.asarray(a, dtype=float)
    phi3 = sp.associative_three_form()

    def mu(q: np.ndarray) -> float:
        return float(a @ q)

    def xi(q: np.ndarray) -> np.ndarray:
        return sp.cross(q, a)

    def omega_dot(q: np.ndarray) -> np.ndarray:
        return sp.contract_ambient(xi(q), phi3, 3)

    def psi_plus_dot(q: np.ndarray) -> np.ndarray:
        return (
            -sp.wedge_ambient(xi(q), 1, sp.omega_ambient(q), 2)
            + mu(q) * sp.psi_minus_ambient(q)
        )

    def psi_minus_dot(q: np.ndarray) -> np.ndarray:
        jxi = sp.cross(q, xi(q))
        return -sp.wedge_ambient(jxi, 1, sp.omega_ambient(q), 2) - mu(q) * phi3

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
    seven coordinate bundles, at fixed seeded probe points."""
    pts = sp.random_points(seed + 1000, probes)
    rows = []
    for i in range(7):
        bundle = sphere_deformation(np.eye(7)[i])
        rows.append(
            np.concatenate(
                [[bundle.mu(q)] for q in pts] + [bundle.xi(q) for q in pts]
            )
        )
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
    omega and d(xi ^ omega^2) = -12 mu dv.  Residuals use the Richardson
    evaluation at h (the 5-form identity's truncation constant exceeds the
    tolerance under the plain scheme); orders come from the plain scheme.

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
    for p in pts:
        f = sp.adapted_frame(p).matrix
        ppd_p = sp.pullback_form(pp_dot.ambient(p), 3, f)
        od_p = sp.pullback_form(bundle.omega_dot.ambient(p), 2, f)
        od_om = od_p @ sp.kernel_matrix(_wedge_omega, 2)
        mu_p = bundle.mu(p)
        # slot 0: Richardson at h; slots 1 and 2: plain scheme at h and h/2
        for idx, (step, rich) in enumerate(((h, True), (h, False), (h / 2, False))):
            ledger.add(
                "d_omega_dot_vs_psi_plus_dot",
                _max_norm(sp.ext_d(bundle.omega_dot, p, step, richardson=rich)
                          - 3.0 * ppd_p),
                idx,
            )
            ledger.add(
                "d_psi_minus_dot_vs_omega_dot_wedge",
                _max_norm(sp.ext_d(bundle.psi_minus_dot, p, step, richardson=rich)
                          + 4.0 * od_om),
                idx,
            )
            ledger.add(
                "five_form_vs_volume",
                _max_norm(sp.ext_d(bundle.xi_omega_sq, p, step, richardson=rich)
                          + 12.0 * mu_p * _VOL),
                idx,
            )

    checks = [
        ledger.result(name, LINEARIZED_TOL, order=(1, 2))
        for name in ("d_omega_dot_vs_psi_plus_dot", "d_psi_minus_dot_vs_omega_dot_wedge",
                     "five_form_vs_volume")
    ]
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
            f = sp.adapted_frame(q).matrix
            # the omega trace <inv, omega> is the dual Lefschetz contraction
            restricted = sp.pullback_form(inv, 2, f)
            c = (restricted @ sp.kernel_matrix(lefschetz_contract, 2))[0] / 3.0
            inv = inv - c * sp.omega_ambient(q)
        return inv

    return sp.FormField(2, ambient)


def _sym_plus_endo_field(
    phi_field: sp.FormField, selection: tuple[int, int]
) -> Callable[[np.ndarray], np.ndarray]:
    """Ambient matrices of the symmetric endomorphism h with
    phi = g(h J ., .), for a J-invariant 2-form field."""

    def h_amb(q: np.ndarray) -> np.ndarray:
        f = sp.adapted_frame(q, selection).matrix
        restricted = sp.pullback_form(phi_field.ambient(q), 2, f)
        hm = restricted @ sp.kernel_matrix(sym_plus_from_two_form, 2)
        return f @ hm.reshape(6, 6) @ f.T

    return h_amb


def sym_minus_endo_field(gamma: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Ambient matrices of the Sym^- field cut out of a constant ambient
    3-form: restrict to the adapted frame, take the symmetric component of
    the 3-form decomposition, conjugate back.  Equivariance of the
    decomposition makes the result independent of the frame choice."""

    def s_amb(q: np.ndarray) -> np.ndarray:
        f = sp.adapted_frame(q).matrix
        s = sp.pullback_form(gamma, 3, f) @ sp.kernel_matrix(_sym_minus_part, 3)
        return f @ s.reshape(6, 6) @ f.T

    return s_amb


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
    rng = np.random.default_rng(seed)
    pts = sp.random_points(seed, samples)
    n_fields = 2
    betas = [rng.standard_normal(21) for _ in range(n_fields)]
    gammas = [rng.standard_normal(35) for _ in range(n_fields)]

    ledger = Ledger()
    for n, p in enumerate(pts):
        sel = sp.adapted_frame(p).selection
        phif = invariant_two_form_field(betas[n % n_fields])
        h_amb = _sym_plus_endo_field(phif, sel)
        # lambda = tr(h)/4; the ambient matrix has zero normal block, so its
        # trace equals the frame trace
        lam_field = sp.FormField(
            0, lambda q, f=h_amb: np.array([np.trace(f(q)) / 4.0])
        )
        s_amb = sym_minus_endo_field(gammas[n % n_fields])
        phi3 = sp.associative_three_form()
        s_pp = sp.FormField(3, lambda q: sp.endo_act_ambient(s_amb(q), phi3, 3))
        s_pm = sp.FormField(
            3, lambda q: sp.endo_act_ambient(s_amb(q), sp.psi_minus_ambient(q), 3)
        )
        for idx, step in enumerate((h, h / 2)):
            div_h = sp.divergence_endo(h_amb, p, step)
            dlam = sp.ext_d(lam_field, p, step)
            lhs1 = sp.ext_d(phif, p, step) @ sp.kernel_matrix(lefschetz_contract, 3)
            ledger.add("lefschetz_d_phi_vs_divergence",
                       _max_norm(lhs1 - (div_h + 2.0 * dlam)), idx)

            dphi = sp.codifferential(phif, p, step)
            ledger.add("divergence_h_vs_j_delta_phi",
                       _max_norm(div_h + dphi @ sp.kernel_matrix(_j, 1)), idx)

            div_s = sp.divergence_endo(s_amb, p, step)
            delta_spp = sp.codifferential(s_pp, p, step)
            lam_d_spm = sp.ext_d(s_pm, p, step) @ sp.kernel_matrix(lefschetz_contract, 4)
            rhs3 = -lam_d_spm - 2.0 * (div_s @ sp.kernel_matrix(_into_psi_plus, 1))
            ledger.add("delta_s_psi_plus_identity", _max_norm(delta_spp - rhs3), idx)
            alpha = lam_d_spm @ sp.kernel_matrix(alpha_map, 2)
            ledger.add("alpha_lefschetz_vs_divergence_s",
                       _max_norm(alpha + 2.0 * div_s), idx)
            ledger.add("lefschetz_delta_s_psi_plus",
                       _max_norm(delta_spp @ sp.kernel_matrix(lefschetz_contract, 2)), idx)

    n_gate = max(2, samples // 10)
    for p in sp.random_points(seed + 1, n_gate):
        units = []
        for i in range(21):
            c = np.zeros(21)
            c[i] = 1.0
            units.append((c, None))
        for m in range(7):
            for i in range(21):
                lin = np.zeros((7, 21))
                lin[m, i] = 1.0
                units.append((np.zeros(21), lin))
        columns = [
            sp.codifferential(invariant_two_form_field(c, lin, primitive=True), p, h)
            for c, lin in units
        ]
        kernel = np.linalg.svd(np.column_stack(columns))[2][6:].T
        for _ in range(2):
            k = kernel @ rng.standard_normal(kernel.shape[1])
            k /= np.linalg.norm(k)
            field = invariant_two_form_field(k[:21], k[21:].reshape(7, 21), primitive=True)
            ledger.add("coclosed_gate", np.linalg.norm(sp.codifferential(field, p, h)))
            dphi0 = sp.ext_d(field, p, h)
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
