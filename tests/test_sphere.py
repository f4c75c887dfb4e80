"""Six-sphere model: frames, stencils, finite differences, Gray relations."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from oracles import det_oracle, divergence_endo_oracle
from su3forms import sphere as sp
from su3forms import suites
from su3forms.sphere import frame_coeffs_from_form as coeffs
from su3forms.forms import FLOAT, Form, contract, hodge_star, wedge
from su3forms.structure import (
    Endo,
    alpha_map,
    endo_act,
    lefschetz_contract,
    omega,
    psi_minus,
    psi_plus,
    sym_minus_residual,
    sym_plus_from_two_form,
    volume_form,
)
from su3forms.deformation import DeformationParams, params_to_jet
from su3forms.suites import sphere_deformation, verify_cl_identities, verify_gray


OM = coeffs(omega(), 2)
PP = coeffs(psi_plus(), 3)
PM = coeffs(psi_minus(), 3)
OM2 = coeffs(wedge(omega(), omega()), 4)
VOL = coeffs(volume_form(), 6)

POINTS = sp.random_points(7, 40)


def max_abs(v: np.ndarray) -> float:
    return np.abs(v).max()


def frame_form(u: np.ndarray, k: int) -> Form:
    """Float kernel k-form with the frame coefficient vector u."""
    return Form(FLOAT, {sum(1 << i for i in c): x for c, x in zip(sp.combos(6, k), u)})


def test_cross_product_identities():
    rng = np.random.default_rng(1)
    for _ in range(60):
        u, v = rng.standard_normal((2, 7))
        c = sp.cross(u, v)
        # Lagrange identity and orthogonality to both factors
        assert abs(c @ u) < 1e-12 * np.abs(u).sum()
        assert abs(c @ v) < 1e-12 * np.abs(v).sum()
        lhs = c @ c + (u @ v) ** 2
        assert abs(lhs - (u @ u) * (v @ v)) < 1e-9


def test_cross_matrix_is_j_on_tangent():
    for q in POINTS[:10]:
        jq = sp.cross_matrix(q)
        f = sp.adapted_frame(q).matrix
        for x in f.T:
            assert abs(x @ q) < 1e-13
            assert np.abs(jq @ (jq @ x) + x).max() < 1e-12


def test_adapted_frame_orthonormal_and_adapted():
    for q in POINTS:
        frame = sp.adapted_frame(q)
        f = frame.matrix
        gram = f.T @ f
        assert np.abs(gram - np.eye(6)).max() < 1e-12
        assert np.abs(f.T @ q).max() < 1e-13
        # J f_{2i-1} = f_{2i} in 1-based pairs
        jq = sp.cross_matrix(q)
        for i in range(0, 6, 2):
            assert np.abs(jq @ f[:, i] - f[:, i + 1]).max() < 1e-12


def test_structure_normal_forms():
    for q in POINTS:
        f = sp.adapted_frame(q).matrix
        assert max_abs(sp.pullback_form(sp.omega_ambient(q), 2, f) - OM) < 1e-12
        assert max_abs(sp.pullback_form(sp.associative_three_form(), 3, f) - PP) < 1e-12
        assert max_abs(sp.pullback_form(sp.psi_minus_ambient(q), 3, f) - PM) < 1e-12


def _projected(gamma: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The basis (7, m) projected to the tangent space at each point of gamma."""
    return basis - gamma[..., :, None] * (gamma @ basis)[..., None, :]


def test_stencil_points_lie_on_the_sphere():
    rng = np.random.default_rng(3)
    for q in POINTS[:10]:
        f = sp.adapted_frame(q).matrix
        x = 0.3 * rng.standard_normal((5, 6)) @ f.T
        gamma = sp._stencil(q, x, 1e-2)
        v = _projected(gamma, f)
        assert gamma.shape == (2, 5, 7) and v.shape == (2, 5, 7, 6)
        assert np.abs(np.linalg.norm(gamma, axis=-1) - 1.0).max() < 1e-14
        # the projected frame is tangent at each stencil point
        assert np.abs(np.einsum("...a,...ab->...b", gamma, v)).max() < 1e-14


def test_chart_differential_at_origin_is_orthonormal():
    # ext_d differentiates in the chart u -> normalize(p + B u) with
    # B = frame @ _TURN; at u = 0 its differential is B, orthonormal and
    # tangent at p
    q = POINTS[1]
    basis = sp.adapted_frame(q).matrix @ sp._TURN
    eps = 1e-6
    d0 = np.column_stack(
        [sp.normalize(q + eps * b) - sp.normalize(q - eps * b) for b in basis.T]
    ) / (2 * eps)
    assert np.abs(d0 - basis).max() < 1e-9
    assert np.abs(basis.T @ basis - np.eye(6)).max() < 1e-12
    assert np.abs(q @ basis).max() < 1e-12


def test_batched_chart_differential_is_the_jacobian():
    # ext_d's derivation: at u = +-h e_j the differential of the chart
    # u -> normalize(p + B u) is the projected B over sqrt(1 + h^2)
    q = POINTS[4]
    basis = sp.adapted_frame(q).matrix @ sp._TURN
    eps = 1e-6
    for h in (1e-3, 0.1):
        gamma = sp._stencil(q, basis.T, h)
        v = _projected(gamma, basis)
        for t, points, diffs in zip((h, -h), gamma, v / np.sqrt(1.0 + h * h)):
            for u, p, d in zip(t * np.eye(6), points, diffs):
                assert np.abs(sp.normalize(q + basis @ u) - p).max() < 1e-15
                jac = np.column_stack(
                    [sp.normalize(q + basis @ (u + eps * e))
                     - sp.normalize(q + basis @ (u - eps * e)) for e in np.eye(6)]
                ) / (2 * eps)
                assert np.abs(d - jac).max() < 1e-9


def test_psi_plus_field_is_closed():
    ppf = sp.psi_plus_field()
    for q in POINTS[:6]:
        assert max_abs(sp.ext_d(ppf, q, 1e-3)) < 5e-9


def test_gray_equations_and_convergence():
    ofield = sp.omega_field()
    pmfield = sp.psi_minus_field()
    for q in POINTS[:8]:
        r1 = max_abs(sp.ext_d(ofield, q, 1e-3) - 3.0 * PP)
        r2 = max_abs(sp.ext_d(pmfield, q, 1e-3) + 2.0 * OM2)
        assert r1 < 1e-5 and r2 < 1e-5
        half = max_abs(sp.ext_d(ofield, q, 5e-4) - 3.0 * PP)
        assert 3.0 < r1 / half < 5.0  # second order


def test_covariant_derivative_relations():
    ofield = sp.omega_field()
    ppfield = sp.psi_plus_field()
    rng = np.random.default_rng(5)
    for q in POINTS[:8]:
        f = sp.adapted_frame(q).matrix
        x = f @ rng.standard_normal(6)
        x /= np.linalg.norm(x)
        xf = Form(FLOAT, {1 << i: c for i, c in enumerate(f.T @ x)})
        x_pp = coeffs(contract(xf, psi_plus(FLOAT)), 2)
        x_om = coeffs(wedge(xf, omega(FLOAT)), 3)
        r1 = max_abs(sp.covariant_d(ofield, x, q, 1e-3) - x_pp)
        r2 = max_abs(sp.covariant_d(ppfield, x, q, 1e-3) + x_om)
        assert r1 < 1e-5 and r2 < 1e-5


def test_first_harmonic_hessian():
    # nabla_X dmu = -mu X for the restriction of a linear function
    a = np.array([0.3, -1.2, 0.7, 0.0, 0.5, -0.4, 1.1])
    dmu = sp.FormField(1, lambda q: a - (q @ a)[..., None] * q)
    rng = np.random.default_rng(11)
    for q in POINTS[:8]:
        f = sp.adapted_frame(q).matrix
        x = f @ rng.standard_normal(6)
        x /= np.linalg.norm(x)
        lhs = sp.covariant_d(dmu, x, q, 1e-3)
        assert max_abs(lhs + (a @ q) * (f.T @ x)) < 1e-5


def test_laplacian_eigenfunctions():
    for q in POINTS[:10]:
        for i in range(7):
            val = sp.laplacian(lambda p: p[..., i], q, 1e-3)
            assert abs(val - 6.0 * q[i]) < 1e-5
        quad = sp.laplacian(lambda p: p[..., 0] * p[..., 1], q, 1e-3)
        assert abs(quad - 14.0 * q[0] * q[1]) < 1e-5


def test_richardson_sharpens_ext_d():
    bundle = sphere_deformation(np.eye(7)[6])
    q = POINTS[2]
    d_h, d_half = (sp.ext_d(bundle.xi_omega_sq, q, h) for h in (1e-3, 5e-4))
    claimed = -12.0 * bundle.mu(q) * VOL
    plain = max_abs(d_h - claimed)
    rich = max_abs((4.0 * d_half - d_h) / 3.0 - claimed)
    assert rich < plain / 100.0


def test_codifferential_on_structure_forms():
    ofield = sp.omega_field()
    ppfield = sp.psi_plus_field()
    for q in POINTS[:6]:
        assert max_abs(sp.codifferential(ofield, q, 1e-3)) < 1e-9
        # delta psi_plus = -*d*psi_plus = -*d(psi_minus) = 4 omega
        r = max_abs(sp.codifferential(ppfield, q, 1e-3) - 4.0 * OM)
        assert r < 1e-5


def test_derivatives_past_the_degree_range_are_the_zero_form():
    # delta of a function and d of a 6-form: length-0 frame vectors
    q = POINTS[3]
    function = sp.FormField(0, lambda p: p[..., :1])
    top = sp.FormField(6, lambda p: np.ones((*p.shape[:-1], 7)))
    assert sp.codifferential(function, q, 1e-3).shape == (0,)
    assert sp.ext_d(top, q, 1e-3).shape == (0,)


def test_deformation_bundle_matches_flat_jet():
    # restricting the bundle fields at a point reproduces the jet of the
    # parameters (xi_frame, 0, 0, mu) in the adapted frame
    bundle = sphere_deformation(np.array([0.4, -0.2, 1.0, 0.3, -0.7, 0.1, 0.6]))
    for q in POINTS[:8]:
        f = sp.adapted_frame(q).matrix
        xi_frame = f.T @ bundle.xi(q)
        params = DeformationParams(
            xi=Form(FLOAT, {1 << i: c for i, c in enumerate(xi_frame)}),
            s=Endo.zero(FLOAT),
            phi=Form.zero(FLOAT),
            mu=float(bundle.mu(q)),
        )
        jet = params_to_jet(params)
        od = sp.pullback_form(bundle.omega_dot.ambient(q), 2, f)
        ppd = sp.pullback_form(bundle.psi_plus_dot.ambient(q), 3, f)
        pmd = sp.pullback_form(bundle.psi_minus_dot.ambient(q), 3, f)
        assert max_abs(coeffs(jet.omega_dot, 2) - od) < 1e-12
        assert max_abs(coeffs(jet.psi_plus_dot, 3) - ppd) < 1e-12
        assert max_abs(coeffs(jet.psi_minus_dot, 3) - pmd) < 1e-12


def _ambient_star(q: np.ndarray, beta: np.ndarray, k: int) -> np.ndarray:
    """Ambient (6-k)-form restricting to the sphere's Hodge star of beta|T:
    *_S(beta|T) = (-1)^(k+1) (q -| *_7 beta)|T, independent of any frame."""
    star7 = beta @ sp._wedge_table(7, k, 7 - k)[..., 0]
    return (-1) ** (k + 1) * sp.contract_ambient(q, star7, 7 - k)


def test_ambient_star_is_the_kernel_star_in_the_adapted_frame():
    rng = np.random.default_rng(61)
    for q in POINTS[:4]:
        f = sp.adapted_frame(q).matrix
        for k in range(7):
            beta = rng.standard_normal(len(sp.combos(7, k)))
            starred = sp.pullback_form(_ambient_star(q, beta, k), 6 - k, f)
            expected = sp.pullback_form(beta, k, f) @ sp.kernel_matrix(hodge_star, k, 6 - k)
            assert max_abs(starred - expected) < 1e-14


def _codifferential_oracle(field: sp.FormField, q: np.ndarray, h: float) -> np.ndarray:
    # -*d* through the ambient star, differentiated by ext_d
    k = field.degree
    starred = sp.FormField(6 - k, lambda p: _ambient_star(p, field.ambient(p), k))
    return -(sp.ext_d(starred, q, h) @ sp.kernel_matrix(hodge_star, 7 - k, k - 1))


@pytest.mark.parametrize("name", ["phi", "S_psi_plus", "primitive_two_form"])
def test_codifferential_is_minus_star_d_star(name):
    # minus the trace of the covariant derivative and -*d* differ by
    # truncation error only, which shrinks at second order
    q = POINTS[5]
    phif, _, _, _, s_pp, _ = _cl_fields()
    rng = np.random.default_rng(67)
    primitive = suites.invariant_two_form_field(
        rng.standard_normal(21), rng.standard_normal((7, 21)), primitive=True
    )
    field = {"phi": phif, "S_psi_plus": s_pp, "primitive_two_form": primitive}[name]
    diffs = []
    for h in (1e-3, 5e-4):
        expected = _codifferential_oracle(field, q, h)
        diff = max_abs(sp.codifferential(field, q, h) - expected)
        assert diff <= 1e-5 * max_abs(expected)
        diffs.append(diff)
    assert 1.8 <= np.log2(diffs[0] / diffs[1]) <= 2.2


# ---------------------------------------------------------------------------
# batched evaluation


def _near(center: np.ndarray, n: int, seed: int) -> np.ndarray:
    g = center + 0.05 * np.random.default_rng(seed).standard_normal((n, 7))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _cl_fields():
    rng = np.random.default_rng(41)
    return suites._cl_fields(rng.standard_normal(21), rng.standard_normal((7, 7)))


def _suite_fields() -> dict:
    """Every field the suites build, by name: q -> ambient value."""
    rng = np.random.default_rng(37)
    bundle = sphere_deformation(rng.standard_normal(7))
    const, lin = rng.standard_normal(21), rng.standard_normal((7, 21))
    phif, h_amb, lam, s_amb, s_pp, s_pm = _cl_fields()
    return {
        "omega": sp.omega_field().ambient,
        "psi_plus": sp.psi_plus_field().ambient,
        "psi_minus": sp.psi_minus_field().ambient,
        "omega_dot": bundle.omega_dot.ambient,
        "psi_plus_dot": bundle.psi_plus_dot.ambient,
        "psi_minus_dot": bundle.psi_minus_dot.ambient,
        "xi_omega_sq": bundle.xi_omega_sq.ambient,
        "primitive_two_form": suites.invariant_two_form_field(
            const, lin, primitive=True
        ).ambient,
        "phi": phif.ambient,
        "h": h_amb,
        "lambda": lam.ambient,
        "S": s_amb,
        "S_psi_plus": s_pp.ambient,
        "S_psi_minus": s_pm.ambient,
    }


@pytest.mark.parametrize("name", list(_suite_fields()))
def test_fields_evaluate_on_batches(name):
    field = _suite_fields()[name]
    batch = _near(POINTS[5], 4, 43)
    singles = np.stack([field(q) for q in batch])
    batched = field(batch)
    assert batched.shape == singles.shape and batched.shape[0] == 4
    assert np.abs(batched - singles).max() <= 1e-14


def test_cl_endomorphism_fields_match_the_kernel():
    # in the adapted frame h is the kernel's sym_plus_from_two_form of phi|T
    # and S is symmetric and J-anticommuting; both kill the normal q
    phif, h_amb, _, s_amb, _, _ = _cl_fields()
    for q in POINTS[:8]:
        f = sp.adapted_frame(q).matrix
        phi = frame_form(sp.pullback_form(phif.ambient(q), 2, f), 2)
        expected = np.array(sym_plus_from_two_form(phi).rows)
        assert max_abs(f.T @ h_amb(q) @ f - expected) < 1e-12
        assert sym_minus_residual(Endo(FLOAT, (f.T @ s_amb(q) @ f).tolist())) <= 1e-12
        assert max_abs(h_amb(q) @ q) < 1e-14 and max_abs(s_amb(q) @ q) < 1e-14


def _negated_h(cl_fields):
    def patched(beta, a):
        phif, h_amb, lam, s_amb, s_pp, s_pm = cl_fields(beta, a)
        return phif, lambda q: -h_amb(q), lam, s_amb, s_pp, s_pm

    return patched


def _j_commuting_s(cl_fields):
    # (P A P - J A J)/2 commutes with J, so it is no section of Sym^-
    def patched(beta, a):
        phif, h_amb, lam, _, _, _ = cl_fields(beta, a)
        sym = (a + a.T) / 2

        def s_amb(q):
            p, j = suites._tangent_projector(q), sp.cross_matrix(q)
            return (p @ sym @ p - j @ sym @ j) / 2

        phi3 = sp.associative_three_form()
        s_pp = sp.FormField(3, lambda q: sp.endo_act_ambient(s_amb(q), phi3, 3))
        s_pm = sp.FormField(
            3, lambda q: sp.endo_act_ambient(s_amb(q), sp.psi_minus_ambient(q), 3)
        )
        return phif, h_amb, lam, s_amb, s_pp, s_pm

    return patched


@pytest.mark.parametrize("defect", [_negated_h, _j_commuting_s])
def test_cl_field_defect_is_caught(monkeypatch, defect):
    assert verify_cl_identities(samples=2).all_passed
    monkeypatch.setattr(suites, "_cl_fields", defect(suites._cl_fields))
    report = verify_cl_identities(samples=2)
    assert not report.all_passed
    assert max(c.max_residual for c in report.checks) > 1.0


def test_ambient_omega_trace_is_the_lefschetz_trace():
    # omega(q) is tangent, so <beta, omega(q)> sees only the restriction of beta
    rng = np.random.default_rng(53)
    for q in POINTS[:8]:
        beta = rng.standard_normal(21)
        restricted = sp.pullback_form(beta, 2, sp.adapted_frame(q).matrix)
        lefschetz = (restricted @ sp.kernel_matrix(lefschetz_contract, 2, 0))[0]
        assert abs(beta @ sp.omega_ambient(q) - lefschetz) < 1e-12


def test_divergence_endo_matches_per_direction_oracle():
    # relative bound: the 1/(2h) of the difference amplifies the roundoff of
    # the field values, and divergences reach 7 here
    _, h_amb, _, s_amb, _, _ = _cl_fields()
    for q in POINTS[:4]:
        frame = sp.adapted_frame(q).matrix
        for s in (h_amb, s_amb):
            expected = divergence_endo_oracle(s, q, 1e-3, frame)
            error = np.abs(sp.divergence_endo(s, q, 1e-3) - expected).max()
            assert error <= 1e-12 * np.abs(expected).max()


# ---------------------------------------------------------------------------
# operators at a point or at its adapted frame


def _operators(h: float = 1e-3) -> dict:
    """Each operator the suites apply at step h, as a function of where it
    evaluates."""
    center = POINTS[8]
    x = sp.adapted_frame(center).matrix @ np.random.default_rng(59).standard_normal(6)
    _, h_amb, _, _, _, _ = _cl_fields()
    return {
        "ext_d": lambda w: sp.ext_d(sp.psi_minus_field(), w, h),
        "covariant_d": lambda w: sp.covariant_d(sp.omega_field(), x, w, h),
        "divergence_endo": lambda w: sp.divergence_endo(h_amb, w, h),
        "codifferential": lambda w: sp.codifferential(sp.psi_plus_field(), w, h),
        "laplacian": lambda w: np.array(sp.laplacian(lambda q: q[..., 0] * q[..., 1], w, h)),
    }


@pytest.mark.parametrize("name", list(_operators()))
def test_step_guard(name):
    # every operator places its points through the one guarded stencil
    for h in (1e-8, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            _operators(h)[name](POINTS[0])


@pytest.mark.parametrize("name", list(_operators()))
def test_operator_on_a_point_equals_it_on_the_frame(name):
    op = _operators()[name]
    q = POINTS[8]
    frame = sp.adapted_frame(q)
    assert frame.point is q
    assert np.array_equal(op(q), op(frame))


def test_turn_off_the_frame_is_caught(monkeypatch):
    # with two columns of the turn swapped, _TURN_BACK no longer undoes it,
    # so ext_d reports its result in the wrong basis
    assert verify_gray(samples=2).all_passed
    monkeypatch.setattr(sp, "_TURN", sp._TURN[:, [1, 0, 2, 3, 4, 5]])
    report = verify_gray(samples=2)
    assert not report.all_passed
    assert max(c.max_residual for c in report.checks) > 1e-2


# ---------------------------------------------------------------------------
# compound minors and the cached stencil tables


def _minors_oracle(v: np.ndarray, k: int) -> np.ndarray:
    n, m = v.shape
    return np.array(
        [
            [det_oracle(v[np.ix_(rows, cols)].tolist()) if k else 1
             for cols in combinations(range(m), k)]
            for rows in combinations(range(n), k)
        ]
    )


@pytest.mark.parametrize("shape", [(7, 6), (6, 6)])
def test_compound_and_pullback_match_permutation_determinants(shape):
    rng = np.random.default_rng(17)
    v = rng.standard_normal(shape)
    for k in range(7):
        expected = _minors_oracle(v, k)
        assert np.abs(sp.compound(v, k) - expected).max() < 1e-12
        coeffs = rng.standard_normal(expected.shape[0])
        assert np.abs(sp.pullback_form(coeffs, k, v) - coeffs @ expected).max() < 1e-12


def _rational_matrix(rng: np.random.Generator) -> np.ndarray:
    """(7, 6) object array of small random `Fraction`s."""
    return np.array(
        [[Fraction(int(n), int(d)) for n, d in zip(row, den)]
         for row, den in zip(rng.integers(-9, 10, (7, 6)), rng.integers(1, 10, (7, 6)))],
        dtype=object,
    )


def test_compound_takes_the_dtype_of_its_input():
    rng = np.random.default_rng(23)
    v = rng.standard_normal((7, 6)) + 1j * rng.standard_normal((7, 6))
    exact = _rational_matrix(rng)
    for k in range(7):
        minors = sp.compound(v, k)
        assert minors.dtype == complex
        assert np.abs(minors - _minors_oracle(v, k)).max() < 1e-12
        minors = sp.compound(exact, k)
        assert minors.dtype == object
        assert all(isinstance(x, (int, Fraction)) for x in minors.flat)
        assert minors.tolist() == _minors_oracle(exact, k).tolist()


def _off_point(g: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    """a - g ^ (g -| a) on the ambient tables read as integers, so that
    `Fraction` object arrays stay exact."""
    if not k:
        return a
    contract = sp._contract_table(7, k).astype(int).astype(object)
    wedge = sp._wedge_table(7, 1, k - 1).astype(int).astype(object)
    inner = np.einsum("i,a,iab->b", g, a, contract)
    return a - np.einsum("i,b,ibc->c", g, inner, wedge)


def test_projecting_off_a_point_is_pulling_back_along_its_projector():
    # at a unit g, a - g ^ (g -| a) pulled back along B is a pulled back
    # along (1 - g g^T) B: the identity every stencil derivative rests on
    rng = np.random.default_rng(41)
    g = sp.normalize(rng.standard_normal(7))
    basis = rng.standard_normal((7, 6))
    g_exact = np.array([Fraction(3, 5), Fraction(4, 5), 0, 0, 0, 0, 0], dtype=object)
    basis_exact = _rational_matrix(rng)
    projector = np.eye(7, dtype=int).astype(object) - np.outer(g_exact, g_exact)
    for k in range(7):
        a = rng.standard_normal(len(sp.combos(7, k)))
        off = a - sp.wedge_ambient(g, 1, sp.contract_ambient(g, a, k), k - 1) if k else a
        along = sp.pullback_form(a, k, basis - np.outer(g, g @ basis))
        assert np.abs(sp.pullback_form(off, k, basis) - along).max() < 1e-12
        a_exact = np.array([Fraction(int(n), 7) for n in rng.integers(-9, 10, a.shape)],
                           dtype=object)
        exact_off = sp.pullback_form(_off_point(g_exact, a_exact, k), k, basis_exact)
        assert all(isinstance(x, (int, Fraction)) for x in exact_off.flat)
        assert exact_off.tolist() == sp.pullback_form(a_exact, k, projector @ basis_exact).tolist()


def test_batched_pullback_equals_single_calls():
    rng = np.random.default_rng(19)
    v = rng.standard_normal((12, 7, 6))
    for k in range(7):
        coeffs = rng.standard_normal((12, len(sp.combos(7, k))))
        batched = sp.pullback_form(coeffs, k, v)
        singles = np.stack([sp.pullback_form(c, k, x) for c, x in zip(coeffs, v)])
        assert np.array_equal(batched, singles)


def test_psi_minus_table_matches_derivation_action():
    phi = sp.associative_three_form()
    for q in POINTS[:10]:
        direct = sp.endo_act_ambient(sp.cross_matrix(q), phi, 3) / 3.0
        assert np.abs(sp.psi_minus_ambient(q) - direct).max() < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_endo_act_ambient_matches_kernel_on_a_hyperplane(k):
    # matrices and forms that leave out the seventh axis are six-dimensional
    rng = np.random.default_rng(29)
    a6 = rng.standard_normal((6, 6))
    u6 = rng.standard_normal(len(sp.combos(6, k)))
    six = [pos for pos, c in enumerate(sp.combos(7, k)) if 6 not in c]
    m7 = np.zeros((7, 7))
    m7[:6, :6] = a6
    u7 = sp.zero_coeffs(7, k)
    u7[six] = u6
    ambient = sp.endo_act_ambient(m7, u7, k)
    kernel = coeffs(endo_act(Endo(FLOAT, a6.tolist()), frame_form(u6, k)), k)
    assert np.abs(ambient[six] - kernel).max() < 1e-12
    assert np.abs(np.delete(ambient, six)).max() == 0.0


# ---------------------------------------------------------------------------
# kernel operators as exact matrices


KERNEL_OPERATORS = [
    *((hodge_star, k, 6 - k) for k in range(7)),
    *((lefschetz_contract, k, k - 2) for k in (2, 3, 4)),
    (alpha_map, 2, 1),
    (suites._j, 1, 1),
    (suites._into_psi_plus, 1, 2),
    (suites._wedge_omega, 1, 3),
    (suites._wedge_omega, 2, 4),
    (suites._wedge_psi_plus, 3, 6),
    (suites._wedge_psi_minus, 3, 6),
]


@pytest.mark.parametrize(
    "op, k, k_out",
    KERNEL_OPERATORS,
    ids=[f"{op.__name__}-{k}" for op, k, _ in KERNEL_OPERATORS],
)
def test_kernel_matrix_applies_the_kernel_operator(op, k, k_out):
    rng = np.random.default_rng(31 + k)
    matrix = sp.kernel_matrix(op, k, k_out)
    for _ in range(3):
        u = frame_form(rng.standard_normal(len(sp.combos(6, k))), k)
        image = op(u)
        assert image.degree == k_out
        assert np.abs(coeffs(u, k) @ matrix - coeffs(image, k_out)).max() < 1e-12


def test_kernel_matrix_of_an_operator_vanishing_on_its_degree():
    # psi_plus ^ (4-form) is a 7-form, and R^6 has none
    matrix = sp.kernel_matrix(suites._wedge_psi_plus, 4, 7)
    assert matrix.shape == (15, 0)
    assert not matrix.any()


def _clear_sphere_caches() -> None:
    for obj in vars(sp).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


@pytest.fixture
def fresh_sphere_caches():
    _clear_sphere_caches()
    yield
    _clear_sphere_caches()


def _flipped_laplace_sign(table):
    # a 2x2 minor of the (7, 6) projected frame becomes a permanent
    def patched(n, m, d):
        ent, sub, signs = table(n, m, d)
        if (n, m, d) == (7, 6, 2):
            signs = signs * np.array([1, -1])
        return ent, sub, signs

    return patched


def _flipped_du_wedge(table):
    # one du^j ^ entry of the 1-form by 2-form table in six dimensions
    def patched(n, ka, kb):
        out = table(n, ka, kb)
        if (n, ka, kb) == (6, 1, 2):
            out = out.copy()
            out[tuple(np.argwhere(out)[0])] *= -1.0
        return out

    return patched


@pytest.mark.parametrize(
    "name, defect",
    [("_laplace_table", _flipped_laplace_sign), ("_wedge_table", _flipped_du_wedge)],
)
def test_stencil_table_defect_is_caught(fresh_sphere_caches, monkeypatch, name, defect):
    assert verify_gray(samples=2).all_passed
    monkeypatch.setattr(sp, name, defect(getattr(sp, name)))
    _clear_sphere_caches()
    report = verify_gray(samples=2)
    assert not report.all_passed
    assert max(c.max_residual for c in report.checks) > 1e-2


@pytest.mark.parametrize("k", [2, 3])
def test_contraction_table_defect_is_caught(monkeypatch, k):
    # one sign of the frame contraction table on k-forms, which the
    # codifferential contracts its covariant derivatives with; the ambient
    # operators read the n = 7 tables and stay healthy
    table = sp._contract_table

    def patched(n, degree):
        out = table(n, degree)
        if (n, degree) == (6, k):
            out = out.copy()
            out[tuple(np.argwhere(out)[0])] *= -1.0
        return out

    assert verify_cl_identities(samples=2).all_passed
    monkeypatch.setattr(sp, "_contract_table", patched)
    report = verify_cl_identities(samples=2)
    assert not report.all_passed
    assert max(c.max_residual for c in report.checks) > 1e-2
