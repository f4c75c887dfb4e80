"""Six-sphere model: frames, charts, finite differences, Gray relations."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from oracles import det_oracle
from su3forms import sphere as sp
from su3forms.forms import FLOAT, Form, contract, hodge_star, wedge
from su3forms.structure import Endo, omega, psi_minus, psi_plus, volume_form
from su3forms.deformation import DeformationParams, params_to_jet
from su3forms.suites import sphere_deformation, verify_gray

OM = omega(FLOAT)
PP = psi_plus(FLOAT)
PM = psi_minus(FLOAT)

POINTS = sp.random_points(7, 40)


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
        st = sp.structure_at(q)
        assert (st.omega - OM).max_norm() < 1e-12
        assert (st.psi_plus - PP).max_norm() < 1e-12
        assert (st.psi_minus - PM).max_norm() < 1e-12


def test_frame_selection_is_reusable():
    q = POINTS[0]
    frame = sp.adapted_frame(q)
    again = sp.adapted_frame(q, frame.selection)
    assert np.abs(frame.matrix - again.matrix).max() == 0.0


def test_chart_round_trip():
    for q in POINTS[:10]:
        chart = sp.Chart.at(q)
        rng = np.random.default_rng(3)
        u = 0.3 * rng.standard_normal(6)
        p = chart.from_chart(u)
        assert abs(p @ p - 1.0) < 1e-14
        assert np.abs(chart.to_chart(p) - u).max() < 1e-12


def test_chart_differential_at_origin_is_orthonormal():
    q = POINTS[1]
    chart = sp.Chart.at(q)
    d0 = chart.differential(np.zeros(6))
    assert np.abs(d0.T @ d0 - np.eye(6)).max() < 1e-12


def test_batched_chart_differential_is_the_jacobian():
    chart = sp.Chart.at(POINTS[4])
    us = 0.3 * np.random.default_rng(23).standard_normal((5, 6))
    points, diffs = chart.from_chart(us), chart.differential(us)
    eps = 1e-6
    for u, p, d in zip(us, points, diffs):
        assert np.abs(chart.from_chart(u) - p).max() < 1e-15
        jac = np.column_stack(
            [chart.from_chart(u + eps * e) - chart.from_chart(u - eps * e) for e in np.eye(6)]
        ) / (2 * eps)
        assert np.abs(d - jac).max() < 1e-8


def test_psi_plus_field_is_closed():
    ppf = sp.psi_plus_field()
    for q in POINTS[:6]:
        assert sp.ext_d(ppf, q, 1e-3).max_norm() < 5e-9


def test_gray_equations_and_convergence():
    ofield = sp.omega_field()
    pmfield = sp.psi_minus_field()
    om2 = wedge(OM, OM)
    for q in POINTS[:8]:
        r1 = (sp.ext_d(ofield, q, 1e-3) - PP.scale(3.0)).max_norm()
        r2 = (sp.ext_d(pmfield, q, 1e-3) + om2.scale(2.0)).max_norm()
        assert r1 < 1e-5 and r2 < 1e-5
        half = (sp.ext_d(ofield, q, 5e-4) - PP.scale(3.0)).max_norm()
        assert 3.0 < r1 / half < 5.0  # second order


def test_covariant_derivative_relations():
    ofield = sp.omega_field()
    ppfield = sp.psi_plus_field()
    rng = np.random.default_rng(5)
    for q in POINTS[:8]:
        f = sp.adapted_frame(q).matrix
        x = f @ rng.standard_normal(6)
        x /= np.linalg.norm(x)
        xf = sp.frame_vector_form(f.T @ x)
        r1 = (sp.covariant_d(ofield, x, q, 1e-3) - contract(xf, PP)).max_norm()
        r2 = (sp.covariant_d(ppfield, x, q, 1e-3) + wedge(xf, OM)).max_norm()
        assert r1 < 1e-5 and r2 < 1e-5


def test_first_harmonic_hessian():
    # nabla_X dmu = -mu X for the restriction of a linear function
    a = np.array([0.3, -1.2, 0.7, 0.0, 0.5, -0.4, 1.1])
    dmu = sp.FormField(1, lambda q: a - (a @ q) * q)
    rng = np.random.default_rng(11)
    for q in POINTS[:8]:
        f = sp.adapted_frame(q).matrix
        x = f @ rng.standard_normal(6)
        x /= np.linalg.norm(x)
        xf = sp.frame_vector_form(f.T @ x)
        lhs = sp.covariant_d(dmu, x, q, 1e-3)
        assert (lhs + xf.scale(a @ q)).max_norm() < 1e-5


def test_laplacian_eigenfunctions():
    for q in POINTS[:10]:
        for i in range(7):
            val = sp.laplacian(lambda p: p[i], q, 1e-3)
            assert abs(val - 6.0 * q[i]) < 1e-5
        quad = sp.laplacian(lambda p: p[0] * p[1], q, 1e-3)
        assert abs(quad - 14.0 * q[0] * q[1]) < 1e-5


def test_richardson_sharpens_ext_d():
    bundle = sphere_deformation(np.eye(7)[6])
    q = POINTS[2]
    plain = (
        sp.ext_d(bundle.xi_omega_sq, q, 1e-3)
        + volume_form(FLOAT).scale(12.0 * bundle.mu(q))
    ).max_norm()
    rich = (
        sp.ext_d(bundle.xi_omega_sq, q, 1e-3, richardson=True)
        + volume_form(FLOAT).scale(12.0 * bundle.mu(q))
    ).max_norm()
    assert rich < plain / 100.0


def test_codifferential_on_structure_forms():
    ofield = sp.omega_field()
    ppfield = sp.psi_plus_field()
    for q in POINTS[:6]:
        assert sp.codifferential(ofield, q, 1e-3).max_norm() < 1e-9
        # delta psi_plus = -*d*psi_plus = -*d(psi_minus) = 4 omega
        r = (sp.codifferential(ppfield, q, 1e-3) - OM.scale(4.0)).max_norm()
        assert r < 1e-5


def test_step_guard():
    with pytest.raises(ValueError):
        sp.ext_d(sp.omega_field(), POINTS[0], 1e-8)
    with pytest.raises(ValueError):
        sp.laplacian(lambda p: p[0], POINTS[0], 0.0)


def test_deformation_bundle_matches_flat_jet():
    # restricting the bundle fields at a point reproduces the jet of the
    # parameters (xi_frame, 0, 0, mu) in the adapted frame
    bundle = sphere_deformation(np.array([0.4, -0.2, 1.0, 0.3, -0.7, 0.1, 0.6]))
    for q in POINTS[:8]:
        f = sp.adapted_frame(q).matrix
        xi_frame = f.T @ bundle.xi(q)
        params = DeformationParams(
            xi=sp.frame_vector_form(xi_frame),
            s=Endo.zero(FLOAT),
            phi=Form.zero(FLOAT),
            mu=float(bundle.mu(q)),
        )
        jet = params_to_jet(params)
        od = sp.form_from_frame_coeffs(
            sp.pullback_form(bundle.omega_dot.ambient(q), 2, f), 2
        )
        ppd = sp.form_from_frame_coeffs(
            sp.pullback_form(bundle.psi_plus_dot.ambient(q), 3, f), 3
        )
        pmd = sp.form_from_frame_coeffs(
            sp.pullback_form(bundle.psi_minus_dot.ambient(q), 3, f), 3
        )
        assert (jet.omega_dot - od).max_norm() < 1e-12
        assert (jet.psi_plus_dot - ppd).max_norm() < 1e-12
        assert (jet.psi_minus_dot - pmd).max_norm() < 1e-12


def test_star_field_matches_kernel_star():
    q = POINTS[3]
    starred = sp.star_field(sp.omega_field(), q)
    f = sp.adapted_frame(q).matrix
    restricted = sp.form_from_frame_coeffs(
        sp.pullback_form(starred.ambient(q), 4, f), 4
    )
    assert (restricted - hodge_star(OM)).max_norm() < 1e-12


# ---------------------------------------------------------------------------
# compound minors and the cached stencil tables


def _minors_oracle(v: np.ndarray, k: int) -> np.ndarray:
    n, m = v.shape
    return np.array(
        [
            [det_oracle(v[np.ix_(rows, cols)].tolist()) if k else 1.0
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
    # a 2x2 minor of the (7, 6) chart differential becomes a permanent
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
