"""Six-sphere model: frames, charts, finite differences, Gray relations."""

from __future__ import annotations

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


def test_frame_selection_is_reusable():
    q = POINTS[0]
    frame = sp.adapted_frame(q)
    again = sp.adapted_frame(q, frame.selection)
    assert np.abs(frame.matrix - again.matrix).max() == 0.0


def _frame_chart(q: np.ndarray) -> sp.Chart:
    return sp.Chart(q, sp.adapted_frame(q).matrix)


def test_chart_round_trip():
    for q in POINTS[:10]:
        chart = _frame_chart(q)
        rng = np.random.default_rng(3)
        u = 0.3 * rng.standard_normal(6)
        p = chart.from_chart(u)
        assert abs(p @ p - 1.0) < 1e-14
        assert np.abs(chart.to_chart(p) - u).max() < 1e-12


def test_chart_differential_at_origin_is_orthonormal():
    q = POINTS[1]
    chart = _frame_chart(q)
    d0 = chart.differential(np.zeros(6))
    assert np.abs(d0.T @ d0 - np.eye(6)).max() < 1e-12


def test_batched_chart_differential_is_the_jacobian():
    chart = _frame_chart(POINTS[4])
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
        xf = Form.vector(list(f.T @ x), FLOAT)
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
            xi=Form.vector(list(xi_frame), FLOAT),
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


def test_star_field_matches_kernel_star():
    q = POINTS[3]
    starred = sp.star_field(sp.omega_field(), q)
    f = sp.adapted_frame(q).matrix
    restricted = sp.pullback_form(starred.ambient(q), 4, f)
    assert max_abs(restricted - coeffs(hodge_star(omega()), 4)) < 1e-12


# ---------------------------------------------------------------------------
# batched evaluation


def _near(center: np.ndarray, n: int, seed: int) -> np.ndarray:
    g = center + 0.05 * np.random.default_rng(seed).standard_normal((n, 7))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _cl_fields(center: np.ndarray):
    rng = np.random.default_rng(41)
    beta, gamma = rng.standard_normal(21), rng.standard_normal(35)
    return suites._cl_fields(beta, gamma, sp.adapted_frame(center).selection)


def _suite_fields() -> dict:
    """Every field the suites build, by name: q -> ambient value."""
    center = POINTS[5]
    rng = np.random.default_rng(37)
    bundle = sphere_deformation(rng.standard_normal(7))
    const, lin = rng.standard_normal(21), rng.standard_normal((7, 21))
    phif, h_amb, lam, s_amb, s_pp, s_pm = _cl_fields(center)
    return {
        "omega": sp.omega_field().ambient,
        "psi_plus": sp.psi_plus_field().ambient,
        "psi_minus": sp.psi_minus_field().ambient,
        "omega_dot": bundle.omega_dot.ambient,
        "psi_plus_dot": bundle.psi_plus_dot.ambient,
        "psi_minus_dot": bundle.psi_minus_dot.ambient,
        "xi_omega_sq": bundle.xi_omega_sq.ambient,
        "star_psi_minus": sp.star_field(sp.psi_minus_field(), center).ambient,
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


def test_batched_adapted_frames_equal_single_frames():
    selection = sp.adapted_frame(POINTS[6]).selection
    batch = _near(POINTS[6], 4, 47)
    frames = sp.adapted_frame(batch, selection)
    assert frames.selection == selection and frames.matrix.shape == (4, 7, 6)
    singles = np.stack([sp.adapted_frame(q, selection).matrix for q in batch])
    assert np.abs(frames.matrix - singles).max() <= 1e-14


def test_ambient_omega_trace_is_the_lefschetz_trace():
    # omega(q) is tangent, so <beta, omega(q)> sees only the restriction of beta
    rng = np.random.default_rng(53)
    for q in POINTS[:8]:
        beta = rng.standard_normal(21)
        restricted = sp.pullback_form(beta, 2, sp.adapted_frame(q).matrix)
        lefschetz = (restricted @ sp.kernel_matrix(lefschetz_contract, 2))[0]
        assert abs(beta @ sp.omega_ambient(q) - lefschetz) < 1e-12


def test_divergence_endo_matches_per_direction_oracle():
    # relative bound: the 1/(2h) of the difference amplifies the roundoff of
    # the field values, and divergences reach 7 here
    for q in POINTS[:4]:
        _, h_amb, _, s_amb, _, _ = _cl_fields(q)
        frame = sp.adapted_frame(q).matrix
        for s in (h_amb, s_amb):
            expected = divergence_endo_oracle(s, q, 1e-3, frame)
            error = np.abs(sp.divergence_endo(s, q, 1e-3) - expected).max()
            assert error <= 1e-12 * np.abs(expected).max()


# ---------------------------------------------------------------------------
# operators at a point or at its adapted frame


def _operators() -> dict:
    """Each operator the suites apply, as a function of where it evaluates."""
    center = POINTS[8]
    x = sp.adapted_frame(center).matrix @ np.random.default_rng(59).standard_normal(6)
    _, h_amb, _, _, _, _ = _cl_fields(center)
    return {
        "ext_d": lambda w: sp.ext_d(sp.psi_minus_field(), w, 1e-3),
        "covariant_d": lambda w: sp.covariant_d(sp.omega_field(), x, w, 1e-3),
        "divergence_endo": lambda w: sp.divergence_endo(h_amb, w, 1e-3),
        "codifferential": lambda w: sp.codifferential(sp.psi_plus_field(), w, 1e-3),
        "laplacian": lambda w: np.array(sp.laplacian(lambda q: q[..., 0] * q[..., 1], w, 1e-3)),
    }


@pytest.mark.parametrize("name", list(_operators()))
def test_operator_on_a_point_equals_it_on_the_frame(name):
    op = _operators()[name]
    q = POINTS[8]
    frame = sp.adapted_frame(q)
    assert frame.point is q
    assert np.array_equal(op(q), op(frame))


def test_chart_off_the_frame_is_caught(monkeypatch):
    # a chart basis with two columns swapped is no longer the turned frame,
    # so ext_d reports its result in the wrong basis
    assert verify_gray(samples=2).all_passed
    chart = sp.Chart
    monkeypatch.setattr(sp, "Chart", lambda p, basis: chart(p, basis[:, [1, 0, 2, 3, 4, 5]]))
    report = verify_gray(samples=2)
    assert not report.all_passed
    assert max(c.max_residual for c in report.checks) > 1e-2


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
    u = Form(FLOAT, {sum(1 << i for i in c): x for c, x in zip(sp.combos(6, k), u6)})
    kernel = coeffs(endo_act(Endo(FLOAT, a6.tolist()), u), k)
    assert np.abs(ambient[six] - kernel).max() < 1e-12
    assert np.abs(np.delete(ambient, six)).max() == 0.0


# ---------------------------------------------------------------------------
# kernel operators as exact matrices


KERNEL_OPERATORS = [
    *((hodge_star, k) for k in range(7)),
    *((lefschetz_contract, k) for k in (2, 3, 4)),
    (alpha_map, 2),
    (sym_plus_from_two_form, 2),
    (suites._j, 1),
    (suites._into_psi_plus, 1),
    (suites._wedge_omega, 1),
    (suites._wedge_omega, 2),
    (suites._wedge_psi_plus, 3),
    (suites._wedge_psi_minus, 3),
    (suites._sym_minus_part, 3),
]


@pytest.mark.parametrize(
    "op, k", KERNEL_OPERATORS, ids=[f"{op.__name__}-{k}" for op, k in KERNEL_OPERATORS]
)
def test_kernel_matrix_applies_the_kernel_operator(op, k):
    rng = np.random.default_rng(31 + k)
    matrix = sp.kernel_matrix(op, k)
    for _ in range(3):
        u = Form(FLOAT, {sum(1 << i for i in c): rng.standard_normal() for c in sp.combos(6, k)})
        image = op(u)
        if isinstance(image, Form):
            expected = coeffs(image, image.degree or 0)
        else:
            expected = np.array(image.flat())
        assert expected.shape == (matrix.shape[1],)
        assert np.abs(coeffs(u, k) @ matrix - expected).max() < 1e-12


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


def _flipped_star_sign(kernel_matrix):
    # one sign of the Hodge star on 2-forms, which star_field applies to
    # every 2-form field the codifferential sees
    def patched(op, k):
        out = kernel_matrix(op, k)
        if op is hodge_star and k == 2:
            out = out.copy()
            out[tuple(np.argwhere(out)[0])] *= -1.0
        return out

    return patched


def test_star_matrix_defect_is_caught(fresh_sphere_caches, monkeypatch):
    assert verify_cl_identities(samples=2).all_passed
    monkeypatch.setattr(sp, "kernel_matrix", _flipped_star_sign(sp.kernel_matrix))
    _clear_sphere_caches()
    report = verify_cl_identities(samples=2)
    assert not report.all_passed
    assert max(c.max_residual for c in report.checks) > 1e-2
