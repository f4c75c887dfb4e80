"""Structure constants, type projections, and module decompositions."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from operator import add, neg, sub

import pytest

from conftest import BASIS_BLADES, BASIS_ENDOS, BASIS_VECTORS, blades_by_degree
from oracles import (
    entrywise_oracle,
    evaluate_oracle,
    matmul_oracle,
    matvec_oracle,
    sym_minus_basis_oracle,
    trace_oracle,
    transpose_oracle,
)
from su3forms.forms import (
    DIM,
    EXACT,
    FLOAT,
    MODES,
    DecompositionError,
    Form,
    ModeError,
    contract,
    evaluate,
    hodge_star,
    inner,
    wedge,
)
from su3forms.sampling import (
    random_form,
    random_primitive_two_form,
    random_su3_rotation,
    random_sym_minus,
    random_sym_plus,
    random_vector,
    rotate_endo,
    rotate_form,
    su3_generators,
)
from su3forms.structure import (
    TYPE_EIGENVALUES,
    Endo,
    alpha_map,
    complex_structure,
    decompose_anti_endo,
    decompose_three_form,
    decompose_two_form,
    endo_act,
    endo_from_two_form,
    j_compose_left,
    j_compose_right,
    lefschetz_contract,
    omega,
    psi_minus,
    psi_plus,
    sym_minus_basis,
    sym_minus_combination,
    sym_minus_residual,
    sym_plus_from_two_form,
    two_form_from_endo,
    type_project,
    vector_cross_endo,
    volume_form,
)

J = complex_structure()
OMEGA = omega()
PSI_P = psi_plus()
PSI_M = psi_minus()
VOL = volume_form()
#: the unit vectors e1..e6
UNIT = tuple(Form.blade(1 << i, EXACT) for i in range(DIM))


# ---------------------------------------------------------------------------
# the standard structure


def test_compatibility_relations():
    assert wedge(OMEGA, PSI_P).is_zero()
    assert wedge(OMEGA, PSI_M).is_zero()
    om3 = wedge(OMEGA, wedge(OMEGA, OMEGA))
    assert om3 == VOL.scale(6)
    assert wedge(PSI_P, PSI_M) == om3.scale(Fraction(2, 3))
    assert wedge(PSI_P, PSI_M) == VOL.scale(4)


def test_normalizations():
    assert inner(PSI_P, PSI_P) == 4
    assert inner(PSI_M, PSI_M) == 4
    assert inner(PSI_P, PSI_M) == 0
    assert inner(OMEGA, OMEGA) == 3


def test_psi_minus_is_star_of_psi_plus():
    assert hodge_star(PSI_P) == PSI_M
    assert hodge_star(PSI_M) == -PSI_P


def test_omega_is_metric_composed_with_j():
    for x in range(DIM):
        for y in range(DIM):
            assert evaluate(OMEGA, UNIT[x], UNIT[y]) == J.rows[y][x]


def test_complex_volume_form_expands_to_psi_pair():
    # (e1 + i e2) ^ (e3 + i e4) ^ (e5 + i e6), tracked as (real, imag) pairs
    one = Form.scalar(1, EXACT)
    zero = Form.zero(EXACT)
    re, im = one, zero
    for k in range(3):
        zr, zi = UNIT[2 * k], UNIT[2 * k + 1]
        re, im = wedge(re, zr) - wedge(im, zi), wedge(re, zi) + wedge(im, zr)
    assert re == PSI_P
    assert im == PSI_M


def test_psi_minus_from_psi_plus_via_j():
    # trilinear, so holding on every triple of basis vectors proves it
    for x in UNIT:
        jx = J.apply(x)
        for y in UNIT:
            for z in UNIT:
                assert evaluate(PSI_M, x, y, z) == -evaluate(PSI_P, jx, y, z)


# ---------------------------------------------------------------------------
# endomorphism action


# The identities tested on BASIS_* below are linear in each input, so each
# one is proven by holding on every tuple of basis elements (see conftest.py).


def test_identity_acts_as_minus_degree():
    for u in BASIS_BLADES:
        assert endo_act(Endo.identity(EXACT), u) == u.scale(-u.degree)


def test_endo_act_is_a_derivation():
    # u of degree at most 1 suffices: every blade is a wedge of vectors, and
    # by associativity of wedge the rule for x ^ u' follows from the rule for
    # x and for u' (induction on the degree of u)
    for a in BASIS_ENDOS:
        acted = [endo_act(a, v) for v in BASIS_BLADES]
        for u, a_u in zip(BASIS_BLADES, acted):
            if u.degree > 1:
                continue
            for v, a_v in zip(BASIS_BLADES, acted):
                assert endo_act(a, wedge(u, v)) == wedge(a_u, v) + wedge(u, a_v)


def test_endo_act_matches_slotwise_definition():
    # (A . u)(X1, ..., Xk) = -sum_i u(X1, ..., A Xi, ..., Xk).  A k-form is
    # the sum of its values on increasing tuples of unit basis vectors times
    # their blades, so the slotwise values build the form A . u must equal.
    # Slots where A Xi = 0 add nothing, since u vanishes on a zero argument.
    units = [Form.blade(1 << i, EXACT) for i in range(DIM)]
    for a in BASIS_ENDOS:
        images = [a.apply(x) for x in units]
        for u in BASIS_BLADES[1:]:
            slotwise = {}
            for idx in combinations(range(DIM), u.degree):
                vecs = [units[i] for i in idx]
                slotwise[sum(1 << i for i in idx)] = -sum(
                    evaluate(u, *vecs[:s], images[i], *vecs[s + 1 :])
                    for s, i in enumerate(idx)
                    if not images[i].is_zero()
                )
            assert endo_act(a, u) == Form(EXACT, slotwise)


def test_j_action_rotates_the_complex_volume():
    assert endo_act(J, PSI_P) == PSI_M.scale(3)
    assert endo_act(J, PSI_M) == PSI_P.scale(-3)
    assert endo_act(J, OMEGA).is_zero()


def test_sym_plus_action_on_psi_plus_is_trace_multiple():
    rng = random.Random(3)
    for _ in range(20):
        h = random_sym_plus(rng)
        expected = PSI_P.scale(-h.trace() / 2)
        assert endo_act(h, PSI_P) == expected


# ---------------------------------------------------------------------------
# type projections


@pytest.mark.parametrize("k", range(DIM + 1))
def test_projectors_idempotent_complete_orthogonal(k):
    rng = random.Random(k)
    u = random_form(rng, k)
    types = list(TYPE_EIGENVALUES[k])
    total = Form.zero(EXACT)
    for p, q in types:
        proj = type_project(u, p, q)
        assert type_project(proj, p, q) == proj
        for p2, q2 in types:
            if (p2, q2) != (p, q):
                assert type_project(proj, p2, q2).is_zero()
        total = total + proj
    assert total == u


def test_projection_eigenvalues():
    rng = random.Random(5)
    for k in range(DIM + 1):
        u = random_form(rng, k)
        for (p, q), ev in TYPE_EIGENVALUES[k].items():
            proj = type_project(u, p, q)
            jj = endo_act(J, endo_act(J, proj))
            assert jj == proj.scale(ev)


@pytest.mark.parametrize("k", range(DIM + 1))
def test_float_projections_match_the_exact_ones(k):
    u = random_form(random.Random(k), k)
    u_float = Form(FLOAT, {m: float(v) for m, v in u.terms()})
    for p, q in TYPE_EIGENVALUES[k]:
        exact = Form(FLOAT, {m: float(v) for m, v in type_project(u, p, q).terms()})
        assert type_project(u_float, p, q).isclose(exact)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_four_form_projection_matches_the_double_star(mode):
    # the (3,1) part lies on the stars of the e_i -| psi_plus, where J acts
    # twice as -4; the (2,2) rest is J-invariant
    j = complex_structure(mode)
    for seed in range(5):
        u = random_form(random.Random(40 + seed), 4, mode)
        p31, p22 = type_project(u, 3, 1), type_project(u, 2, 2)
        assert type_project(p31, 3, 1) == p31 and type_project(p22, 2, 2) == p22
        assert p31 + p22 == u
        assert endo_act(j, endo_act(j, p31)) == p31.scale(-4)
        assert endo_act(j, endo_act(j, p22)).is_zero()
        assert p31 == hodge_star(type_project(hodge_star(u), 2, 0))
        assert p22 == hodge_star(type_project(hodge_star(u), 1, 1))


def test_type_project_rejects_absent_component():
    with pytest.raises(ValueError):
        type_project(OMEGA, 2, 1)
    with pytest.raises(ValueError):
        type_project(PSI_P, 1, 1)


def test_standard_forms_have_pure_type():
    assert type_project(OMEGA, 1, 1) == OMEGA
    assert type_project(PSI_P, 3, 0) == PSI_P
    assert type_project(PSI_M, 3, 0) == PSI_M
    rng = random.Random(11)
    x = random_vector(rng)
    assert type_project(contract(x, PSI_P), 2, 0) == contract(x, PSI_P)


# ---------------------------------------------------------------------------
# Lefschetz contraction


def test_lefschetz_on_omega_powers():
    assert lefschetz_contract(OMEGA) == Form.scalar(3, EXACT)
    om2 = wedge(OMEGA, OMEGA)
    assert lefschetz_contract(om2) == OMEGA.scale(4)


def test_lefschetz_commutation_with_omega_wedge():
    for tau in BASIS_BLADES:
        lhs = lefschetz_contract(wedge(tau, OMEGA))
        rhs = wedge(OMEGA, lefschetz_contract(tau)) + tau.scale(3 - tau.degree)
        assert lhs == rhs


def test_lefschetz_is_adjoint_of_omega_wedge():
    omega_b = [wedge(OMEGA, b) for b in BASIS_BLADES]
    for u in BASIS_BLADES:
        lu = lefschetz_contract(u)
        for b, ob in zip(BASIS_BLADES, omega_b):
            assert inner(lu, b) == inner(u, ob)


def test_lefschetz_on_vector_psi_combinations():
    for x in BASIS_VECTORS:
        assert lefschetz_contract(contract(x, PSI_P)).is_zero()
        assert lefschetz_contract(contract(x, PSI_M)).is_zero()
        jx = J.apply(x)
        assert lefschetz_contract(wedge(x, PSI_P)) == contract(jx, PSI_P)
        assert lefschetz_contract(wedge(x, PSI_M)) == contract(jx, PSI_M)


# ---------------------------------------------------------------------------
# alpha map


def test_alpha_on_vector_embeddings():
    for x in BASIS_VECTORS:
        assert alpha_map(contract(x, PSI_P)) == x.scale(2)
        assert alpha_map(contract(x, PSI_M)) == J.apply(x).scale(-2)


def test_alpha_kills_j_invariant_forms():
    rng = random.Random(2)
    for _ in range(20):
        tau = type_project(random_form(rng, 2), 1, 1)
        assert alpha_map(tau).is_zero()


def test_vector_embedding_preserves_inner_product_up_to_two():
    # bilinear, so holding on every pair of basis vectors proves it
    for x in UNIT:
        for y in UNIT:
            assert inner(contract(x, PSI_P), contract(y, PSI_P)) == 2 * inner(x, y)


# ---------------------------------------------------------------------------
# Sym- and the 3-form isomorphism


def test_sym_minus_basis_has_dimension_twelve():
    basis = sym_minus_basis()
    assert len(basis) == 12
    for b in basis:
        assert sym_minus_residual(b) == 0
        assert b.trace() == 0


def test_sym_minus_basis_matches_projection_oracle():
    # a reordered or rescaled basis would change the sampled S and so the
    # float reports, though it still spans Sym^-
    expected = sym_minus_basis_oracle()
    assert [[list(row) for row in b.rows] for b in sym_minus_basis(EXACT)] == expected
    floats = sym_minus_basis(FLOAT)
    assert [[list(row) for row in b.rows] for b in floats] == [
        [[float(x) for x in row] for row in rows] for rows in expected
    ]
    assert all(type(x) is float for b in floats for x in b.flat())


def test_sym_minus_to_form_relations():
    rng = random.Random(9)
    for _ in range(20):
        s = random_sym_minus(rng)
        sp = endo_act(s, PSI_P)
        sm = endo_act(s, PSI_M)
        assert sp == endo_act(J @ s, PSI_M)
        assert hodge_star(sm) == sp
        assert hodge_star(sp) == -sm


def test_sym_minus_combination_sums_the_basis():
    basis = sym_minus_basis()
    for i, b in enumerate(basis):
        assert sym_minus_combination([int(k == i) for k in range(len(basis))]) == b
    coeffs = [Fraction(k, 3) - 2 for k in range(len(basis))]
    expected = Endo.zero(EXACT)
    for c, b in zip(coeffs, basis):
        expected = expected + b.scale(c)
    assert sym_minus_combination(coeffs) == expected
    floats = [float(c) for c in coeffs]
    assert sym_minus_combination(floats, FLOAT).isclose(expected.to_float())
    with pytest.raises(ValueError):
        sym_minus_combination(coeffs[:-1])


def test_sym_minus_image_is_primitive_21_type():
    rng = random.Random(10)
    s = random_sym_minus(rng)
    u = endo_act(s, PSI_P)
    assert type_project(u, 2, 1) == u
    assert lefschetz_contract(u).is_zero()
    assert inner(u, PSI_P) == 0
    assert inner(u, PSI_M) == 0


def test_schur_witness_in_sym_minus():
    # not every S with SJ = -JS makes psi+((SJ) ., ., .) symmetric in the
    # first two slots; exhibit a basis witness
    found = None
    for s in sym_minus_basis():
        sj = s @ J
        for x, y in combinations(range(DIM), 2):
            z = next(i for i in range(DIM) if i not in (x, y))
            lhs = evaluate(PSI_P, sj.apply(UNIT[x]), UNIT[y], UNIT[z])
            rhs = evaluate(PSI_P, UNIT[x], sj.apply(UNIT[y]), UNIT[z])
            if lhs != rhs:
                found = (s, x, y, z, lhs, rhs)
                break
        if found:
            break
    assert found is not None


def test_isomorphism_matrix_conditioning():
    import numpy as np

    basis = sym_minus_basis()
    images = [endo_act(b, PSI_P) for b in basis]
    gram = np.array(
        [[float(inner(u, v)) for v in images] for u in images]
    )
    cond = np.linalg.cond(gram)
    assert np.linalg.matrix_rank(gram) == 12
    assert cond < 1e3


# ---------------------------------------------------------------------------
# decompositions


def test_two_form_decomposition_of_omega():
    parts = decompose_two_form(OMEGA)
    assert parts.primitive.is_zero()
    assert parts.omega_coeff == 1
    assert parts.xi.is_zero()


def test_three_form_decomposition_of_psi_plus():
    parts = decompose_three_form(PSI_P)
    assert parts.alpha.is_zero()
    assert parts.lam == 1
    assert parts.mu == 0
    assert parts.s.max_norm() == 0


def test_two_form_decomposition_round_trip():
    rng = random.Random(21)
    for _ in range(25):
        a = random_form(rng, 2)
        parts = decompose_two_form(a)
        assert parts.reconstruct() == a
        assert lefschetz_contract(parts.primitive).is_zero()
        assert type_project(parts.primitive, 1, 1) == parts.primitive


def test_three_form_decomposition_round_trip():
    rng = random.Random(22)
    for _ in range(25):
        u = random_form(rng, 3)
        parts = decompose_three_form(u)
        assert parts.reconstruct() == u
        assert sym_minus_residual(parts.s) == 0
        assert lefschetz_contract(u) == parts.alpha.scale(2)


def test_three_form_decomposition_recovers_injected_parts():
    rng = random.Random(23)
    for _ in range(10):
        alpha = random_vector(rng)
        lam = Fraction(rng.randint(-9, 9))
        mu = Fraction(rng.randint(-9, 9))
        s = random_sym_minus(rng)
        u = (
            wedge(alpha, OMEGA)
            + PSI_P.scale(lam)
            + PSI_M.scale(mu)
            + endo_act(s, PSI_P)
        )
        parts = decompose_three_form(u)
        assert parts.alpha == alpha
        assert parts.lam == lam
        assert parts.mu == mu
        assert parts.s == s


def test_sym_minus_part_inverts_each_basis_image():
    for b in sym_minus_basis():
        assert decompose_three_form(endo_act(b, PSI_P)).s == b


def test_other_modules_have_zero_sym_minus_part():
    others = [wedge(x, OMEGA) for x in UNIT] + [PSI_P, PSI_M]
    for u in others:
        assert decompose_three_form(u).s == Endo.zero(EXACT)


def test_anti_endo_decomposition():
    rng = random.Random(24)
    for _ in range(10):
        s = random_sym_minus(rng)
        xi = random_vector(rng)
        f = s + vector_cross_endo(xi)
        s_out, xi_out = decompose_anti_endo(f)
        assert s_out == s
        assert xi_out == xi
    # pure cases
    s_out, xi_out = decompose_anti_endo(vector_cross_endo(UNIT[0]))
    assert s_out.max_norm() == 0
    assert xi_out == UNIT[0]
    s = random_sym_minus(rng)
    s_out, xi_out = decompose_anti_endo(s)
    assert s_out == s
    assert xi_out.is_zero()


def test_vector_cross_endo_matches_evaluation_oracle():
    # g(K X, Y) = u(xi, X, Y) for the skew endo of xi -| u, with u a general
    # 3-form; vector_cross_endo is the case u = psi_plus
    unit = [[1 if i == j else 0 for i in range(DIM)] for j in range(DIM)]
    for xi in BASIS_VECTORS:
        pairs = [(u, endo_from_two_form(contract(xi, u))) for u in blades_by_degree(3)]
        for form, k in pairs + [(PSI_P, vector_cross_endo(xi))]:
            rows = k.rows
            for x in range(DIM):
                for y in range(DIM):
                    assert rows[y][x] == evaluate_oracle(form, [xi.components(), unit[x], unit[y]])


def test_endo_matmul_matches_nested_sum_oracle():
    # about one entry in seven is zero, which exercises the zero-skipping loop
    rng = random.Random(30)
    for _ in range(100):
        a, b = Endo(EXACT, _matrix(rng, EXACT)), Endo(EXACT, _matrix(rng, EXACT))
        expected = matmul_oracle(a.rows, b.rows)
        assert (a @ b) == Endo(EXACT, expected)
        assert (a.to_float() @ b.to_float()).isclose(Endo(FLOAT, expected), tol=1e-9)


def _entry(rng: random.Random, mode: str):
    # one entry in seven is zero
    if mode == EXACT:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return rng.randint(-3, 3) * rng.random()


def _matrix(rng: random.Random, mode: str) -> list[list]:
    return [[_entry(rng, mode) for _ in range(DIM)] for _ in range(DIM)]


def _as_rows(matrix) -> tuple[tuple, ...]:
    return tuple(map(tuple, matrix))


@pytest.mark.parametrize("mode", MODES)
def test_endo_arithmetic_matches_nested_list_oracles(mode):
    rng = random.Random(31)
    for _ in range(100):
        _check_endo_arithmetic(rng, mode)


def _check_endo_arithmetic(rng: random.Random, mode: str) -> None:
    ra, rb = _matrix(rng, mode), _matrix(rng, mode)
    c, x = _entry(rng, mode), [_entry(rng, mode) for _ in range(DIM)]
    a, b = Endo(mode, ra), Endo(mode, rb)
    scalar = Fraction if mode == EXACT else float
    assert a.rows == _as_rows(ra)
    assert all(type(v) is scalar for row in (a + b).rows for v in row)
    # entrywise results are the oracle's own scalars, in float mode too
    for got, expected in (
        (a + b, entrywise_oracle(add, ra, rb)),
        (a - b, entrywise_oracle(sub, ra, rb)),
        (-a, entrywise_oracle(neg, ra)),
        (a.scale(c), entrywise_oracle(lambda v: c * v, ra)),
        (a.transpose(), transpose_oracle(ra)),
    ):
        assert got.rows == _as_rows(expected)
        assert got == Endo(mode, expected)
    image = a.apply(Form(mode, {1 << i: c for i, c in enumerate(x)})).components()
    if mode == EXACT:
        assert a.trace() == trace_oracle(ra)
        assert image == matvec_oracle(ra, x)
        assert (a == b) == (ra == rb)
        assert a.to_float().rows == _as_rows(entrywise_oracle(float, ra))
    else:
        assert abs(a.trace() - trace_oracle(ra)) <= 1e-12
        assert max(abs(u - v) for u, v in zip(image, matvec_oracle(ra, x))) <= 1e-12
        gap = max(abs(u - v) for ru, rv in zip(ra, rb) for u, v in zip(ru, rv))
        assert (a == b) == (gap <= 1e-12)
        assert a.to_float() is a


def test_exact_endo_arithmetic_keeps_lowest_terms():
    rng = random.Random(32)
    for _ in range(100):
        a = Endo(EXACT, _matrix(rng, EXACT))
        back = a.scale(2).scale(Fraction(1, 2))
        assert back == a and back.rows == a.rows
        third = a.scale(Fraction(1, 3))
        assert a - a == Endo.zero(EXACT)
        assert third - third == Endo.zero(EXACT)
        assert (third - third).rows == Endo.zero(EXACT).rows
        # operands over different denominators: 1/6 + 1/3 = 1/2
        assert a.scale(Fraction(1, 6)) + third == a.scale(Fraction(1, 2))
        assert (a @ Endo.identity(EXACT).scale(3)).scale(Fraction(1, 3)) == a


def test_endo_modes_never_mix():
    exact, flt = Endo.identity(EXACT), Endo.identity(FLOAT)
    for op in (add, sub, lambda u, v: u @ v, lambda u, v: u.isclose(v)):
        with pytest.raises(ModeError):
            op(exact, flt)
    with pytest.raises(ModeError):
        exact.scale(0.5)
    assert exact != flt
    assert flt.scale(1 + 1e-13) == flt
    assert flt.scale(1 + 1e-11) != flt


def test_anti_endo_decomposition_rejects_j_commuting_part():
    with pytest.raises(DecompositionError):
        decompose_anti_endo(Endo.identity(EXACT))


def test_decompositions_work_in_float_mode():
    rng = random.Random(25)
    a = random_form(rng, 2, FLOAT)
    u = random_form(rng, 3, FLOAT)
    assert (decompose_two_form(a).reconstruct() - a).max_norm() <= 1e-12
    assert (decompose_three_form(u).reconstruct() - u).max_norm() <= 1e-12


# ---------------------------------------------------------------------------
# sym_plus two-form correspondence


def test_j_compositions_match_matrix_products():
    rng = random.Random(27)
    a = Endo(
        EXACT,
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(DIM)] for _ in range(DIM)],
    )
    assert j_compose_left(a) == J @ a
    assert j_compose_right(a) == a @ J


def test_sym_plus_two_form_correspondence():
    assert two_form_from_endo(j_compose_right(Endo.identity(EXACT))) == OMEGA
    assert sym_plus_from_two_form(OMEGA) == Endo.identity(EXACT)
    rng = random.Random(26)
    for _ in range(10):
        h = random_sym_plus(rng)
        phi = two_form_from_endo(j_compose_right(h))
        assert type_project(phi, 1, 1) == phi
        assert sym_plus_from_two_form(phi) == h
        assert lefschetz_contract(phi).coeff(0) == h.trace() / 2


# ---------------------------------------------------------------------------
# equivariance under exact SU(3) rotations


def test_generators_preserve_the_structure():
    for r in su3_generators():
        assert r @ r.transpose() == Endo.identity(EXACT)
        assert r @ J == J @ r
        assert rotate_form(r, OMEGA) == OMEGA
        assert rotate_form(r, PSI_P) == PSI_P
        assert rotate_form(r, PSI_M) == PSI_M


def test_decomposition_equivariance_under_rotations():
    rng = random.Random(27)
    for _ in range(5):
        r = random_su3_rotation(rng)
        u = random_form(rng, 3)
        parts = decompose_three_form(u)
        rotated = decompose_three_form(rotate_form(r, u))
        assert rotated.alpha == rotate_form(r, parts.alpha)
        assert rotated.lam == parts.lam
        assert rotated.mu == parts.mu
        assert rotated.s == rotate_endo(r, parts.s)
        a = random_form(rng, 2)
        p2 = decompose_two_form(a)
        r2 = decompose_two_form(rotate_form(r, a))
        assert r2.omega_coeff == p2.omega_coeff
        assert r2.xi == rotate_form(r, p2.xi)
        assert r2.primitive == rotate_form(r, p2.primitive)


def test_rotations_commute_with_type_projection():
    rng = random.Random(28)
    r = random_su3_rotation(rng)
    a = random_form(rng, 2)
    assert rotate_form(r, type_project(a, 1, 1)) == type_project(rotate_form(r, a), 1, 1)


# ---------------------------------------------------------------------------
# star identities involving the structure


def test_star_of_primitive_wedge_omega():
    rng = random.Random(29)
    for _ in range(10):
        phi0 = random_primitive_two_form(rng)
        assert hodge_star(wedge(phi0, OMEGA)) == -phi0


def test_star_of_vector_wedge():
    for xi in BASIS_VECTORS:
        for a in BASIS_BLADES:
            sign = -1 if a.degree & 1 else 1
            assert hodge_star(wedge(xi, a)) == contract(xi, hodge_star(a)).scale(sign)


def test_vector_contraction_of_psi_plus_via_star():
    for xi in BASIS_VECTORS:
        assert contract(xi, PSI_P) == hodge_star(wedge(xi, PSI_M))
