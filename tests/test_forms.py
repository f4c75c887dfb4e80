"""Kernel correctness: blades, wedge, contraction, star, pullback, JSON."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forms_of_degree, mixed_forms, rationals, vectors
from oracles import (
    det_oracle,
    evaluate_oracle,
    form_to_tuples,
    star_defining_residual,
    wedge_oracle,
)
from su3forms.forms import (
    DIM,
    EXACT,
    FLOAT,
    N_BLADES,
    VOLUME_MASK,
    DegreeError,
    Form,
    ModeError,
    blade_degree,
    blade_from_name,
    blade_name,
    blades_of_degree,
    contract,
    evaluate,
    hodge_star,
    inner,
    wedge,
    wedge_sign,
)

# ---------------------------------------------------------------------------
# blades


def test_blade_name_round_trip():
    for mask in range(N_BLADES):
        assert blade_from_name(blade_name(mask)) == mask


@pytest.mark.parametrize(
    "name", ["x12", "e0", "e7", "e11", "e21", "e1b", ""]
)
def test_blade_from_name_rejects_bad_input(name):
    with pytest.raises(ValueError):
        blade_from_name(name)


def test_blades_of_degree_partition_all_masks():
    seen = [m for k in range(DIM + 1) for m in blades_of_degree(k)]
    assert sorted(seen) == list(range(N_BLADES))
    for k in range(DIM + 1):
        assert all(blade_degree(m) == k for m in blades_of_degree(k))


def test_wedge_sign_against_merge_oracle():
    from oracles import merge_sign
    from su3forms.forms import blade_indices

    for a in range(N_BLADES):
        for b in range(N_BLADES):
            assert wedge_sign(a, b) == merge_sign(blade_indices(a), blade_indices(b))


# ---------------------------------------------------------------------------
# arithmetic and modes


def test_exact_mode_rejects_floats():
    with pytest.raises(ModeError):
        Form(EXACT, {0: 0.5})
    with pytest.raises(ModeError):
        Form.blade("e12", EXACT).scale(0.5)


def test_mixing_modes_raises():
    a = Form.blade("e1", EXACT)
    b = Form.blade("e1", FLOAT)
    with pytest.raises(ModeError):
        a + b
    with pytest.raises(ModeError):
        wedge(a, b)
    with pytest.raises(ModeError):
        inner(a, b)


def test_float_equality_uses_tolerance():
    a = Form.blade("e12", FLOAT)
    b = Form(FLOAT, {blade_from_name("e12"): 1.0 + 1e-15})
    assert a == b
    assert not a.isclose(Form.blade("e12", FLOAT, coeff=1.0 + 1e-9))


def test_forms_are_immutable_and_unhashable():
    a = Form.blade("e1", EXACT)
    with pytest.raises(AttributeError):
        a.mode = FLOAT
    with pytest.raises(TypeError):
        hash(a)


def test_degree_of_mixed_form_raises():
    a = Form.blade("e1", EXACT) + Form.blade("e12", EXACT)
    assert a.degrees == (1, 2)
    with pytest.raises(DegreeError):
        a.degree
    assert a.homogeneous_part(2) == Form.blade("e12", EXACT)


@given(mixed_forms, mixed_forms, rationals)
def test_linearity(a, b, c):
    assert (a + b) - b == a
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)


# ---------------------------------------------------------------------------
# wedge


@given(mixed_forms, mixed_forms)
def test_wedge_matches_tuple_oracle(a, b):
    assert form_to_tuples(wedge(a, b)) == wedge_oracle(a, b)


@given(
    st.integers(0, DIM).flatmap(lambda p: st.tuples(st.just(p), forms_of_degree(p))),
    st.integers(0, DIM).flatmap(lambda q: st.tuples(st.just(q), forms_of_degree(q))),
)
def test_wedge_graded_commutativity(ap, bq):
    p, a = ap
    q, b = bq
    sign = -1 if (p * q) & 1 else 1
    assert wedge(a, b) == wedge(b, a).scale(sign)


@settings(max_examples=40)
@given(mixed_forms, mixed_forms, mixed_forms)
def test_wedge_associativity(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# ---------------------------------------------------------------------------
# contraction and evaluation


@given(vectors(), st.integers(1, DIM).flatmap(forms_of_degree))
def test_contraction_drops_degree(x, a):
    out = contract(x, a)
    if a.degrees:
        assert out.degrees in ((), (a.degrees[0] - 1,))
    else:
        assert out.is_zero()


@given(
    vectors(),
    st.integers(0, DIM).flatmap(lambda p: st.tuples(st.just(p), forms_of_degree(p))),
    mixed_forms,
)
def test_contraction_is_antiderivation(x, ap, b):
    p, a = ap
    sign = -1 if p & 1 else 1
    lhs = contract(x, wedge(a, b))
    rhs = wedge(contract(x, a), b) + wedge(a, contract(x, b)).scale(sign)
    assert lhs == rhs


@given(vectors(), mixed_forms, mixed_forms)
def test_contraction_adjoint_to_wedge(x, a, b):
    assert inner(contract(x, a), b) == inner(a, wedge(x, b))


@given(st.integers(0, 3).flatmap(forms_of_degree), st.data())
def test_evaluate_matches_permutation_oracle(a, data):
    k = a.degrees[0] if a.degrees else 0
    vecs = [data.draw(vectors()) for _ in range(k)]
    got = evaluate(a, *vecs)
    expected = evaluate_oracle(a, [v.components() for v in vecs])
    assert got == expected


def test_evaluate_degree_mismatch_raises():
    with pytest.raises(DegreeError):
        evaluate(Form.blade("e12", EXACT), Form.vector([1, 0, 0, 0, 0, 0], EXACT))


@given(vectors(), vectors(), st.integers(0, DIM).flatmap(forms_of_degree))
def test_contractions_anticommute(x, y, a):
    assert contract(x, contract(y, a)) == -contract(y, contract(x, a))


# ---------------------------------------------------------------------------
# inner product and star


@given(st.integers(0, DIM), st.data())
def test_inner_is_blade_orthonormal(k, data):
    a = data.draw(forms_of_degree(k))
    b = data.draw(forms_of_degree(k))
    expected = sum(
        (a.coeff(m) * b.coeff(m) for m in blades_of_degree(k)), Fraction(0)
    )
    assert inner(a, b) == expected


def test_star_defining_property_on_all_blades():
    # u ^ *t = <u, t> e123456 for every pair of blades u, t
    for mask in range(N_BLADES):
        t = Form.blade(mask, EXACT)
        assert star_defining_residual(t, hodge_star(t)).is_zero()


@given(st.integers(0, DIM).flatmap(lambda k: st.tuples(st.just(k), forms_of_degree(k))))
def test_star_squares_to_identity_with_degree_sign(ka):
    k, a = ka
    sign = -1 if (k * (DIM - k)) & 1 else 1
    assert hodge_star(hodge_star(a)) == a.scale(sign)


@given(st.integers(0, DIM), st.data())
def test_star_is_an_isometry(k, data):
    a = data.draw(forms_of_degree(k))
    b = data.draw(forms_of_degree(k))
    assert inner(hodge_star(a), hodge_star(b)) == inner(a, b)


def test_star_rejects_mixed_degree():
    with pytest.raises(DegreeError):
        hodge_star(Form.blade("e1", EXACT) + Form.blade("e12", EXACT))


# ---------------------------------------------------------------------------
# pullback


@given(st.data())
def test_pullback_volume_is_determinant(data):
    matrix = [
        [data.draw(st.integers(-3, 3)) for _ in range(DIM)] for _ in range(DIM)
    ]
    vol = Form.blade(VOLUME_MASK, EXACT)
    got = vol.pullback(matrix)
    assert got == vol.scale(det_oracle(matrix))


@settings(max_examples=25)
@given(st.integers(0, DIM).flatmap(forms_of_degree), st.data())
def test_pullback_is_contravariant_functor(a, data):
    m1 = [[data.draw(st.integers(-2, 2)) for _ in range(DIM)] for _ in range(DIM)]
    m2 = [[data.draw(st.integers(-2, 2)) for _ in range(DIM)] for _ in range(DIM)]
    prod = [
        [sum(m1[i][k] * m2[k][j] for k in range(DIM)) for j in range(DIM)]
        for i in range(DIM)
    ]
    # u.pullback(M)(v) = u(Mv), so pulling back along M1 M2 factors as M1 then M2
    assert a.pullback(prod) == a.pullback(m1).pullback(m2)


@settings(max_examples=25)
@given(mixed_forms, st.data())
def test_pullback_definition_via_evaluation(a, data):
    matrix = [[data.draw(st.integers(-2, 2)) for _ in range(DIM)] for _ in range(DIM)]
    for k in a.degrees:
        part = a.homogeneous_part(k)
        vecs = [data.draw(vectors()) for _ in range(k)]
        mapped = [
            Form.vector(
                [
                    sum(Fraction(matrix[i][j]) * v.coeff(1 << j) for j in range(DIM))
                    for i in range(DIM)
                ],
                EXACT,
            )
            for v in vecs
        ]
        assert evaluate(part.pullback(matrix), *vecs) == evaluate(part, *mapped)


@given(mixed_forms, mixed_forms, st.data())
def test_pullback_is_an_algebra_map(a, b, data):
    matrix = [[data.draw(st.integers(-2, 2)) for _ in range(DIM)] for _ in range(DIM)]
    assert wedge(a, b).pullback(matrix) == wedge(a.pullback(matrix), b.pullback(matrix))


# ---------------------------------------------------------------------------
# serialization


@given(mixed_forms)
def test_json_round_trip_exact(a):
    assert Form.from_json_dict(a.to_json_dict()) == a


@given(st.integers(0, DIM).flatmap(lambda k: forms_of_degree(k, mode=FLOAT)))
def test_json_round_trip_float(a):
    back = Form.from_json_dict(a.to_json_dict())
    assert back.mode == FLOAT
    assert (back - a).is_zero(tol=0.0)


def test_json_exact_coefficients_are_strings():
    a = Form.blade("e135", EXACT, coeff=Fraction(-2, 3))
    data = a.to_json_dict()
    assert data == {"mode": "exact", "terms": [{"blade": "e135", "coeff": "-2/3"}]}


@pytest.mark.parametrize(
    "data",
    [
        {"terms": []},
        {"mode": "exact"},
        {"mode": "nope", "terms": []},
        {"mode": "exact", "terms": [{"blade": "e12", "coeff": 0.5}]},
        {"mode": "float", "terms": [{"blade": "e12", "coeff": "1/2"}]},
        {"mode": "exact", "terms": [{"blade": "e12", "coeff": True}]},
        {"mode": "float", "terms": [{"blade": "e12", "coeff": False}]},
        {"mode": "exact", "terms": [{"blade": "e12", "coeff": "1/0"}]},
        {"mode": "exact", "terms": [{"blade": "e21", "coeff": "1"}]},
        {
            "mode": "exact",
            "terms": [
                {"blade": "e1", "coeff": "1"},
                {"blade": "e1", "coeff": "2"},
            ],
        },
    ],
)
def test_json_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        Form.from_json_dict(data)


def test_float_max_norm_keeps_nan():
    norm = Form(FLOAT, {1: 1.0, 2: float("nan"), 4: 2.0}).max_norm()
    assert norm != norm
    assert Form(FLOAT, {1: 1.0, 4: -2.0}).max_norm() == 2.0
