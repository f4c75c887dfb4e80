"""Kernel correctness: blades, wedge, contraction, star, JSON."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import (
    BASIS_BLADES,
    BASIS_VECTORS,
    blades_by_degree,
    draw_form,
    draw_scalar,
    wedge_oracle_mismatches,
)
from oracles import (
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
    DegreeError,
    Form,
    ModeError,
    blade_degree,
    blade_from_name,
    blade_name,
    blades_of_degree,
    contract,
    decode_scalar,
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


def test_linearity():
    # seeded general forms: the basis proofs below rest on linearity
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = draw_form(rng), draw_form(rng), draw_scalar(rng)
        assert (a + b) - b == a
        assert (a + b).scale(c) == a.scale(c) + b.scale(c)


# ---------------------------------------------------------------------------
# wedge
#
# The identities from here on are linear in each input, so each one is
# proven by holding on every tuple of basis elements (see conftest.py).


def test_wedge_matches_tuple_oracle():
    assert wedge_oracle_mismatches() == []
    # many-term forms, whose coefficients the kernel brings over one
    # denominator
    rng = random.Random(2)
    for _ in range(50):
        a, b = draw_form(rng), draw_form(rng)
        assert form_to_tuples(wedge(a, b)) == wedge_oracle(a, b)


def test_wedge_graded_commutativity():
    for a in BASIS_BLADES:
        for b in BASIS_BLADES:
            sign = -1 if (a.degree * b.degree) & 1 else 1
            assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_associativity():
    # only the 4^6 triples of pairwise disjoint blades: on any other triple
    # both sides are 0, since wedge is 0 on overlapping blades (the tuple
    # oracle test checks every pair)
    for owner in product(range(4), repeat=DIM):
        a, b, c = (
            BASIS_BLADES[sum(1 << i for i in range(DIM) if owner[i] == k)] for k in range(3)
        )
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# ---------------------------------------------------------------------------
# contraction and evaluation


def test_contraction_drops_degree():
    for x in BASIS_VECTORS:
        for a in BASIS_BLADES:
            out = contract(x, a)
            assert out.degrees in ((), (a.degree - 1,))
            if not a.degree:
                assert out.is_zero()


def test_contraction_is_antiderivation():
    a_b = [[wedge(a, b) for b in BASIS_BLADES] for a in BASIS_BLADES]
    for x in BASIS_VECTORS:
        # x -| b for every blade b, which is also x -| a
        x_b = [contract(x, b) for b in BASIS_BLADES]
        for a, x_a, ab_row in zip(BASIS_BLADES, x_b, a_b):
            sign = -1 if a.degree & 1 else 1
            for b, xb, ab in zip(BASIS_BLADES, x_b, ab_row):
                assert contract(x, ab) == wedge(x_a, b) + wedge(a, xb).scale(sign)


def test_contractions_anticommute():
    for x in BASIS_VECTORS:
        for y in BASIS_VECTORS:
            for a in BASIS_BLADES:
                assert contract(x, contract(y, a)) == -contract(y, contract(x, a))


def test_contraction_adjoint_to_wedge():
    for x in BASIS_VECTORS:
        x_b = [wedge(x, b) for b in BASIS_BLADES]
        for a in BASIS_BLADES:
            x_a = contract(x, a)
            for b, xb in zip(BASIS_BLADES, x_b):
                assert inner(x_a, b) == inner(a, xb)


def test_evaluate_matches_permutation_oracle():
    for k in range(4):
        for vecs in product(BASIS_VECTORS, repeat=k):
            comps = [v.components() for v in vecs]
            for a in blades_by_degree(k):
                assert evaluate(a, *vecs) == evaluate_oracle(a, comps)


def test_evaluate_degree_mismatch_raises():
    with pytest.raises(DegreeError):
        evaluate(Form.blade("e12", EXACT), Form.blade("e1", EXACT))


# ---------------------------------------------------------------------------
# inner product and star


def test_inner_is_blade_orthonormal():
    # bilinear, so orthonormality on every pair of blades of equal degree
    # proves <a, b> = sum_m a_m b_m
    for k in range(DIM + 1):
        blades = blades_of_degree(k)
        for m in blades:
            for n in blades:
                assert inner(Form.blade(m, EXACT), Form.blade(n, EXACT)) == (m == n)


def test_star_defining_property_on_all_blades():
    # u ^ *t = <u, t> e123456 for every pair of blades u, t
    for mask in range(N_BLADES):
        t = Form.blade(mask, EXACT)
        assert star_defining_residual(t, hodge_star(t)).is_zero()


def test_star_squares_to_identity_with_degree_sign():
    for a in BASIS_BLADES:
        sign = -1 if (a.degree * (DIM - a.degree)) & 1 else 1
        assert hodge_star(hodge_star(a)) == a.scale(sign)


def test_star_is_an_isometry():
    stars = [hodge_star(a) for a in BASIS_BLADES]
    for a, star_a in zip(BASIS_BLADES, stars):
        for b, star_b in zip(BASIS_BLADES, stars):
            assert inner(star_a, star_b) == inner(a, b)


def test_star_rejects_mixed_degree():
    with pytest.raises(DegreeError):
        hodge_star(Form.blade("e1", EXACT) + Form.blade("e12", EXACT))


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_exact():
    rng = random.Random(7)
    for _ in range(100):
        a = draw_form(rng)
        assert Form.from_json_dict(a.to_json_dict()) == a


def test_json_round_trip_float():
    rng = random.Random(8)
    for _ in range(100):
        a = draw_form(rng, FLOAT)
        back = Form.from_json_dict(a.to_json_dict())
        assert back.mode == FLOAT
        assert (back - a).max_norm() == 0.0


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
    # a bad mode or scalar type raises the kernel's ModeError, the rest ValueError
    with pytest.raises((ValueError, ModeError)):
        Form.from_json_dict(data)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_no_scalars(mode, value):
    with pytest.raises(ModeError):
        Form(mode, {1: value})
    with pytest.raises(ModeError):
        Form.blade("e1", mode).scale(value)


@pytest.mark.parametrize(
    "text",
    ["1e3", "1e99999999", "1.5", " 1", "1 ", "+1", "1_000", "0x1f", "1/0", "1/-2", "nan", ""],
)
def test_exact_json_scalars_are_integers_or_ratios(text):
    with pytest.raises(ValueError, match="integer or p/q"):
        decode_scalar(text, EXACT)


def test_float_max_norm_keeps_nan():
    norm = Form(FLOAT, {1: 1.0, 2: float("nan"), 4: 2.0}).max_norm()
    assert norm != norm
    assert Form(FLOAT, {1: 1.0, 4: -2.0}).max_norm() == 2.0
