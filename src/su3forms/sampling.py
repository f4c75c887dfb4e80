"""Seeded random inputs for the identity suites.

Exact mode draws integer coefficients uniformly from -9..9 so every identity
can be checked as an equality of rationals; float mode draws standard
normals.  All generators take a `random.Random` so runs are reproducible
from a single seed.

Also provides exact-rational rotations preserving the standard SU(3)
structure, built from Pythagorean cosine/sine pairs: phase rotations of two
complex coordinate lines in opposite directions and real mixes of two
complex lines.  Products of these stay in SU(3) exactly, which makes the
equivariance tests exact as well.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from su3forms.forms import DIM, EXACT, Form, Scalar, blades_of_degree
from su3forms.structure import (
    Endo,
    j_compose_left,
    j_compose_right,
    lefschetz_contract,
    omega,
    sym_minus_basis,
    sym_minus_combination,
    type_project,
)

#: (cos, sin) pairs with c^2 + s^2 = 1 exactly.
PYTHAGOREAN_PAIRS = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
)

#: unordered pairs of complex coordinate lines (0-based)
_LINE_PAIRS = ((0, 1), (0, 2), (1, 2))


def sample_scalar(rng: random.Random, mode: str) -> Scalar:
    if mode == EXACT:
        return Fraction(rng.randint(-9, 9))
    return rng.gauss(0.0, 1.0)


def random_form(rng: random.Random, degree: int, mode: str = EXACT) -> Form:
    return Form(
        mode, {m: sample_scalar(rng, mode) for m in blades_of_degree(degree)}
    )


def random_vector(rng: random.Random, mode: str = EXACT) -> Form:
    return random_form(rng, 1, mode)


def random_sym_minus(rng: random.Random, mode: str = EXACT) -> Endo:
    coeffs = [sample_scalar(rng, mode) for _ in sym_minus_basis(mode)]
    return sym_minus_combination(coeffs, mode)


def random_sym_plus(rng: random.Random, mode: str = EXACT) -> Endo:
    """Random symmetric J-commuting endomorphism via the projection (A - JAJ)/2."""
    a = Endo(
        mode,
        [[sample_scalar(rng, mode) for _ in range(DIM)] for _ in range(DIM)],
    ).sym_part()
    return (a - j_compose_left(j_compose_right(a))).scale(Fraction(1, 2))


@cache
def _projected_two_blades(mode: str) -> tuple[Form, ...]:
    return tuple(
        type_project(Form(mode, {m: 1}), 1, 1) for m in blades_of_degree(2)
    )


def random_j_invariant_two_form(rng: random.Random, mode: str = EXACT) -> Form:
    # same distribution as projecting a random 2-form, with the projection
    # of each blade precomputed
    out = Form.zero(mode)
    for b in _projected_two_blades(mode):
        out = out + b.scale(sample_scalar(rng, mode))
    return out


def random_primitive_two_form(rng: random.Random, mode: str = EXACT) -> Form:
    a = random_j_invariant_two_form(rng, mode)
    trace = lefschetz_contract(a).coeff(0)
    return a - omega(mode).scale(trace / 3 if mode == EXACT else trace / 3.0)


# ---------------------------------------------------------------------------
# exact SU(3) rotations


def _block_rotation(plane: int, c: Fraction, s: Fraction) -> list[list[Fraction]]:
    """Rotation by (c, s) in the real plane of complex line `plane`."""
    rows = [[Fraction(1 if i == j else 0) for j in range(DIM)] for i in range(DIM)]
    x, y = 2 * plane, 2 * plane + 1
    rows[x][x], rows[x][y] = c, -s
    rows[y][x], rows[y][y] = s, c
    return rows


def phase_rotation(line_a: int, line_b: int, c: Fraction, s: Fraction) -> Endo:
    """Rotate complex line a by an angle and line b by its negative.

    Complex determinant 1 by construction, so the standard structure is
    preserved exactly.
    """
    rows_a = _block_rotation(line_a, c, s)
    rows_b = _block_rotation(line_b, c, -s)
    return Endo(EXACT, rows_a) @ Endo(EXACT, rows_b)


def line_mix(line_a: int, line_b: int, c: Fraction, s: Fraction) -> Endo:
    """Real SU(2) mix of two complex lines: z_a' = c z_a + s z_b."""
    rows = [[Fraction(1 if i == j else 0) for j in range(DIM)] for i in range(DIM)]
    for off in range(2):
        ia, ib = 2 * line_a + off, 2 * line_b + off
        rows[ia][ia], rows[ia][ib] = c, s
        rows[ib][ia], rows[ib][ib] = -s, c
    return Endo(EXACT, rows)


@cache
def su3_generators() -> tuple[Endo, ...]:
    gens = []
    for a, b in _LINE_PAIRS:
        for c, s in PYTHAGOREAN_PAIRS:
            gens.append(phase_rotation(a, b, c, s))
            gens.append(line_mix(a, b, c, s))
    return tuple(gens)


def random_su3_rotation(rng: random.Random) -> Endo:
    """Product of two random exact generators; stays in SU(3) exactly."""
    gens = su3_generators()
    out = Endo.identity(EXACT)
    for _ in range(2):
        out = out @ gens[rng.randrange(len(gens))]
    return out


def rotate_form(r: Endo, u: Form) -> Form:
    """Left action of a rotation on forms, (r . u)(X, ...) = u(r^T X, ...)."""
    return u.pullback(r.transpose().rows)


def rotate_endo(r: Endo, a: Endo) -> Endo:
    return r @ a @ r.transpose()
