"""Seeded random inputs for the identity suites.

Exact mode draws integer coefficients uniformly from -9..9 so every identity
can be checked as an equality of rationals; float mode draws standard
normals.  All generators take a `random.Random` so runs are reproducible
from a single seed.

Also provides a spanning set of the Lie algebra su(3) with integer
entries, and random elements drawn on it.  The derivation action `endo_act`
is a representation of gl(6), so invariance under a spanning set of su(3)
is invariance under the connected group SU(3).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from su3forms.forms import DIM, EXACT, Form, Scalar, blades_of_degree
from su3forms.structure import (
    Endo,
    complex_structure,
    lefschetz_contract,
    omega,
    sym_minus_basis,
    sym_minus_combination,
    type_project,
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
    j = complex_structure(mode)
    return (a - j @ a @ j).scale(Fraction(1, 2))


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
    return a - omega(mode).scale(trace / 3)


# ---------------------------------------------------------------------------
# the Lie algebra su(3)


@cache
def su3_spanning_set(mode: str = EXACT) -> tuple[Endo, ...]:
    """Nine skew endomorphisms spanning the 8-dimensional su(3).

    Written out from z_j = e_{2j-1} + i e_{2j} rather than read from the
    matrix of J, so that a defect in the structure tables still shows.  For
    each pair of complex lines a < b, with real coordinates x and imaginary
    y, three elements given by their (row, column, value) entries above the
    diagonal: the real mix of z_a and z_b, the imaginary mix, and the phase
    rotation of z_a against z_b.  The three phase differences sum to zero,
    hence rank 8.
    """
    gens = []
    for a, b in _LINE_PAIRS:
        xa, ya, xb, yb = 2 * a, 2 * a + 1, 2 * b, 2 * b + 1
        for entries in (
            ((xa, xb, 1), (ya, yb, 1)),
            ((xa, yb, -1), (ya, xb, 1)),
            ((xa, ya, -1), (xb, yb, 1)),
        ):
            rows = [[0] * DIM for _ in range(DIM)]
            for i, j, v in entries:
                rows[i][j], rows[j][i] = v, -v
            gens.append(Endo(mode, rows))
    return tuple(gens)


def random_su3(rng: random.Random, mode: str = EXACT) -> Endo:
    """Random combination of `su3_spanning_set`, one scalar per element."""
    out = Endo.zero(mode)
    for x in su3_spanning_set(mode):
        out = out + x.scale(sample_scalar(rng, mode))
    return out
