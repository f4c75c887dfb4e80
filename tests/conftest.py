"""Shared test inputs: scaled bases that prove multilinear identities, and
seeded draws for the tests that are not multilinear.

An identity that is linear in each input holds everywhere once it holds on
every tuple of basis elements, given that the kernel operations are linear.
Each basis element carries its own nonzero rational coefficient
(denominators 1 to 7), so a kernel that drops, misplaces or mis-scales a
coefficient, or divides by the wrong denominator, fails on the basis as it
would on general input.  Sums of many-term forms over unequal denominators
are checked on seeded draws (`test_linearity`, the wedge tuple oracle).
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import form_to_tuples, matmul_oracle, wedge_oracle
from su3forms.forms import DIM, EXACT, FLOAT, N_BLADES, Form, blades_of_degree, wedge
from su3forms.structure import Endo


def _basis_coefficient(i: int) -> Fraction:
    return Fraction((-1) ** i * (i % 5 + 1), i % 7 + 1)


BASIS_VECTORS = tuple(Form.blade(1 << i, EXACT, _basis_coefficient(i)) for i in range(DIM))
BASIS_BLADES = tuple(Form.blade(m, EXACT, _basis_coefficient(m)) for m in range(N_BLADES))


def _elementary_endo(n: int) -> Endo:
    rows = [[0] * DIM for _ in range(DIM)]
    rows[n // DIM][n % DIM] = _basis_coefficient(n)
    return Endo(EXACT, rows)


#: scaled elementary matrices, a basis of gl(6)
BASIS_ENDOS = tuple(map(_elementary_endo, range(DIM * DIM)))


def identity_endo(mode: str = EXACT) -> Endo:
    return Endo(mode, [[int(i == j) for j in range(DIM)] for i in range(DIM)])


def blades_by_degree(k: int) -> tuple[Form, ...]:
    return tuple(BASIS_BLADES[m] for m in blades_of_degree(k))


def wedge_oracle_mismatches() -> list[tuple[int, int]]:
    """The blade pairs (a, b) on which `wedge` disagrees with the tuple
    oracle, over all 64 x 64 pairs of `BASIS_BLADES`."""
    return [
        (m, n)
        for m, a in enumerate(BASIS_BLADES)
        for n, b in enumerate(BASIS_BLADES)
        if form_to_tuples(wedge(a, b)) != wedge_oracle(a, b)
    ]


def endo_product_mismatches() -> list[tuple[int, int]]:
    """The index pairs (m, n) on which `Endo.__matmul__` disagrees with the
    nested-sum oracle, over all 36 x 36 pairs of `BASIS_ENDOS`."""
    # zero entries as ints, so that the oracle's sums run mostly on ints
    rows = [[[x or 0 for x in row] for row in a.rows] for a in BASIS_ENDOS]
    return [
        (m, n)
        for m, a in enumerate(BASIS_ENDOS)
        for n, b in enumerate(BASIS_ENDOS)
        if list(map(list, (a @ b).rows)) != matmul_oracle(rows[m], rows[n])
    ]


# ---------------------------------------------------------------------------
# seeded draws


def draw_scalar(rng: random.Random, mode: str = EXACT):
    """A rational in [-6, 6] with denominator at most 7, or a float in [-4, 4]."""
    if mode == FLOAT:
        return rng.uniform(-4.0, 4.0)
    den = rng.randint(1, 7)
    return Fraction(rng.randint(-6 * den, 6 * den), den)


def draw_form(rng: random.Random, mode: str = EXACT) -> Form:
    """A form of one random degree on at most 6 of its blades."""
    blades = blades_of_degree(rng.randint(0, DIM))
    picked = rng.sample(blades, rng.randint(0, min(6, len(blades))))
    return Form(mode, {m: draw_scalar(rng, mode) for m in picked})
