"""The standard SU(3) structure on R^6 and its module decompositions.

The structure is the pair (omega, psi_plus) with

    omega    = e12 + e34 + e56
    psi_plus = e135 - e146 - e236 - e245
    psi_minus = *psi_plus = e136 + e145 + e235 - e246

together with the complex structure J e_{2i-1} = e_{2i}, the Euclidean metric
and the orientation e123456 = omega^3 / 6.  psi_plus + i psi_minus is the
complex volume form dz1 ^ dz2 ^ dz3 for z_j = e_{2j-1} + i e_{2j}.

This module provides the endomorphism action on forms, real (p,q)-type
projections, the dual Lefschetz contraction, and the irreducible-module
decompositions of 2-forms, 3-forms and J-anticommuting endomorphisms that the
deformation layer is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from su3forms.forms import (
    DIM,
    EXACT,
    FLOAT,
    MODES,
    DecompositionError,
    DegreeError,
    Form,
    ModeError,
    Scalar,
    _add_into,
    _contract_basis_terms,
    _form_numerators,
    _from_numerators,
    _inner_sum,
    _max_abs,
    _numerators,
    _wedge_sums,
    blades_of_degree,
    coerce_scalar,
    contract,
    contract_basis,
    inner,
    scalar_zero,
    wedge,
)

# ---------------------------------------------------------------------------
# endomorphisms


class Endo:
    """Endomorphism of R^6 as a 6x6 matrix, mode-matched to `Form`.

    rows[i][j] is the i-th component of the image of e_{j+1}.  Immutable,
    same exact/float discipline as forms.
    """

    __slots__ = ("mode", "rows")

    def __init__(self, mode: str, rows: Sequence[Sequence]):
        if mode not in MODES:
            raise ModeError(f"unknown mode {mode!r}")
        if len(rows) != DIM or any(len(r) != DIM for r in rows):
            raise ValueError("Endo expects a 6x6 matrix")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(
            self,
            "rows",
            tuple(tuple(coerce_scalar(x, mode) for x in row) for row in rows),
        )

    @classmethod
    def _trusted(cls, mode: str, rows: Sequence[Sequence[Scalar]]) -> "Endo":
        """Endo from 6x6 rows already of the mode's scalar type.

        Skips the validation and coercion of `__init__`; only for values
        computed from operands of the same mode.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "rows", tuple(tuple(row) for row in rows))
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Endo is immutable")

    @classmethod
    def zero(cls, mode: str) -> "Endo":
        return cls(mode, [[0] * DIM for _ in range(DIM)])

    @classmethod
    def identity(cls, mode: str) -> "Endo":
        return cls(mode, [[1 if i == j else 0 for j in range(DIM)] for i in range(DIM)])

    @classmethod
    def from_flat(cls, values: Sequence, mode: str) -> "Endo":
        if len(values) != DIM * DIM:
            raise ValueError(f"expected {DIM * DIM} entries, got {len(values)}")
        return cls(mode, [values[i * DIM : (i + 1) * DIM] for i in range(DIM)])

    def flat(self) -> tuple[Scalar, ...]:
        return tuple(x for row in self.rows for x in row)

    def __add__(self, other: "Endo") -> "Endo":
        if not isinstance(other, Endo):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeError(f"cannot combine {self.mode} and {other.mode} endos")
        return Endo._trusted(
            self.mode,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "Endo") -> "Endo":
        if not isinstance(other, Endo):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeError(f"cannot combine {self.mode} and {other.mode} endos")
        return Endo._trusted(
            self.mode,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self) -> "Endo":
        return Endo._trusted(self.mode, [[-x for x in row] for row in self.rows])

    def scale(self, value) -> "Endo":
        v = coerce_scalar(value, self.mode)
        return Endo._trusted(self.mode, [[v * x for x in row] for row in self.rows])

    def __mul__(self, value) -> "Endo":
        return self.scale(value)

    __rmul__ = __mul__

    def __matmul__(self, other: "Endo") -> "Endo":
        if not isinstance(other, Endo):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeError(f"cannot combine {self.mode} and {other.mode} endos")
        zero = scalar_zero(self.mode)
        cols = tuple(zip(*other.rows))
        return Endo._trusted(
            self.mode, [[_dot(row, col, zero) for col in cols] for row in self.rows]
        )

    def transpose(self) -> "Endo":
        return Endo._trusted(self.mode, zip(*self.rows))

    def trace(self) -> Scalar:
        return sum((self.rows[i][i] for i in range(DIM)), scalar_zero(self.mode))

    def sym_part(self) -> "Endo":
        return (self + self.transpose()).scale(Fraction(1, 2))

    def skew_part(self) -> "Endo":
        return (self - self.transpose()).scale(Fraction(1, 2))

    def apply(self, x: Form) -> Form:
        """Image of a degree-1 form under the endomorphism."""
        if x.mode != self.mode:
            raise ModeError(f"cannot apply {self.mode} endo to {x.mode} form")
        comps = x.components()
        zero = scalar_zero(self.mode)
        return Form._trusted(
            self.mode, {1 << i: _dot(row, comps, zero) for i, row in enumerate(self.rows)}
        )

    def max_norm(self) -> Scalar:
        return _max_abs(self.flat(), self.mode)

    def isclose(self, other: "Endo", tol: float = 1e-12) -> bool:
        if self.mode != other.mode:
            raise ModeError(f"cannot compare {self.mode} and {other.mode} endos")
        if self.mode == EXACT:
            return self.rows == other.rows
        return (self - other).max_norm() <= tol

    def __eq__(self, other) -> bool:
        if not isinstance(other, Endo):
            return NotImplemented
        if self.mode != other.mode:
            return False
        return self.isclose(other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Endo({self.mode}, {[list(map(str, row)) for row in self.rows]})"

    def to_float(self) -> "Endo":
        if self.mode == FLOAT:
            return self
        return Endo._trusted(FLOAT, [[float(x) for x in row] for row in self.rows])


def _numerator_rows(
    rows: Sequence[Sequence[Scalar]], mode: str
) -> tuple[tuple[tuple[Scalar, ...], ...], int]:
    """`forms._numerators` of a table of scalars, over one shared denominator."""
    flat, den = _numerators([x for row in rows for x in row], mode)
    out, start = [], 0
    for row in rows:
        out.append(tuple(flat[start : start + len(row)]))
        start += len(row)
    return tuple(out), den


def _dot(xs: Sequence[Scalar], ys: Sequence[Scalar], zero: Scalar) -> Scalar:
    """sum_k xs[k] * ys[k], skipping the terms with a zero factor."""
    acc = None
    for x, y in zip(xs, ys):
        if x and y:
            acc = x * y if acc is None else acc + x * y
    return zero if acc is None else acc


# ---------------------------------------------------------------------------
# the standard structure tensors

_OMEGA_TERMS = {"e12": 1, "e34": 1, "e56": 1}
_PSI_PLUS_TERMS = {"e135": 1, "e146": -1, "e236": -1, "e245": -1}
_PSI_MINUS_TERMS = {"e136": 1, "e145": 1, "e235": 1, "e246": -1}

# J e_{2i-1} = e_{2i}, J e_{2i} = -e_{2i-1}
_J_ROWS = (
    (0, -1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 0, -1, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, -1),
    (0, 0, 0, 0, 1, 0),
)


def _named_form(terms: dict[str, int], mode: str) -> Form:
    from su3forms.forms import blade_from_name

    return Form(mode, {blade_from_name(n): c for n, c in terms.items()})


@cache
def omega(mode: str = EXACT) -> Form:
    """The fundamental 2-form e12 + e34 + e56."""
    return _named_form(_OMEGA_TERMS, mode)


@cache
def psi_plus(mode: str = EXACT) -> Form:
    """Real part of the complex volume form."""
    return _named_form(_PSI_PLUS_TERMS, mode)


@cache
def psi_minus(mode: str = EXACT) -> Form:
    """Imaginary part of the complex volume form, equal to *psi_plus."""
    return _named_form(_PSI_MINUS_TERMS, mode)


@cache
def volume_form(mode: str = EXACT) -> Form:
    """The orientation 6-form e123456 = omega^3 / 6."""
    return Form.blade("e123456", mode)


@cache
def complex_structure(mode: str = EXACT) -> Endo:
    return Endo(mode, _J_ROWS)


def basis_vector(i: int, mode: str = EXACT) -> Form:
    """Degree-1 basis form e^{i+1} (0-based index)."""
    return Form.blade(1 << i, mode)


# ---------------------------------------------------------------------------
# endomorphism action on forms


def endo_act(a: Endo, u: Form) -> Form:
    """Derivation action of gl(6) on forms.

    For a 1-form this is alpha -> -alpha(A .); in general

        A . u = - sum_i (A^T e_i)^flat ^ (e_i -| u),

    so the identity acts on degree-p forms as -p and the action of J squares
    to -(p-q)^2 on forms of real type (p,q)+(q,p).
    """
    if a.mode != u.mode:
        raise ModeError(f"cannot act with {a.mode} endo on {u.mode} form")
    nu, du = _form_numerators(u)
    rows, da = _numerator_rows(a.rows, a.mode)
    out: dict[int, Scalar] = {}
    for i, row in enumerate(rows):
        row_terms = {1 << j: x for j, x in enumerate(row) if x}
        terms = _wedge_sums(row_terms, _contract_basis_terms(i, nu))
        _add_into(out, ((m, v) for m, v in terms.items() if v))
    return _from_numerators(u.mode, {m: -v for m, v in out.items()}, da * du)


@cache
def _j_squared_blade_map(degree: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """Integer blade matrix of the squared J derivation action per degree."""
    j = complex_structure(EXACT)
    out = {}
    for m in blades_of_degree(degree):
        img = endo_act(j, endo_act(j, Form(EXACT, {m: 1})))
        out[m] = tuple((m2, int(c)) for m2, c in img.terms())
    return out


def _j_squared_sums(u: dict[int, Scalar], degree: int) -> dict[int, Scalar]:
    """Squared J action on the coefficients of a degree-k form, zeros dropped."""
    table = _j_squared_blade_map(degree)
    acc: dict[int, Scalar] = {}
    for m, c in sorted(u.items()):
        for m2, w in table[m]:
            term = c * w
            if m2 in acc:
                acc[m2] += term
            else:
                acc[m2] = term
    return {m: v for m, v in acc.items() if v}


# real type components present in each degree, keyed by (p, q) with p >= q,
# with the eigenvalue of the squared J action
TYPE_EIGENVALUES: dict[int, dict[tuple[int, int], int]] = {
    0: {(0, 0): 0},
    1: {(1, 0): -1},
    2: {(1, 1): 0, (2, 0): -4},
    3: {(2, 1): -1, (3, 0): -9},
    4: {(2, 2): 0, (3, 1): -4},
    5: {(3, 2): -1},
    6: {(3, 3): 0},
}


def type_project(u: Form, p: int, q: int) -> Form:
    """Projection of a homogeneous form onto its real (p,q)+(q,p) component.

    Built as the polynomial in the squared J action that is 1 on the -(p-q)^2
    eigenspace and 0 on the other type components of the degree.
    """
    if p < q:
        p, q = q, p
    k = u.degree
    if k is None:
        return u
    table = TYPE_EIGENVALUES[k]
    if (p, q) not in table:
        raise ValueError(f"degree {k} has no ({p},{q}) component")
    target = table[(p, q)]
    mode = u.mode
    out, den = _form_numerators(u)
    for pq, ev in table.items():
        if pq == (p, q):
            continue
        # out <- (J^2 out - ev out) / (target - ev)
        acc = _j_squared_sums(out, k)
        if ev:
            _add_into(acc, ((m, -(ev * v)) for m, v in out.items()))
        if mode == EXACT:
            out, den = acc, den * (target - ev)
        else:
            inv = coerce_scalar(Fraction(1, target - ev), mode)
            out = {m: w for m, w in ((m, inv * v) for m, v in acc.items()) if w}
    return _from_numerators(mode, out, den)


# ---------------------------------------------------------------------------
# dual Lefschetz contraction

# Lambda = (1/2) sum_i (J e_i) -| e_i -| , which collapses to one contraction
# per complex line
_LAMBDA_PAIRS = ((1, 0), (3, 2), (5, 4))


def lefschetz_contract(u: Form) -> Form:
    """Dual Lefschetz operator, the inner-product adjoint of wedging with omega."""
    nums, den = _form_numerators(u)
    out: dict[int, Scalar] = {}
    for second, first in _LAMBDA_PAIRS:
        terms = _contract_basis_terms(second, _contract_basis_terms(first, nums))
        _add_into(out, terms.items())
    return _from_numerators(u.mode, out, den)


# ---------------------------------------------------------------------------
# the alpha map and the associated endomorphisms


def alpha_map(a: Form) -> Form:
    """Linear map sending X -| psi_plus to 2X and (1,1)-forms to zero.

    On a 2-form a it returns the vector sum_i <a, e_i -| psi_plus> e_i, which
    inverts the embedding of vectors into (2,0)+(0,2) forms via psi_plus and
    sends X -| psi_minus to -2JX.
    """
    pp = psi_plus(a.mode)
    return Form.vector(
        [inner(a, contract_basis(i, pp)) for i in range(DIM)], a.mode
    )


def vector_cross_endo(xi: Form, three_form: Form | None = None) -> Endo:
    """Endomorphism K with g(KX, Y) = u(xi, X, Y) for a 3-form u.

    Defaults to u = psi_plus, giving the skew J-anticommuting endomorphism
    attached to the vector xi.
    """
    u = psi_plus(xi.mode) if three_form is None else three_form
    # rows[y][x] = u(xi, e_x, e_y), the skew matrix of the 2-form xi -| u
    return endo_from_two_form(contract(xi, u))


def two_form_from_endo(f: Endo) -> Form:
    """The 2-form a(X, Y) = g(FX, Y) of a skew endomorphism F."""
    coeffs = {}
    for x in range(DIM):
        for y in range(x + 1, DIM):
            coeffs[(1 << x) | (1 << y)] = f.rows[y][x]
    return Form._trusted(f.mode, coeffs)


def endo_from_two_form(a: Form) -> Endo:
    """Inverse of `two_form_from_endo` on 2-forms."""
    rows = [[scalar_zero(a.mode)] * DIM for _ in range(DIM)]
    for x in range(DIM):
        for y in range(x + 1, DIM):
            c = a.coeff((1 << x) | (1 << y))
            rows[y][x] = c
            rows[x][y] = -c
    return Endo._trusted(a.mode, rows)


def two_form_from_sym_plus(h: Endo) -> Form:
    """The (1,1)-form phi(X, Y) = g(hJX, Y) of a J-commuting symmetric h.

    The identity maps to omega; the inverse is `sym_plus_from_two_form`.
    """
    return two_form_from_endo(j_compose_right(h))


def sym_plus_from_two_form(phi: Form) -> Endo:
    return -j_compose_right(endo_from_two_form(phi))


# ---------------------------------------------------------------------------
# symmetric J-anticommuting endomorphisms


def _rref_basis(vectors: list[list[Fraction]]) -> list[list[Fraction]]:
    """Sweep a list of exact vectors into an independent reduced set."""
    pivots: list[tuple[int, list[Fraction]]] = []
    for vec in vectors:
        v = list(vec)
        for idx, basis_vec in pivots:
            if v[idx]:
                c = v[idx]
                v = [a - c * b for a, b in zip(v, basis_vec)]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            continue
        c = v[lead]
        v = [x / c for x in v]
        pivots.append((lead, v))
    pivots.sort()
    return [v for _, v in pivots]


@cache
def sym_minus_basis(mode: str = EXACT) -> tuple[Endo, ...]:
    """Basis of the 12-dimensional space of symmetric J-anticommuting endos.

    Built by projecting the symmetric generators with A -> (A + JAJ)/2 and
    sweeping; symmetric J-anticommuting endomorphisms are automatically
    traceless.  The basis is deterministic.
    """
    if mode == FLOAT:
        return tuple(b.to_float() for b in sym_minus_basis(EXACT))
    j = complex_structure(EXACT)
    projected = []
    for i in range(DIM):
        for k in range(i, DIM):
            gen = [[Fraction(0)] * DIM for _ in range(DIM)]
            gen[i][k] += 1
            gen[k][i] += 1
            a = Endo(EXACT, gen)
            p = (a + j @ a @ j).scale(Fraction(1, 2))
            projected.append([Fraction(x) for x in p.flat()])
    basis = _rref_basis(projected)
    return tuple(Endo.from_flat(v, EXACT) for v in basis)


@cache
def _sym_minus_basis_numerators(mode: str) -> tuple[tuple[tuple[Scalar, ...], ...], int]:
    return _numerator_rows([b.flat() for b in sym_minus_basis(mode)], mode)


def sym_minus_combination(coeffs: Sequence, mode: str = EXACT) -> Endo:
    """The endomorphism sum_i coeffs[i] B_i over `sym_minus_basis(mode)`."""
    nums, d_coeffs = _numerators([coerce_scalar(c, mode) for c in coeffs], mode)
    basis, d_basis = _sym_minus_basis_numerators(mode)
    if len(nums) != len(basis):
        raise ValueError(f"expected {len(basis)} coefficients, got {len(nums)}")
    # the basis is sparse, so the sum is accumulated entry by entry
    zero = 0.0 if mode == FLOAT else 0
    entries = [zero] * (DIM * DIM)
    for c, b_entries in zip(nums, basis):
        if not c:
            continue
        for idx, x in enumerate(b_entries):
            if x:
                entries[idx] += c * x
    if mode == EXACT:
        entries = [Fraction(n, d_coeffs * d_basis) for n in entries]
    return Endo.from_flat(entries, mode)


def j_compose_left(a: Endo) -> Endo:
    """J a, using that J is a signed permutation of coordinate pairs."""
    rows = []
    for i in range(0, DIM, 2):
        rows.append([-x for x in a.rows[i + 1]])
        rows.append(a.rows[i])
    return Endo._trusted(a.mode, rows)


def j_compose_right(a: Endo) -> Endo:
    """a J, the column-side counterpart of `j_compose_left`."""
    rows = []
    for r in a.rows:
        row = list(r)
        for i in range(0, DIM, 2):
            row[i], row[i + 1] = r[i + 1], -r[i]
        rows.append(row)
    return Endo._trusted(a.mode, rows)


def sym_minus_residual(a: Endo) -> Scalar:
    """Max-norm distance of a from being symmetric and J-anticommuting."""
    return max(
        (a - a.transpose()).max_norm(),
        (j_compose_right(a) + j_compose_left(a)).max_norm(),
    )


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise DecompositionError("singular system in exact solve")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


@cache
def _sym_minus_images(mode: str) -> tuple[Form, ...]:
    return tuple(endo_act(b, psi_plus(mode)) for b in sym_minus_basis(mode))


@cache
def _sym_gram_inverse() -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse Gram matrix of the forms B_i . psi_plus, B_i in the basis."""
    images = _sym_minus_images(EXACT)
    n = len(images)
    gram = [[inner(images[i], images[j]) for j in range(n)] for i in range(n)]
    cols = []
    for j in range(n):
        e = [Fraction(1 if i == j else 0) for i in range(n)]
        cols.append(_solve_exact(gram, e))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@cache
def _sym_solve_numerators(mode: str) -> tuple:
    """What `decompose_three_form` solves with, as loop operands.

    Returns the images B_j . psi_plus and the rows of their inverse Gram
    matrix, each table as numerators over one denominator, and the product
    of the two denominators.
    """
    images = _sym_minus_images(mode)
    image_nums, d_images = _numerator_rows([list(b._c.values()) for b in images], mode)
    ginv, d_ginv = _numerator_rows(
        [[coerce_scalar(x, mode) for x in row] for row in _sym_gram_inverse()], mode
    )
    image_nums = tuple(dict(zip(b._c, nums)) for b, nums in zip(images, image_nums))
    return image_nums, ginv, d_images * d_ginv


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class TwoFormParts:
    """Orthogonal pieces of a 2-form: primitive (1,1), omega multiple, vector.

    a = primitive + omega_coeff * omega + xi -| psi_plus
    """

    primitive: Form
    omega_coeff: Scalar
    xi: Form

    def reconstruct(self) -> Form:
        mode = self.primitive.mode
        return (
            self.primitive
            + omega(mode).scale(self.omega_coeff)
            + contract(self.xi, psi_plus(mode))
        )


@dataclass(frozen=True)
class ThreeFormParts:
    """Pieces of a 3-form under the SU(3) module decomposition.

    u = alpha ^ omega + lam * psi_plus + mu * psi_minus + s . psi_plus,
    with alpha a 1-form and s symmetric and J-anticommuting.
    """

    alpha: Form
    lam: Scalar
    mu: Scalar
    s: Endo

    def reconstruct(self) -> Form:
        mode = self.alpha.mode
        return (
            wedge(self.alpha, omega(mode))
            + psi_plus(mode).scale(self.lam)
            + psi_minus(mode).scale(self.mu)
            + endo_act(self.s, psi_plus(mode))
        )


#: float-mode tolerance of the decomposition and jet consistency gates
GATE_TOL = 1e-9


def gate_fails(err: Scalar, mode: str) -> bool:
    """Whether a gate residual rejects its input: any nonzero exact value,
    or a float that is not within GATE_TOL (so NaN fails)."""
    return err != 0 if mode == EXACT else not err <= GATE_TOL


def _residual_guard(given: Form, rebuilt: Form, what: str) -> None:
    err = (given - rebuilt).max_norm()
    if gate_fails(err, given.mode):
        raise DecompositionError(f"{what} residual {err} exceeds tolerance")


def decompose_two_form(a: Form) -> TwoFormParts:
    """Split a 2-form into primitive (1,1) + omega line + vector part."""
    if a.degrees not in ((), (2,)):
        raise DegreeError("decompose_two_form needs a 2-form")
    om = omega(a.mode)
    c = inner(a, om) / coerce_scalar(3, a.mode)
    anti = type_project(a, 2, 0)
    xi = alpha_map(anti).scale(Fraction(1, 2))
    primitive = type_project(a, 1, 1) - om.scale(c)
    parts = TwoFormParts(primitive, c, xi)
    _residual_guard(a, parts.reconstruct(), "2-form decomposition")
    return parts


def decompose_three_form(u: Form) -> ThreeFormParts:
    """Split a 3-form into alpha ^ omega, psi lines and the symmetric part.

    alpha and the psi coefficients come from contractions; the symmetric
    endomorphism is recovered by an exact Gram solve in the fixed basis of
    `sym_minus_basis`.
    """
    if u.degrees not in ((), (3,)):
        raise DegreeError("decompose_three_form needs a 3-form")
    mode = u.mode
    four = coerce_scalar(4, mode)
    alpha = lefschetz_contract(u).scale(Fraction(1, 2))
    lam = inner(u, psi_plus(mode)) / four
    mu = inner(u, psi_minus(mode)) / four
    rest = (
        u
        - wedge(alpha, omega(mode))
        - psi_plus(mode).scale(lam)
        - psi_minus(mode).scale(mu)
    )
    # S = sum_i c_i B_i with c = G^-1 (<rest, B_j . psi_plus>)_j, the sums
    # taken over numerators
    images, ginv, den = _sym_solve_numerators(mode)
    n_rest, d_rest = _form_numerators(rest)
    zero = 0.0 if mode == FLOAT else 0
    rhs = [_inner_sum(n_rest, img, zero) for img in images]
    coeffs = [sum((g * r for g, r in zip(row, rhs)), zero) for row in ginv]
    if mode == EXACT:
        coeffs = [Fraction(c, den * d_rest) for c in coeffs]
    parts = ThreeFormParts(alpha, lam, mu, sym_minus_combination(coeffs, mode))
    _residual_guard(u, parts.reconstruct(), "3-form decomposition")
    return parts


def sym_minus_to_form(s: Endo, which: str = "psi_plus") -> Form:
    """Image of a J-anticommuting symmetric endomorphism on a psi line.

    which selects the acted-on form: "psi_plus" gives S . psi_plus,
    "psi_minus" gives S . psi_minus.  Injective with 12-dimensional image.
    """
    if which == "psi_plus":
        return endo_act(s, psi_plus(s.mode))
    if which == "psi_minus":
        return endo_act(s, psi_minus(s.mode))
    raise ValueError(f"unknown target form {which!r}")


def form_to_sym_minus(u: Form) -> Endo:
    """Inverse of S -> S . psi_plus on its image.

    Rejects 3-forms with components along omega ^ (1-forms) or the psi
    lines beyond tolerance; those live outside the image subspace.
    """
    parts = decompose_three_form(u)
    stray = max(
        parts.alpha.max_norm(), abs(parts.lam), abs(parts.mu)
    )
    if gate_fails(stray, u.mode):
        raise DecompositionError(
            f"3-form has components outside the symmetric image: {stray}"
        )
    return parts.s


def decompose_anti_endo(f: Endo) -> tuple[Endo, Form]:
    """Split a J-anticommuting endomorphism as S + K_xi.

    S is the symmetric part and K_xi the skew part g(K_xi X, Y) =
    psi_plus(xi, X, Y); returns (S, xi).  Raises if f commutes with J in part.
    """
    anti_err = (j_compose_right(f) + j_compose_left(f)).max_norm()
    if gate_fails(anti_err, f.mode):
        raise DecompositionError(f"endomorphism does not anticommute with J: {anti_err}")
    s = f.sym_part()
    xi = alpha_map(two_form_from_endo(f.skew_part())).scale(Fraction(1, 2))
    rebuilt = s + vector_cross_endo(xi)
    diff = (f - rebuilt).max_norm()
    if gate_fails(diff, f.mode):
        raise DecompositionError(f"endomorphism decomposition residual {diff}")
    return s, xi
