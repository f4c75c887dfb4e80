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

By Schur's lemma each of these equivariant projections is a contraction with
omega and psi_plus/psi_minus.  With alpha(a)_i = <a, e_i -| psi_plus>:

    (2,0) part of a 2-form a:  alpha(a) -| psi_plus / 2
    (3,0) part of a 3-form u:  (<u, psi_plus> psi_plus + <u, psi_minus> psi_minus) / 4
    S part of a 3-form u:      -(C + JCJ) / 8,  C = B + B^T,
                               B_ij = <e_i -| u, e_j -| psi_plus>
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd
from operator import add, sub
from typing import Iterable, Sequence

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
    blade_from_name,
    coerce_scalar,
    contract,
    hodge_star,
    inner,
    wedge,
)

# ---------------------------------------------------------------------------
# endomorphisms


class Endo:
    """Endomorphism of R^6 as a 6x6 matrix, mode-matched to `Form`.

    rows[i][j] is the i-th component of the image of e_{j+1}.  Immutable,
    same exact/float discipline as forms.

    The 36 entries are stored row by row as numerators over one positive
    denominator, and this is the only representation.  In exact mode these
    are ints in lowest terms (the gcd of the denominator and every numerator
    is 1), so equal endos have equal numerators and the arithmetic below
    runs on ints; in float mode they are the floats themselves over 1.
    `flat` and `rows` build the scalar view on each access.
    """

    __slots__ = ("mode", "_nums", "_den")

    def __init__(self, mode: str, rows: Sequence[Sequence]):
        if mode not in MODES:
            raise ModeError(f"unknown mode {mode!r}")
        if len(rows) != DIM or any(len(r) != DIM for r in rows):
            raise ValueError("Endo expects a 6x6 matrix")
        entries = [coerce_scalar(x, mode) for row in rows for x in row]
        self._set(mode, *_numerators(entries, mode))

    @classmethod
    def _trusted(cls, mode: str, rows: Sequence[Sequence[Scalar]]) -> "Endo":
        """Endo from 6x6 rows already of the mode's scalar type.

        Skips the validation and coercion of `__init__`; only for values
        computed from operands of the same mode.
        """
        entries = [x for row in rows for x in row]
        return object.__new__(cls)._set(mode, *_numerators(entries, mode))

    @classmethod
    def _of(cls, mode: str, nums: Iterable[Scalar], den: int = 1) -> "Endo":
        """Endo with the 36 row-major numerators nums over den, brought to
        lowest terms in exact mode."""
        nums = tuple(nums)
        if mode == EXACT:
            g = gcd(den, *nums)
            if g != 1:
                nums = tuple(n // g for n in nums)
                den //= g
        return object.__new__(cls)._set(mode, nums, den)

    def _set(self, mode: str, nums: Iterable[Scalar], den: int) -> "Endo":
        # numerators of reduced fractions over their least common denominator
        # are already in lowest terms, so only `_of` has to reduce
        for slot, value in zip(Endo.__slots__, (mode, tuple(nums), den)):
            object.__setattr__(self, slot, value)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Endo is immutable")

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        entries = self.flat()
        return tuple(entries[i : i + DIM] for i in range(0, DIM * DIM, DIM))

    @classmethod
    def zero(cls, mode: str) -> "Endo":
        return cls(mode, [[0] * DIM for _ in range(DIM)])

    @classmethod
    def identity(cls, mode: str) -> "Endo":
        return cls(mode, [[1 if i == j else 0 for j in range(DIM)] for i in range(DIM)])

    def flat(self) -> tuple[Scalar, ...]:
        """The 36 entries row by row, as scalars of the mode."""
        if self.mode == FLOAT:
            return self._nums
        den = self._den
        return tuple(Fraction(n, den) for n in self._nums)

    def _combine(self, other: "Endo", op) -> "Endo":
        """Entrywise op(self, other) for op `add` or `sub`."""
        if not isinstance(other, Endo):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeError(f"cannot combine {self.mode} and {other.mode} endos")
        da, db = self._den, other._den
        if da == db:
            return Endo._of(self.mode, map(op, self._nums, other._nums), da)
        den = da // gcd(da, db) * db
        ka, kb = den // da, den // db
        return Endo._of(
            self.mode, [op(ka * a, kb * b) for a, b in zip(self._nums, other._nums)], den
        )

    def __add__(self, other: "Endo") -> "Endo":
        return self._combine(other, add)

    def __sub__(self, other: "Endo") -> "Endo":
        return self._combine(other, sub)

    def __neg__(self) -> "Endo":
        return Endo._of(self.mode, [-x for x in self._nums], self._den)

    def scale(self, value) -> "Endo":
        v = coerce_scalar(value, self.mode)
        if self.mode == FLOAT:
            return Endo._of(FLOAT, [v * x for x in self._nums])
        p, q = v.as_integer_ratio()
        return Endo._of(EXACT, [p * x for x in self._nums], q * self._den)

    def __mul__(self, value) -> "Endo":
        return self.scale(value)

    __rmul__ = __mul__

    def __matmul__(self, other: "Endo") -> "Endo":
        if not isinstance(other, Endo):
            return NotImplemented
        if self.mode != other.mode:
            raise ModeError(f"cannot combine {self.mode} and {other.mode} endos")
        zero = 0.0 if self.mode == FLOAT else 0
        a, b = self._nums, other._nums
        cols = [b[j::DIM] for j in range(DIM)]
        nums = [
            _dot(a[i : i + DIM], col, zero) for i in range(0, DIM * DIM, DIM) for col in cols
        ]
        return Endo._of(self.mode, nums, self._den * other._den)

    def transpose(self) -> "Endo":
        nums = self._nums
        return Endo._of(self.mode, [x for j in range(DIM) for x in nums[j::DIM]], self._den)

    def trace(self) -> Scalar:
        diag = self._nums[:: DIM + 1]
        if self.mode == FLOAT:
            return sum(diag, 0.0)
        return Fraction(sum(diag), self._den)

    def sym_part(self) -> "Endo":
        return (self + self.transpose()).scale(Fraction(1, 2))

    def skew_part(self) -> "Endo":
        return (self - self.transpose()).scale(Fraction(1, 2))

    def apply(self, x: Form) -> Form:
        """Image of a degree-1 form under the endomorphism."""
        if x.mode != self.mode:
            raise ModeError(f"cannot apply {self.mode} endo to {x.mode} form")
        comps, den = _numerators(x.components(), self.mode)
        zero = 0.0 if self.mode == FLOAT else 0
        nums = self._nums
        images = {
            1 << i: _dot(nums[i * DIM : (i + 1) * DIM], comps, zero) for i in range(DIM)
        }
        return _from_numerators(self.mode, images, self._den * den)

    def max_norm(self) -> Scalar:
        if self.mode == FLOAT:
            return _max_abs(self._nums, FLOAT)
        return Fraction(max(map(abs, self._nums)), self._den)

    def isclose(self, other: "Endo", tol: float = 1e-12) -> bool:
        if self.mode != other.mode:
            raise ModeError(f"cannot compare {self.mode} and {other.mode} endos")
        if self.mode == EXACT:
            return self._den == other._den and self._nums == other._nums
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
        # int / int rounds correctly, as float(Fraction) does
        den = self._den
        return Endo._of(FLOAT, [x / den for x in self._nums])


def _dot(xs: Sequence[Scalar], ys: Sequence[Scalar], zero: Scalar) -> Scalar:
    """sum_k xs[k] * ys[k], skipping the terms with a zero factor."""
    acc = None
    for x, y in zip(xs, ys):
        if x and y:
            acc = x * y if acc is None else acc + x * y
    return zero if acc is None else acc


# ---------------------------------------------------------------------------
# the standard structure tensors


def _blade_terms(terms: dict[str, int]) -> dict[int, int]:
    return {blade_from_name(n): c for n, c in terms.items()}


# integer coefficients by blade, read as loop numerators in both modes
_OMEGA_TERMS = _blade_terms({"e12": 1, "e34": 1, "e56": 1})
_PSI_PLUS_TERMS = _blade_terms({"e135": 1, "e146": -1, "e236": -1, "e245": -1})
_PSI_MINUS_TERMS = _blade_terms({"e136": 1, "e145": 1, "e235": 1, "e246": -1})

#: psi_plus and psi_minus: orthogonal, squared norm 4, spanning the (3,0) forms
_PSI_LINES = (_PSI_PLUS_TERMS, _PSI_MINUS_TERMS)

#: e_i -| psi_plus: orthogonal, squared norm 2, spanning the (2,0) forms
_PSI_PLUS_CONTRACTIONS = tuple(
    _contract_basis_terms(i, _PSI_PLUS_TERMS) for i in range(DIM)
)
#: their Hodge stars, spanning the (3,1) forms; the star is an isometry
_PSI_PLUS_CONTRACTION_STARS = tuple(
    {m: int(v) for m, v in hodge_star(Form(EXACT, t)).terms()} for t in _PSI_PLUS_CONTRACTIONS
)

# J e_{2i-1} = e_{2i}, J e_{2i} = -e_{2i-1}
_J_ROWS = (
    (0, -1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 0, -1, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, -1),
    (0, 0, 0, 0, 1, 0),
)


@cache
def omega(mode: str = EXACT) -> Form:
    """The fundamental 2-form e12 + e34 + e56."""
    return Form(mode, _OMEGA_TERMS)


@cache
def psi_plus(mode: str = EXACT) -> Form:
    """Real part of the complex volume form."""
    return Form(mode, _PSI_PLUS_TERMS)


@cache
def psi_minus(mode: str = EXACT) -> Form:
    """Imaginary part of the complex volume form, equal to *psi_plus."""
    return Form(mode, _PSI_MINUS_TERMS)


@cache
def volume_form(mode: str = EXACT) -> Form:
    """The orientation 6-form e123456 = omega^3 / 6."""
    return Form.blade("e123456", mode)


@cache
def complex_structure(mode: str = EXACT) -> Endo:
    return Endo(mode, _J_ROWS)


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
    nums, da = a._nums, a._den
    out: dict[int, Scalar] = {}
    for i in range(DIM):
        row_terms = {1 << j: x for j, x in enumerate(nums[i * DIM : (i + 1) * DIM]) if x}
        terms = _wedge_sums(row_terms, _contract_basis_terms(i, nu))
        _add_into(out, ((m, v) for m, v in terms.items() if v))
    return _from_numerators(u.mode, {m: -v for m, v in out.items()}, da * du)


# real type components present in each degree, keyed by (p, q) with p >= q,
# with the eigenvalue of the squared J action; `type_project` reads only the
# keys, and the identity suite checks its projections against the values
TYPE_EIGENVALUES: dict[int, dict[tuple[int, int], int]] = {
    0: {(0, 0): 0},
    1: {(1, 0): -1},
    2: {(1, 1): 0, (2, 0): -4},
    3: {(2, 1): -1, (3, 0): -9},
    4: {(2, 2): 0, (3, 1): -4},
    5: {(3, 2): -1},
    6: {(3, 3): 0},
}


def _line_projection(
    u: Form, lines: Sequence[dict[int, int]], norm_sq: int, onto: bool
) -> Form:
    """sum_l <u, l> l / norm_sq over orthogonal integer lines l of squared
    norm norm_sq, or the rest of u if not onto."""
    mode = u.mode
    nums, den = _form_numerators(u)
    part: dict[int, Scalar] = {}
    for line in lines:
        c = _inner_sum(nums, line, 0)
        if c:
            _add_into(part, ((m, c * v) for m, v in line.items()))
    if not onto:
        rest = {m: norm_sq * v for m, v in nums.items()}
        _add_into(rest, ((m, -v) for m, v in part.items()))
        part = rest
    if mode == FLOAT:
        # norm_sq is a power of two, so this division rounds nothing
        return Form._trusted(FLOAT, {m: v / norm_sq for m, v in part.items()})
    return _from_numerators(mode, part, den * norm_sq)


def type_project(u: Form, p: int, q: int) -> Form:
    """Projection of a homogeneous form onto its real (p,q)+(q,p) component.

    On 2-forms the (2,0) part is (1/2) alpha(u) -| psi_plus, on 3-forms the
    (3,0) part is (<u, psi_plus> psi_plus + <u, psi_minus> psi_minus) / 4,
    and the (1,1) and (2,1) parts are the remainders.  On 4-forms the (3,1)
    part projects onto the *(e_i -| psi_plus) and (2,2) is the rest.
    Degrees 0, 1, 5 and 6 have a single type, projected by the identity.
    """
    if p < q:
        p, q = q, p
    k = u.degree
    if k is None:
        return u
    if (p, q) not in TYPE_EIGENVALUES[k]:
        raise ValueError(f"degree {k} has no ({p},{q}) component")
    if k == 2:
        return _line_projection(u, _PSI_PLUS_CONTRACTIONS, 2, p == 2)
    if k == 3:
        return _line_projection(u, _PSI_LINES, 4, p == 3)
    if k == 4:
        return _line_projection(u, _PSI_PLUS_CONTRACTION_STARS, 2, p == 3)
    return u


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
    nums, den = _form_numerators(a)
    sums = (_inner_sum(nums, t, 0) for t in _PSI_PLUS_CONTRACTIONS)
    return _from_numerators(a.mode, {1 << i: c for i, c in enumerate(sums)}, den)


def vector_cross_endo(xi: Form) -> Endo:
    """The skew J-anticommuting endomorphism K with g(KX, Y) =
    psi_plus(xi, X, Y) attached to the vector xi."""
    # rows[y][x] = psi_plus(xi, e_x, e_y), the skew matrix of xi -| psi_plus
    return endo_from_two_form(contract(xi, psi_plus(xi.mode)))


def two_form_from_endo(f: Endo) -> Form:
    """The 2-form a(X, Y) = g(FX, Y) of a skew endomorphism F."""
    nums = f._nums
    coeffs = {
        (1 << x) | (1 << y): nums[y * DIM + x] for x in range(DIM) for y in range(x + 1, DIM)
    }
    return _from_numerators(f.mode, coeffs, f._den)


def endo_from_two_form(a: Form) -> Endo:
    """Inverse of `two_form_from_endo` on 2-forms."""
    coeffs, den = _form_numerators(a)
    zero = 0.0 if a.mode == FLOAT else 0
    nums = [zero] * (DIM * DIM)
    for x in range(DIM):
        for y in range(x + 1, DIM):
            c = coeffs.get((1 << x) | (1 << y), zero)
            nums[y * DIM + x] = c
            nums[x * DIM + y] = -c
    return Endo._of(a.mode, nums, den)


def sym_plus_from_two_form(phi: Form) -> Endo:
    """The J-commuting symmetric h with phi(X, Y) = g(hJX, Y), for a (1,1)-form
    phi; omega maps to the identity."""
    return -j_compose_right(endo_from_two_form(phi))


# ---------------------------------------------------------------------------
# symmetric J-anticommuting endomorphisms


@cache
def sym_minus_basis(mode: str = EXACT) -> tuple[Endo, ...]:
    """Basis of the 12-dimensional space of symmetric J-anticommuting endos.

    For each pair of J-planes, spanned by coordinates a, a+1 and b, b+1 with
    even a <= b, two elements in this order: the symmetric endomorphism whose (a, b) and
    (b, a) 2x2 blocks are diag(1, -1), and the one whose blocks are
    [[0, 1], [1, 0]].  Both blocks anticommute with J's rotation block, and
    symmetric J-anticommuting endomorphisms are automatically traceless.
    """
    basis = []
    for a in range(0, DIM, 2):
        for b in range(a, DIM, 2):
            for block in (((1, 0), (0, -1)), ((0, 1), (1, 0))):
                rows = [[0] * DIM for _ in range(DIM)]
                for r in range(2):
                    for c in range(2):
                        rows[a + r][b + c] = rows[b + c][a + r] = block[r][c]
                basis.append(Endo(mode, rows))
    return tuple(basis)


def sym_minus_combination(coeffs: Sequence, mode: str = EXACT) -> Endo:
    """The endomorphism sum_i coeffs[i] B_i over `sym_minus_basis(mode)`."""
    nums, den = _numerators([coerce_scalar(c, mode) for c in coeffs], mode)
    basis = sym_minus_basis(mode)
    if len(nums) != len(basis):
        raise ValueError(f"expected {len(basis)} coefficients, got {len(nums)}")
    # the basis entries are integers (denominator 1) and sparse, so the sum
    # is accumulated entry by entry over the coefficients' denominator
    zero = 0.0 if mode == FLOAT else 0
    entries = [zero] * (DIM * DIM)
    for c, b in zip(nums, basis):
        if not c:
            continue
        for idx, x in enumerate(b._nums):
            if x:
                entries[idx] += c * x
    return Endo._of(mode, entries, den)


def j_compose_left(a: Endo) -> Endo:
    """J a, using that J is a signed permutation of coordinate pairs."""
    rows = a.rows
    out = []
    for i in range(0, DIM, 2):
        out.append([-x for x in rows[i + 1]])
        out.append(rows[i])
    return Endo._trusted(a.mode, out)


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
    # alpha vanishes on (1,1)-forms
    xi = alpha_map(a).scale(Fraction(1, 2))
    primitive = type_project(a, 1, 1) - om.scale(c)
    parts = TwoFormParts(primitive, c, xi)
    _residual_guard(a, parts.reconstruct(), "2-form decomposition")
    return parts


def decompose_three_form(u: Form) -> ThreeFormParts:
    """Split a 3-form into alpha ^ omega, psi lines and the symmetric part.

    Every part is a contraction (see the module docstring); the alpha ^ omega
    and psi parts of u contribute exactly zero to S.
    """
    if u.degrees not in ((), (3,)):
        raise DegreeError("decompose_three_form needs a 3-form")
    mode = u.mode
    four = coerce_scalar(4, mode)
    alpha = lefschetz_contract(u).scale(Fraction(1, 2))
    lam = inner(u, psi_plus(mode)) / four
    mu = inner(u, psi_minus(mode)) / four
    nums, den = _form_numerators(u)
    zero = 0.0 if mode == FLOAT else 0
    b = []
    for i in range(DIM):
        contracted = _contract_basis_terms(i, nums)
        b.append([_inner_sum(contracted, t, zero) for t in _PSI_PLUS_CONTRACTIONS])
    c = [[b[i][j] + b[j][i] for j in range(DIM)] for i in range(DIM)]
    # -8 S = C + JCJ, and (JCJ)_ij = -C_{i^1, j^1} if i + j is even, else +
    minus_8s = [
        c[i][j] + (-1) ** (i + j + 1) * c[i ^ 1][j ^ 1] for i in range(DIM) for j in range(DIM)
    ]
    if mode == EXACT:
        s = Endo._of(EXACT, [-x for x in minus_8s], 8 * den)
    else:
        s = Endo._of(FLOAT, [zero - x / 8 for x in minus_8s])
    parts = ThreeFormParts(alpha, lam, mu, s)
    _residual_guard(u, parts.reconstruct(), "3-form decomposition")
    return parts


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
