"""Exterior algebra over an oriented Euclidean R^6 in two numeric modes.

Blades are 6-bit masks (bit i encodes the basis covector e^{i+1}); a Form is
a sparse map from blade masks to coefficients, so a general element has 64
coefficients.  Coefficients are `fractions.Fraction` in exact mode or `float`
in float mode.  The mode is fixed per Form, operations never mix modes, and
every operation returns a new Form: instances are immutable and safe to share
across threads.  The product-heavy kernels (`wedge`, and in `structure` the
endomorphism action, type projections and decompositions) sum exact
coefficients as integer numerators over a common denominator and divide once
at the end, which gives the same rationals with far less `Fraction` overhead.

The metric makes the coordinate blades orthonormal and the orientation is
fixed by the volume blade e123456.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import gcd, isnan, nan
from typing import Iterable, Iterator, Mapping, Union

DIM = 6
N_BLADES = 1 << DIM
VOLUME_MASK = N_BLADES - 1

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)

#: Absolute coefficient tolerance used for float-mode comparisons.
DEFAULT_TOL = 1e-12

Scalar = Union[Fraction, float]


class AlgebraError(Exception):
    """Base class for errors raised by the kernel."""


class ModeError(AlgebraError):
    """Mixed exact/float operands, or a coefficient invalid for the mode."""


class DegreeError(AlgebraError):
    """An operation received a form of inadmissible or mixed degree."""


class DecompositionError(AlgebraError):
    """An input lies outside the subspace a decomposition requires."""


# ---------------------------------------------------------------------------
# blade utilities


def blade_degree(mask: int) -> int:
    return mask.bit_count()


def wedge_sign(a: int, b: int) -> int:
    """Sign of e_a ^ e_b relative to the ascending-index blade, 0 if they meet.

    Counts the transpositions needed to merge the two ascending index lists:
    one for every index pair (i in a, j in b) with i > j.
    """
    if a & b:
        return 0
    swaps = 0
    x = a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    return -1 if swaps & 1 else 1


def contraction_sign(i: int, mask: int) -> int:
    """Sign picked up when removing index bit i from a blade: (-1)^(#lower bits)."""
    lower = mask & ((1 << i) - 1)
    return -1 if lower.bit_count() & 1 else 1


def blade_indices(mask: int) -> tuple[int, ...]:
    """0-based index positions present in the blade, ascending."""
    return tuple(i for i in range(DIM) if mask >> i & 1)


def blade_name(mask: int) -> str:
    """Blade label with 1-based digits, e.g. 0b10101 -> 'e135'; 'e' is the scalar."""
    return "e" + "".join(str(i + 1) for i in blade_indices(mask))


def blade_from_name(name: str) -> int:
    if not (isinstance(name, str) and name.startswith("e")):
        raise ValueError(f"blade name must be a string that starts with 'e': {name!r}")
    mask = 0
    prev = 0
    for ch in name[1:]:
        if not (ch.isascii() and ch.isdigit()):
            raise ValueError(f"blade name has an index that is not an ASCII digit: {name!r}")
        i = int(ch)
        if not 1 <= i <= DIM:
            raise ValueError(f"blade index out of range 1..{DIM}: {name!r}")
        if i <= prev:
            raise ValueError(f"blade indices must be strictly ascending: {name!r}")
        prev = i
        mask |= 1 << (i - 1)
    return mask


def blades_of_degree(k: int) -> tuple[int, ...]:
    """All blade masks of degree k in ascending-combination order."""
    return tuple(
        sum(1 << i for i in combo) for combo in combinations(range(DIM), k)
    )


# ---------------------------------------------------------------------------
# scalars


def coerce_scalar(value, mode: str) -> Scalar:
    """Coerce a coefficient into the mode's scalar type.

    Exact mode accepts ints and Fractions (floats would silently corrupt the
    exact arithmetic, so they are rejected); float mode accepts any real
    number, NaN and infinity included.  Booleans are no scalars in either.
    """
    if mode == EXACT:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        raise ModeError(f"exact mode cannot accept coefficient {value!r}")
    if mode == FLOAT:
        if isinstance(value, (int, float, Fraction)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                kind = "integer" if isinstance(value, int) else "rational"
                raise OverflowError(f"the {kind} coefficient does not fit a float") from None
        raise ModeError(f"float mode cannot accept coefficient {value!r}")
    raise ModeError(f"unknown mode {mode!r}")


_EXACT_ZERO = Fraction(0)

#: the strings `encode_scalar` writes for an exact scalar
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def scalar_zero(mode: str) -> Scalar:
    # Fractions are immutable, so one shared exact zero serves every caller
    return _EXACT_ZERO if mode == EXACT else 0.0


def encode_scalar(value, mode: str):
    """JSON value of a scalar: a rational string in exact mode, a number in
    float mode."""
    return str(Fraction(value)) if mode == EXACT else float(value)


def decode_scalar(raw, mode: str) -> Scalar:
    """Inverse of `encode_scalar`: in exact mode a string must be an integer
    or p/q with q nonzero, as `encode_scalar` writes it; every value then
    meets the rule of `coerce_scalar`."""
    if mode == EXACT and isinstance(raw, str):
        if not _RATIONAL.fullmatch(raw):
            raise ValueError(f"exact scalars are an integer or p/q with q nonzero, got {raw!r}")
        raw = Fraction(raw)
    return coerce_scalar(raw, mode)


def _check_same_mode(a: "Form", b: "Form") -> None:
    if a.mode != b.mode:
        raise ModeError(f"cannot combine {a.mode} and {b.mode} forms")


def _add_into(out: dict[int, Scalar], terms: Iterable[tuple[int, Scalar]]) -> None:
    """out += terms in place, dropping a coefficient once its sum cancels.

    Leaves the same values and key order as chained `Form.__add__` calls
    would; the key order fixes the order of later float sums.
    """
    for m, v in terms:
        if m in out:
            total = out[m] + v
            if total:
                out[m] = total
            else:
                del out[m]
        else:
            out[m] = v


# ---------------------------------------------------------------------------
# Form


class Form:
    """Sparse element of the full exterior algebra Lambda R^6.

    Not hashable; compare with ``==`` (coefficient-wise in exact mode, within
    `DEFAULT_TOL` max-norm in float mode).
    """

    __slots__ = ("mode", "_c")

    def __init__(self, mode: str, coeffs: Mapping[int, object] | None = None):
        if mode not in MODES:
            raise ModeError(f"unknown mode {mode!r}")
        object.__setattr__(self, "mode", mode)
        clean: dict[int, Scalar] = {}
        if coeffs:
            for mask, value in coeffs.items():
                if not 0 <= mask < N_BLADES:
                    raise ValueError(f"blade mask out of range: {mask}")
                v = coerce_scalar(value, mode)
                if v:
                    clean[mask] = v
        object.__setattr__(self, "_c", clean)

    @classmethod
    def _trusted(cls, mode: str, coeffs: Mapping[int, Scalar]) -> "Form":
        """Form from coefficients already of the mode's scalar type.

        Skips the validation and coercion of `__init__`; only for values
        computed from operands of the same mode.  Zero coefficients are
        still dropped, so exact `is_zero` and `==` keep their meaning.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "_c", {m: v for m, v in coeffs.items() if v})
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Form is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, mode: str) -> "Form":
        return cls(mode)

    @classmethod
    def scalar(cls, value, mode: str) -> "Form":
        return cls(mode, {0: value})

    @classmethod
    def blade(cls, spec: int | str, mode: str, coeff=1) -> "Form":
        mask = blade_from_name(spec) if isinstance(spec, str) else spec
        return cls(mode, {mask: coeff})

    # -- inspection ----------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Scalar]]:
        return iter(sorted(self._c.items()))

    def coeff(self, blade: int | str) -> Scalar:
        mask = blade_from_name(blade) if isinstance(blade, str) else blade
        return self._c.get(mask, scalar_zero(self.mode))

    def components(self) -> list[Scalar]:
        """The 6 coefficients of the degree-1 part."""
        return [self.coeff(1 << i) for i in range(DIM)]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({blade_degree(m) for m in self._c}))

    @property
    def degree(self) -> int | None:
        """Degree of a homogeneous form, None for zero, error if mixed."""
        degs = self.degrees
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError(f"form has mixed degrees {degs}")
        return degs[0]

    def is_zero(self) -> bool:
        if self.mode == EXACT:
            return not self._c
        return all(abs(v) <= DEFAULT_TOL for v in self._c.values())

    def max_norm(self) -> Scalar:
        return _max_abs(self._c.values(), self.mode)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        _check_same_mode(self, other)
        out = dict(self._c)
        for m, v in other._c.items():
            if m in out:
                out[m] += v
            else:
                out[m] = v
        return Form._trusted(self.mode, out)

    def __sub__(self, other: "Form") -> "Form":
        if not isinstance(other, Form):
            return NotImplemented
        _check_same_mode(self, other)
        out = dict(self._c)
        for m, v in other._c.items():
            if m in out:
                out[m] -= v
            else:
                out[m] = -v
        return Form._trusted(self.mode, out)

    def __neg__(self) -> "Form":
        return Form._trusted(self.mode, {m: -v for m, v in self._c.items()})

    def scale(self, value) -> "Form":
        v = coerce_scalar(value, self.mode)
        return Form._trusted(self.mode, {m: v * c for m, c in self._c.items()})

    def __mul__(self, value) -> "Form":
        return self.scale(value)

    __rmul__ = __mul__

    # -- comparison ----------------------------------------------------------

    def isclose(self, other: "Form") -> bool:
        _check_same_mode(self, other)
        return (self - other).is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        if self.mode != other.mode:
            return False
        if self.mode == EXACT:
            return self._c == other._c
        return self.isclose(other)

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        if not self._c:
            return f"Form({self.mode}, 0)"
        parts = [f"{v!s}*{blade_name(m)}" for m, v in sorted(self._c.items())]
        return f"Form({self.mode}, {' + '.join(parts)})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = [
            {"blade": blade_name(mask), "coeff": encode_scalar(value, self.mode)}
            for mask, value in sorted(self._c.items())
        ]
        return {"mode": self.mode, "terms": terms}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Form":
        try:
            mode = data["mode"]
            pairs = [(term["blade"], term["coeff"]) for term in data["terms"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"form needs 'mode' and 'terms' ('blade', 'coeff'): {exc}") from exc
        coeffs: dict[int, Scalar] = {}
        for name, raw in pairs:
            mask = blade_from_name(name)
            if mask in coeffs:
                raise ValueError(f"duplicate blade {name!r}")
            try:
                coeffs[mask] = decode_scalar(raw, mode)
            except OverflowError as exc:
                raise OverflowError(f"blade {name!r}: {exc}") from None
        return cls(mode, coeffs)


# ---------------------------------------------------------------------------
# core operations


#: _WEDGE_SIGNS[a][b] == wedge_sign(a, b) for every pair of blade masks
_WEDGE_SIGNS: tuple[tuple[int, ...], ...] = tuple(
    tuple(wedge_sign(a, b) for b in range(N_BLADES)) for a in range(N_BLADES)
)


def _numerators(values: Iterable[Scalar], mode: str) -> tuple[list[Scalar], int]:
    """Scalars as kernel loop operands, with the denominator they share.

    Exact values become integer numerators over their least common
    denominator, so a kernel's sums run on ints and divide once at the end;
    float values pass through over denominator 1.
    """
    if mode == FLOAT:
        return list(values), 1
    ratios = [v.as_integer_ratio() for v in values]
    den = 1
    for _, d in ratios:
        if den % d:
            den = den * d // gcd(den, d)
    return [n * (den // d) for n, d in ratios], den


def _max_abs(values: Iterable[Scalar], mode: str) -> Scalar:
    """Largest absolute value among scalars of the mode, zero if there are
    none, NaN if any float is NaN."""
    nums, den = _numerators(values, mode)
    if not nums:
        return scalar_zero(mode)
    if mode == FLOAT:
        return nan if any(map(isnan, nums)) else max(map(abs, nums))
    return Fraction(max(map(abs, nums)), den)


def _form_numerators(a: Form) -> tuple[dict[int, Scalar], int]:
    """`_numerators` of a's coefficients, keyed by blade."""
    nums, den = _numerators(a._c.values(), a.mode)
    return dict(zip(a._c, nums)), den


def _from_numerators(mode: str, nums: Mapping[int, Scalar], den: int) -> Form:
    """Inverse of `_form_numerators`: the Form with coefficients nums / den."""
    if mode == FLOAT:
        return Form._trusted(FLOAT, nums)
    return Form._trusted(EXACT, {m: Fraction(n, den) for m, n in nums.items() if n})


def wedge(a: Form, b: Form) -> Form:
    """Exterior product a ^ b (graded-commutative, zero past top degree)."""
    _check_same_mode(a, b)
    na, da = _form_numerators(a)
    nb, db = _form_numerators(b)
    return _from_numerators(a.mode, _wedge_sums(na, nb), da * db)


def _wedge_sums(a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> dict[int, Scalar]:
    out: dict[int, Scalar] = {}
    b_terms = list(b.items())
    for ma, va in a.items():
        signs = _WEDGE_SIGNS[ma]
        neg_va = -va
        for mb, vb in b_terms:
            sign = signs[mb]
            if sign:
                m = ma | mb
                term = (va if sign > 0 else neg_va) * vb
                if m in out:
                    out[m] += term
                else:
                    out[m] = term
    return out


def _contract_basis_terms(i: int, a: Mapping[int, Scalar]) -> dict[int, Scalar]:
    out: dict[int, Scalar] = {}
    bit = 1 << i
    for mask, value in a.items():
        if mask & bit:
            out[mask ^ bit] = value if contraction_sign(i, mask) > 0 else -value
    return out


def contract(x: Form, a: Form) -> Form:
    """Interior product x -| a of a vector (degree-1 form) into a.

    Adjoint to wedging with x: <x -| a, b> = <a, x ^ b>.
    """
    _check_same_mode(x, a)
    if any(m.bit_count() != 1 for m in x._c):
        raise DegreeError("contraction direction must be a degree-1 form")
    out: dict[int, Scalar] = {}
    for i in range(DIM):
        c = x._c.get(1 << i)
        if c:
            terms = _contract_basis_terms(i, a._c)
            _add_into(out, ((m, c * v) for m, v in terms.items()))
    return Form._trusted(a.mode, out)


def inner(a: Form, b: Form) -> Scalar:
    """Inner product with the coordinate blades orthonormal.

    Forms of different degree are orthogonal (their blades are disjoint), so
    this is just the coefficient dot product.
    """
    _check_same_mode(a, b)
    return _inner_sum(a._c, b._c, scalar_zero(a.mode))


def _inner_sum(a: Mapping[int, Scalar], b: Mapping[int, Scalar], zero: Scalar) -> Scalar:
    total = zero
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    for mask, value in small.items():
        other = large.get(mask)
        if other is not None:
            total += value * other
    return total


def hodge_star(a: Form) -> Form:
    """Hodge star for the orthonormal blades and orientation e123456.

    Defined by u ^ *t = <u, t> e123456; on blades *e_A = s e_{A'} where A' is
    the complementary mask and s makes e_A ^ e_{A'} = s e123456.
    """
    a.degree  # noqa: B018 - raises DegreeError on mixed input
    out: dict[int, Scalar] = {}
    for mask, value in a._c.items():
        comp = VOLUME_MASK ^ mask
        sign = wedge_sign(mask, comp)
        out[comp] = value if sign > 0 else -value
    return Form._trusted(a.mode, out)


def evaluate(a: Form, *vectors: Form) -> Scalar:
    """Evaluate a k-form on k vectors via iterated contraction."""
    out = a
    for v in vectors:
        out = contract(v, out)
    if out.degrees not in ((), (0,)):
        raise DegreeError("form degree does not match the number of vectors")
    return out.coeff(0)

