"""Numerical model of the round unit six-sphere inside R^7.

The nearly Kahler structure comes from the seven-dimensional cross product:
J_q X = q x X on the tangent space at q, omega_q = q -| phi for the
associative 3-form phi(x, y, z) = <x cross y, z>, and psi_plus is the
restriction of phi itself.  Differential operators (exterior derivative,
Levi-Civita derivative, codifferential, Laplacian) are second-order central
finite differences on one stencil: the great circles normalize(p + t x)
through the evaluation point p.  Each field value a at a stencil point g is
projected off g, a - g ^ (g -| a), which is its pullback along 1 - g g^T,
and then pulled back along a basis at p through that basis's compound, one
7 x 6 compound per call.  The exterior derivative is the antisymmetrized
covariant derivative along the adapted frame turned by one fixed rotation,
whose compounds take the derivative back to frame components.  The
codifferential is minus the trace of the covariant derivative along the
frame itself, -sum_j f_j -| nabla_{f_j}, which equals -*d* on the
even-dimensional sphere.  Operators take a point or its `AdaptedFrame`,
which a caller builds once per point, and one field, evaluated in batches:
each operator makes one field call on all the points of its stencil, and
the ambient algebra broadcasts over leading axes.

Forms on R^7 and frame values on the tangent space are numpy coefficient
vectors over index combinations in lexicographic order, with product and
contraction tables precomputed from the same transposition-parity rules as
the exact kernel.  Frame values are taken in an adapted frame, where the
structure tensors take their standard normal forms exactly, so an algebraic
operator of the six-dimensional kernel applies at each point as a constant
matrix (`kernel_matrix`), computed once in exact mode by the kernel itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from su3forms.forms import EXACT, Form, wedge_sign
from su3forms.forms import contraction_sign as _contraction_sign

AMBIENT_DIM = 7

#: cross-product structure constants: e_a x e_b = e_c for each listed
#: (a, b, c), extended cyclically and antisymmetrically (1-based indices)
CROSS_TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 7, 6),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 6, 5),
)

#: smallest step the central-difference operators accept
MIN_STEP = 1e-7

#: largest suite step: past it the truncation error swamps the tolerances
MAX_STEP = 0.1


# ---------------------------------------------------------------------------
# cross product


@cache
def cross_tensor() -> np.ndarray:
    """Totally antisymmetric (7,7,7) tensor t[i,j,k] = <e_i x e_j, e_k>."""
    t = np.zeros((AMBIENT_DIM, AMBIENT_DIM, AMBIENT_DIM))
    for a, b, c in CROSS_TRIPLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            t[i - 1, j - 1, k - 1] = 1.0
            t[j - 1, i - 1, k - 1] = -1.0
    t.setflags(write=False)
    return t


def cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,...i,...j->...k", cross_tensor(), u, v)


def cross_matrix(q: np.ndarray) -> np.ndarray:
    """Matrices of X -> q x X, shape (..., 7) -> (..., 7, 7)."""
    return np.einsum("ijk,...i->...kj", cross_tensor(), q)


def normalize(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def standard_normals(rng: random.Random, n: int) -> np.ndarray:
    """n standard normals from a stdlib generator, as float-mode sampling
    draws them; numpy.random is never loaded."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(n)])


def random_points(seed: int, n: int) -> np.ndarray:
    """(n, 7) array of seeded uniform points on the unit sphere."""
    g = standard_normals(random.Random(seed), n * AMBIENT_DIM)
    return normalize(g.reshape(n, AMBIENT_DIM))


# ---------------------------------------------------------------------------
# ambient exterior algebra (numpy coefficient vectors over lex combinations)


@cache
def combos(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k-combinations of range(n) in lex order; none for k < 0."""
    return tuple(combinations(range(n), k)) if k >= 0 else ()


@cache
def _combo_index(n: int, k: int) -> dict[int, int]:
    """Blade bitmask -> position in the lex combination order."""
    return {
        sum(1 << i for i in c): pos for pos, c in enumerate(combos(n, k))
    }


def zero_coeffs(n: int, k: int) -> np.ndarray:
    return np.zeros(len(combos(n, k)))


@cache
def _wedge_table(n: int, ka: int, kb: int) -> np.ndarray:
    """Dense tensor w[a, b, c] with (u ^ v)_c = sum w[a,b,c] u_a v_b."""
    ca, cb, cc = combos(n, ka), combos(n, kb), _combo_index(n, ka + kb)
    table = np.zeros((len(ca), len(cb), len(cc)))
    for ia, ta in enumerate(ca):
        ma = sum(1 << i for i in ta)
        for ib, tb in enumerate(cb):
            mb = sum(1 << i for i in tb)
            sign = wedge_sign(ma, mb)
            if sign:
                table[ia, ib, cc[ma | mb]] = sign
    table.setflags(write=False)
    return table


@cache
def _contract_table(n: int, k: int) -> np.ndarray:
    """Dense tensor c[i, a, b] with (x -| u)_b = sum c[i,a,b] x_i u_a."""
    ca, cb = combos(n, k), _combo_index(n, k - 1)
    table = np.zeros((n, len(ca), len(cb)))
    for ia, ta in enumerate(ca):
        ma = sum(1 << i for i in ta)
        for i in ta:
            table[i, ia, cb[ma ^ (1 << i)]] = _contraction_sign(i, ma)
    table.setflags(write=False)
    return table


def _apply_table(pairs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_{i,j} pairs[..., i, j] t[i, j, c], as one matrix product with the
    flattened table."""
    return pairs.reshape(*pairs.shape[:-2], -1) @ table.reshape(-1, table.shape[-1])


def wedge_ambient(a: np.ndarray, ka: int, b: np.ndarray, kb: int) -> np.ndarray:
    return _apply_table(a[..., :, None] * b[..., None, :], _wedge_table(AMBIENT_DIM, ka, kb))


def contract_ambient(x: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    return _apply_table(x[..., :, None] * a[..., None, :], _contract_table(AMBIENT_DIM, k))


def endo_act_ambient(m: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    """Derivation action of the matrix m on a k-form, as the kernel's
    `endo_act`: A . u = -sum_i (A^T e_i)^flat ^ (e_i -| u)."""
    contractions = np.einsum("iac,...a->...ic", _contract_table(AMBIENT_DIM, k), a)
    # row r is sum_i m[i, r] (e_i -| u), to be wedged with e_r from the left
    inserted = np.swapaxes(m, -1, -2) @ contractions
    return -_apply_table(inserted, _wedge_table(AMBIENT_DIM, 1, k - 1))


@cache
def _laplace_table(n: int, m: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather and sign tables for the Laplace expansion of d x d minors.

    Minors of an n x m matrix are kept flat: row combination major, column
    combination minor, both in lex order.  Expanding the minor at flat
    position t along its first row r_0, term j is

        signs[j] * entries[ent[j, t]] * minors_{d-1}[sub[j, t]],

    where entries is the flattened matrix, ent[j, t] points at (r_0, c_j)
    and sub[j, t] at the (d-1)-minor without row r_0 and column c_j.
    """
    prev_rows = {r: i for i, r in enumerate(combos(n, d - 1))}
    prev_cols = {c: i for i, c in enumerate(combos(m, d - 1))}
    ent = np.zeros((d, len(combos(n, d)) * len(combos(m, d))), dtype=int)
    sub = np.zeros_like(ent)
    for t, (r, c) in enumerate(product(combos(n, d), combos(m, d))):
        rest = prev_rows[r[1:]] * len(prev_cols)
        for j in range(d):
            ent[j, t] = r[0] * m + c[j]
            sub[j, t] = rest + prev_cols[c[:j] + c[j + 1:]]
    signs = np.array([(-1) ** j for j in range(d)])
    for table in (ent, sub, signs):
        table.setflags(write=False)
    return ent, sub, signs


def compound(v: np.ndarray, k: int) -> np.ndarray:
    """All k x k minors of v, shape (..., n, m) -> (..., C(n,k), C(m,k)).

    Rows and columns of the result follow the lex combination order.  Degree
    d is built from degree d - 1 by Laplace expansion along the first row,
    one gather-multiply-add per expansion term.  The minors take v's dtype
    (the empty minor is its one), so complex and exact `Fraction` object
    arrays work as float64 does.
    """
    *lead, n, m = v.shape
    if k == 0:
        return np.ones((*lead, 1, 1), dtype=v.dtype)
    entries = v.reshape(*lead, n * m)
    minors = entries
    for d in range(2, k + 1):
        ent, sub, signs = _laplace_table(n, m, d)
        acc = np.zeros((*lead, ent.shape[1]), dtype=v.dtype)
        for j in range(d):
            term = entries.take(ent[j], axis=-1)
            term *= minors.take(sub[j], axis=-1)
            if signs[j] > 0:
                acc += term
            else:
                acc -= term
        minors = acc
    return minors.reshape(*lead, len(combos(n, k)), len(combos(m, k)))


def pullback_form(coeffs: np.ndarray, k: int, v: np.ndarray) -> np.ndarray:
    """Pullback of a k-form along the linear map with matrix v.

    v has shape (..., n, m) and maps m-dimensional vectors into the
    n-dimensional space the form lives on; the result is a k-form in m
    dimensions, with coefficients built from k x k minors of v.  Leading
    axes of coeffs (..., C(n,k)) and v broadcast against each other.
    """
    return (coeffs[..., None, :] @ compound(v, k))[..., 0, :]


def frame_coeffs_from_form(u: Form, k: int) -> np.ndarray:
    """Coefficient vector of a kernel k-form over 6-dimensional combinations."""
    out = zero_coeffs(6, k)
    index = _combo_index(6, k)
    for mask, value in u.terms():
        out[index[mask]] = float(value)
    return out


@cache
def kernel_matrix(op: Callable, k: int, k_out: int) -> np.ndarray:
    """Matrix of a linear operator of the six-dimensional kernel from k-forms
    to k_out-forms.

    Row i is the coefficient vector of op applied, in exact mode, to the
    i-th k-blade in lex order.  A frame value u maps to
    u @ kernel_matrix(op, k, k_out).  An operator that vanishes on every
    k-form has the zero matrix, with no columns if k_out is past 6.
    """
    images = [
        op(Form(EXACT, {sum(1 << i for i in c): 1})) for c in combos(6, k)
    ]
    table = np.array([frame_coeffs_from_form(u, k_out) for u in images])
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# the structure tensors as ambient data


@cache
def associative_three_form() -> np.ndarray:
    """Coefficients of phi(x, y, z) = <x cross y, z> over 3-combinations."""
    t = cross_tensor()
    coeffs = zero_coeffs(AMBIENT_DIM, 3)
    for pos, (i, j, k) in enumerate(combos(AMBIENT_DIM, 3)):
        coeffs[pos] = t[i, j, k]
    coeffs.setflags(write=False)
    return coeffs


def omega_ambient(q: np.ndarray) -> np.ndarray:
    return contract_ambient(q, associative_three_form(), 3)


@cache
def _psi_minus_table() -> np.ndarray:
    """(7, 35) matrix of the linear map q -> psi_minus_ambient(q).

    Row l is one third of the derivation action of e_l x . on phi.
    """
    table = endo_act_ambient(cross_matrix(np.eye(AMBIENT_DIM)), associative_three_form(), 3) / 3.0
    table.setflags(write=False)
    return table


def psi_minus_ambient(q: np.ndarray) -> np.ndarray:
    """Ambient 3-form restricting to psi_minus on the tangent space at q.

    The slot insertions of J into the restriction of phi agree with one
    another, so the derivation action of q x . computes three times the
    J-insertion; one third of it restricts to -psi_plus(J ., ., .).  That
    action is linear in q, so it is read off a cached table.
    """
    return q @ _psi_minus_table()


# ---------------------------------------------------------------------------
# frames


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal tangent frame with f_{2i} = q x f_{2i-1}.

    The last pair is generated by the cross product of the first and third
    vectors, which pins the frame to the standard orbit: the structure forms
    restrict to their exact normal forms, not merely to U(3)-equivalent ones.
    `matrix` (7, 6) is built at `point` q.
    """

    matrix: np.ndarray
    point: np.ndarray


def adapted_frame(q: np.ndarray) -> AdaptedFrame:
    """Adapted frame at a point q of shape (7,), seeded by the ambient axes
    on which q is smallest."""
    eye = np.eye(AMBIENT_DIM)
    order = sorted(range(AMBIENT_DIM), key=lambda i: (abs(q[i]), i))
    f1 = normalize(eye[order[0]] - q[order[0]] * q)
    f2 = cross(q, f1)
    # the complement of span(q, f1, f2) is 4-dimensional, so some other
    # axis keeps a projection of norm at least sqrt(1/2) on it
    third = next(
        c for c in order[1:]
        if np.linalg.norm(_orthogonalize(eye[c], (q, f1, f2))) > 0.35
    )
    f3 = normalize(_orthogonalize(eye[third], (q, f1, f2)))
    f4 = cross(q, f3)
    f5 = cross(f1, f3)
    f6 = cross(q, f5)
    return AdaptedFrame(np.stack([f1, f2, f3, f4, f5, f6], axis=-1), q)


#: where an operator evaluates: a point, or the adapted frame built there
Where = np.ndarray | AdaptedFrame


def _frame_at(p: Where) -> AdaptedFrame:
    """The frame an operator was given, or the adapted frame at a bare point."""
    return p if isinstance(p, AdaptedFrame) else adapted_frame(p)


def _orthogonalize(v: np.ndarray, against: Sequence[np.ndarray]) -> np.ndarray:
    for b in against:
        v = v - np.sum(v * b, axis=-1, keepdims=True) * b
    return v


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class FormField:
    """Differential form on the sphere, sampled through an ambient extension.

    `ambient(q)` returns coefficients of a degree-`degree` form on R^7 whose
    restriction to T_q is the field's value; everything off the tangent
    space is irrelevant and projected away, a - q ^ (q -| a), before the
    pullback.  A field is evaluated in batches: q has shape (..., 7) and
    the result (..., C(7, degree)).  Endomorphism fields map q to ambient
    matrices (..., 7, 7), and the functions given to `laplacian` map it to
    (...).
    """

    degree: int
    ambient: Callable[[np.ndarray], np.ndarray]


def omega_field() -> FormField:
    return FormField(2, omega_ambient)


def psi_plus_field() -> FormField:
    phi = associative_three_form()
    return FormField(3, lambda q: np.broadcast_to(phi, (*q.shape[:-1], len(phi))))


def psi_minus_field() -> FormField:
    return FormField(3, psi_minus_ambient)


def require_suite_step(h: float) -> None:
    """Reject h unless h and h/2, where each suite also runs, lie in (MIN_STEP, MAX_STEP)."""
    if not 2 * MIN_STEP < h < MAX_STEP:
        raise ValueError(f"step {h} outside the usable range ({2 * MIN_STEP:g}, {MAX_STEP:g})")


def _check_step(h: float) -> None:
    if not MIN_STEP < h < np.inf:
        raise ValueError(f"step {h} is not finite or is under the cancellation guard {MIN_STEP}")


def _stencil(p: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    """Points normalize(p + t x) at t = h, -h for tangent directions x
    (..., 7), shape (2, ..., 7)."""
    _check_step(h)
    t = np.array([h, -h]).reshape(2, *(1,) * x.ndim)
    return normalize(p + t * x)


def _derivatives(
    field: FormField, p: np.ndarray, x: np.ndarray, basis: np.ndarray, h: float
) -> np.ndarray:
    """Central differences along the great circles normalize(p + t x) of the
    field pulled back along the basis projected to each stencil point,
    shape (..., C(m, degree)).

    At a unit point g, pulling a k-form a back along (1 - g g^T) B is
    pulling a - g ^ (g -| a) back along B, so each value is projected off
    its point and every point shares the one compound of B.  The field is
    called once on the whole stencil.
    """
    gamma = _stencil(p, x, h)
    a = field.ambient(gamma)
    k = field.degree
    if k:
        a = a - wedge_ambient(gamma, 1, contract_ambient(gamma, a, k), k - 1)
    plus, minus = pullback_form(a, k, basis)
    return (plus - minus) / (2.0 * h)


#: fixed generic rotation taking the adapted frame to the basis `ext_d`
#: differentiates along, and its compounds, which send components of k-forms
#: in that basis to frame components (k = 7 is empty: d of a 6-form).  Along
#: the frame itself most partials of the structure forms vanish identically,
#: and the Gray identities would miss most of the wedge table.
_TURN = np.linalg.qr(standard_normals(random.Random(6), 36).reshape(6, 6))[0]
_TURN_BACK = tuple(compound(_TURN.T, k) for k in range(8))


def ext_d(field: FormField, p: Where, h: float) -> np.ndarray:
    """Exterior derivative at p by central differences, second order in h,
    in frame components (lex order).

    The antisymmetrized covariant derivative sum_j b^j ^ nabla_{b_j}, over
    the columns b_j of B = (adapted frame at p) @ `_TURN`, turned back to
    the frame.  This is d in the coordinates u of u -> normalize(p + B u):
    p is orthogonal to B, so at the stencil point u = +-h e_j the
    differential of that map is the projected B divided by sqrt(1 + h^2),
    and a k-form pulls back along it with the factor (1 + h^2)^(-k/2).  The
    field is evaluated on the whole 12-point stencil at once and pulled
    back through the one compound of B.  A caller that needs fourth order
    extrapolates the values at h and h/2.
    """
    frame = _frame_at(p)
    basis = frame.matrix @ _TURN
    k = field.degree
    d = _derivatives(field, frame.point, basis.T, basis, h) / (1.0 + h * h) ** (k / 2)
    # sum_j du^j ^ partial_j, through the wedge table of 1-forms with k-forms
    return np.einsum("jp,jpo->o", d, _wedge_table(6, 1, k)) @ _TURN_BACK[k + 1]


def covariant_d(field: FormField, x: np.ndarray, p: Where, h: float) -> np.ndarray:
    """Levi-Civita derivative of a form field along tangent x, at p.

    Differentiates the frame components of the field, in the transported
    frame, along the great-circle curve normalize(p + t x).
    """
    frame = _frame_at(p)
    return _derivatives(field, frame.point, x, frame.matrix, h)


def divergence_endo(s: Callable[[np.ndarray], np.ndarray], p: Where, h: float) -> np.ndarray:
    """Divergence -sum_i (nabla_{f_i} S)(f_i) of an endomorphism field.

    Returned in frame components at p.  S is called once, on the curve
    points of all six frame directions, and read in the frame projected to
    each of them, which is parallel along its great circle at t = 0.
    """
    frame = _frame_at(p)
    f = frame.matrix
    gamma = _stencil(frame.point, f.T, h)
    v = f - gamma[..., :, None] * (gamma @ f)[..., None, :]
    plus, minus = np.swapaxes(v, -1, -2) @ s(gamma) @ v
    # column i of the derivative along f_i
    return -np.einsum("iai->a", plus - minus) / (2.0 * h)


def codifferential(field: FormField, p: Where, h: float) -> np.ndarray:
    """Codifferential of a form field at p, in frame components.

    delta beta = -sum_j f_j -| nabla_{f_j} beta over the adapted frame f_j,
    which on the even-dimensional sphere equals -*d*: the covariant
    derivatives of `covariant_d` along the six frame vectors, from one field
    call on the 12-point stencil, contracted into their directions.
    """
    frame = _frame_at(p)
    d = _derivatives(field, frame.point, frame.matrix.T, frame.matrix, h)
    return -np.einsum("jp,jpo->o", d, _contract_table(6, field.degree))


def laplacian(fn: Callable[[np.ndarray], np.ndarray], p: Where, h: float) -> float:
    """Laplace operator on functions, positive on first spherical harmonics.

    Second differences along the great circles through p in the six frame
    directions; the curves normalize(p + t f_i) are geodesics at t = 0.  fn
    is called once on the twelve curve points.
    """
    frame = _frame_at(p)
    plus, minus = fn(_stencil(frame.point, frame.matrix.T, h))
    return -float(np.sum(plus - 2.0 * fn(frame.point) + minus)) / (h * h)
