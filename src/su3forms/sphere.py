"""Numerical model of the round unit six-sphere inside R^7.

The nearly Kahler structure comes from the seven-dimensional cross product:
J_q X = q x X on the tangent space at q, omega_q = q -| phi for the
associative 3-form phi(x, y, z) = <x cross y, z>, and psi_plus is the
restriction of phi itself.  Differential operators (exterior derivative,
Levi-Civita derivative, codifferential, Laplacian) are second-order central
finite differences in a projection chart recentered at each evaluation point.

Ambient exterior algebra on R^7 is carried as numpy coefficient vectors over
index combinations in lexicographic order, with product and contraction
tables precomputed from the same transposition-parity rules as the exact
kernel.  Pointwise values are converted to the 6-dimensional kernel's float
forms in an adapted frame, where the structure tensors take their standard
normal forms exactly, so every algebraic operator of `structure` applies
verbatim at each point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from su3forms.forms import FLOAT, Form, wedge_sign
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
    """Matrix of X -> q x X."""
    return np.einsum("ijk,i->kj", cross_tensor(), q)


def normalize(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def random_points(seed: int, n: int) -> np.ndarray:
    """(n, 7) array of seeded uniform points on the unit sphere."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, AMBIENT_DIM))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# ambient exterior algebra (numpy coefficient vectors over lex combinations)


@cache
def combos(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(n), k))


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


@cache
def _endo_table(n: int, k: int) -> np.ndarray:
    """Dense tensor e[i, r, a, b]: (A . u)_b = sum e[i,r,a,b] A[i,r] u_a.

    Same derivation action as the kernel's `endo_act`:
    A . u = -sum_i (A^T e_i)^flat ^ (e_i -| u).
    """
    ca = combos(n, k)
    cb = _combo_index(n, k)
    table = np.zeros((n, n, len(ca), len(ca)))
    for ia, ta in enumerate(ca):
        ma = sum(1 << i for i in ta)
        for i in ta:
            s1 = _contraction_sign(i, ma)
            inner_mask = ma ^ (1 << i)
            for r in range(n):
                if inner_mask & (1 << r):
                    continue
                s2 = wedge_sign(1 << r, inner_mask)
                table[i, r, ia, cb[inner_mask | (1 << r)]] -= s1 * s2
    table.setflags(write=False)
    return table


def wedge_ambient(a: np.ndarray, ka: int, b: np.ndarray, kb: int) -> np.ndarray:
    return np.einsum("abc,a,b->c", _wedge_table(AMBIENT_DIM, ka, kb), a, b)


def contract_ambient(x: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    return np.einsum("iab,i,a->b", _contract_table(AMBIENT_DIM, k), x, a)


def endo_act_ambient(m: np.ndarray, a: np.ndarray, k: int) -> np.ndarray:
    return np.einsum("irab,ir,a->b", _endo_table(AMBIENT_DIM, k), m, a)


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
    one gather-multiply-add per expansion term.
    """
    *lead, n, m = v.shape
    if k == 0:
        return np.ones((*lead, 1, 1))
    entries = v.reshape(*lead, n * m)
    minors = entries
    for d in range(2, k + 1):
        ent, sub, signs = _laplace_table(n, m, d)
        acc = np.zeros((*lead, ent.shape[1]))
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


def form_from_frame_coeffs(coeffs: np.ndarray, k: int) -> Form:
    """Kernel float Form from a 6-dimensional coefficient vector."""
    six = combos(6, k)
    return Form(
        FLOAT,
        {
            sum(1 << i for i in six[pos]): float(c)
            for pos, c in enumerate(coeffs)
        },
    )


def frame_coeffs_from_form(u: Form, k: int) -> np.ndarray:
    out = zero_coeffs(6, k)
    index = _combo_index(6, k)
    for mask, value in u.terms():
        out[index[mask]] = float(value)
    return out


def frame_vector_form(x: np.ndarray) -> Form:
    """Kernel 1-form from 6 frame components."""
    return Form.vector([float(c) for c in x], FLOAT)


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

    Row l is one third of the derivation action of A = e_l x . on phi,
    A . phi = -sum_i (A^T e_i)^flat ^ (e_i -| phi), with A^T e_i = e_i x e_l.
    """
    phi = associative_three_form()
    contractions = np.einsum("iac,a->ic", _contract_table(AMBIENT_DIM, 3), phi)
    wedges = np.einsum("rcb,ic->irb", _wedge_table(AMBIENT_DIM, 1, 2), contractions)
    table = -np.einsum("lri,irb->lb", cross_tensor(), wedges) / 3.0
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
# charts and frames


@dataclass(frozen=True)
class Chart:
    """Projection chart centered at a point p on the sphere.

    from_chart(u) = normalize(p + B u) with B an orthonormal tangent basis;
    to_chart is its exact inverse on the open hemisphere around p.
    from_chart and differential take chart points u of shape (..., 6).
    """

    p: np.ndarray
    basis: np.ndarray

    @classmethod
    def at(cls, p: np.ndarray) -> "Chart":
        v = p.copy()
        sign = 1.0 if v[0] >= 0 else -1.0
        v[0] += sign
        h = np.eye(AMBIENT_DIM) - 2.0 * np.outer(v, v) / (v @ v)
        return cls(p, h[:, 1:])

    def from_chart(self, u: np.ndarray) -> np.ndarray:
        w = self.p + u @ self.basis.T
        return w / np.linalg.norm(w, axis=-1, keepdims=True)

    def to_chart(self, q: np.ndarray) -> np.ndarray:
        return (self.basis.T @ q) / (self.p @ q)

    def differential(self, u: np.ndarray) -> np.ndarray:
        """d(from_chart) at u, (..., 7, 6) matrices of tangent columns."""
        w = self.p + u @ self.basis.T
        r = np.linalg.norm(w, axis=-1, keepdims=True)
        q = w / r
        normal = q[..., :, None] * (q @ self.basis)[..., None, :]
        return (self.basis - normal) / r[..., None]


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal tangent frame with f_{2i} = q x f_{2i-1}.

    The last pair is generated by the cross product of the first and third
    vectors, which pins the frame to the standard orbit: the structure forms
    restrict to their exact normal forms, not merely to U(3)-equivalent ones.
    `selection` records which ambient axes seeded the construction so a
    neighboring point can reuse them (keeping the frame field smooth across
    a finite-difference stencil).
    """

    matrix: np.ndarray
    selection: tuple[int, int]

    @property
    def vectors(self) -> np.ndarray:
        return self.matrix.T


def adapted_frame(q: np.ndarray, selection: tuple[int, int] | None = None) -> AdaptedFrame:
    order = sorted(range(AMBIENT_DIM), key=lambda i: (abs(q[i]), i))
    if selection is None:
        first = order[0]
    else:
        first = selection[0]
    f1 = normalize(np.eye(AMBIENT_DIM)[first] - q[first] * q)
    f2 = cross(q, f1)
    third = None
    if selection is not None:
        third = selection[1]
        w = _orthogonalize(np.eye(AMBIENT_DIM)[third], (q, f1, f2))
    else:
        for cand in order:
            if cand == first:
                continue
            w = _orthogonalize(np.eye(AMBIENT_DIM)[cand], (q, f1, f2))
            if np.linalg.norm(w) > 0.35:
                third = cand
                break
        if third is None:  # pragma: no cover - impossible by dimension count
            raise RuntimeError("no usable third frame axis")
    f3 = normalize(w)
    f4 = cross(q, f3)
    f5 = cross(f1, f3)
    f6 = cross(q, f5)
    return AdaptedFrame(np.column_stack([f1, f2, f3, f4, f5, f6]), (first, third))


def _orthogonalize(v: np.ndarray, against: Sequence[np.ndarray]) -> np.ndarray:
    out = v.astype(float)
    for b in against:
        out = out - (out @ b) * b
    return out


@dataclass(frozen=True)
class StructureAt:
    """Pointwise structure data in an adapted frame."""

    frame: AdaptedFrame
    omega: Form
    psi_plus: Form
    psi_minus: Form
    j_frame: np.ndarray


def structure_at(q: np.ndarray) -> StructureAt:
    if abs(np.linalg.norm(q) - 1.0) > 1e-12:
        raise ValueError("structure_at needs a unit vector")
    frame = adapted_frame(q)
    f = frame.matrix
    om = form_from_frame_coeffs(pullback_form(omega_ambient(q), 2, f), 2)
    pp = form_from_frame_coeffs(pullback_form(associative_three_form(), 3, f), 3)
    pm = form_from_frame_coeffs(pullback_form(psi_minus_ambient(q), 3, f), 3)
    j_frame = f.T @ cross_matrix(q) @ f
    return StructureAt(frame, om, pp, pm, j_frame)


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class FormField:
    """Differential form on the sphere, sampled through an ambient extension.

    `ambient(q)` returns coefficients of a degree-`degree` form on R^7 whose
    restriction to T_q is the field's value; everything off the tangent
    space is irrelevant and discarded by the chart and frame pullbacks.
    """

    degree: int
    ambient: Callable[[np.ndarray], np.ndarray]


def omega_field() -> FormField:
    return FormField(2, omega_ambient)


def psi_plus_field() -> FormField:
    phi = associative_three_form()
    return FormField(3, lambda q: phi)


def psi_minus_field() -> FormField:
    return FormField(3, psi_minus_ambient)


def _check_step(h: float) -> None:
    if not h > MIN_STEP:
        raise ValueError(f"step {h} under the cancellation guard {MIN_STEP}")


def _frame_change(chart: Chart, frame: AdaptedFrame, k: int) -> np.ndarray:
    """Matrix sending chart components of a k-form to frame components."""
    return compound(chart.basis.T @ frame.matrix, k)


#: finite-difference taps (multiple of h, weight) and the weights' divisor in
#: units of h: central differences, and their Richardson extrapolation
_CENTRAL = (((1.0, 1.0), (-1.0, -1.0)), 2.0)
_RICHARDSON = (((1.0, 8.0), (-1.0, -8.0), (2.0, -1.0), (-2.0, 1.0)), 12.0)


def _stencil(h: float, richardson: bool) -> tuple[np.ndarray, np.ndarray]:
    """Chart offsets (S, 6) and the (6, S) weights of the partial derivatives."""
    taps, divisor = _RICHARDSON if richardson else _CENTRAL
    eye = np.eye(6)
    offsets = np.concatenate([t * h * eye for t, _ in taps])
    weights = np.concatenate([w * eye for _, w in taps], axis=1) / (divisor * h)
    return offsets, weights


def ext_d(field: FormField, p: np.ndarray, h: float, richardson: bool = False) -> Form:
    """Exterior derivative at p by central differences, in frame components.

    Differentiates the chart components of the field in the projection chart
    at p and assembles sum_j du^j ^ d/du_j; the result is converted to the
    adapted frame at p.  Second order in h, or fourth with `richardson`.
    The whole stencil is pulled back to the chart in one batched pass.
    """
    _check_step(h)
    k = field.degree
    chart = Chart.at(p)
    frame = adapted_frame(p)
    offsets, weights = _stencil(h, richardson)
    ambient = np.stack([field.ambient(q) for q in chart.from_chart(offsets)])
    partials = weights @ pullback_form(ambient, k, chart.differential(offsets))
    # sum_j du^j ^ partial_j, through the wedge table of 1-forms with k-forms
    d_chart = np.einsum("jp,jpo->o", partials, _wedge_table(6, 1, k))
    return form_from_frame_coeffs(d_chart @ _frame_change(chart, frame, k + 1), k + 1)


def _transported_frame(p: np.ndarray, x: np.ndarray, t: float, f: np.ndarray):
    """Frame extension that is parallel at t = 0 along normalize(p + t x)."""
    gamma = normalize(p + t * x)
    v = f - np.outer(gamma, gamma @ f)
    return gamma, v


def covariant_d(field: FormField, x: np.ndarray, p: np.ndarray, h: float) -> Form:
    """Levi-Civita derivative of a form field along tangent x, at p.

    Extends the frame vectors by tangential projection (a parallel extension
    at the center point for the round metric) and differentiates the scalar
    frame components along the great-circle curve normalize(p + t x).
    """
    _check_step(h)
    f = adapted_frame(p).matrix

    def sample(t: float) -> np.ndarray:
        gamma, v = _transported_frame(p, x, t, f)
        return pullback_form(field.ambient(gamma), field.degree, v)

    return form_from_frame_coeffs(
        (sample(h) - sample(-h)) / (2.0 * h), field.degree
    )


def covariant_d_endo(
    s: Callable[[np.ndarray], np.ndarray], x: np.ndarray, p: np.ndarray, h: float
) -> np.ndarray:
    """Frame matrix of the Levi-Civita derivative of an endomorphism field."""
    _check_step(h)
    f = adapted_frame(p).matrix

    def sample(t: float) -> np.ndarray:
        gamma, v = _transported_frame(p, x, t, f)
        return v.T @ s(gamma) @ v

    return (sample(h) - sample(-h)) / (2.0 * h)


def divergence_endo(
    s: Callable[[np.ndarray], np.ndarray], p: np.ndarray, h: float
) -> np.ndarray:
    """Divergence -sum_i (nabla_{f_i} S)(f_i) of an endomorphism field.

    Returned in frame components at p.
    """
    f = adapted_frame(p).matrix
    out = np.zeros(6)
    for i in range(6):
        out -= covariant_d_endo(s, f[:, i], p, h)[:, i]
    return out


def star_field(field: FormField, center: np.ndarray) -> FormField:
    """Pointwise Hodge star of a field, as a new field.

    Restricts to the adapted frame near `center` (with the frame selection
    frozen there, so the construction is smooth across a stencil), applies
    the kernel's exact star, and extends back to an ambient form.
    """
    from su3forms.forms import hodge_star

    selection = adapted_frame(center).selection
    k = field.degree

    def ambient(q: np.ndarray) -> np.ndarray:
        f = adapted_frame(q, selection).matrix
        restricted = form_from_frame_coeffs(pullback_form(field.ambient(q), k, f), k)
        starred = frame_coeffs_from_form(hodge_star(restricted), 6 - k)
        return pullback_form(starred, 6 - k, f.T)

    return FormField(6 - k, ambient)


def codifferential(field: FormField, p: np.ndarray, h: float) -> Form:
    """Codifferential -*d* of a form field at p, in frame components."""
    from su3forms.forms import hodge_star

    du = ext_d(star_field(field, p), p, h)
    return -hodge_star(du)


def laplacian(fn: Callable[[np.ndarray], float], p: np.ndarray, h: float) -> float:
    """Laplace operator on functions, positive on first spherical harmonics.

    Second differences along six orthogonal great circles through p; the
    curves normalize(p + t b) are geodesics at t = 0.
    """
    _check_step(h)
    basis = Chart.at(p).basis
    total = 0.0
    center = fn(p)
    for i in range(6):
        b = basis[:, i]
        total -= (
            fn(normalize(p + h * b)) - 2.0 * center + fn(normalize(p - h * b))
        ) / (h * h)
    return total
