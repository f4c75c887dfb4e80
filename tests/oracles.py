"""Independent reference implementations used to cross-check the kernel.

Everything here works on an explicit index-tuple representation and goes
through permutation sums, not through the bitmask path the package uses, so
agreement is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from su3forms.forms import DIM, Form, blade_indices


def perm_sign(perm) -> int:
    """Sign of a permutation by explicit inversion count."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Sign of sorting the concatenation of two ascending tuples, 0 on overlap."""
    if set(left) & set(right):
        return 0
    return perm_sign(left + right)


def form_to_tuples(a: Form) -> dict[tuple[int, ...], object]:
    return {blade_indices(mask): value for mask, value in a.terms()}


def wedge_oracle(a: Form, b: Form) -> dict[tuple[int, ...], object]:
    """Wedge product computed by merge-sorting index tuples."""
    out: dict[tuple[int, ...], object] = {}
    for ia, va in form_to_tuples(a).items():
        for ib, vb in form_to_tuples(b).items():
            sign = merge_sign(ia, ib)
            if sign:
                key = tuple(sorted(ia + ib))
                out[key] = out.get(key, 0) + sign * va * vb
    return {k: v for k, v in out.items() if v}


def evaluate_oracle(a: Form, vectors: list[list]) -> object:
    """a(v_1, ..., v_k) as a sum over permutations of index assignments.

    For a blade e_{i_1 < ... < i_k} the value on (v_1, ..., v_k) is
    det of the k x k matrix [v_r[i_s]].
    """
    total = Fraction(0) if a.mode == "exact" else 0.0
    for idx, coeff in form_to_tuples(a).items():
        k = len(idx)
        if k != len(vectors):
            continue
        det = Fraction(0) if a.mode == "exact" else 0.0
        for perm in permutations(range(k)):
            term = perm_sign(perm)
            for r in range(k):
                term = term * vectors[r][idx[perm[r]]]
            det += term
        total += coeff * det
    return total


def det_oracle(matrix) -> object:
    """Determinant as the full permutation sum (720 terms for 6x6)."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        term = perm_sign(perm)
        for i in range(n):
            term = term * matrix[i][perm[i]]
        total = total + term
    return total


def star_defining_residual(t: Form, star_t: Form) -> Form:
    """u ^ *t - <u, t> e123456 accumulated over degree-matched blades u.

    The defining property of the Hodge star pairs t against forms u of the
    same degree; star_t of complementary degree is determined by requiring
    this residual to vanish for every such blade (orthonormal blade metric,
    e123456 orientation).
    """
    from su3forms.forms import VOLUME_MASK, blades_of_degree, inner, wedge

    degree = t.degree
    if degree is None:
        return Form.zero(t.mode)
    worst = Form.zero(t.mode)
    for mask in blades_of_degree(degree):
        u = Form.blade(mask, t.mode)
        lhs = wedge(u, star_t)
        rhs = Form(t.mode, {VOLUME_MASK: inner(u, t)})
        diff = lhs - rhs
        if diff.max_norm() > worst.max_norm():
            worst = diff
    return worst


def matmul_oracle(a, b) -> list[list]:
    """Product of two matrices given as row lists, as the textbook nested sum."""
    inner_dim = len(b)
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner_dim)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def entrywise_oracle(op, *matrices) -> list[list]:
    """op applied entry by entry to matrices of one shape given as row lists."""
    return [[op(*entries) for entries in zip(*rows)] for rows in zip(*matrices)]


def transpose_oracle(a) -> list[list]:
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def trace_oracle(a) -> object:
    return sum(a[i][i] for i in range(len(a)))


def matvec_oracle(a, x) -> list:
    """Matrix times column vector as the textbook nested sum."""
    return [sum(a[i][k] * x[k] for k in range(len(x))) for i in range(len(a))]


def divergence_endo_oracle(s, p, h: float, frame):
    """-sum_i (nabla_{f_i} S)(f_i), one direction and one point at a time.

    For each frame vector f_i of p: the central difference of v^T S v along
    the curve normalize(p +- h f_i), column i, where v is the frame of p
    projected to the tangent space at each curve point.
    """
    import numpy as np

    out = np.zeros(6)
    for i in range(6):
        samples = []
        for t in (h, -h):
            gamma = p + t * frame[:, i]
            gamma = gamma / np.linalg.norm(gamma)
            v = frame - np.outer(gamma, gamma @ frame)
            samples.append(v.T @ s(gamma) @ v)
        out -= (samples[0] - samples[1])[:, i] / (2.0 * h)
    return out


def sym_minus_basis_oracle() -> list[list[list[Fraction]]]:
    """Rows of the Sym^- basis built by projection and row reduction.

    Each of the 21 symmetric generators E_ik + E_ki (i <= k) is projected
    by A -> (A + JAJ)/2, with J e_{2i-1} = e_{2i}; each flattened image is
    reduced against the earlier pivots, dropped if it vanishes and otherwise
    scaled to a leading 1, and the rows are ordered by pivot.
    """
    n = 6
    j = [[Fraction(0)] * n for _ in range(n)]
    for p in range(0, n, 2):
        j[p + 1][p] = Fraction(1)
        j[p][p + 1] = Fraction(-1)
    pivots: list[tuple[int, list[Fraction]]] = []
    for i in range(n):
        for k in range(i, n):
            a = [[Fraction(0)] * n for _ in range(n)]
            a[i][k] += 1
            a[k][i] += 1
            jaj = matmul_oracle(matmul_oracle(j, a), j)
            v = [(a[r][c] + jaj[r][c]) / 2 for r in range(n) for c in range(n)]
            for lead, basis_vec in pivots:
                if v[lead]:
                    c = v[lead]
                    v = [x - c * y for x, y in zip(v, basis_vec)]
            lead = next((idx for idx, x in enumerate(v) if x), None)
            if lead is not None:
                v = [x / v[lead] for x in v]
                pivots.append((lead, v))
    pivots.sort(key=lambda item: item[0])
    return [[v[r * n : (r + 1) * n] for r in range(n)] for _, v in pivots]
