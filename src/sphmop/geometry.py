"""Floating-point group layer: the double cover SO(4) -> SO(3) x SO(3), the
representation pi_ell of SO(3), and numeric reconstruction of the matrix
spherical functions on the group.

pi_ell(k) is read off the unit quaternion of k: the quaternion gives the
2 x 2 matrix pi_1(k), and pi_ell(k) is its ell-th symmetric power.  numpy
is the only dependency.

Everything here is double precision; tolerances are 1e-9 for single
operations and 1e-7 for composites, on unit-scale matrices.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import comb, isfinite, sqrt
from operator import mul
from typing import NamedTuple

import numpy as np

from .family import eval_H

# ordered basis e_K[a] ^ e_L[a] of the second exterior power of R^4
_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_K, _L = np.array(_PAIRS).T

# columns: the orthonormal eigenbasis splitting the exterior square into the
# two 3-dimensional invariant subspaces (self-dual and anti-self-dual); the
# i-th self-dual vector is e_i ^ e_4 plus its Hodge dual
_SQ = 1.0 / np.sqrt(2.0)
_BASIS = _SQ * np.array([
    # v1    v2    v3    u1    u2    u3
    [0.0,  0.0,  1.0,  0.0,  0.0, -1.0],   # e1^e2
    [0.0, -1.0,  0.0,  0.0,  1.0,  0.0],   # e1^e3
    [1.0,  0.0,  0.0,  1.0,  0.0,  0.0],   # e1^e4
    [1.0,  0.0,  0.0, -1.0,  0.0,  0.0],   # e2^e3
    [0.0,  1.0,  0.0,  0.0,  1.0,  0.0],   # e2^e4
    [0.0,  0.0,  1.0,  0.0,  0.0,  1.0],   # e3^e4
])


_TOL = 1e-9   # the single-operation tolerance above


def check_rotation(g, n: int) -> np.ndarray:
    """g as an n x n float array, n = 3 or 4, if it is a rotation within
    _TOL.  The one input gate of this layer: every function taking a
    rotation calls it."""
    try:
        m = np.asarray(g)
    except (TypeError, ValueError):   # ragged
        m = None
    # kinds int, unsigned, float: a bool, a string, an object or an int too
    # large for a float is no number here; a list that mixes booleans with
    # numbers converts to ints, so its entries are read one by one
    if (m is None or m.dtype.kind not in "iuf" or m.shape != (n, n)
            or (not isinstance(g, np.ndarray) and any(
                isinstance(x, (bool, np.bool_))
                for x in np.asarray(g, dtype=object).flat))):
        raise ValueError(f"expected a {n}x{n} nested list of numbers")
    g = m.astype(float, copy=False)
    # the numeric checks run on Python floats: at n <= 4 numpy's dispatch
    # costs more than the arithmetic
    rows = g.tolist()
    if not all(map(isfinite, chain.from_iterable(rows))):
        raise ValueError("matrix has a non-finite entry")
    # max |g^T g - I| over i <= j; `not <=` also rejects a NaN that an
    # overflowing product can leave
    cols = list(zip(*rows))
    for i, ci in enumerate(cols):
        for j in range(i, n):
            if not abs(sum(map(mul, ci, cols[j])) - (i == j)) <= _TOL:
                raise ValueError("matrix is not orthogonal within tolerance")
    if not abs(_det(rows) - 1.0) <= _TOL:
        raise ValueError("determinant is not 1 within tolerance")
    return g


def _det(rows: list) -> float:
    """The determinant of a 3 x 3 or 4 x 4 matrix of floats: by cofactors
    of the first row at n = 3, and at n = 4 by the Laplace expansion in the
    2 x 2 minors of rows (0, 1) times the complementary minors of rows
    (2, 3), with the sign (-1)^(1 + p + q) of columns (p, q)."""
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), \
        (d0, d1, d2, d3) = rows
    return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
            - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
            + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
            + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
            - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
            + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0))


def wedge_cover(g) -> tuple[np.ndarray, np.ndarray]:
    """The double cover map: g in SO(4) to the pair (a, b) in
    SO(3) x SO(3), with kernel {I, -I}.  The action of g on the exterior
    square, in the pair basis, is the 2 x 2 minors of g on rows and columns
    (K, L); _BASIS splits it into a and b."""
    g = check_rotation(g, 4)
    gK, gL = g[_K], g[_L]
    q6 = _BASIS.T @ (gK[:, _K] * gL[:, _L] - gL[:, _K] * gK[:, _L]) @ _BASIS
    if max(np.max(np.abs(q6[:3, 3:])), np.max(np.abs(q6[3:, :3]))) > _TOL:
        raise ValueError("off-diagonal blocks do not vanish; input is not "
                         "a rotation within tolerance")
    return q6[:3, :3].copy(), q6[3:, 3:].copy()


class RepSO3:
    """The (ell+1)-dimensional irreducible representation of SO(3), in the
    basis C(ell, j) x^(ell-j) y^j of degree-ell binary forms; rep_exp
    evaluates it."""

    def __init__(self, ell: int):
        if ell < 0:
            raise ValueError("ell must be nonnegative")
        self.ell = ell


def _quaternion(k: np.ndarray) -> list:
    """The unit quaternion [w, x, y, z] of the rotation k, with w >= 0, by
    Shepperd's method (J. Guidance Control 1 (1978)).

    The entries of k give every product 4 q_a q_b of two components: the
    squares from the trace and the diagonal, the rest from sums and
    differences of opposite off-diagonal entries.  The row of the largest
    square 4 q_i^2 >= 1, divided by 4 |q_i|, is +-q.
    """
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = k.tolist()
    t = k00 + k11 + k22
    wx, wy, wz = k21 - k12, k02 - k20, k10 - k01
    xy, xz, yz = k01 + k10, k02 + k20, k12 + k21
    table = ((1.0 + t, wx, wy, wz),
             (wx, 1.0 + 2.0 * k00 - t, xy, xz),
             (wy, xy, 1.0 + 2.0 * k11 - t, yz),
             (wz, xz, yz, 1.0 + 2.0 * k22 - t))
    i = max(range(4), key=lambda a: table[a][a])
    scale = 0.5 / sqrt(table[i][i])
    if table[i][0] < 0:
        scale = -scale
    return [x * scale for x in table[i]]


class _SymmetricPower(NamedTuple):
    """The index table of the ell-th symmetric power of a 2 x 2 matrix
    [[a, b], [c, d]] in the basis C(ell, j) x^(ell-j) y^j.

    Column j holds the y-coefficients of (a + c y)^(ell-j) (b + d y)^j,
    entry i scaled by C(ell, j) / C(ell, i): one term
    C(ell-j, s) C(j, t) a^(ell-j-s) c^s b^(j-t) d^t for each s <= ell-j and
    t <= j, landing in row i = s + t.
    """

    index: np.ndarray     # 4 x terms: the positions of the powers of a, b,
                          # c and d in the flat (ell+1) x 4 table of powers
    weights: np.ndarray   # C(ell-j, s) C(j, t) C(ell, j) / C(ell, i)
    targets: np.ndarray   # the flat positions 2(i n + j) and 2(i n + j) + 1
                          # of each term's real and imaginary part in the
                          # n x n output viewed as floats


@lru_cache(maxsize=None)
def _symmetric_power(ell: int) -> _SymmetricPower:
    """The _SymmetricPower table of ell, built once per ell."""
    n = ell + 1
    binom = [comb(ell, j) for j in range(n)]
    powers, weights, targets = [], [], []
    for j in range(n):
        for s in range(n - j):
            for t in range(j + 1):
                i = s + t
                powers.append(((ell - j - s) * 4, (j - t) * 4 + 1,
                               s * 4 + 2, t * 4 + 3))
                weights.append(comb(ell - j, s) * comb(j, t) * binom[j]
                               / binom[i])
                targets += [2 * (i * n + j), 2 * (i * n + j) + 1]
    return _SymmetricPower(np.array(powers).T.copy(), np.array(weights),
                           np.array(targets))


def rep_exp(rep: RepSO3, k: np.ndarray) -> np.ndarray:
    """pi_ell(k) from the unit quaternion (w, x, y, z) of k.

    U = [[w - ix, -y + iz], [y + iz, w + ix]] is pi_1(k) in RepSO3's basis:
    it is exp(-r1 Y3 + r2 Y2 - r3 Y1) for the rotation vector r of k, with
    the rotation generators Y1 = -i(e + f)/2, Y2 = -(e - f)/2, Y3 = ih/2
    of the sl(2) triple e, f, h on that basis (the tests build the triple
    and check against that exponential).  Taking w >= 0 lifts k
    as the rotation vector with |r| <= pi does, which fixes the sign of
    pi_ell(k) for odd ell.  pi_ell(k) is the ell-th symmetric power of U in
    the basis C(ell, j) x^(ell-j) y^j, summed term by term from the table
    of _symmetric_power.
    """
    return _power(rep.ell, _su2(check_rotation(k, 3)))


def _su2(k: np.ndarray) -> tuple:
    """The entries (a, b, c, d) of pi_1(k) = [[a, b], [c, d]] as rep_exp
    lifts it, for a rotation k already gated."""
    w, x, y, z = _quaternion(k)
    return complex(w, -x), complex(-y, z), complex(y, z), complex(w, x)


def _power(ell: int, abcd: tuple) -> np.ndarray:
    """The ell-th symmetric power of [[a, b], [c, d]], summed term by term
    from the table of _symmetric_power."""
    n = ell + 1
    sym = _symmetric_power(ell)
    table = np.power(np.array(abcd), np.arange(n)[:, None]).ravel()
    a, b, c, d = sym.index
    terms = sym.weights * table[a] * table[b] * table[c] * table[d]
    return np.bincount(sym.targets, weights=terms.view(float),
                       minlength=2 * n * n).view(complex).reshape(n, n)


def _relative_rep(ell: int, k0: np.ndarray, a: np.ndarray) -> np.ndarray:
    """pi_ell(k0)^-1 pi_ell(a) as one symmetric power: that of U0^H Ua, for
    the lifts U0 of k0 (gated by the caller) and Ua of a (gated here) that
    rep_exp takes.  Each lift is [[p, -conj(q)], [q, conj(p)]], and so is
    U0^H Ua.  rep_exp(k0^T a) would lift the product afresh with w >= 0,
    which for odd ell flips the sign wherever U0^H Ua has w < 0."""
    a0, _, c0, _ = _su2(k0)
    a1, _, c1, _ = _su2(check_rotation(a, 3))
    p = a0.conjugate() * a1 + c0.conjugate() * c1
    q = a0 * c1 - c0 * a1
    return _power(ell, (p, -q.conjugate(), q, p.conjugate()))


def phi_pi(rep: RepSO3, g: np.ndarray) -> np.ndarray:
    """The auxiliary function pi_ell(a(g)) on SO(4)."""
    a, _ = wedge_cover(g)
    return rep_exp(rep, a)


def section_matrix(y: np.ndarray) -> np.ndarray:
    """A rotation carrying (||y||, 0, 0) to y, from two charts: an explicit
    one on y1 >= 0, and for y1 < 0 that chart at the antipode -y composed
    with the rotation by pi about e3, which turns e1 to -e1.  Each chart
    divides by ||y|| + |y1| >= ||y||, so neither loses accuracy near the
    ray y2 = y3 = 0."""
    y = np.asarray(y, dtype=float)
    norm = np.linalg.norm(y)
    if norm < 1e-13:
        return np.eye(3)
    y1, y2, y3 = y
    if y1 < 0:
        return section_matrix(-y) @ np.diag([-1.0, -1.0, 1.0])
    d = norm + y1
    A = np.array([
        [y1, -y2, -y3],
        [y2, norm - y2 * y2 / d, -y2 * y3 / d],
        [y3, -y2 * y3 / d, norm - y3 * y3 / d],
    ]) / norm
    return A


def embed_so3(k: np.ndarray) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = k
    return out


def reconstruct_phi(ell: int, w: int, k: int, g: np.ndarray) -> np.ndarray:
    """Numeric value of the spherical function Phi(g) = H(g) pi(a(g)).

    The coset point is x = g e4 on the 3-sphere; writing x = k0 (y0, u)
    with y0 = (sqrt(1-u^2), 0, 0) and k0 the section rotation, H(g) is the
    conjugate by pi(k0) of the diagonal matrix of the one-variable vector
    H(u), so Phi(g) = pi(k0) diag(H(u)) (pi(k0)^-1 pi(a))."""
    a, _ = wedge_cover(g)   # the one gate on g
    x = np.asarray(g, dtype=float)[:, 3]
    u = min(max(float(x[3]), -1.0), 1.0)
    k0 = section_matrix(x[:3])
    pik0 = rep_exp(RepSO3(ell), k0)
    return (pik0 * np.array(eval_H(ell, w, k, u))) @ _relative_rep(ell, k0, a)


def plane_rotation_14(theta: float) -> np.ndarray:
    """The one-parameter subgroup rotating the (1, 4) coordinate plane;
    its orbit through e4 parameterizes the full meridian u = cos(theta)."""
    g = np.eye(4)
    c, s = np.cos(theta), np.sin(theta)
    g[0, 0] = c
    g[0, 3] = s
    g[3, 0] = -s
    g[3, 3] = c
    return g
