"""Exact dense linear algebra over the Gaussian rationals.

Works on plain nested lists of GaussianRational only.  One Gauss-Jordan
elimination (`rref`) with exact pivots; nullspace, solve and invert all
read their answers off the reduced row echelon form.
"""

from __future__ import annotations

from .gaussian import ZERO, ONE


def mat_mul(a, b):
    """Product, skipping zero entries of both factors."""
    supports = [[j for j, y in enumerate(r) if not y.is_zero()] for r in b]
    out = [[ZERO] * len(b[0]) for _ in a]
    for arow, orow in zip(a, out):
        for x, brow, support in zip(arow, b, supports):
            if x.is_zero():
                continue
            for j in support:
                orow[j] = orow[j] + x * brow[j]
    return out


def mat_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_conj_transpose(m):
    rows, cols = len(m), len(m[0])
    return [[m[i][j].conjugate() for i in range(rows)] for j in range(cols)]


def rref(m):
    """In-place reduced row echelon form; returns the pivot column indices.

    Each pivot row is scaled to a leading one, then its column is cleared
    above and below, touching only the pivot row's nonzero columns.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    for piv_c in range(n_cols):
        piv_r = len(pivots)
        for i_row in range(piv_r, n_rows):
            if not m[i_row][piv_c].is_zero():
                break
        else:
            continue
        m[piv_r], m[i_row] = m[i_row], m[piv_r]
        prow = m[piv_r]
        inv = ONE / prow[piv_c]
        support = [c for c in range(piv_c, n_cols) if not prow[c].is_zero()]
        for c in support:
            prow[c] = prow[c] * inv
        for r in range(n_rows):
            fr = m[r][piv_c]
            if r == piv_r or fr.is_zero():
                continue
            row = m[r]
            for c in support:
                row[c] = row[c] - prow[c] * fr
        pivots.append(piv_c)
    return pivots


def nullspace(m):
    """Basis of the right null space, as a list of column vectors: one per
    free column, with 1 there and 0 in every other free column."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    work = [row[:] for row in m]
    pivots = rref(work)
    basis = []
    for fc in [c for c in range(n_cols) if c not in pivots]:
        vec = [ZERO] * n_cols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def solve(m, rhs):
    """Solve m x = rhs exactly; rhs is a vector.  Returns the solution whose
    free unknowns are all 0, or raises ValueError if inconsistent."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    work = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    pivots = rref(work)
    if n_cols in pivots:
        raise ValueError("inconsistent linear system")
    x = [ZERO] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = work[r][n_cols]
    return x


def invert(m):
    """Exact inverse of a square matrix: the right half of rref([m | I])."""
    n = len(m)
    work = [row[:] + e for row, e in zip(m, mat_identity(n))]
    if rref(work)[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in work]
