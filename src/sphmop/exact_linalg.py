"""Exact dense linear algebra over the Gaussian rationals.

Works on plain nested lists of GaussianRational.  Gaussian elimination with
exact pivots; no scaling concerns since there is no round-off.
"""

from __future__ import annotations

from .gaussian import ZERO, ONE


def mat_copy(m):
    return [row[:] for row in m]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[ZERO] * cols for _ in range(rows)]
    for i in range(rows):
        for t in range(inner):
            x = a[i][t]
            if x.is_zero():
                continue
            brow = b[t]
            orow = out[i]
            for j in range(cols):
                orow[j] = orow[j] + x * brow[j]
    return out

def mat_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_conj_transpose(m):
    rows, cols = len(m), len(m[0])
    return [[m[i][j].conjugate() for i in range(rows)] for j in range(cols)]


def row_echelon(m):
    """In-place row echelon form; returns the list of pivot column indices."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    piv_r = 0
    for piv_c in range(n_cols):
        for i_row in range(piv_r, n_rows):
            if not m[i_row][piv_c].is_zero():
                break
        else:
            continue
        if i_row != piv_r:
            m[piv_r], m[i_row] = m[i_row], m[piv_r]
        fp = m[piv_r][piv_c]
        for r in range(piv_r + 1, n_rows):
            fr = m[r][piv_c]
            if fr.is_zero():
                continue
            factor = fr / fp
            for c in range(piv_c, n_cols):
                m[r][c] = m[r][c] - m[piv_r][c] * factor
        pivots.append(piv_c)
        piv_r += 1
    return pivots


def rank(m):
    return len(row_echelon(mat_copy(m)))


def nullspace(m):
    """Basis of the right null space, as a list of column vectors."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    work = mat_copy(m)
    pivots = row_echelon(work)
    free_cols = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * n_cols
        vec[fc] = ONE
        # back-substitute through the pivot rows
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = ZERO
            for c in range(pc + 1, n_cols):
                s = s + work[r][c] * vec[c]
            vec[pc] = -s / work[r][pc]
        basis.append(vec)
    return basis


def solve(m, rhs):
    """Solve m x = rhs exactly; rhs is a vector.  Returns one solution or
    raises ValueError if inconsistent."""
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    work = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    pivots = row_echelon(work)
    if n_cols in pivots:
        raise ValueError("inconsistent linear system")
    x = [ZERO] * n_cols
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        s = work[r][n_cols]
        for c in range(pc + 1, n_cols):
            s = s - work[r][c] * x[c]
        x[pc] = s / work[r][pc]
    return x


def invert(m):
    """Exact inverse of a square matrix by Gauss-Jordan elimination."""
    n = len(m)
    work = [row[:] + mat_identity(n)[i] for i, row in enumerate(m)]
    piv_r = 0
    for piv_c in range(n):
        for i_row in range(piv_r, n):
            if not work[i_row][piv_c].is_zero():
                break
        else:
            raise ValueError("matrix is singular")
        if i_row != piv_r:
            work[piv_r], work[i_row] = work[i_row], work[piv_r]
        fp = work[piv_r][piv_c]
        work[piv_r] = [x / fp for x in work[piv_r]]
        for r in range(n):
            if r == piv_r:
                continue
            fr = work[r][piv_c]
            if fr.is_zero():
                continue
            work[r] = [x - y * fr for x, y in zip(work[r], work[piv_r])]
        piv_r += 1
    return [row[n:] for row in work]
