"""Exact dense linear algebra over the Gaussian rationals.

Works on plain nested lists of GaussianRational only.  One product kernel
(`product_sum`, on the integer sparse form of each factor) and one
Gauss-Jordan elimination (`rref`) with exact pivots; nullspace, solve and
invert all read their answers off the reduced row echelon form.  Both sum
on integers and reduce each result entry once.
"""

from __future__ import annotations

from math import gcd

from .gaussian import ZERO, ONE, _reduced


def sparse_rows(m):
    """The nonzero entries of each row of m as (column, a, b, d), one tuple
    for each entry (a + b*i) / d: the form product_sum multiplies."""
    return [[(j, x._a, x._b, x._d) for j, x in enumerate(row) if x._a or x._b]
            for row in m]


def product_sum(pairs, n_rows, n_cols):
    """The n_rows x n_cols sum of the products A B over pairs (A, B) of
    sparse_rows forms; only nonzero entries of both factors are visited.

    Each entry is summed on integers, a numerator pair over a running
    denominator: a term whose denominator divides it is scaled up and added,
    any other brings the sum to the lcm of the two.  The entry is reduced
    once, at the end.
    """
    out = []
    for i in range(n_rows):
        acc = {}
        for a, b in pairs:
            for k, xa, xb, xd in a[i]:
                for j, c, f, e in b[k]:
                    d = xd * e
                    s = acc.get(j)
                    if s is None:
                        acc[j] = [xa * c - xb * f, xa * f + xb * c, d]
                        continue
                    D = s[2]
                    if D % d:
                        g = gcd(D, d)
                        u, v = d // g, D // g
                        s[0] = s[0] * u + (xa * c - xb * f) * v
                        s[1] = s[1] * u + (xa * f + xb * c) * v
                        s[2] = D * u
                    else:
                        v = D // d
                        s[0] += (xa * c - xb * f) * v
                        s[1] += (xa * f + xb * c) * v
        row = [ZERO] * n_cols
        for j, (re, im, d) in acc.items():
            row[j] = _reduced(re, im, d)
        out.append(row)
    return out


def mat_mul(a, b):
    """Product of two matrices, one product_sum."""
    return product_sum([(sparse_rows(a), sparse_rows(b))], len(a), len(b[0]))


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
        inv = ONE / m[piv_r][piv_c]
        m[piv_r] = prow = [x if x.is_zero() else x * inv for x in m[piv_r]]
        support = sparse_rows([prow])[0]
        for r in range(n_rows):
            f = m[r][piv_c]
            if r == piv_r or f.is_zero():
                continue
            # row - f prow on integers, each entry reduced once
            row, fa, fb, fd = m[r], f._a, f._b, f._d
            for c, pa, pb, pd in support:
                x = row[c]
                xd, e = x._d, pd * fd
                row[c] = _reduced(x._a * e - (pa * fa - pb * fb) * xd,
                                  x._b * e - (pa * fb + pb * fa) * xd, xd * e)
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
