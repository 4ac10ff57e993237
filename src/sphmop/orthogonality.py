"""The matrix weight, exact inner products, Gram matrices, operator
symmetry, LDU decomposition, and commutant analysis.

The measure is (2/pi) sqrt(1-u^2) du on [-1, 1]; its moments are rational,
so inner products are exact finite sums over the weight's constant moment
matrices M_m = integral of u^m W(u) against the measure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt
from typing import NamedTuple

from .gaussian import GaussianRational, ZERO, ONE, I
from .polynomials import Polynomial, MatrixPolynomial, mismatch
from .structure import build_structures
from .family import build_Pw
from . import exact_linalg


def _weight_diagonal(ell: int):
    """The entries c_j (1-u^2)^j of the diagonal middle factor of the
    weight, with c_j the diagonal of U*U."""
    st = build_structures(ell)
    one_minus_u2 = Polynomial([1, 0, -1])
    entries = []
    pw = Polynomial.constant(1)
    for j in range(ell + 1):
        entries.append(pw * st.UstarU[j, j].constant_term())
        pw = pw * one_minus_u2
    return entries


@lru_cache(maxsize=None)
def build_weight(ell: int) -> MatrixPolynomial:
    """The polynomial part W = Psi* diag(c_j (1-u^2)^j) Psi of the weight,
    with the constants c_j from the diagonal matrix U*U; it is Hermitian as
    a polynomial matrix.  The scalar prefactor (2/pi) sqrt(1-u^2) is
    carried by the moments (weighted_image)."""
    Psi = build_Pw(ell, 0)
    mid = MatrixPolynomial.diagonal(_weight_diagonal(ell))
    return Psi.conjugate_transpose() * mid * Psi


def chebyshev_moment(m: int) -> Fraction:
    """Exact value of (2/pi) * integral of u^m sqrt(1-u^2) over [-1, 1].

    Zero for odd m; for m = 2t the value is the Catalan number C_t divided
    by 4^t.  The closed form is validated against numeric quadrature in the
    test suite before anything downstream relies on it.
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if m % 2 == 1:
        return Fraction(0)
    t = m // 2
    return Fraction(factorial(2 * t), 4 ** t * factorial(t) * factorial(t + 1))


def weighted_image(members, W: MatrixPolynomial, depth: int):
    """Image a of the members F_a stacks Y_j = sum_c M_{c+j} (F_a)_c in rows
    j*n .. (j+1)*n - 1, j <= depth, with (F_a)_c the coefficient matrices of
    F_a and M_m = sum_k W_k mu_{m+k} the weight's moment matrices, all read
    off one product of the entries of the W_k by the Hankel matrix [mu_{m+k}]
    (mu = chebyshev_moment); then <F_a, G> = integral of G* W F_a =
    sum_j G_j* Y_j whenever deg G <= depth (G is the conjugated argument)."""
    n = W.cols
    tops = [F.degree() or 0 for F in members]
    top = max(tops, default=0)
    Ws = [W.coefficient_matrix(k) for k in range((W.degree() or 0) + 1)]
    M = exact_linalg.mat_mul(
        [[Wk[i][j] for Wk in Ws] for i in range(n) for j in range(n)],
        [[GaussianRational(chebyshev_moment(m + k))
          for m in range(top + depth + 1)] for k in range(len(Ws))])
    # the block Hankel matrix [M_{c+j}], row j*n + i, column block c
    hankel = [[M[i * n + k][c + j] for c in range(top + 1) for k in range(n)]
              for j in range(depth + 1) for i in range(n)]
    return [exact_linalg.mat_mul(
        [row[:(t + 1) * n] for row in hankel],
        [row for c in range(t + 1) for row in F.coefficient_matrix(c)])
        for F, t in zip(members, tops)]


def inner_product_against_image(partners, images):
    """T[a][b] = <F_a, G_b> for the members F_a behind the images and the
    partners G_b, each stacked and conjugated once; ValueError, before any
    product, when a partner is deeper than the images, rather than dropping
    the terms past it."""
    adjoints = []
    for G in partners:
        top = G.degree() or 0
        depth = len(images[0]) // G.rows - 1 if images else top
        if top > depth:
            raise ValueError(f"partner degree {top} > image depth {depth}")
        adjoints.append(exact_linalg.sparse_rows(
            exact_linalg.mat_conj_transpose(
                [row for j in range(top + 1)
                 for row in G.coefficient_matrix(j)])))
    T = []
    for Y in images:
        # read once; each product reads only the rows that Gs's columns reach
        Ys = exact_linalg.sparse_rows(Y)
        T.append([MatrixPolynomial(exact_linalg.product_sum(
            [(Gs, Ys)], len(Gs), len(Y[0]))) for Gs in adjoints])
    return T


def symmetry_check(T):
    """None when T[a][b] = T[b][a]* for all a, b, else a witness naming the
    first pair and entry where it fails.  For T[a][b] = <F_a, op F_b> this is
    <op F_a, F_b> = <F_a, op F_b>, as the weight is Hermitian."""
    return next(filter(None, (
        mismatch(T[a][b], T[b][a].conjugate_transpose(), f"w={a} w'={b} ")
        for a in range(len(T)) for b in range(a + 1))), None)


def ldu_decompose(ell: int):
    """Split the weight build_weight(ell) as L Dg Uf with L lower
    unit-triangular, Uf upper unit-triangular, and Dg diagonal.

    Writing Psi = Delta PsiHat with Delta the constant diagonal of Psi gives
    L = PsiHat*, Uf = PsiHat, and Dg = diag(|Psi_jj|^2 c_j (1-u^2)^j).
    """
    Psi = build_Pw(ell, 0)
    delta = []
    for j in range(ell + 1):
        d = Psi[j, j]
        if not d.is_constant() or d.is_zero():
            raise AssertionError("diagonal of the base package must be a "
                                 "nonzero constant")
        delta.append(d.constant_term())
    Uf = MatrixPolynomial.diagonal([ONE / d for d in delta]) * Psi
    L = Uf.conjugate_transpose()
    Dg = MatrixPolynomial.diagonal(
        [p * (d * d.conjugate())
         for p, d in zip(_weight_diagonal(ell), delta)])
    return L, Dg, Uf


class Reduction(NamedTuple):
    """Block-diagonalizing change of basis for a reducible weight."""

    R: MatrixPolynomial
    block_sizes: tuple


def commutant(W: MatrixPolynomial):
    """Constant matrices commuting with W(u) for every u: one loop cuts all
    of M_n down to the commutant of each coefficient matrix W_m of W in
    turn, leading coefficient first.

    Returns (dimension, basis, reduction) where reduction holds an exact
    block-diagonalizing matrix R when it is two (columns are eigenvectors
    of a self-adjoint non-scalar commutant element), and is None otherwise.
    """
    n = W.rows
    deg = W.degree() or 0

    def unvec(v):
        return [v[i * n:(i + 1) * n] for i in range(n)]

    # A = sum_c x_c B_c commutes with W_m iff sum_c x_c [B_c, W_m] = 0, an
    # n^2 x d system in x (the leading W_m is antidiagonal for the family
    # weights, so the first system already leaves only n unknowns)
    basis = exact_linalg.mat_identity(n * n)
    for m in reversed(range(deg + 1)):
        if len(basis) <= 1:
            break
        Wm = W.coefficient_matrix(m)
        # each bracket B W_m - W_m B is one product_sum of B W_m and (-W_m) B
        plus = exact_linalg.sparse_rows(Wm)
        minus = exact_linalg.sparse_rows([[-x for x in row] for row in Wm])
        brackets = []
        for v in basis:
            B = exact_linalg.sparse_rows(unvec(v))
            brackets.append([x for row in exact_linalg.product_sum(
                [(B, plus), (minus, B)], n, n) for x in row])
        xs = exact_linalg.nullspace([list(row) for row in zip(*brackets)])
        basis = exact_linalg.mat_mul(xs, basis)
    # canonical basis, as one nullspace of the stacked system gives it: the
    # vector of free column f is 1 at f, 0 at the other free columns, and
    # f is its last nonzero entry; so rref the vectors with reversed columns
    vecs = [v[::-1] for v in basis]
    exact_linalg.rref(vecs)
    basis = [unvec(v[::-1]) for v in reversed(vecs)]
    dim = len(basis)
    if dim != 2:
        return dim, basis, None

    # pick a non-scalar element and make it self-adjoint
    def is_scalar(A):
        c = A[0][0]
        return all(A[i][j] == (c if i == j else ZERO)
                   for i in range(n) for j in range(n))

    A = next(a for a in basis if not is_scalar(a))
    Astar = exact_linalg.mat_conj_transpose(A)
    B = [[A[i][j] + Astar[i][j] for j in range(n)] for i in range(n)]
    if is_scalar(B):
        # A is skew-Hermitian plus a scalar, so i(A - A*) is self-adjoint
        B = [[I * (A[i][j] - Astar[i][j]) for j in range(n)]
             for i in range(n)]
    # the commutant is a two-dimensional *-algebra, so B^2 = p B + q I and
    # B's eigenvalues are the roots of t^2 - p t - q; one solve finds
    # (p, q), and raises if the identity does not hold exactly
    B2 = exact_linalg.mat_mul(B, B)
    p, q = exact_linalg.solve(
        [[B[i][j], ONE if i == j else ZERO]
         for i in range(n) for j in range(n)],
        [B2[i][j] for i in range(n) for j in range(n)])
    if p.im or q.im:
        raise ArithmeticError("minimal polynomial is not rational")
    p, q = p.re, q.re
    disc = p * p + 4 * q
    root = Fraction(isqrt(abs(disc.numerator)), isqrt(disc.denominator))
    if disc < 0 or root * root != disc:
        raise ArithmeticError("commutant element has irrational spectrum")
    roots = ((p - root) / 2, (p + root) / 2)
    columns = []
    block_sizes = []
    for t in roots:
        shifted = [[B[i][j] - (GaussianRational(t) if i == j else ZERO)
                    for j in range(n)] for i in range(n)]
        space = exact_linalg.nullspace(shifted)
        if space:
            block_sizes.append(len(space))
            columns.extend(space)
    if len(columns) != n:
        raise ArithmeticError("eigenspaces do not span")
    R = MatrixPolynomial(
        [[columns[c][r] for c in range(n)] for r in range(n)]
    )
    return dim, basis, Reduction(R=R, block_sizes=tuple(block_sizes))


def block_offdiagonal_is_zero(W: MatrixPolynomial, R: MatrixPolynomial,
                              block_sizes):
    """None when R* W R has exact zero off-diagonal blocks for the given
    partition of the columns, else a witness naming the first nonzero
    off-diagonal entry."""
    conj = R.conjugate_transpose() * W * R
    block = [b for b, size in enumerate(block_sizes) for _ in range(size)]
    diagonal_blocks = MatrixPolynomial.from_function(
        conj.rows, conj.cols,
        lambda i, j: conj[i, j] if block[i] == block[j]
        else Polynomial.zero())
    return mismatch(conj, diagonal_blocks, "R* W R ")
