"""Exact univariate polynomials and matrices of them over the Gaussian rationals.

Every polynomial is in the coordinate u on [-1, 1].
"""

from __future__ import annotations

from fractions import Fraction

from . import exact_linalg
from .gaussian import GaussianRational, ZERO


class Polynomial:
    """Univariate polynomial over GaussianRational, lowest degree first.

    Trailing zero coefficients are stripped so that equal polynomials compare
    equal structurally.  The zero polynomial has an empty coefficient list and
    degree() returns None for it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [GaussianRational.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial([c])

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial([])

    @staticmethod
    def variable() -> "Polynomial":
        return Polynomial([0, 1])

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coefficient(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def constant_term(self) -> GaussianRational:
        return self.coefficient(0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial)
                       else -GaussianRational.of(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.of(other)
            return Polynomial([a * c for a in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial.zero()
        # the row of our coefficients times the rows u^i other, i = 0, 1, ...
        a, b = exact_linalg.sparse_rows([self.coeffs, other.coeffs])
        shifted = [[(i + j, c, f, e) for j, c, f, e in b]
                   for i in range(len(self.coeffs))]
        return Polynomial(exact_linalg.product_sum(
            [([a], shifted)], 1, len(self.coeffs) + len(other.coeffs) - 1)[0])

    __rmul__ = __mul__

    def derivative(self) -> "Polynomial":
        return Polynomial(
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))]
        )

    def __call__(self, x):
        """Evaluate by Horner at an exact point: an int, a Fraction or a
        GaussianRational (anything else raises TypeError)."""
        x = GaussianRational.of(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant polynomial equals its scalar, so it hashes like it
        if self.is_constant():
            return hash(self.constant_term())
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                terms.append(str(c))
            else:
                head = "" if c == 1 else f"({c})*"
                pw = "u" if k == 1 else f"u^{k}"
                terms.append(head + pw)
        return " + ".join(terms)


class MatrixPolynomial:
    """Rectangular matrix polynomial over the Gaussian rationals, held as its
    coefficient matrices C_0 .. C_d (nested lists of GaussianRational, the
    form exact_linalg takes) with no trailing zero matrix; the zero matrix
    has none.  Column vectors are the case cols == 1.
    """

    __slots__ = ("rows", "cols", "_terms")

    def __init__(self, entries):
        """From rows of Polynomials or scalars."""
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        grid = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            grid.append([e.coeffs if isinstance(e, Polynomial)
                         else (GaussianRational.of(e),) for e in row])
        deg = max((len(cs) for row in grid for cs in row), default=0)
        self._set(rows, cols, [
            [[cs[k] if k < len(cs) else ZERO for cs in row] for row in grid]
            for k in range(deg)])

    def _set(self, rows, cols, terms):
        while terms and all(x.is_zero() for row in terms[-1] for x in row):
            terms.pop()
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_terms", tuple(terms))

    @staticmethod
    def _of(rows, cols, terms) -> "MatrixPolynomial":
        # the matrix with the coefficient matrices `terms`, a list it owns
        M = object.__new__(MatrixPolynomial)
        M._set(rows, cols, terms)
        return M

    def __setattr__(self, name, value):
        raise AttributeError("MatrixPolynomial is immutable")

    @staticmethod
    def from_function(rows, cols, fn) -> "MatrixPolynomial":
        return MatrixPolynomial(
            [[fn(i, j) for j in range(cols)] for i in range(rows)]
        )

    @staticmethod
    def identity(n) -> "MatrixPolynomial":
        return MatrixPolynomial._of(n, n, [exact_linalg.mat_identity(n)])

    @staticmethod
    def zeros(rows, cols) -> "MatrixPolynomial":
        return MatrixPolynomial._of(rows, cols, [])

    @staticmethod
    def diagonal(values) -> "MatrixPolynomial":
        """Diagonal matrix of Polynomials or scalars."""
        return MatrixPolynomial(
            [[v if i == j else 0 for j in range(len(values))]
             for i, v in enumerate(values)]
        )

    def __getitem__(self, ij) -> Polynomial:
        i, j = ij
        return Polynomial([C[i][j] for C in self._terms])

    @property
    def entries(self):
        """The entries as Polynomials, row by row."""
        return tuple(self[i, j]
                     for i in range(self.rows) for j in range(self.cols))

    def is_zero(self) -> bool:
        return not self._terms

    def constant_value(self):
        """The scalar matrix of constant terms."""
        return self.coefficient_matrix(0)

    def degree(self):
        return len(self._terms) - 1 if self._terms else None

    def coefficient_matrix(self, k: int):
        """Fresh scalar matrix of the degree-k coefficients of every entry."""
        if 0 <= k < len(self._terms):
            return [row[:] for row in self._terms[k]]
        return [[ZERO] * self.cols for _ in range(self.rows)]

    def __add__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        terms, short = list(self._terms), other._terms
        if len(terms) < len(short):
            terms, short = list(short), terms
        for k, B in enumerate(short):
            terms[k] = [[x + y for x, y in zip(ra, rb)]
                        for ra, rb in zip(terms[k], B)]
        return MatrixPolynomial._of(self.rows, self.cols, terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product, as matpoly_product_sum([(self, other)]); a scalar or
        Polynomial p multiplies as p I."""
        if isinstance(other, (int, Fraction, GaussianRational, Polynomial)):
            other = MatrixPolynomial.diagonal([other] * self.cols)
        elif not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return matpoly_product_sum([(self, other)])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Polynomial)):
            return self * other
        return NotImplemented

    def derivative(self) -> "MatrixPolynomial":
        return MatrixPolynomial._of(self.rows, self.cols, [
            [[ZERO if x.is_zero() else x * k for x in row] for row in C]
            for k, C in enumerate(self._terms[1:], 1)])

    def conjugate_transpose(self) -> "MatrixPolynomial":
        return MatrixPolynomial._of(self.cols, self.rows, [
            exact_linalg.mat_conj_transpose(C) for C in self._terms])

    def evaluate_exact(self, x):
        """Evaluation at an exact point; nested list of GaussianRational."""
        return [[self[i, j](x) for j in range(self.cols)]
                for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return (self.rows, self.cols, self._terms) \
            == (other.rows, other.cols, other._terms)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(tuple(map(tuple, C)) for C in self._terms)))

    def __repr__(self):
        rows = [", ".join(repr(self[i, j]) for j in range(self.cols))
                for i in range(self.rows)]
        return "[" + "; ".join(rows) + "]"


def matpoly_product_sum(pairs) -> MatrixPolynomial:
    """The sum of the products A B over the pairs (A, B), all of one shape.

    Coefficient c of the sum is one exact_linalg.product_sum over the pairs
    (A_t, B_(c-t)), on the sparse forms of the A_t and B_t, each read once.
    """
    rows, cols = pairs[0][0].rows, pairs[0][1].cols
    if any(A.cols != B.rows or (A.rows, B.cols) != (rows, cols)
           for A, B in pairs):
        raise ValueError("shape mismatch in matrix product")
    sparse = [([exact_linalg.sparse_rows(C) for C in A._terms],
               [exact_linalg.sparse_rows(C) for C in B._terms])
              for A, B in pairs]
    return MatrixPolynomial._of(rows, cols, [
        exact_linalg.product_sum(
            [(a[t], b[c - t]) for a, b in sparse
             for t in range(max(0, c - len(b) + 1), min(c, len(a) - 1) + 1)],
            rows, cols)
        for c in range(max((len(a) + len(b) - 1 for a, b in sparse
                            if a and b), default=0))])


def mismatch(lhs: MatrixPolynomial, rhs: MatrixPolynomial, where=""):
    """None when the two matrices are equal, else a witness naming the first
    entry where they differ, with both sides."""
    if lhs == rhs:
        return None
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        return f"{where}shape {lhs.rows}x{lhs.cols} != {rhs.rows}x{rhs.cols}"
    i, j = next((i, j) for i in range(lhs.rows) for j in range(lhs.cols)
                if lhs[i, j] != rhs[i, j])
    return f"{where}entry ({i},{j}): {lhs[i, j]} != {rhs[i, j]}"


def matpoly_inverse_triangular(M: MatrixPolynomial) -> MatrixPolynomial:
    """Invert an upper triangular matrix polynomial whose diagonal entries are
    nonzero constants, so that the inverse X is again polynomial, as a power
    series: X_0 = M_0^{-1} and X_c = -X_0 (M_1 X_(c-1) + ... + M_t X_(c-t)),
    t = min(c, deg M), one product_sum of the pairs (-X_0 M_s, X_(c-s)).
    X_c depends only on the deg M before it, so the series ends after
    deg M zero coefficients in a row."""
    if M.rows != M.cols:
        raise ValueError("inverse needs a square matrix")
    n, Ms, d = M.rows, M._terms, len(M._terms) - 1
    for i in range(n):
        if any(not C[i][j].is_zero() for C in Ms for j in range(i)):
            raise ValueError("matrix is not upper triangular")
        if [not C[i][i].is_zero() for C in Ms] != [True] + [False] * d:
            raise ValueError("diagonal entry must be a nonzero constant")
    if not n:
        return M
    X = [exact_linalg.invert(Ms[0])]
    minus_X0 = [[-x for x in row] for row in X[0]]
    # N[s-1] = -X_0 M_s, so X_c = N[0] X_(c-1) + ... + N[t-1] X_(c-t)
    N = [exact_linalg.sparse_rows(exact_linalg.mat_mul(minus_X0, C))
         for C in Ms[1:]]
    sX, zeros = [exact_linalg.sparse_rows(X[0])], 0
    while zeros < d:
        X.append(exact_linalg.product_sum(
            [(N[s - 1], sX[-s]) for s in range(1, min(len(sX), d) + 1)],
            n, n))
        sX.append(exact_linalg.sparse_rows(X[-1]))
        zeros = zeros + 1 if X[-1] == [[ZERO] * n] * n else 0
    return MatrixPolynomial._of(n, n, X)
