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
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        """A scalar over a constant: exact_linalg.rref's pivot division."""
        if not self.is_constant() or not isinstance(
                other, (int, Fraction, GaussianRational)):
            return NotImplemented
        return Polynomial.constant(other / self.constant_term())

    def derivative(self) -> "Polynomial":
        return Polynomial(
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))]
        )

    def __call__(self, x):
        """Evaluate by Horner.  Exact for GaussianRational/rational x;
        documented round-off only for floats/complex."""
        if isinstance(x, (int, Fraction)):
            x = GaussianRational(x)
        if isinstance(x, GaussianRational):
            acc = ZERO
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + complex(c)
        return acc

    def conjugate(self) -> "Polynomial":
        return Polynomial([c.conjugate() for c in self.coeffs])

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
    """Rectangular matrix with Polynomial entries.

    Square matrices of size ell+1 are the main case (operator coefficients,
    packages, weights), but column vectors reuse the same type with
    cols == 1.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        flat = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for e in row:
                if not isinstance(e, Polynomial):
                    e = Polynomial.constant(e)
                flat.append(e)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(flat))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixPolynomial is immutable")

    @staticmethod
    def from_function(rows, cols, fn) -> "MatrixPolynomial":
        return MatrixPolynomial(
            [[fn(i, j) for j in range(cols)] for i in range(rows)]
        )

    @staticmethod
    def identity(n) -> "MatrixPolynomial":
        return MatrixPolynomial(exact_linalg.mat_identity(n))

    @staticmethod
    def zeros(rows, cols) -> "MatrixPolynomial":
        return MatrixPolynomial.from_function(
            rows, cols, lambda i, j: Polynomial.zero()
        )

    @staticmethod
    def diagonal(values) -> "MatrixPolynomial":
        """Diagonal matrix of Polynomials or scalars."""
        return MatrixPolynomial(
            [[v if i == j else 0 for j in range(len(values))]
             for i, v in enumerate(values)]
        )

    def __getitem__(self, ij) -> Polynomial:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row_lists(self):
        """Fresh nested lists of the entries, the form exact_linalg takes."""
        c = self.cols
        return [list(self.entries[i * c:i * c + c]) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def constant_value(self):
        """The scalar matrix of constant terms."""
        return self.coefficient_matrix(0)

    def degree(self):
        ds = [e.degree() for e in self.entries if not e.is_zero()]
        return max(ds) if ds else None

    def coefficient_matrix(self, k: int):
        """Scalar matrix of the degree-k coefficients of every entry."""
        return [[self[i, j].coefficient(k) for j in range(self.cols)]
                for i in range(self.rows)]

    def __add__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return MatrixPolynomial.from_function(
            self.rows, self.cols, lambda i, j: self[i, j] + other[i, j]
        )

    def __neg__(self):
        return MatrixPolynomial.from_function(
            self.rows, self.cols, lambda i, j: -self[i, j]
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Polynomial)):
            return MatrixPolynomial.from_function(
                self.rows, self.cols, lambda i, j: self[i, j] * other
            )
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return MatrixPolynomial(
            exact_linalg.mat_mul(self.row_lists(), other.row_lists()))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Polynomial)):
            return self * other
        return NotImplemented

    def derivative(self) -> "MatrixPolynomial":
        return MatrixPolynomial.from_function(
            self.rows, self.cols, lambda i, j: self[i, j].derivative()
        )

    def conjugate_transpose(self) -> "MatrixPolynomial":
        return MatrixPolynomial(
            exact_linalg.mat_conj_transpose(self.row_lists()))

    def evaluate(self, x):
        """Numeric evaluation; returns a nested list of complex numbers."""
        return [[complex(self[i, j](x)) for j in range(self.cols)]
                for i in range(self.rows)]

    def evaluate_exact(self, x):
        """Evaluation at an exact point; nested list of GaussianRational."""
        return [[self[i, j](x) for j in range(self.cols)]
                for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, MatrixPolynomial):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        rows = [", ".join(repr(self[i, j]) for j in range(self.cols))
                for i in range(self.rows)]
        return "[" + "; ".join(rows) + "]"


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
    nonzero constants.  Those checks make every pivot of exact_linalg.invert a
    nonzero constant, so the inverse is again polynomial."""
    if M.rows != M.cols:
        raise ValueError("inverse needs a square matrix")
    n = M.rows
    for i in range(n):
        for j in range(i):
            if not M[i, j].is_zero():
                raise ValueError("matrix is not upper triangular")
        d = M[i, i]
        if not d.is_constant() or d.is_zero():
            raise ValueError("diagonal entry must be a nonzero constant")
    return MatrixPolynomial(exact_linalg.invert(M.row_lists()))
