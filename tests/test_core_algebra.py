"""Exact scalar, polynomial, and matrix-polynomial algebra."""

import operator
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from sphmop.gaussian import (GaussianRational, format_gaussian,
                             integer_horner, I, ONE, ZERO)
from sphmop.family import build_Pw
from sphmop.hypergeometric import hyp_terminating
from sphmop.polynomials import (Polynomial, MatrixPolynomial,
                                matpoly_inverse_triangular)

from conftest import parse_gaussian


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)


class FractionPair:
    """The scalar as two reduced Fractions, the earlier representation of
    GaussianRational: the oracle for its integer-triple arithmetic."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def is_zero(self):
        return not self.re and not self.im

    def __add__(self, other):
        return FractionPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPair(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return FractionPair(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        n = c * c + d * d
        return FractionPair((a * c + b * d) / n, (b * c - a * d) / n)

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)


# zeros, one-part values, small shared denominators (whose sums and
# products have a common factor to cancel) and 64-bit numerators
numerators = st.one_of(st.just(0), st.integers(-9, 9),
                       st.integers(-2 ** 64, 2 ** 64))
denominators = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 64))
exact_rationals = st.builds(Fraction, numerators, denominators)
parts = st.tuples(exact_rationals, exact_rationals)


def float_bits(c: complex):
    return c.real.hex(), c.imag.hex()


def assert_matches(z: GaussianRational, m: FractionPair):
    assert (z.re, z.im) == (m.re, m.im)
    assert z == GaussianRational(m.re, m.im)
    assert z.re.denominator > 0 and z.im.denominator > 0
    assert z == m.re if not m.im else z != m.re
    assert hash(z) == hash(m)
    assert format_gaussian(z) == format_gaussian(m)
    assert float_bits(complex(z)) == float_bits(complex(m)) \
        == float_bits(complex(float(z.re), float(z.im)))


class TestGaussianRational:
    @settings(max_examples=300)
    @given(parts, parts, exact_rationals)
    def test_agrees_with_fraction_pair_oracle(self, x, y, q):
        zx, zy = GaussianRational(*x), GaussianRational(*y)
        mx, my, mq = FractionPair(*x), FractionPair(*y), FractionPair(q)
        assert_matches(zx, mx)
        assert_matches(zx.conjugate(), mx.conjugate())
        assert_matches(-zx, FractionPair(0) - mx)
        assert (zx == zy) == (mx == my)
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv):
            for (z1, m1), (z2, m2) in (((zx, mx), (zy, my)),
                                       ((zx, mx), (q, mq)),
                                       ((q, mq), (zx, mx))):
                if op is operator.truediv and m2.is_zero():
                    with pytest.raises(ZeroDivisionError):
                        z1 / z2
                else:
                    assert_matches(op(z1, z2), op(m1, m2))

    def test_immutable(self):
        z = GaussianRational(1, 2)
        for name in ("re", "im", "x", *GaussianRational.__slots__):
            with pytest.raises(AttributeError):
                setattr(z, name, 5)
        assert (z.re, z.im) == (1, 2)

    def test_reduced_positive_denominator(self):
        z = GaussianRational(Fraction(2, -4), Fraction(6, 9))
        assert z.re == Fraction(-1, 2) and z.re.denominator == 2
        assert z.im == Fraction(2, 3)

    def test_field_ops(self):
        assert I * I == -1
        assert (ONE + I) * (ONE - I) == 2
        assert (ONE / I) == -I
        assert I ** 4 == 1
        assert I.conjugate() == -I

    @given(gaussians, gaussians)
    def test_add_sub_roundtrip(self, x, y):
        assert (x + y) - y == x

    @given(gaussians, gaussians, gaussians)
    def test_mul_distributes(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(gaussians)
    def test_division_inverts(self, x):
        if not x.is_zero():
            assert (ONE / x) * x == ONE

    def test_serialization_examples(self):
        assert format_gaussian(ZERO) == "0"
        assert format_gaussian(GaussianRational(Fraction(1, 2))) == "1/2"
        assert format_gaussian(GaussianRational(0, -2)) == "-2*i"
        assert format_gaussian(GaussianRational(Fraction(-1, 3),
                                                Fraction(2, 5))) \
            == "-1/3+2/5*i"

    @given(gaussians)
    def test_serialization_roundtrip(self, z):
        assert parse_gaussian(format_gaussian(z)) == z

    @pytest.mark.parametrize("text", [
        "1+2", "i+i", "1e3", "2i", "1.5", "", " 1", "2/4", "+1", "-0",
        "1/0", "+2*i", "0+1*i", "1+0*i", "*i"])
    def test_parse_rejects_non_canonical(self, text):
        with pytest.raises(ValueError):
            parse_gaussian(text)

    def test_hash_agrees_with_equality(self):
        assert len({GaussianRational(3), 3, Fraction(3)}) == 1
        assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert len({Polynomial.constant(3), 3}) == 1


class TestIntegerHorner:
    # integer coefficients p_0 .. p_n, small and 64-bit, over D > 0
    series = st.tuples(st.lists(numerators, min_size=1, max_size=10),
                       denominators)

    @settings(max_examples=200)
    @given(series, exact_rationals)
    def test_real_point_matches_fraction_horner(self, pD, z):
        p, D = pD
        acc = Fraction(0)
        for c in reversed(p):
            acc = acc * z + c
        assert_matches(integer_horner(p, D, z), FractionPair(acc / D))

    @settings(max_examples=200)
    @given(series, exact_rationals, exact_rationals.filter(bool))
    def test_gaussian_point_matches_fraction_pair_horner(self, pD, re, im):
        p, D = pD
        z, acc = FractionPair(re, im), FractionPair(0)
        for c in reversed(p):
            acc = acc * z + FractionPair(c)
        assert_matches(integer_horner(p, D, GaussianRational(re, im)),
                       acc / FractionPair(D))


class TestPolynomial:
    def test_arith_examples(self):
        u = Polynomial.variable()
        one = Polynomial.constant(1)
        assert (one + u) * (one - u) == Polynomial([1, 0, -1])
        p = Polynomial([3, 0, 7])
        assert Polynomial.zero() + p == p
        assert u * (u * 2) == Polynomial([0, 0, 2])

    def test_derivative_examples(self):
        assert Polynomial([0, 0, 1]).derivative() == Polynomial([0, 2])
        assert Polynomial.constant(5).derivative().is_zero()
        assert Polynomial([1, 0, -1]).derivative() == Polynomial([0, -2])

    def test_constant_equality_is_transitive(self):
        # a constant polynomial equals its scalar in every exact type, so
        # hash and equality agree whichever element a set meets first
        threes = [Polynomial.constant(3), 3, Fraction(3), GaussianRational(3)]
        for order in permutations(threes):
            assert len(set(order)) == 1, order

    def test_trailing_zeros_stripped(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree() == 1
        assert Polynomial([]).degree() is None

    def test_exact_eval_and_affine_substitution(self):
        s = Polynomial([Fraction(1, 2), Fraction(-1, 2)])    # s = (1-u)/2
        q = 1 - 2 * s
        assert q == Polynomial([0, 1])    # 1 - 2(1-u)/2 = u
        assert q(Fraction(1, 3)) == GaussianRational(Fraction(1, 3))


def _upper_triangular(n, coeffs):
    """Build an n x n upper triangular matrix with nonzero constant
    diagonal from a flat list of scalar coefficients."""
    it = iter(coeffs)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(Polynomial.zero())
            elif j == i:
                c = next(it)
                row.append(Polynomial.constant(c if not c.is_zero() else ONE))
            else:
                row.append(Polynomial([next(it), next(it)]))
        rows.append(row)
    return MatrixPolynomial(rows)


small_gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)


@st.composite
def triangular_matrices(draw, max_size=3):
    n = draw(st.integers(min_value=1, max_value=max_size))
    count = n + 2 * (n * (n - 1) // 2)
    coeffs = draw(st.lists(small_gaussians, min_size=count, max_size=count))
    return _upper_triangular(n, coeffs)


polynomials = st.one_of(st.just(Polynomial.zero()),
                        st.lists(small_gaussians, max_size=3).map(Polynomial))
dims = st.integers(min_value=1, max_value=3)


@st.composite
def product_pairs(draw):
    """(n x m, m x p) polynomial matrices, zero entries included; p = 1 is
    a column vector."""
    n, m, p = draw(dims), draw(dims), draw(dims)

    def matrix(rows, cols):
        return MatrixPolynomial(draw(st.lists(
            st.lists(polynomials, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))

    return matrix(n, m), matrix(m, p)


def oracle_product(A, B):
    """sum_t A[i,t] B[t,j] entry by entry, in Polynomial arithmetic."""
    return MatrixPolynomial.from_function(A.rows, B.cols, lambda i, j: sum(
        (A[i, t] * B[t, j] for t in range(A.cols)), Polynomial.zero()))


def long_series_examples(test):
    """The 0 x 0 matrix and Psi = P_0 for ell 0..12 as explicit examples:
    the strategy stops at 3 x 3 and degree 1, so never runs a long series."""
    for M in (MatrixPolynomial.zeros(0, 0),
              *(build_Pw(ell, 0) for ell in range(13))):
        test = example(M)(test)
    return test


class TestMatrixPolynomial:
    def test_inverse_identity(self):
        eye = MatrixPolynomial.identity(3)
        assert matpoly_inverse_triangular(eye) == eye

    def test_inverse_2x2_example(self):
        # [[1, u], [0, -i]] inverts to [[1, -iu], [0, i]]
        M = MatrixPolynomial([
            [Polynomial([1]), Polynomial([0, 1])],
            [Polynomial.zero(), Polynomial([-I])],
        ])
        inv = matpoly_inverse_triangular(M)
        expected = MatrixPolynomial([
            [Polynomial([1]), Polynomial([0, -I])],
            [Polynomial.zero(), Polynomial([I])],
        ])
        assert inv == expected

    def test_inverse_diagonal(self):
        M = MatrixPolynomial.diagonal([GaussianRational(2),
                                       GaussianRational(Fraction(-1, 3))])
        inv = matpoly_inverse_triangular(M)
        assert inv == MatrixPolynomial.diagonal(
            [GaussianRational(Fraction(1, 2)), GaussianRational(-3)])

    def test_inverse_rejects_bad_input(self):
        with pytest.raises(ValueError, match="inverse needs a square"):
            matpoly_inverse_triangular(MatrixPolynomial([[1, 0]]))
        lower = MatrixPolynomial([
            [Polynomial([1]), Polynomial.zero()],
            [Polynomial([1]), Polynomial([1])],
        ])
        # the only lower entry sits in the degree-1 coefficient
        lower_in_u = MatrixPolynomial([[1, 0], [Polynomial([0, 1]), 1]])
        for M in (lower, lower_in_u):
            with pytest.raises(ValueError, match="not upper triangular"):
                matpoly_inverse_triangular(M)
        nonconst_diag = MatrixPolynomial([
            [Polynomial([0, 1]), Polynomial.zero()],
            [Polynomial.zero(), Polynomial([1])],
        ])
        for M in (nonconst_diag, MatrixPolynomial.zeros(2, 2)):
            with pytest.raises(ValueError, match="nonzero constant"):
                matpoly_inverse_triangular(M)

    def test_inverse_does_no_polynomial_arithmetic(self, monkeypatch):
        # the inverse is read off exact_linalg products of the coefficient
        # matrices, never off Polynomial ring operations
        Psi = build_Pw(6, 0)
        with monkeypatch.context() as mp:
            for name in ("__add__", "__sub__", "__neg__", "__mul__"):
                mp.setattr(Polynomial, name,
                           lambda *args: pytest.fail("Polynomial arithmetic"))
            inv = matpoly_inverse_triangular(Psi)
        assert Psi * inv == MatrixPolynomial.identity(Psi.rows)

    def test_reflected_scalar_products(self):
        # a scalar or Polynomial on the left reaches the right operand's
        # reflected method; an operand no exact type knows is a TypeError
        M = MatrixPolynomial.identity(2)
        p = Polynomial([1, 2])
        assert p * M == M * p
        assert GaussianRational(2) * M == M * 2
        assert ONE + p == p + ONE
        assert ONE - p == -(p - ONE)
        with pytest.raises(TypeError):
            p + 1.5
        with pytest.raises(TypeError):
            p * 1.5
        with pytest.raises(TypeError):
            ONE / p
        with pytest.raises(TypeError):
            ONE + 1.5
        with pytest.raises(TypeError):
            M * 1.5
        with pytest.raises(TypeError):
            M + 1
        with pytest.raises(TypeError):
            M * [[1, 0], [0, 1]]

    @settings(max_examples=40, deadline=None)
    @given(product_pairs())
    def test_product_matches_entrywise_oracle(self, pair):
        A, B = pair
        assert A * B == oracle_product(A, B)

    @settings(max_examples=40, deadline=None)
    @given(triangular_matrices())
    @long_series_examples
    def test_inverse_property(self, M):
        inv = matpoly_inverse_triangular(M)
        assert M * inv == MatrixPolynomial.identity(M.rows)

    @settings(max_examples=40, deadline=None)
    @given(triangular_matrices())
    def test_conjugate_transpose_involution(self, M):
        assert M.conjugate_transpose().conjugate_transpose() == M

    def test_zero_keeps_its_shape(self):
        # the zero matrix holds no coefficient matrix, so every product, sum
        # and adjoint must carry its shape over
        Z = MatrixPolynomial.zeros
        column = MatrixPolynomial([[1], [Polynomial([0, 2])], [3]])
        row = MatrixPolynomial([[1, Polynomial([0, 2]), 3]])
        assert Z(2, 3) * column == Z(2, 1)
        assert row * Z(3, 2) == Z(1, 2)
        assert Z(3, 1).conjugate_transpose() == Z(1, 3)
        assert Z(2, 3) + Z(2, 3) == Z(2, 3)
        assert Polynomial.zero() * row == Z(1, 3)
        assert MatrixPolynomial([[1, 2], [3, I]]).derivative() == Z(2, 2)
        for M in (Z(2, 1), Z(1, 2), Z(1, 3), Z(2, 3)):
            assert M.is_zero() and M.degree() is None

    def test_coefficient_matrix_is_a_fresh_copy(self):
        u = Polynomial.variable()
        M = MatrixPolynomial([[u, 1, 0], [0, u * u, I]])
        assert M.coefficient_matrix(3) == [[ZERO] * 3, [ZERO] * 3]
        C = M.coefficient_matrix(1)
        C[0][0] = I
        C[1].append(ONE)
        M.coefficient_matrix(3)[0][0] = I
        assert M.coefficient_matrix(1) == [[ONE, ZERO, ZERO],
                                           [ZERO, ZERO, ZERO]]
        assert M.coefficient_matrix(3) == [[ZERO] * 3, [ZERO] * 3]
        assert M[0, 0] == u and M.degree() == 2

    def test_equal_matrices_hash_alike(self):
        u = Polynomial.variable()
        M = MatrixPolynomial([[u, 1], [0, u * u + I]])
        eye = MatrixPolynomial.identity(2)
        for other in (M * eye, eye * M, M + MatrixPolynomial.zeros(2, 2),
                      -(-M), (M * u - M * u) + M,
                      M.conjugate_transpose().conjugate_transpose()):
            assert other == M and hash(other) == hash(M)


@pytest.mark.parametrize("evaluate", [
    Polynomial([1, 2, 3]),
    MatrixPolynomial([[Polynomial([1, 2]), I], [0, 1]]).evaluate_exact,
    GaussianRational,
    lambda z: hyp_terminating([-2, 3], [Fraction(3, 2)], z),
], ids=["Polynomial", "evaluate_exact", "GaussianRational",
        "hyp_terminating"])
def test_float_point_is_a_type_error(evaluate):
    # evaluation has one route, the exact one: a float point is refused,
    # never rounded into the arithmetic
    assert evaluate(Fraction(1, 2)) is not None
    with pytest.raises(TypeError):
        evaluate(0.5)
