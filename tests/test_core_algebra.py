"""Exact scalar, polynomial, and matrix-polynomial algebra."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from sphmop.gaussian import (GaussianRational, format_gaussian,
                             parse_gaussian, I, ONE, ZERO)
from sphmop.polynomials import (Polynomial, MatrixPolynomial,
                                matpoly_inverse_triangular)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)


class TestGaussianRational:
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
        lower = MatrixPolynomial([
            [Polynomial([1]), Polynomial.zero()],
            [Polynomial([1]), Polynomial([1])],
        ])
        with pytest.raises(ValueError):
            matpoly_inverse_triangular(lower)
        nonconst_diag = MatrixPolynomial([
            [Polynomial([0, 1]), Polynomial.zero()],
            [Polynomial.zero(), Polynomial([1])],
        ])
        with pytest.raises(ValueError):
            matpoly_inverse_triangular(nonconst_diag)

    def test_reflected_scalar_products(self):
        # a scalar or Polynomial on the left reaches MatrixPolynomial's
        # reflected product; an operand no exact type knows is a TypeError
        M = MatrixPolynomial.identity(2)
        p = Polynomial([1, 2])
        assert p * M == M * p
        assert GaussianRational(2) * M == M * 2
        with pytest.raises(TypeError):
            p + 1.5
        with pytest.raises(TypeError):
            p * 1.5

    @settings(max_examples=40, deadline=None)
    @given(triangular_matrices())
    def test_inverse_property(self, M):
        inv = matpoly_inverse_triangular(M)
        assert M * inv == MatrixPolynomial.identity(M.rows)

    @settings(max_examples=40, deadline=None)
    @given(triangular_matrices())
    def test_conjugate_transpose_involution(self, M):
        assert M.conjugate_transpose().conjugate_transpose() == M
