"""Terminating hypergeometric series, Gegenbauer, Hahn, and Racah values."""

from fractions import Fraction
from math import comb, factorial, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from sphmop.gaussian import GaussianRational
from sphmop.polynomials import Polynomial
from sphmop.hypergeometric import (hyp_terminating, hahn_value, racah_value,
                                   series_coefficients)


def rising(a, m):
    """The Pochhammer symbol (a)_m."""
    return prod((a + i for i in range(m)), start=Fraction(1))


def explicit_sum(numerator, denominator, z):
    """sum_m c_m z^m over GaussianRational with c_m = prod (a)_m /
    (prod (b)_m m!), each term built on its own, up to the first zero
    numerator Pochhammer symbol."""
    n = min(-a for a in numerator if a <= 0 and Fraction(a).denominator == 1)
    total = GaussianRational(0)
    for m in range(n + 1):
        c = prod((rising(a, m) for a in numerator), start=Fraction(1)) / (
            prod((rising(b, m) for b in denominator), start=Fraction(1))
            * factorial(m))
        total = total + GaussianRational(c) * z ** m
    return total


def fraction_series(numerator, denominator):
    """The test-only oracle of series_coefficients: each coefficient the
    previous one times the Fraction ratio prod (a + m) / ((m + 1) prod
    (b + m)), then put over the lcm of their denominators."""
    n = min(-int(a) for a in numerator
            if a <= 0 and Fraction(a).denominator == 1)
    coeffs = [Fraction(1)]
    for m in range(n):
        c = coeffs[-1] / (m + 1)
        for a in numerator:
            c *= a + m
        for b in denominator:
            c /= b + m
        coeffs.append(c)
    D = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (D // c.denominator) for c in coeffs), D


@st.composite
def series_parameters(draw):
    """A terminating parameter set: a stop -n, more int or Fraction
    numerator parameters, and denominator parameters that are Fractions,
    positive integers, or negative integers -b with b >= n."""
    n = draw(st.integers(0, 12))
    ratio = st.fractions(min_value=-9, max_value=9, max_denominator=7)
    numerator = [-n] + draw(st.lists(st.one_of(st.integers(-20, 20), ratio),
                                     max_size=3))
    denominator = draw(st.lists(st.one_of(
        st.integers(1, 20), st.integers(n, n + 6).map(lambda b: -b),
        ratio.filter(lambda b: b.denominator != 1)), max_size=3))
    order = draw(st.permutations(range(len(numerator))))
    return tuple(numerator[i] for i in order), tuple(denominator)


def gegenbauer(n, lam):
    """Gegenbauer polynomial C_n^lam(u) as an exact Polynomial in u, from
    the explicit sum (DLMF 18.5.10)
    sum_k (-1)^k (lam)_{n-k} / (k! (n-2k)!) (2u)^{n-2k}, which is neither
    the three-term recurrence nor the 2F1 series."""
    coeffs = [0] * (n + 1)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = Fraction(
            (-1) ** k * prod(lam + i for i in range(n - k)) * 2 ** (n - 2 * k),
            factorial(k) * factorial(n - 2 * k))
    return Polynomial(coeffs)


class TestTerminatingSeries:
    def test_2f1_at_scalar_points(self):
        # 2F1(-1, 3; 3/2; z) is 1 - 2z, so it is x at z = (1-x)/2
        for x in (Fraction(-3, 4), 0, Fraction(2, 5), GaussianRational(1, 2)):
            x = GaussianRational.of(x)
            assert hyp_terminating([-1, 3], [Fraction(3, 2)], x) == 1 - 2 * x
            assert hyp_terminating([-1, 3], [Fraction(3, 2)], (1 - x) / 2) \
                == x

    def test_2f1_agrees_with_gegenbauer_sum(self):
        # C_n^lam(u) / C_n^lam(1) = 2F1(-n, n+2lam; lam+1/2; (1-u)/2)
        for lam in range(1, 5):
            for n in range(8):
                C = gegenbauer(n, lam)
                for u in (Fraction(-1), Fraction(-1, 3), Fraction(5, 7)):
                    assert hyp_terminating(
                        [-n, n + 2 * lam], [Fraction(2 * lam + 1, 2)],
                        (1 - u) / 2) == C(u) / C(1)

    def test_rejects_polynomial_argument(self):
        # the series is summed at scalar points only
        with pytest.raises(TypeError):
            hyp_terminating([-1, 3], [Fraction(3, 2)], Polynomial.variable())

    def test_3f2_unit_argument(self):
        assert hyp_terminating([-1, -1, 2], [1, -2], GaussianRational(1)) \
            == GaussianRational(0)

    def test_zero_numerator_gives_one(self):
        assert hyp_terminating([0, 5, -3], [2], GaussianRational(7)) \
            == GaussianRational(1)

    def test_matches_explicit_sum(self):
        # the integer Horner sum against the term-by-term sum, at a point
        # with an imaginary part and at the float 0.1 taken exactly, whose
        # denominator is a power of 2
        params = [([-5, 9], [Fraction(7, 2)]), ([-4, Fraction(1, 3), 2],
                                                 [Fraction(5, 2), 7]),
                  ([-7, -3, 6], [1, Fraction(-9, 2)]), ([0, 4], [3])]
        points = [GaussianRational(Fraction(1, 3), Fraction(2, 3)),
                  GaussianRational(Fraction(0.1)), GaussianRational(-2)]
        for numerator, denominator in params:
            for z in points:
                assert hyp_terminating(numerator, denominator, z) \
                    == explicit_sum(numerator, denominator, z)

    @settings(max_examples=300, deadline=None)
    @given(series_parameters())
    @example(((-3, Fraction(1, 2)), (-5, Fraction(-7, 3))))
    @example(((-4, -6, 9), (-4,)))
    @example(((0, Fraction(5, 2)), (-1,)))
    def test_series_agrees_with_the_fraction_oracle(self, params):
        # negative-integer denominators at and past the stop, Fraction
        # parameters on both sides, and the empty series beyond p_0
        assert series_coefficients(*params) == fraction_series(*params)

    def test_repeat_call_is_a_cache_hit(self):
        hyp_terminating([-6, 11], [Fraction(9, 2)], Fraction(1, 7))
        before = series_coefficients.cache_info()
        hyp_terminating([-6, 11], [Fraction(9, 2)], GaussianRational(0, 3))
        after = series_coefficients.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_rejects_nonterminating(self):
        # an error is not cached: the second call raises as the first did
        for _ in range(2):
            with pytest.raises(ValueError, match="does not terminate"):
                hyp_terminating([1, 2], [3], GaussianRational(1))

    def test_rejects_bad_denominator(self):
        # denominator parameter -1 hits zero at the m=1 term while the
        # series runs to m=3
        for _ in range(2):
            with pytest.raises(ValueError, match="hits zero"):
                hyp_terminating([-3, 2], [-1], GaussianRational(1))

    def test_rejects_float_parameter(self):
        # a float is never coerced to a rational, however exact it looks
        with pytest.raises(TypeError):
            hyp_terminating([-1, 0.5], [1], 1)

    def test_float_parameter_raises_cold_and_warm(self):
        # the cache is keyed on the parameters as given, and 1.0 == 1 with
        # the same hash, so the type check must come before any lookup:
        # a float raises whether or not the equal rational key is cached
        floats = (([-5, 1.0], [7]), ([-5, 1], [7.0]),
                  ([-5, 0.5], [7]), ([-5, 1], [3.5]))
        exact = (([-5, 1], [7]), ([-5, Fraction(1, 2)], [7]),
                 ([-5, 1], [Fraction(7, 2)]))
        for warm in (False, True):
            if warm:
                for numerator, denominator in exact:
                    hyp_terminating(numerator, denominator, 1)
            before = series_coefficients.cache_info()
            for numerator, denominator in floats:
                with pytest.raises(TypeError, match="from float"):
                    hyp_terminating(numerator, denominator, 1)
            assert series_coefficients.cache_info() == before


class TestGegenbauer:
    def test_low_degrees(self):
        assert gegenbauer(0, 3) == Polynomial([1])
        assert gegenbauer(1, 1) == Polynomial([0, 2])
        assert gegenbauer(2, 1) == Polynomial([-1, 0, 4])

    def test_derivative_shifts_parameter(self):
        # d/du C_n^lam = 2 lam C_{n-1}^{lam+1}
        for lam in range(1, 7):
            for n in range(1, 11):
                assert gegenbauer(n, lam).derivative() \
                    == gegenbauer(n - 1, lam + 1) * (2 * lam)

    def test_three_term_recurrence(self):
        # 2(n+lam) u C_n = (n+1) C_{n+1} + (n+2lam-1) C_{n-1}
        u = Polynomial.variable()
        for lam in range(1, 7):
            for n in range(1, 10):
                lhs = u * gegenbauer(n, lam) * (2 * (n + lam))
                rhs = gegenbauer(n + 1, lam) * (n + 1) \
                    + gegenbauer(n - 1, lam) * (n + 2 * lam - 1)
                assert lhs == rhs

    def test_lowering_identity(self):
        # (1-u^2) dC_n^lam/du + (1-2lam) u C_n^lam
        #   = -(n+1)(2lam+n-1)/(2(lam-1)) C_{n+1}^{lam-1}
        one_minus_u2 = Polynomial([1, 0, -1])
        u = Polynomial.variable()
        for lam in range(2, 7):
            for n in range(0, 11):
                lhs = one_minus_u2 * gegenbauer(n, lam).derivative() \
                    + u * gegenbauer(n, lam) * (1 - 2 * lam)
                coeff = Fraction(-(n + 1) * (2 * lam + n - 1), 2 * (lam - 1))
                assert lhs == gegenbauer(n + 1, lam - 1) * coeff

    def test_contiguous_identity(self):
        # (n+2lam-1)/(2(lam-1)) C_{n+1}^{lam-1} = C_{n+1}^lam - u C_n^lam
        u = Polynomial.variable()
        for lam in range(2, 7):
            for n in range(0, 11):
                coeff = Fraction(n + 2 * lam - 1, 2 * (lam - 1))
                lhs = gegenbauer(n + 1, lam - 1) * coeff
                assert lhs == gegenbauer(n + 1, lam) - u * gegenbauer(n, lam)


class TestHahn:
    def test_examples(self):
        for j in range(4):
            assert hahn_value(0, j, 3) == GaussianRational(1)
        assert hahn_value(1, 1, 2) == GaussianRational(0)
        assert hahn_value(2, 1, 2) == GaussianRational(-2)

    def test_index_range(self):
        with pytest.raises(ValueError):
            hahn_value(3, 0, 2)

    def test_orthogonality(self):
        # sum over the grid of products of two columns is diagonal with
        # the stated normalization
        for ell in range(9):
            for j in range(ell + 1):
                for k in range(ell + 1):
                    s = sum((hahn_value(j, r, ell) * hahn_value(k, r, ell)
                             for r in range(ell + 1)),
                            GaussianRational(0))
                    if j != k:
                        assert s.is_zero()
                    else:
                        norm = Fraction(
                            factorial(ell + j + 1) * factorial(ell - j),
                            (2 * j + 1) * factorial(ell) * factorial(ell))
                        assert s == GaussianRational(norm)

    def test_recursion_in_j(self):
        # second-order difference equation in the degree variable
        for ell in range(1, 9):
            for j in range(ell + 1):
                for k in range(ell + 1):
                    u = lambda jj: (hahn_value(k, jj, ell)
                                    if 0 <= jj <= ell else GaussianRational(0))
                    lhs = (GaussianRational(j * (ell - j + 1)
                                            + (j + 1) * (ell - j)
                                            - k * (k + 1)) * u(j))
                    rhs = (GaussianRational(j * (ell - j + 1)) * u(j - 1)
                           + GaussianRational((j + 1) * (ell - j)) * u(j + 1))
                    assert lhs == rhs

    def test_recursion_in_k(self):
        for ell in range(1, 9):
            for j in range(ell + 1):
                for k in range(ell + 1):
                    u = lambda kk: (hahn_value(kk, j, ell)
                                    if 0 <= kk <= ell else GaussianRational(0))
                    lhs = GaussianRational(ell - 2 * j) * u(k)
                    rhs = (GaussianRational(Fraction(k * (ell + k + 1),
                                                     2 * k + 1)) * u(k - 1)
                           + GaussianRational(Fraction((k + 1) * (ell - k),
                                                       2 * k + 1)) * u(k + 1))
                    assert lhs == rhs

    def test_mixed_first_order_relation(self):
        # first-order relation mixing the two indices; the sign of the
        # U_{j,k-1} term is the one forced by re-deriving the relation from
        # the two three-term recursions, which is how it is used downstream
        for ell in range(1, 9):
            for j in range(ell + 1):
                for k in range(ell + 1):
                    u = lambda jj, kk: (hahn_value(kk, jj, ell)
                                        if (0 <= jj <= ell and kk >= 0)
                                        else GaussianRational(0))
                    lhs = GaussianRational(k * (ell - j) - k * (k + j + 1)
                                           + 2 * (j + 1) * (ell - j)) \
                        * u(j, k)
                    rhs = (GaussianRational(2 * (j + 1) * (ell - j))
                           * u(j + 1, k)
                           + GaussianRational(k * (k + ell + 1))
                           * u(j, k - 1))
                    assert lhs == rhs


class TestRacah:
    def test_trivial_values(self):
        assert racah_value(0, 2, -4, -5, 0, 0, 3) == GaussianRational(1)
        assert racah_value(2, 0, -4, -5, 0, 0, 3) == GaussianRational(1)

    def test_precondition(self):
        with pytest.raises(ValueError):
            racah_value(1, 1, 5, 5, 5, 5, 3)
        with pytest.raises(TypeError):
            racah_value(0, 2, -4.0, -5, 0, 0, 3)

    def test_pfaff_saalschutz_closed_form(self):
        # 3F2(-j, j+1, -l-1; 1, -l; 1) = (-1)^j binom(l+j+1, j)/binom(l, j)
        for ell in range(7):
            for j in range(ell + 1):
                val = hyp_terminating([-j, j + 1, -ell - 1], [1, -ell],
                                      GaussianRational(1))
                expected = GaussianRational(
                    Fraction((-1) ** j * comb(ell + j + 1, j), comb(ell, j)))
                assert val == expected
