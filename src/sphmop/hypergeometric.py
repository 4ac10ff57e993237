"""Terminating hypergeometric series and the classical families built on them.

Everything here is a finite sum of Pochhammer ratios evaluated exactly at a
scalar point.  The tests check it against closed forms computed another way:
the Pfaff-Saalschutz value, and Gegenbauer polynomials from their explicit
sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from .gaussian import GaussianRational, as_fraction, integer_horner


@lru_cache(maxsize=None)
def series_coefficients(numerator: tuple, denominator: tuple):
    """The coefficients of the terminating pFq(numerator; denominator; z)
    as integer numerators p_0 .. p_n over one common denominator D, for
    tuples of int or Fraction parameters.

    The series must terminate through a nonpositive integer numerator
    parameter, and no denominator parameter may hit zero before it does
    (ValueError otherwise; an error is not cached).  Each coefficient is
    the previous one times an integer ratio of the shifted parameters, and
    is reduced once, so no factorial grows.  Cached per parameter tuple; the
    tuple it returns is shared by every caller.
    """
    stops = [-int(a) for a in numerator if a <= 0 and a.denominator == 1]
    if not stops:
        raise ValueError("series does not terminate: no nonpositive "
                         "integer numerator parameter")
    n_terms = min(stops)
    for b in denominator:
        if b <= 0 and b.denominator == 1 and -int(b) < n_terms:
            raise ValueError("denominator parameter hits zero before "
                             "the series terminates")
    # a parameter p/q shifted by m is (p + m q) / q, so coefficient m + 1 is
    # coefficient m times the integer ratio
    #     q_bottom prod_a (p_a + m q_a) / ((m + 1) q_top prod_b (p_b + m q_b))
    # with q_top, q_bottom the products of the numerator and denominator q's
    top = [(a.numerator, a.denominator) for a in numerator]
    bottom = [(b.numerator, b.denominator) for b in denominator]
    q_top = prod(q for _, q in top)
    q_bottom = prod(q for _, q in bottom)
    coeffs = [(1, 1)]
    n, d = 1, 1
    for m in range(n_terms):
        n *= q_bottom
        for p, q in top:
            n *= p + m * q
        d *= (m + 1) * q_top
        for p, q in bottom:
            d *= p + m * q
        g = gcd(n, d)
        n, d = n // g, d // g
        coeffs.append((n, d))
    # lcm is positive, so n * (D // d) has the sign of n / d
    D = lcm(*(d for _, d in coeffs))
    return tuple(n * (D // d) for n, d in coeffs), D


def hyp_terminating(numerator, denominator, z):
    """Sum the terminating pFq(numerator; denominator; z) exactly.

    The parameters are ints or Fractions, with the conditions of
    series_coefficients, which builds the integer series once per parameter
    set, keyed on the parameters as given.  Anything else raises TypeError
    before the lookup, since a float such as 1.0 would hit the entry of the
    equal int.  The argument z is a scalar, a GaussianRational or a
    rational, and the value is a GaussianRational: Horner's rule in z runs
    on Gaussian integers and reduces once (gaussian.integer_horner).
    """
    numerator, denominator = tuple(numerator), tuple(denominator)
    for a in numerator + denominator:
        if not isinstance(a, (int, Fraction)):
            as_fraction(a)   # raises the exact layers' TypeError
    p, D = series_coefficients(numerator, denominator)
    return integer_horner(p, D, z)


def hahn_value(k: int, j: int, ell: int) -> GaussianRational:
    """Value 3F2(-k, -j, k+1; 1, -ell; 1), the (j, k) entry of the Hahn
    matrix U."""
    if not (0 <= j <= ell and 0 <= k <= ell):
        raise ValueError("indices must lie in [0, ell]")
    return hyp_terminating([-k, -j, k + 1], [1, -ell], 1)


def racah_value(k: int, j: int, alpha, beta, gamma, delta,
                N: int) -> GaussianRational:
    """Racah polynomial value R_k(lambda(j)) with lambda(x) = x(x+gamma+
    delta+1), evaluated as a terminating 4F3 at unit argument."""
    alpha = as_fraction(alpha)
    beta = as_fraction(beta)
    gamma = as_fraction(gamma)
    delta = as_fraction(delta)
    if not any(p == -N for p in (alpha + 1, beta + delta + 1, gamma + 1)):
        raise ValueError("one of alpha+1, beta+delta+1, gamma+1 must be -N")
    if not 0 <= k <= N:
        raise ValueError("k out of range")
    return hyp_terminating(
        [-k, k + alpha + beta + 1, -j, j + gamma + delta + 1],
        [alpha + 1, beta + delta + 1, gamma + 1],
        1,
    )
