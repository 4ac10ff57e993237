"""Constant structure matrices indexed by ell, the tridiagonal matrix L, and
the eigenvalue ledger linking the two index conventions.

All matrices are (ell+1) x (ell+1) and constant over the Gaussian rationals
(MatrixPolynomials; L a plain nested list), so identities stay exact.  ell
may be any nonnegative integer; for odd ell the half-integer ell/2 is kept as
an exact rational, although only even ell correspond to K-types of SO(3).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .gaussian import GaussianRational, ZERO
from .polynomials import MatrixPolynomial
from .hypergeometric import hahn_value
from . import exact_linalg


def _band(n, sub=(), diag=(), sup=()):
    """The n x n matrix, as nested lists of GaussianRational, with sub[j] at
    (j+1, j), diag[j] at (j, j), sup[j] at (j, j+1) and zeros elsewhere."""
    m = [[ZERO] * n for _ in range(n)]
    for (r, c), band in (((1, 0), sub), ((0, 0), diag), ((0, 1), sup)):
        for j, x in enumerate(band):
            m[j + r][j + c] = GaussianRational.of(x)
    return m


class StructureSet(NamedTuple):
    """Every constant matrix the operator and orthogonality layers need."""

    ell: int
    A0: MatrixPolynomial
    C0: MatrixPolynomial
    C1: MatrixPolynomial
    V0: MatrixPolynomial
    V: MatrixPolynomial
    C: MatrixPolynomial
    J: MatrixPolynomial
    Q0: MatrixPolynomial
    Q1: MatrixPolynomial
    M: MatrixPolynomial
    S1: MatrixPolynomial
    R1: MatrixPolynomial
    R2: MatrixPolynomial
    Lambda0: MatrixPolynomial
    M0: MatrixPolynomial
    B: MatrixPolynomial
    U: MatrixPolynomial
    Uinv: MatrixPolynomial
    UstarU: MatrixPolynomial

    def names(self):
        return self._fields[1:]


@lru_cache(maxsize=None)
def build_structures(ell: int) -> StructureSet:
    """Populate every structure matrix for the given ell."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    n = ell + 1
    half = Fraction(ell, 2)

    js, up = range(n), range(ell)   # diagonal and off-diagonal indices
    bands = dict(
        A0=_band(n, diag=[ell - 2 * j for j in js]),
        C0=_band(n, sub=[(j + 1) * (ell - j) for j in up],
                 diag=[-j * (ell - j + 1) for j in js]),
        C1=_band(n, diag=[-(j + 1) * (ell - j) for j in js],
                 sup=[(j + 1) * (ell - j) for j in up]),
        V0=_band(n, diag=[j * (j + 1) for j in js]),
        V=_band(n, diag=[j * (j + 2) for j in js]),
        C=_band(n, diag=[2 * j + 3 for j in js]),
        J=_band(n, diag=js),
        Q0=_band(n, sup=[Fraction((j + 1) * (ell + j + 2), 2 * j + 3)
                         for j in up]),
        Q1=_band(n, sub=[Fraction((j + 1) * (ell - j), 2 * j + 1)
                         for j in up]),
        M=_band(n, sup=[(j + 1) * (ell + j + 2) for j in up]),
        S1=_band(n, sup=[2 * (j + 1) for j in up]),
        R1=_band(n, sub=[Fraction(-(ell - j), 2) for j in up],
                 sup=[Fraction(j + 1, 2) for j in up]),
        R2=_band(n, diag=[half - j for j in js]),
        Lambda0=_band(n, diag=[-j * (j + 2) for j in js]),
        M0=_band(n, diag=[-j * (half + 1) for j in js]),
        B=_band(n, diag=[Fraction(2 * j + 3, 2) for j in js],
                sup=[-(j + 1) for j in up]),
        UstarU=_band(n, diag=[
            Fraction(factorial(j + ell + 1) * factorial(ell - j),
                     (2 * j + 1) * factorial(ell) * factorial(ell))
            for j in js]),
    )
    U = MatrixPolynomial(
        [[hahn_value(k, j, ell) for k in range(n)] for j in range(n)]
    )
    Uinv = MatrixPolynomial(exact_linalg.invert(U.constant_value()))
    return StructureSet(ell=ell, U=U, Uinv=Uinv, **{
        name: MatrixPolynomial(m) for name, m in bands.items()})


def build_L(ell: int, n: int) -> list:
    """Tridiagonal matrix L at the spectral point lambda = -n(n+2), as
    nested lists of GaussianRational.

    Only the subdiagonal entry (j+1, j) depends on n, through the factors
    (n-j)(n+j+2).
    """
    return _band(
        ell + 1,
        sub=[GaussianRational(0, Fraction(
            (j + 1) * (ell - j) * (n - j) * (n + j + 2),
            2 * (2 * j + 1) * (2 * j + 3))) for j in range(ell)],
        diag=[Fraction(-j * (j + 1), 2) for j in range(ell + 1)],
        sup=[GaussianRational(0, Fraction(-(j + 1) * (ell + j + 2), 2))
             for j in range(ell)])


class EigenLedger(NamedTuple):
    """Both index conventions for one spherical function, with its
    eigenvalue pair, cross-checked by eigen_ledger."""

    ell: int
    w: int
    k: int
    m1: Fraction
    m2: Fraction
    lam: int
    mu: Fraction


def eigen_ledger(ell: int, w: int, k: int) -> EigenLedger:
    """Ledger from the polynomial-family indices (w, k)."""
    if w < 0 or not 0 <= k <= ell:
        raise ValueError("need w >= 0 and 0 <= k <= ell")
    half = Fraction(ell, 2)
    lam = -(w + k) * (w + k + 2)
    mu = w * (half - k) - k * (half + 1)
    led = EigenLedger(ell=ell, w=w, k=k, m1=w + half, m2=half - k,
                      lam=lam, mu=mu)
    assert led.m1 == led.w + half
    assert led.m2 == half - led.k
    # the same eigenvalues written in the representation parameters
    assert led.lam == -(led.m1 - led.m2) * (led.m1 - led.m2 + 2)
    assert led.mu == -Fraction(led.ell * (led.ell + 2), 4) \
        + (led.m1 + 1) * led.m2
    return led

