"""Constant structure matrices indexed by ell, the tridiagonal matrix L, and
the eigenvalue ledger linking the two index conventions.

All matrices are (ell+1) x (ell+1) and constant over the Gaussian rationals
(MatrixPolynomials; L a plain nested list), so identities stay exact.  ell
may be any nonnegative integer; for odd ell the half-integer ell/2 is kept as
an exact rational, although only even ell correspond to K-types of SO(3).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .gaussian import GaussianRational, I, ZERO
from .polynomials import MatrixPolynomial
from .hypergeometric import hahn_value
from . import exact_linalg


def _from_entries(n, entries):
    """Build a constant matrix from a dict {(i, j): scalar}."""
    return MatrixPolynomial.from_function(
        n, n, lambda i, j: entries.get((i, j), 0))


@dataclass(frozen=True)
class StructureSet:
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
        return tuple(f.name for f in fields(self) if f.name != "ell")


@lru_cache(maxsize=None)
def build_structures(ell: int) -> StructureSet:
    """Populate every structure matrix for the given ell."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    n = ell + 1
    half = Fraction(ell, 2)

    A0 = MatrixPolynomial.diagonal([ell - 2 * j for j in range(n)])

    c0 = {}
    for j in range(1, n):
        v = j * (ell - j + 1)
        c0[(j, j - 1)] = v
        c0[(j, j)] = c0.get((j, j), GaussianRational(0)) - v
    C0 = _from_entries(n, c0)

    c1 = {}
    for j in range(ell):
        v = (j + 1) * (ell - j)
        c1[(j, j + 1)] = v
        c1[(j, j)] = c1.get((j, j), GaussianRational(0)) - v
    C1 = _from_entries(n, c1)

    V0 = MatrixPolynomial.diagonal([j * (j + 1) for j in range(n)])
    V = MatrixPolynomial.diagonal([j * (j + 2) for j in range(n)])
    C = MatrixPolynomial.diagonal([2 * j + 3 for j in range(n)])
    J = MatrixPolynomial.diagonal(list(range(n)))

    Q0 = _from_entries(n, {(j, j + 1): Fraction((j + 1) * (ell + j + 2),
                                                2 * j + 3)
                           for j in range(ell)})
    Q1 = _from_entries(n, {(j, j - 1): Fraction(j * (ell - j + 1), 2 * j - 1)
                           for j in range(1, n)})
    M = _from_entries(n, {(j, j + 1): (j + 1) * (ell + j + 2)
                          for j in range(ell)})
    S1 = _from_entries(n, {(j, j + 1): 2 * (j + 1) for j in range(ell)})

    r1 = {}
    for j in range(ell):
        r1[(j, j + 1)] = Fraction(j + 1, 2)
        r1[(j + 1, j)] = Fraction(-(ell - j), 2)
    R1 = _from_entries(n, r1)
    R2 = MatrixPolynomial.diagonal([half - j for j in range(n)])
    Lambda0 = MatrixPolynomial.diagonal([-j * (j + 2) for j in range(n)])
    M0 = MatrixPolynomial.diagonal([-j * (half + 1) for j in range(n)])
    B = _from_entries(n, {
        **{(j, j): Fraction(2 * j + 3, 2) for j in range(n)},
        **{(j, j + 1): -(j + 1) for j in range(ell)},
    })

    U = MatrixPolynomial(
        [[hahn_value(k, j, ell) for k in range(n)] for j in range(n)]
    )
    Uinv = MatrixPolynomial(exact_linalg.invert(U.constant_value()))
    UstarU = MatrixPolynomial.diagonal([
        Fraction(factorial(j + ell + 1) * factorial(ell - j),
                 (2 * j + 1) * factorial(ell) * factorial(ell))
        for j in range(n)
    ])

    return StructureSet(ell=ell, A0=A0, C0=C0, C1=C1, V0=V0, V=V, C=C, J=J,
                        Q0=Q0, Q1=Q1, M=M, S1=S1, R1=R1, R2=R2,
                        Lambda0=Lambda0, M0=M0, B=B, U=U, Uinv=Uinv,
                        UstarU=UstarU)


def build_L(ell: int, n: int) -> list:
    """Tridiagonal matrix L at the spectral point lambda = -n(n+2), as
    nested lists of GaussianRational.

    The subdiagonal depends on n through the factors (n-j+1)(n+j+1).
    """
    size = ell + 1
    L = [[ZERO] * size for _ in range(size)]
    for j in range(1, size):
        L[j][j - 1] = I * GaussianRational(
            Fraction(j * (ell - j + 1), 2 * (2 * j - 1) * (2 * j + 1))
        ) * GaussianRational((n - j + 1) * (n + j + 1))
    for j in range(size):
        L[j][j] = GaussianRational(Fraction(-j * (j + 1), 2))
    for j in range(size - 1):
        L[j][j + 1] = -I * GaussianRational(
            Fraction((j + 1) * (ell + j + 2), 2)
        )
    return L


@dataclass(frozen=True)
class EigenLedger:
    """Both index conventions for one spherical function, with its
    eigenvalue pair, cross-checked at construction."""

    ell: int
    w: int
    k: int
    m1: Fraction
    m2: Fraction
    lam: int
    mu: Fraction

    def __post_init__(self):
        half = Fraction(self.ell, 2)
        assert self.m1 == self.w + half
        assert self.m2 == half - self.k
        # the same eigenvalues written in the representation parameters
        assert self.lam == -(self.m1 - self.m2) * (self.m1 - self.m2 + 2)
        assert self.mu == -Fraction(self.ell * (self.ell + 2), 4) \
            + (self.m1 + 1) * self.m2


def eigen_ledger(ell: int, w: int, k: int) -> EigenLedger:
    """Ledger from the polynomial-family indices (w, k)."""
    if w < 0 or not 0 <= k <= ell:
        raise ValueError("need w >= 0 and 0 <= k <= ell")
    half = Fraction(ell, 2)
    lam = -(w + k) * (w + k + 2)
    mu = w * (half - k) - k * (half + 1)
    return EigenLedger(ell=ell, w=w, k=k, m1=w + half, m2=half - k,
                       lam=lam, mu=mu)

