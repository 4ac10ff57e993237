"""Coefficient vectors, the matrix packages P_w, the base package Psi = P_0,
and the orthogonal family P_w~ = Psi^{-1} P_w.

The a-vectors are produced by two independent code paths, a three-term
recursion and a Racah closed form, and the tests cross-check them entry by
entry; neither path is trusted alone.  P_w reads its entries from one
normalised Gegenbauer table; eval_H sums them as 2F1 series at a point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import NamedTuple

from .gaussian import GaussianRational, ZERO, ONE
from .polynomials import (Polynomial, MatrixPolynomial,
                          matpoly_inverse_triangular)
from .hypergeometric import hyp_terminating, racah_value
from .structure import build_L, build_structures, eigen_ledger


@lru_cache(maxsize=None)
def coeffs_by_recursion(ell: int, w: int, k: int) -> tuple:
    """The leading constants (a_0, ..., a_ell) of one package column, by
    solving the three-term recursion forward from a_0 = 1.

    The recursion is the eigenvector equation L(lambda) a = mu a read row by
    row; the superdiagonal coefficient -i(j+1)(ell+j+2)/2 never vanishes, so
    each row determines the next entry.  The last row is a closing relation
    with no new unknown; it is asserted, not solved.  Cached per
    (ell, w, k); the immutable tuple is shared by every caller.
    """
    ledger = eigen_ledger(ell, w, k)
    mu = GaussianRational(ledger.mu)
    L = build_L(ell, n=w + k)
    a = [ONE] + [ZERO] * ell
    for j in range(ell):
        rhs = mu * a[j]
        if j > 0:
            rhs = rhs - L[j][j - 1] * a[j - 1]
        rhs = rhs - L[j][j] * a[j]
        a[j + 1] = rhs / L[j][j + 1]
    closing = -mu * a[ell] + L[ell][ell] * a[ell]
    if ell > 0:
        closing = closing + L[ell][ell - 1] * a[ell - 1]
    if not closing.is_zero():
        raise ArithmeticError(
            f"closing equation violated for (ell={ell}, w={w}, k={k})"
        )
    return tuple(a)


def coeffs_by_racah(ell: int, w: int, k: int) -> tuple:
    """Closed form for (a_0, ..., a_ell) via a Racah polynomial value."""
    if w < 0 or not 0 <= k <= ell:
        raise ValueError("need w >= 0 and 0 <= k <= ell")
    out = []
    minus_2i = GaussianRational(0, -2)
    for j in range(ell + 1):
        poch = (-1) ** j * perm(w + k, j)   # (-w-k)_j
        if poch == 0:
            out.append(ZERO)
            continue
        scale = (minus_2i ** j
                 * GaussianRational(poch)
                 * GaussianRational(Fraction(factorial(j), factorial(2 * j)))
                 * GaussianRational(Fraction(comb(ell, j),
                                             comb(ell + j + 1, j))))
        r = racah_value(k, j, -ell - 1, -w - k - 1, 0, 0, ell)
        out.append(scale * r)
    return tuple(out)


@lru_cache(maxsize=None)
def normalised_gegenbauer(lam: int, m: int) -> Polynomial:
    """C^lam_m(u) / C^lam_m(1) = 2F1(-m, m+2lam; lam+1/2; (1-u)/2) by the
    recurrence DLMF 18.9.1 normalised at u = 1; the lower degrees are cached
    first, upward, so no call recurses more than one level."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    if m < 2:
        return Polynomial([0, 1] if m else [1])
    for d in range(2, m):
        normalised_gegenbauer(lam, d)
    return (Polynomial.variable() * normalised_gegenbauer(lam, m - 1)
            * Fraction(2 * (m + lam - 1), m + 2 * lam - 1)
            - normalised_gegenbauer(lam, m - 2)
            * Fraction(m - 1, m + 2 * lam - 1))


def build_Pw(ell: int, w: int) -> MatrixPolynomial:
    """The package P_w: entry (j, k) is a_j * normalised_gegenbauer(j+1,
    w+k-j), and zero where a_j is, as on the whole tail j > w+k."""
    cols = [coeffs_by_recursion(ell, w, k) for k in range(ell + 1)]
    return MatrixPolynomial.from_function(
        ell + 1, ell + 1,
        lambda j, k: (Polynomial.zero() if cols[k][j].is_zero() else
                      normalised_gegenbauer(j + 1, w + k - j) * cols[k][j]))


class FamilyPackage(NamedTuple):
    """Psi, its inverse, and the packages P_w and P_w~ for w up to w_max."""

    ell: int
    Psi: MatrixPolynomial
    PsiInv: MatrixPolynomial
    Pw: dict
    PwTilde: dict


def build_family(ell: int, w_max: int) -> FamilyPackage:
    if w_max < 0:
        raise ValueError("w_max must be nonnegative")
    Psi = build_Pw(ell, 0)
    PsiInv = matpoly_inverse_triangular(Psi)
    Pw = {}
    PwTilde = {}
    for w in range(w_max + 1):
        Pw[w] = Psi if w == 0 else build_Pw(ell, w)
        PwTilde[w] = PsiInv * Pw[w]
    return FamilyPackage(ell=ell, Psi=Psi, PsiInv=PsiInv, Pw=Pw,
                         PwTilde=PwTilde)


# ell -> the Hahn matrix U of build_structures(ell) with complex entries,
# converted once per ell (a key on the structure set itself would hash
# every one of its matrices on each lookup)
_HAHN_COMPLEX = {}


@lru_cache(maxsize=None)
def _lower_parameter(j: int) -> tuple:
    """The lower parameter (j + 3/2,) of the 2F1 of entry j in eval_H."""
    return (Fraction(2 * j + 3, 2),)


def eval_H(ell: int, w: int, k: int, u: float):
    """Numeric value of the vector H(u) = U diag((1-u^2)^{j/2}) P_col(u).

    Valid for u in [-1, 1].  Each entry a_j 2F1(j-w-k, w+k+j+2; j+3/2;
    (1-u)/2) of P_col is summed exactly at the float u taken as a Fraction
    and rounded once.  At u = 1 every half-integer power collapses and the
    value is (1, ..., 1) since a_0 = 1.
    """
    u = float(u)
    if not -1.0 <= u <= 1.0:
        raise ValueError("u must lie in [-1, 1]")
    a = coeffs_by_recursion(ell, w, k)
    # one GaussianRational for every entry's sum, so none converts it again
    z = GaussianRational.of((1 - Fraction(u)) / 2)
    p = [complex(x * hyp_terminating([j - w - k, w + k + j + 2],
                                     _lower_parameter(j), z))
         if not x.is_zero() else 0j for j, x in enumerate(a)]
    t = [(1.0 - u * u) ** (j / 2.0) for j in range(ell + 1)]
    st = build_structures(ell)
    U = _HAHN_COMPLEX.get(ell)
    if U is None:
        U = _HAHN_COMPLEX[ell] = tuple(tuple(complex(x) for x in row)
                                       for row in st.U.constant_value())
    return [sum(U[r][j] * t[j] * p[j] for j in range(ell + 1))
            for r in range(ell + 1)]
