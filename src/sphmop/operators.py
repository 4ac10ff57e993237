"""Matrix ODE operators, operator conjugation, and the commutator check.

Operators act on column-vector (or matrix, columnwise) polynomial functions
F by A2 F'' + A1 F' + A0 F with the coefficient matrices multiplying from
the left.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .gaussian import GaussianRational
from .polynomials import (Polynomial, MatrixPolynomial, matpoly_product_sum,
                          mismatch)
from .structure import build_structures


class MatrixODEOperator(NamedTuple):
    """F maps to A2 F'' + A1 F' + A0 F; A2 is the zero matrix for
    first-order operators."""

    A2: MatrixPolynomial
    A1: MatrixPolynomial
    A0: MatrixPolynomial


def build_operator(name: str, ell: int) -> MatrixODEOperator:
    """The four operators of the theory, with exact coefficients.

    Dbar   = (1-u^2) F'' - u C F' - V F
    Ebar   = (i/2)((1-u^2) Q0 + Q1) F' + (-(i/2) u M - (1/2) V0) F
    Dtilde = (1-u^2) F'' + (-u C + S1) F' + Lambda0 F
    Etilde = (u R2 + R1) F' + M0 F
    """
    st = build_structures(ell)
    n = ell + 1
    u = Polynomial.variable()
    one_minus_u2 = Polynomial([1, 0, -1])
    eye = MatrixPolynomial.identity(n)

    if name == "Dbar":
        return MatrixODEOperator(
            A2=eye * one_minus_u2,
            A1=-(st.C * u),
            A0=-st.V,
        )
    if name == "Ebar":
        half_i = GaussianRational(0, Fraction(1, 2))
        return MatrixODEOperator(
            A2=MatrixPolynomial.zeros(n, n),
            A1=(st.Q0 * one_minus_u2 + st.Q1) * half_i,
            A0=-(st.M * u * half_i) - st.V0 * Fraction(1, 2),
        )
    if name == "Dtilde":
        return MatrixODEOperator(
            A2=eye * one_minus_u2,
            A1=st.S1 - st.C * u,
            A0=st.Lambda0,
        )
    if name == "Etilde":
        return MatrixODEOperator(
            A2=MatrixPolynomial.zeros(n, n),
            A1=st.R2 * u + st.R1,
            A0=st.M0,
        )
    raise ValueError(f"unknown operator {name!r}")


def apply(op: MatrixODEOperator, F: MatrixPolynomial) -> MatrixPolynomial:
    """Apply the operator columnwise; exact."""
    if op.A1.cols != F.rows:
        raise ValueError("size mismatch between operator and argument")
    d1 = F.derivative()
    return matpoly_product_sum(
        [(op.A2, d1.derivative()), (op.A1, d1), (op.A0, F)])


def conjugate(op: MatrixODEOperator, Psi: MatrixPolynomial,
              PsiInv: MatrixPolynomial) -> MatrixODEOperator:
    """The operator G -> Psi^{-1} op(Psi G), with polynomial coefficients.

    Expanding derivatives of Psi G by the Leibniz rule gives
    A2~ = Psi^{-1} A2 Psi, A1~ = Psi^{-1}(2 A2 Psi' + A1 Psi) and
    A0~ = Psi^{-1}(A2 Psi'' + A1 Psi' + A0 Psi) = Psi^{-1} op(Psi).
    Psi must be upper triangular with constant nonzero diagonal so that
    Psi^{-1}, and hence every coefficient, is again polynomial.
    """
    return MatrixODEOperator(
        A2=PsiInv * (op.A2 * Psi),
        A1=PsiInv * matpoly_product_sum([(op.A2 * 2, Psi.derivative()),
                                         (op.A1, Psi)]),
        A0=PsiInv * apply(op, Psi),
    )


def commutator_check(opA: MatrixODEOperator, opB: MatrixODEOperator):
    """None when the operators commute, else a witness naming the least d
    with [A, B] u^d e_j != 0 and its first differing entry (column j of
    u^d I is u^d e_j).  Both have order <= 2, so [A, B] = sum_{k<=4}
    C_k(u) d^k/du^k maps u^d to sum_{k<=d} C_k (d)_k u^{d-k}: a nonzero
    commutator first fails at d = k0, the least k with C_k != 0, and
    k0 <= 4.  So d <= 4 decides it, and a larger bound finds the same."""
    eye = MatrixPolynomial.identity(opA.A1.rows)
    for d in range(5):
        F = eye * Polynomial([0] * d + [1])
        witness = mismatch(apply(opA, apply(opB, F)),
                           apply(opB, apply(opA, F)), f"u^{d} e_j: ")
        if witness:
            return witness
    return None

