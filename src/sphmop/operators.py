"""Matrix ODE operators, operator conjugation, and the Frobenius-type series
solver for the matrix hypergeometric equation in the s variable.

Operators act on column-vector (or matrix, columnwise) polynomial functions
F by A2 F'' + A1 F' + A0 F with the coefficient matrices multiplying from
the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gaussian import GaussianRational, ZERO
from .polynomials import Polynomial, MatrixPolynomial, mismatch
from .structure import build_structures, eigen_ledger
from . import exact_linalg


def u_to_s(M: MatrixPolynomial) -> MatrixPolynomial:
    """Exact change of variable u = 1 - 2s."""
    return M.substitute_affine(-2, 1, "s")


def s_to_u(M: MatrixPolynomial) -> MatrixPolynomial:
    """Exact change of variable s = (1 - u)/2."""
    return M.substitute_affine(Fraction(-1, 2), Fraction(1, 2), "u")


@dataclass(frozen=True)
class MatrixODEOperator:
    """F maps to A2 F'' + A1 F' + A0 F; A2 is None for first-order
    operators."""

    order: int
    A2: MatrixPolynomial | None
    A1: MatrixPolynomial
    A0: MatrixPolynomial

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        if (self.order == 2) != (self.A2 is not None):
            raise ValueError("A2 must be present exactly for order 2")


def build_operator(name: str, ell: int) -> MatrixODEOperator:
    """The four operators of the theory, with exact coefficients.

    Dbar   = (1-u^2) F'' - u C F' - V F
    Ebar   = (i/2)((1-u^2) Q0 + Q1) F' + (-(i/2) u M - (1/2) V0) F
    Dtilde = (1-u^2) F'' + (-u C + S1) F' + Lambda0 F
    Etilde = (u R2 + R1) F' + M0 F
    """
    st = build_structures(ell)
    n = ell + 1
    u = Polynomial.variable("u")
    one_minus_u2 = Polynomial([1, 0, -1], var="u")
    eye = MatrixPolynomial.identity(n)

    if name == "Dbar":
        return MatrixODEOperator(
            order=2,
            A2=eye.scale(one_minus_u2),
            A1=-(st.C.scale(u)),
            A0=-st.V,
        )
    if name == "Ebar":
        half_i = GaussianRational(0, Fraction(1, 2))
        return MatrixODEOperator(
            order=1,
            A2=None,
            A1=(st.Q0.scale(one_minus_u2) + st.Q1).scale(half_i),
            A0=-(st.M.scale(u).scale(half_i)) - st.V0.scale(Fraction(1, 2)),
        )
    if name == "Dtilde":
        return MatrixODEOperator(
            order=2,
            A2=eye.scale(one_minus_u2),
            A1=st.S1 - st.C.scale(u),
            A0=st.Lambda0,
        )
    if name == "Etilde":
        return MatrixODEOperator(
            order=1,
            A2=None,
            A1=st.R2.scale(u) + st.R1,
            A0=st.M0,
        )
    raise ValueError(f"unknown operator {name!r}")


def apply(op: MatrixODEOperator, F: MatrixPolynomial) -> MatrixPolynomial:
    """Apply the operator columnwise; exact."""
    if op.A1.cols != F.rows:
        raise ValueError("size mismatch between operator and argument")
    d1 = F.derivative()
    out = op.A1 * d1 + op.A0 * F
    if op.order == 2:
        out = out + op.A2 * d1.derivative()
    return out


def conjugate(op: MatrixODEOperator, Psi: MatrixPolynomial,
              PsiInv: MatrixPolynomial) -> MatrixODEOperator:
    """The operator G -> Psi^{-1} op(Psi G), with polynomial coefficients.

    Expanding derivatives of Psi G by the Leibniz rule gives, for order 2,
    A2~ = Psi^{-1} A2 Psi, A1~ = Psi^{-1}(2 A2 Psi' + A1 Psi),
    A0~ = Psi^{-1}(A2 Psi'' + A1 Psi' + A0 Psi); order 1 drops the A2 terms.
    Psi must be upper triangular with constant nonzero diagonal so that
    Psi^{-1}, and hence every coefficient, is again polynomial.
    """
    dPsi = Psi.derivative()
    if op.order == 2:
        A2 = PsiInv * (op.A2 * Psi)
        A1 = PsiInv * (op.A2 * dPsi.scale(2) + op.A1 * Psi)
        A0 = PsiInv * (op.A2 * dPsi.derivative() + op.A1 * dPsi
                       + op.A0 * Psi)
        return MatrixODEOperator(order=2, A2=A2, A1=A1, A0=A0)
    A1 = PsiInv * (op.A1 * Psi)
    A0 = PsiInv * (op.A1 * dPsi + op.A0 * Psi)
    return MatrixODEOperator(order=1, A2=None, A1=A1, A0=A0)


def commutator_check(opA: MatrixODEOperator, opB: MatrixODEOperator,
                     degree_bound: int):
    """None when the operators commute on every monomial vector u^d e_j
    with d <= degree_bound, else a witness naming d and the first entry
    where they differ (column j of u^d I is u^d e_j).  Complete for
    polynomial-coefficient operators once the bound exceeds the coefficient
    degrees plus two."""
    eye = MatrixPolynomial.identity(opA.A1.rows)
    for d in range(degree_bound + 1):
        F = eye.scale(Polynomial([0] * d + [1], var="u"))
        witness = mismatch(apply(opA, apply(opB, F)),
                           apply(opB, apply(opA, F)), f"u^{d} e_j: ")
        if witness:
            return witness
    return None


@dataclass(frozen=True)
class HypSolution:
    """Truncated series solution F(s) = sum_i F_i s^i of the hypergeometric
    equation s(1-s) F'' + (B - s C) F' + (Lambda0 - lambda) F = 0."""

    ell: int
    lam: GaussianRational
    F0: tuple
    coefficients: tuple
    is_polynomial: bool
    degree: int | None

    def as_matrix(self) -> MatrixPolynomial:
        """The solution as a column vector of polynomials in s."""
        n = self.ell + 1
        return MatrixPolynomial(
            [[Polynomial([F[i] for F in self.coefficients], var="s")]
             for i in range(n)],
            var="s",
        )


def _step_matrix(st, lam: GaussianRational, i: int):
    """The map F_i -> F_{i+1} obtained from the series recurrence:
    (i+1)(B + i) F_{i+1} = (i(C + i - 1) - Lambda0 + lam) F_i."""
    n = st.ell + 1
    Bi = [[st.B[r, c].constant_term() + (GaussianRational(i) if r == c
                                         else ZERO)
           for c in range(n)] for r in range(n)]
    Binv = exact_linalg.invert(Bi)
    # the middle factor is diagonal
    diag = [GaussianRational(i) * (st.C[j, j].constant_term()
                                   + GaussianRational(i - 1))
            - st.Lambda0[j, j].constant_term() + lam for j in range(n)]
    scale = GaussianRational(Fraction(1, i + 1))
    return [[Binv[r][c] * diag[c] * scale for c in range(n)]
            for r in range(n)]


def hyp_solve(ell: int, lam, F0, max_terms: int = 64) -> HypSolution:
    """Iterate the series recurrence from the given F0.

    is_polynomial is true iff some F_{w+1} vanishes with F_w nonzero; the
    series then terminates and degree = w.  If max_terms is reached first,
    the solution is flagged non-polynomial (for a generic F0 this happens
    even at spectral values lam = -n(n+2)).
    """
    st = build_structures(ell)
    lam = (lam if isinstance(lam, GaussianRational)
           else GaussianRational(Fraction(lam)))
    F = [GaussianRational.of(x) if not isinstance(x, GaussianRational)
         else x for x in F0]
    coeffs = [tuple(F)]
    is_poly = False
    degree = None
    for i in range(max_terms):
        S = _step_matrix(st, lam, i)
        F = [sum((S[r][c] * F[c] for c in range(ell + 1)), ZERO)
             for r in range(ell + 1)]
        if all(x.is_zero() for x in F):
            is_poly = True
            degree = len(coeffs) - 1
            break
        coeffs.append(tuple(F))
    return HypSolution(ell=ell, lam=lam, F0=tuple(coeffs[0]),
                       coefficients=tuple(coeffs), is_polynomial=is_poly,
                       degree=degree)


def classify_polynomial_solutions(ell: int, n: int):
    """All polynomial solutions of the s-variable equation at
    lam = -n(n+2), found from the series recurrence alone.

    The i-th coefficient is T_i F0 for a product T_i of step matrices, so
    degree <= w solutions form the null space of T_{w+1}.  Returns a list
    of (w, k, F0, leading) where the leading coefficient T_w F0 is a
    multiple of the standard basis vector e_k.
    """
    st = build_structures(ell)
    lam = GaussianRational(-n * (n + 2))
    size = ell + 1
    T = [exact_linalg.mat_identity(size)]
    for i in range(n + 1):
        T.append(exact_linalg.mat_mul(_step_matrix(st, lam, i), T[-1]))
    found = []
    for w in range(n + 1):
        null = exact_linalg.nullspace(T[w + 1])
        for v in null:
            lead = [sum((T[w][r][c] * v[c] for c in range(size)), ZERO)
                    for r in range(size)]
            if all(x.is_zero() for x in lead):
                continue
            support = [r for r in range(size) if not lead[r].is_zero()]
            if len(support) != 1:
                raise ArithmeticError("leading coefficient is not along a "
                                      "single basis vector")
            found.append((w, support[0], tuple(v), tuple(lead)))
    # deduplicate: a degree-w solution also sits in every later null space
    dedup = {}
    for w, k, v, lead in found:
        key = k
        if key not in dedup or w < dedup[key][0]:
            dedup[key] = (w, k, v, lead)
    return sorted(dedup.values())


def L_eigensolve(ell: int, n: int):
    """All eigenpairs (mu, a-vector) of L(-n(n+2)) reachable from the
    ledger: k in 0..min(n, ell) with w = n - k."""
    from .family import coeffs_by_recursion
    out = []
    for k in range(min(n, ell) + 1):
        w = n - k
        ledger = eigen_ledger(ell, w, k)
        out.append((ledger.mu, coeffs_by_recursion(ell, w, k)))
    return out
