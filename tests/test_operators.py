"""Differential operator construction, conjugation, commutation, and the
series solver in the s variable.

The paper's degree theory solves the matrix hypergeometric equation in
s = (1-u)/2.  Only these tests and the acceptance gate's degree criterion
work in s, so the series solver and the change of variable live here;
the package itself works in u only.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from sphmop.gaussian import GaussianRational, ZERO, ONE
from sphmop.polynomials import Polynomial, MatrixPolynomial, mismatch
from sphmop.structure import build_L, build_structures, eigen_ledger
from sphmop.family import coeffs_by_recursion
from sphmop.operators import (MatrixODEOperator, build_operator, apply,
                              conjugate, commutator_check)
from sphmop import exact_linalg

from conftest import (edit_result, failing_rows, shift_A0, unit_matrix,
                      verify_row)


def _compose(M: MatrixPolynomial, t: Polynomial) -> MatrixPolynomial:
    """Every entry p of M replaced by p(t), by Horner's rule."""
    def entry(i, j):
        acc = Polynomial.zero()
        for c in reversed(M[i, j].coeffs):
            acc = acc * t + c
        return acc
    return MatrixPolynomial.from_function(M.rows, M.cols, entry)


def u_to_s(M: MatrixPolynomial) -> MatrixPolynomial:
    """Exact change of variable u = 1 - 2s."""
    return _compose(M, Polynomial([1, -2]))


def s_to_u(M: MatrixPolynomial) -> MatrixPolynomial:
    """Exact change of variable s = (1 - u)/2."""
    return _compose(M, Polynomial([Fraction(1, 2), Fraction(-1, 2)]))


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
            [[Polynomial([F[i] for F in self.coefficients])]
             for i in range(n)])


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


class TestBuildAndApply:
    def test_ell0_operators(self):
        D = build_operator("Dtilde", 0)
        assert D.A2 == MatrixPolynomial([[Polynomial([1, 0, -1])]])
        assert D.A1 == MatrixPolynomial([[Polynomial([0, -3])]])
        assert D.A0.is_zero()
        E = build_operator("Etilde", 0)
        assert E.A1.is_zero() and E.A0.is_zero()

    def test_constant_kernel_vectors(self):
        Dbar = build_operator("Dbar", 2)
        e0 = MatrixPolynomial([[Polynomial([1])], [Polynomial.zero()],
                               [Polynomial.zero()]])
        assert apply(Dbar, e0).is_zero()
        Etilde = build_operator("Etilde", 2)
        assert apply(Etilde, e0).is_zero()

    def test_apply_to_identity(self):
        for ell in (1, 2):
            Dtilde = build_operator("Dtilde", ell)
            st = build_structures(ell)
            assert apply(Dtilde, MatrixPolynomial.identity(ell + 1)) \
                == st.Lambda0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_operator("nope", 2)

    def test_endpoint_derivative_relation(self, families):
        # evaluating the second-order eigen equation at u = 1 forces
        # P'(1) = -C^{-1} (V + lambda) P(1) columnwise
        for ell in (1, 2, 4):
            fam = families[ell]
            st = build_structures(ell)
            Cinv = exact_linalg.invert(st.C.constant_value())
            V = st.V.constant_value()
            for w in (1, 2):
                P = fam.Pw[w]
                P1 = P.evaluate_exact(GaussianRational(1))
                dP1 = P.derivative().evaluate_exact(GaussianRational(1))
                for k in range(ell + 1):
                    lam = GaussianRational(eigen_ledger(ell, w, k).lam)
                    for i in range(ell + 1):
                        rhs = sum(
                            (-(Cinv[i][t]) * (V[t][t] + lam) * P1[t][k]
                             for t in range(ell + 1)),
                            ZERO)
                        assert dP1[i][k] == rhs


class TestConjugation:
    # Psi^{-1} Dbar Psi = Dtilde and Psi^{-1} Ebar Psi = Etilde are verify
    # rows, compared coefficient by coefficient at every grid ell

    def test_conjugate_by_identity(self):
        op = build_operator("Dbar", 2)
        eye = MatrixPolynomial.identity(3)
        assert conjugate(op, eye, eye) == op

    def test_verify_compares_A2_of_first_order_pair(self, monkeypatch):
        # Ebar is the only first-order operator verify conjugates; a
        # nonzero A2 in its conjugate must fail the Etilde row
        edit_result(monkeypatch, "conjugate", lambda out, op, Psi, PsiInv: (
            out._replace(A2=out.A2 + MatrixPolynomial.identity(Psi.rows))
            if op.A2.is_zero() else out))
        assert verify_row(1, 1, "PsiInv*Ebar*Psi = Etilde") \
            == "A2 entry (0,0): 1 != 0"


def commutator_to_degree(opA, opB, degree_bound):
    """The monomial loop of commutator_check run to an explicit degree:
    the oracle for its bound of 4."""
    eye = MatrixPolynomial.identity(opA.A1.rows)
    for d in range(degree_bound + 1):
        F = eye * Polynomial([0] * d + [1])
        witness = mismatch(apply(opA, apply(opB, F)),
                           apply(opB, apply(opA, F)), f"u^{d} e_j: ")
        if witness:
            return witness
    return None


def derivative_operator(p, E):
    """The operator E d^p/du^p, for p <= 2."""
    zero = MatrixPolynomial.zeros(E.rows, E.cols)
    A = [zero, zero, zero]
    A[p] = E
    return MatrixODEOperator(A2=A[2], A1=A[1], A0=A[0])


class TestCommutation:
    # [Dbar, Ebar] = 0 is a verify row; verify has no row for the tilde pair

    @pytest.mark.parametrize("p", range(3))
    @pytest.mark.parametrize("q", range(3))
    def test_bound_four_finds_every_order(self, p, q):
        # [E_01 d^p, E_10 d^q] = (E_00 - E_11) d^(p+q) vanishes on u^d for
        # d < p+q, so the first witness is at d = p+q <= 4
        A = derivative_operator(p, unit_matrix(2, 0, 1))
        B = derivative_operator(q, unit_matrix(2, 1, 0))
        witness = (f"u^{p + q} e_j: entry (0,0): "
                   f"{math.factorial(p + q)} != 0")
        assert commutator_check(A, B) == witness
        assert commutator_to_degree(A, B, 12) == witness
        assert commutator_to_degree(A, B, p + q - 1) is None

    def test_agrees_with_degree_12_oracle(self):
        # the paper's pairs, and each with E_{0,ell} added to A2 of the
        # first-order operator, which breaks the commutation
        for ell in range(5):
            corner = unit_matrix(ell + 1, 0, ell)
            for a, b in (("Dbar", "Ebar"), ("Dtilde", "Etilde")):
                A, base = build_operator(a, ell), build_operator(b, ell)
                for B in (base, base._replace(A2=base.A2 + corner)):
                    witness = commutator_check(A, B)
                    assert witness == commutator_to_degree(A, B, 12)
                    assert (witness is None) == (B is base)

    def test_tilde_pair_commutes(self):
        for ell in (0, 1, 2, 4):
            assert commutator_check(build_operator("Dtilde", ell),
                                    build_operator("Etilde", ell)) is None

    def test_verify_catches_shifted_Ebar(self, monkeypatch):
        # u I in A0 of Ebar breaks [Dbar, Ebar] = 0 and both rows that read
        # Ebar; every other row still passes
        commutator = "[Dbar, Ebar] = 0 on monomials to degree 12"
        u = Polynomial.variable()
        shift_A0(monkeypatch, "Ebar",
                 lambda n: MatrixPolynomial.identity(n) * u)
        failing = failing_rows(2, 1)
        assert set(failing) == {commutator, "Ebar*P_w = P_w*M_w",
                                "PsiInv*Ebar*Psi = Etilde"}
        assert failing[commutator] == "u^0 e_j: entry (0,0): (-3)*u != 0"

    def test_multiplication_operator_does_not_commute(self):
        from sphmop.operators import MatrixODEOperator
        ell = 2
        u = Polynomial.variable()
        mult_u = MatrixODEOperator(
            A2=MatrixPolynomial.zeros(3, 3),
            A1=MatrixPolynomial.zeros(3, 3),
            A0=MatrixPolynomial.identity(3) * u,
        )
        assert commutator_check(build_operator("Dtilde", ell), mult_u) \
            == "u^0 e_j: entry (0,0): (-3)*u != 0"


class TestSeriesSolver:
    def test_constant_solution(self):
        sol = hyp_solve(2, 0, [1, 0, 0])
        assert sol.is_polynomial and sol.degree == 0

    def test_nonspectral_lambda_not_polynomial(self):
        sol = hyp_solve(2, -5, [1, 0, 0], max_terms=50)
        assert not sol.is_polynomial

    def test_spectral_lambda_generic_seed_not_polynomial(self):
        # the spectral value alone is not enough when the terminating seeds
        # span a proper subspace: at lambda = -3 (n = 1, ell = 2) only two
        # of the three seed directions terminate
        sol = hyp_solve(2, -3, [1, 1, 1], max_terms=50)
        assert not sol.is_polynomial

    def test_classification_counts_and_leads(self):
        for ell in (0, 1, 2, 4, 6):
            for n in range(9):
                sols = classify_polynomial_solutions(ell, n)
                assert len(sols) == min(n + 1, ell + 1)
                ks = sorted(k for (w, k, v, lead) in sols)
                assert ks == list(range(min(n, ell) + 1))
                for w, k, v, lead in sols:
                    assert w == n - k
                    assert not lead[k].is_zero()
                    assert all(lead[r].is_zero()
                               for r in range(ell + 1) if r != k)

    def test_solutions_match_tilde_columns(self, families):
        for ell in (1, 2):
            fam = families[ell]
            for w in range(4):
                for k in range(ell + 1):
                    col = u_to_s(MatrixPolynomial(
                        [[fam.PwTilde[w][i, k]] for i in range(ell + 1)]))
                    F0 = [col[i, 0].constant_term()
                          for i in range(ell + 1)]
                    lam = eigen_ledger(ell, w, k).lam
                    sol = hyp_solve(ell, lam, F0, max_terms=30)
                    assert sol.is_polynomial and sol.degree == w
                    assert sol.as_matrix() == col

    def test_variable_substitution_roundtrip(self, families):
        fam = families[2]
        for w in (0, 2):
            assert s_to_u(u_to_s(fam.PwTilde[w])) == fam.PwTilde[w]


class TestLEigensolve:
    def test_ell2_n1(self):
        # at ell = 2, lambda = -3 the eigenvectors of L(-3) are the
        # a-vectors of (w, k) = (1, 0) and (0, 1)
        L = build_L(2, n=1)
        by_mu = {}
        for w, k in ((1, 0), (0, 1)):
            mu = eigen_ledger(2, w, k).mu
            a = coeffs_by_recursion(2, w, k)
            assert exact_linalg.mat_mul(L, [[x] for x in a]) \
                == [[GaussianRational(mu) * x] for x in a]
            by_mu[mu] = a
        assert sorted(by_mu) == [-2, 1]
        assert by_mu[Fraction(-2)] == (ONE, GaussianRational(0, -1), ZERO)
