"""Differential operator construction, conjugation, commutation, and the
series solver in the s variable."""

from fractions import Fraction

import pytest

from sphmop.gaussian import GaussianRational, ZERO, ONE
from sphmop.polynomials import Polynomial, MatrixPolynomial
from sphmop.structure import build_structures, eigen_ledger
from sphmop.operators import (build_operator, apply, conjugate,
                              commutator_check, hyp_solve,
                              classify_polynomial_solutions, L_eigensolve,
                              u_to_s, s_to_u)
from sphmop import exact_linalg


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
        e0 = MatrixPolynomial([[Polynomial([1])], [Polynomial.zero("u")],
                               [Polynomial.zero("u")]])
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
    def test_conjugation_yields_tilde_operators(self, families):
        for ell in (0, 1, 2, 4):
            fam = families[ell]
            Dt = conjugate(build_operator("Dbar", ell), fam.Psi, fam.PsiInv)
            ref = build_operator("Dtilde", ell)
            assert (Dt.A2, Dt.A1, Dt.A0) == (ref.A2, ref.A1, ref.A0)
            Et = conjugate(build_operator("Ebar", ell), fam.Psi, fam.PsiInv)
            refE = build_operator("Etilde", ell)
            assert (Et.A1, Et.A0) == (refE.A1, refE.A0)

    def test_conjugate_by_identity(self):
        op = build_operator("Dbar", 2)
        eye = MatrixPolynomial.identity(3)
        conj = conjugate(op, eye, eye)
        assert (conj.A2, conj.A1, conj.A0) == (op.A2, op.A1, op.A0)


class TestCommutation:
    def test_bar_pair_commutes(self):
        for ell in (0, 1, 2, 4):
            assert commutator_check(build_operator("Dbar", ell),
                                    build_operator("Ebar", ell), 12) is None

    def test_tilde_pair_commutes(self):
        for ell in (0, 1, 2, 4):
            assert commutator_check(build_operator("Dtilde", ell),
                                    build_operator("Etilde", ell),
                                    12) is None

    def test_multiplication_operator_does_not_commute(self):
        from sphmop.operators import MatrixODEOperator
        ell = 2
        u = Polynomial.variable("u")
        mult_u = MatrixODEOperator(
            order=1,
            A2=None,
            A1=MatrixPolynomial.zeros(3, 3),
            A0=MatrixPolynomial.identity(3).scale(u),
        )
        assert commutator_check(build_operator("Dtilde", ell), mult_u, 4) \
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
                    col = u_to_s(fam.PwTilde[w].column(k))
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
        sols = L_eigensolve(2, 1)
        mus = sorted(mu for mu, _ in sols)
        assert mus == [-2, 1]
        by_mu = {mu: vec for mu, vec in sols}
        assert by_mu[Fraction(-2)].a == (ONE, GaussianRational(0, -1), ZERO)

    def test_n0(self):
        for ell in (1, 2, 4):
            sols = L_eigensolve(ell, 0)
            assert len(sols) == 1
            mu, vec = sols[0]
            assert mu == 0
            assert vec.a[0] == ONE
            assert all(x.is_zero() for x in vec.a[1:])

    def test_counts(self):
        for ell in (1, 2, 4):
            for n in range(7):
                assert len(L_eigensolve(ell, n)) == min(n + 1, ell + 1)
