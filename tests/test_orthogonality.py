"""Weight matrix, exact inner products, symmetry, LDU, and commutant."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from sphmop import cli
from sphmop.family import build_family
from sphmop.gaussian import GaussianRational, ZERO
from sphmop.operators import apply, build_operator, MatrixODEOperator
from sphmop.polynomials import MatrixPolynomial, Polynomial, mismatch
from sphmop.orthogonality import (chebyshev_moment, inner_product,
                                  inner_product_against_image,
                                  symmetry_check, ldu_decompose, commutant,
                                  block_offdiagonal_is_zero, weighted_image)


def oracle_inner_product(F, G, W):
    """<F, G> the long way, sharing no code with the moment path: form the
    polynomial matrix G* poly_part F and integrate each entry term by term."""
    H = G.conjugate_transpose() * W.poly_part * F
    return MatrixPolynomial(
        [[sum((c * chebyshev_moment(m) for m, c in enumerate(H[i, j].coeffs)),
              ZERO) for j in range(H.cols)] for i in range(H.rows)])


class TestChebyshevMoments:
    def test_examples(self):
        assert chebyshev_moment(0) == 1
        assert chebyshev_moment(1) == 0
        assert chebyshev_moment(2) == Fraction(1, 4)
        # the moment path reads orders up to 2 wmax + ell; the closed form
        # must keep the recurrence mu_{2t+2} = mu_{2t} (2t+1)/(2t+4) there
        for t in range(32):
            assert chebyshev_moment(2 * t + 1) == 0
            assert chebyshev_moment(2 * t + 2) \
                == chebyshev_moment(2 * t) * Fraction(2 * t + 1, 2 * t + 4)

    def test_numeric_quadrature_oracle(self):
        # the closed form is bootstrapped against adaptive quadrature of
        # (2/pi) u^m sqrt(1-u^2) before anything downstream trusts it
        from scipy.integrate import quad
        for m in range(13):
            val, err = quad(
                lambda u, m=m: (2 / np.pi) * u ** m * np.sqrt(1 - u * u),
                -1, 1, epsabs=1e-14)
            assert abs(float(chebyshev_moment(m)) - val) < 1e-12


class TestWeight:
    def test_poly_part_hermitian(self, weights):
        for ell, W in weights.items():
            assert W.poly_part.conjugate_transpose() == W.poly_part

    def test_poly_part_positive_definite_samples(self, weights):
        # evaluate gives complex numbers for a float, int, Fraction or
        # GaussianRational point alike
        for ell, W in weights.items():
            for u in (-0.9, -0.4, 0, Fraction(3, 10),
                      GaussianRational(Fraction(4, 5))):
                vals = W.poly_part.evaluate(u)
                assert all(type(v) is complex for row in vals for v in row)
                eigvals = np.linalg.eigvalsh(np.array(vals))
                assert eigvals.min() > 0


class TestInnerProduct:
    def test_scalar_case(self, weights):
        one = MatrixPolynomial.identity(1)
        G = inner_product(one, one, weights[0])
        assert G[0, 0].constant_term() == GaussianRational(1)

    def test_agrees_with_polynomial_product_oracle(self, families, weights):
        # the family is orthogonal: off-diagonal blocks vanish and each
        # member's own block is diagonal with positive real entries
        for ell in (0, 1, 2, 4):
            fam, W = families[ell], weights[ell]
            for w1 in range(7):
                for w2 in range(7):
                    F, G = fam.PwTilde[w1], fam.PwTilde[w2]
                    block = inner_product(F, G, W)
                    assert block == oracle_inner_product(F, G, W), \
                        (ell, w1, w2)
                    if w1 != w2:
                        assert block.is_zero(), (ell, w1, w2)
                        continue
                    for i in range(ell + 1):
                        for j in range(ell + 1):
                            c = block[i, j].constant_term()
                            if i == j:
                                assert c.im == 0 and c.re > 0
                            else:
                                assert c.is_zero()
        # partners of unequal degree, either one the higher
        fam, W = families[2], weights[2]
        uF = fam.PwTilde[3] * Polynomial.variable()
        G = fam.PwTilde[1]
        assert inner_product(uF, G, W) == oracle_inner_product(uF, G, W)
        assert inner_product(G, uF, W) == oracle_inner_product(G, uF, W)

    def test_image_depth_guard(self, families, weights):
        # an image of depth d serves partners up to degree d and refuses
        # a partner of degree d + 1 instead of truncating it
        fam, W = families[2], weights[2]
        F = fam.PwTilde[4]
        for d in (0, 2, 5):
            Y = weighted_image(F, W, d)
            assert inner_product_against_image(fam.PwTilde[d], Y) \
                == oracle_inner_product(F, fam.PwTilde[d], W)
            with pytest.raises(ValueError, match="image depth"):
                inner_product_against_image(fam.PwTilde[d + 1], Y)

    def test_trace_normalization(self, monkeypatch):
        # the verify row checks H_{w,k}(1) = (1, ..., 1) for every column k;
        # a constant multiple of P_w keeps every other identity, so only
        # this row can catch it
        def failing():
            return [(label, w) for label, w in cli.verify_rows(2, 1) if w]

        assert failing() == []

        def scaled_family(ell, wmax):
            fam = build_family(ell, wmax)
            return dataclasses.replace(fam, Pw={**fam.Pw, 1: fam.Pw[1] * 2})

        monkeypatch.setattr(cli, "build_family", scaled_family)
        assert failing() == [("trace normalization equals l+1",
                              "w=1 entry (0,0): 2 != 1")]


def members_and_images(fam, W, w_max):
    # depth w_max + 1 leaves room for operators that raise the degree by
    # one, such as multiplication by i u
    members = [fam.PwTilde[w] for w in range(w_max + 1)]
    return members, [weighted_image(F, W, w_max + 1) for F in members]


class TestSymmetry:
    def test_skew_multiplication_not_symmetric(self, families, weights):
        iu = Polynomial([ZERO, GaussianRational(0, 1)])
        op = MatrixODEOperator(
            A2=MatrixPolynomial.zeros(2, 2),
            A1=MatrixPolynomial.zeros(2, 2),
            A0=MatrixPolynomial.identity(2) * iu,
        )
        members, images = members_and_images(families[1], weights[1], 2)
        assert symmetry_check(op, members, images) \
            == "w=0 w'=0 entry (0,1): -1/2*i != 1/2*i"

    def test_verify_rows_survive_degree_raising_operator(self, monkeypatch):
        # u I added to A0 of Dtilde raises deg Dtilde Pt_w by one and keeps
        # it symmetric: only the eigen and conjugation rows may fail
        build = cli.build_operator

        def raised(name, ell):
            op = build(name, ell)
            if name != "Dtilde":
                return op
            u = Polynomial.variable()
            return dataclasses.replace(
                op, A0=op.A0 + MatrixPolynomial.identity(ell + 1) * u)

        monkeypatch.setattr(cli, "build_operator", raised)
        assert [label for label, w in cli.verify_rows(1, 1) if w] \
            == ["Dtilde*Pt_w = Pt_w*Lambda_w", "PsiInv*Dbar*Psi = Dtilde"]

    def test_agrees_with_two_sided_oracle(self, families, weights):
        # symmetry_check computes <F_a, op F_b> once per pair and relies on
        # poly_part being Hermitian; the oracle computes both sides of
        # <op F_a, F_b> = <F_a, op F_b> for every ordered pair
        for ell in (1, 2, 4):
            W = weights[ell]
            members, images = members_and_images(families[ell], W, 4)
            ws = range(len(members))
            corner = MatrixPolynomial(
                [[int((i, j) == (0, ell)) for j in range(ell + 1)]
                 for i in range(ell + 1)])
            for name in ("Dtilde", "Etilde"):
                base = build_operator(name, ell)
                for op in (base, dataclasses.replace(base,
                                                     A0=base.A0 + corner)):
                    ops = [apply(op, F) for F in members]
                    lhs = [[inner_product(ops[a], members[b], W)
                            for b in ws] for a in ws]
                    rhs = [[inner_product(members[a], ops[b], W)
                            for b in ws] for a in ws]
                    first = next(filter(None, (
                        mismatch(rhs[a][b], lhs[a][b], f"w={a} w'={b} ")
                        for a in ws for b in range(a + 1))), None)
                    assert symmetry_check(op, members, images) == first
                    assert (first is None) == (lhs == rhs) == (op is base)

    def test_eigenvalue_form_of_symmetry(self, families, weights):
        # symmetry against the family is equivalent to the Gram blocks
        # intertwining the real diagonal eigenvalue matrices
        from sphmop.structure import eigen_ledger
        for ell in (1, 2, 4):
            fam, W = families[ell], weights[ell]
            for w1 in range(5):
                for w2 in range(5):
                    G = inner_product(fam.PwTilde[w1], fam.PwTilde[w2], W)
                    for mats in ("lam", "mu"):
                        d1 = MatrixPolynomial.diagonal(
                            [getattr(eigen_ledger(ell, w1, k), mats)
                             for k in range(ell + 1)])
                        d2 = MatrixPolynomial.diagonal(
                            [getattr(eigen_ledger(ell, w2, k), mats)
                             for k in range(ell + 1)])
                        assert d2 * G == G * d1


class TestLDU:
    def test_scalar_case(self, weights):
        L, Dg, Uf = ldu_decompose(weights[0])
        assert L == MatrixPolynomial.identity(1)
        assert Uf == MatrixPolynomial.identity(1)
        assert Dg == weights[0].poly_part

    def test_ell1_diagonal_factors(self, weights):
        L, Dg, Uf = ldu_decompose(weights[1])
        # d0 = c_0 = 2!/1 = 2; d1 = |psi_11|^2 c_1 (1-u^2) with
        # |psi_11|^2 = |-i|^2 = 1 and c_1 = 3! 0!/(3 1! 1!) = 2
        assert Dg[0, 0] == Polynomial([2])
        assert Dg[1, 1] == Polynomial([2, 0, -2])

    def test_reassembly(self, weights):
        for ell in (0, 1, 2, 4):
            W = weights[ell]
            # L Dg Uf = poly_part is a verify row
            L, Dg, Uf = ldu_decompose(W)
            n = ell + 1
            for i in range(n):
                assert L[i, i] == Polynomial([1])
                assert Uf[i, i] == Polynomial([1])
                for j in range(i + 1, n):
                    assert L[i, j].is_zero()
                    assert Uf[j, i].is_zero()


class TestCommutant:
    def test_dimensions(self, weights):
        assert commutant(weights[0])[0] == 1
        assert commutant(weights[2])[0] == 2
        assert commutant(weights[4])[0] >= 2
        assert commutant(weights[6])[0] >= 2

    def test_identity_in_span(self, weights):
        # the identity commutes, so it must be a combination of the basis
        from sphmop import exact_linalg
        for ell in (0, 2, 4):
            dim, basis, _ = commutant(weights[ell])
            n = ell + 1
            cols = [[mat[i][j] for mat in basis]
                    for i in range(n) for j in range(n)]
            rhs = [GaussianRational(1 if i == j else 0)
                   for i in range(n) for j in range(n)]
            exact_linalg.solve(cols, rhs)   # raises if inconsistent

    def test_basis_members_commute_with_weight(self, weights):
        for ell in (2, 4):
            dim, basis, _ = commutant(weights[ell])
            W = weights[ell].poly_part
            for mat in basis:
                A = MatrixPolynomial(mat)
                assert A * W == W * A

    def test_block_reduction(self, weights):
        for ell in (2, 4, 6):
            dim, basis, red = commutant(weights[ell])
            assert red is not None
            assert sum(red.block_sizes) == ell + 1
            assert len(red.block_sizes) >= 2
            assert block_offdiagonal_is_zero(weights[ell], red.R,
                                             red.block_sizes) is None
        # the identity does not reduce the weight: its off-diagonal block
        # at ell = 2 is W[0, 1:] itself
        red = commutant(weights[2])[2]
        assert block_offdiagonal_is_zero(
            weights[2], MatrixPolynomial.identity(3), red.block_sizes) \
            == "R* W R entry (0,1): (3)*u != 0"
