"""Weight matrix, exact inner products, symmetry, LDU, and commutant."""

from fractions import Fraction

import numpy as np
import pytest

from sphmop import cli, exact_linalg
from sphmop.gaussian import GaussianRational, ZERO, ONE, I
from sphmop.operators import apply, build_operator, MatrixODEOperator
from sphmop.polynomials import MatrixPolynomial, Polynomial, mismatch
from sphmop.orthogonality import (build_weight, chebyshev_moment,
                                  inner_product_against_image,
                                  symmetry_check, ldu_decompose, commutant,
                                  block_offdiagonal_is_zero, weighted_image)

from conftest import (WMAX, edit_result, failing_rows, shift_A0,
                      unit_matrix, verify_row)


def oracle_inner_product(F, G, W):
    """<F, G> the long way, sharing no code with the moment path: form the
    polynomial matrix G* W F and integrate each entry term by term."""
    H = G.conjugate_transpose() * W * F
    return MatrixPolynomial(
        [[sum((c * chebyshev_moment(m) for m, c in enumerate(H[i, j].coeffs)),
              ZERO) for j in range(H.cols)] for i in range(H.rows)])


def cell(F, G, W):
    """<F, G> through the tables: one image of F, one adjoint of G."""
    return inner_product_against_image(
        [G], weighted_image([F], W, G.degree() or 0))[0][0]


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
            assert W.conjugate_transpose() == W

    def test_poly_part_positive_definite_samples(self, weights):
        # the exact values at each point, rounded once
        for ell, W in weights.items():
            for u in (Fraction(-0.9), Fraction(-0.4), 0, Fraction(3, 10),
                      GaussianRational(Fraction(4, 5))):
                vals = [[complex(v) for v in row]
                        for row in W.evaluate_exact(u)]
                eigvals = np.linalg.eigvalsh(np.array(vals))
                assert eigvals.min() > 0


class TestInnerProduct:
    def test_scalar_case(self, weights):
        one = MatrixPolynomial.identity(1)
        G = cell(one, one, weights[0])
        assert G[0, 0].constant_term() == GaussianRational(1)

    def test_agrees_with_polynomial_product_oracle(self, families, weights):
        # the family is orthogonal: off-diagonal blocks vanish and each
        # member's own block is diagonal with positive real entries
        for ell in (0, 1, 2, 4):
            fam, W = families[ell], weights[ell]
            for w1 in range(7):
                for w2 in range(7):
                    F, G = fam.PwTilde[w1], fam.PwTilde[w2]
                    block = cell(F, G, W)
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
        assert cell(uF, G, W) == oracle_inner_product(uF, G, W)
        assert cell(G, uF, W) == oracle_inner_product(G, uF, W)

    def test_image_depth_guard(self, families, weights):
        # an image of depth d serves partners up to degree d and refuses
        # a partner of degree d + 1 instead of truncating it
        fam, W = families[2], weights[2]
        F = fam.PwTilde[4]
        for d in (0, 2, 5):
            Y = weighted_image([F], W, d)
            assert inner_product_against_image([fam.PwTilde[d]], Y)[0][0] \
                == oracle_inner_product(F, fam.PwTilde[d], W)
            with pytest.raises(ValueError, match=(
                    f"^partner degree {d + 1} > image depth {d}$")):
                inner_product_against_image([fam.PwTilde[d + 1]], Y)

    def test_tables_agree_with_oracle(self, families, weights):
        # one image per member and one adjoint per partner, of unequal
        # degrees on both sides, give every cell <F_a, G_b> of the table
        u = Polynomial.variable()
        for ell in (1, 2, 4):
            fam, W = families[ell], weights[ell]
            Pt = fam.PwTilde
            members = [Pt[w] for w in range(4)] + [Pt[3] * u]
            partners = [Pt[w] for w in range(5)] + [Pt[2] * u]
            images = weighted_image(members, W, 4)
            assert images == [weighted_image([F], W, 4)[0] for F in members]
            T = inner_product_against_image(partners, images)
            assert T == [[oracle_inner_product(F, G, W) for G in partners]
                         for F in members], ell

    def test_verify_takes_one_pass_over_the_weight(self, monkeypatch):
        # one batch of images for all members, and one table each for the
        # Gram rows and the two symmetry rows
        calls = {"weighted_image": 0, "inner_product_against_image": 0}
        for name in calls:
            def counted(*args, name=name, inner=getattr(cli, name)):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(cli, name, counted)
        assert all(w is None for _, w in cli.verify_rows(2, 3))
        assert calls == {"weighted_image": 1,
                         "inner_product_against_image": 3}

    def test_trace_normalization(self, monkeypatch):
        # the verify row checks H_{w,k}(1) = (1, ..., 1) for every column k;
        # a constant multiple of P_w keeps every other identity, so only
        # this row can catch it
        assert failing_rows(2, 1) == {}
        edit_result(monkeypatch, "build_family", lambda fam, ell, wmax: (
            fam._replace(Pw={**fam.Pw, 1: fam.Pw[1] * 2})))
        assert failing_rows(2, 1) == {
            "trace normalization equals l+1": "w=1 entry (0,0): 2 != 1"}

    def test_closed_form_squared_norms(self, families, weights):
        # ROADMAP item 15: the diagonal Gram is (dim K-type)^2 / dim tau,
        # tau the SO(4) irrep with (m1-m2+1)(m1+m2+1) = (w+k+1)(w+ell-k+1);
        # the diagonal Gram row of verify states it on the all-pairs table,
        # this oracle on one-cell tables
        for ell, fam in families.items():
            assert norms_against_closed_form(fam, weights[ell], WMAX) is None

    def test_closed_form_norms_catch_a_scaled_member(self, monkeypatch,
                                                     weights):
        # 2 Pt_1 keeps every other verify row; only the closed form in the
        # diagonal Gram row sees it
        edit_result(monkeypatch, "build_family", lambda fam, ell, wmax: (
            fam._replace(PwTilde={
                **fam.PwTilde, 1: fam.PwTilde[1] * 2})))
        assert failing_rows(2, 1) == {
            "<Pt_w, Pt_w> diagonal and invertible":
                "w=1 entry (0,0): 9/2 != 9/8"}
        assert norms_against_closed_form(cli.build_family(2, 1), weights[2],
                                         1) == "w=1 entry (0,0): 9/2 != 9/8"


def norms_against_closed_form(fam, W, w_max):
    """None when <Pt_w, Pt_w> = diag_k (ell+1)^2 / ((w+k+1)(w+ell-k+1))
    for every w <= w_max, else the first mismatch."""
    ell = fam.ell
    return next(filter(None, (mismatch(
        cell(fam.PwTilde[w], fam.PwTilde[w], W),
        MatrixPolynomial.diagonal([
            Fraction((ell + 1) ** 2, (w + k + 1) * (w + ell - k + 1))
            for k in range(ell + 1)]), f"w={w} ")
        for w in range(w_max + 1))), None)


def members_and_images(fam, W, w_max):
    # depth w_max + 1 leaves room for operators that raise the degree by
    # one, such as multiplication by i u
    members = [fam.PwTilde[w] for w in range(w_max + 1)]
    return members, weighted_image(members, W, w_max + 1)


class TestSymmetry:
    def test_skew_multiplication_not_symmetric(self, families, weights):
        iu = Polynomial([ZERO, GaussianRational(0, 1)])
        op = MatrixODEOperator(
            A2=MatrixPolynomial.zeros(2, 2),
            A1=MatrixPolynomial.zeros(2, 2),
            A0=MatrixPolynomial.identity(2) * iu,
        )
        members, images = members_and_images(families[1], weights[1], 2)
        assert symmetry_check(inner_product_against_image(
            [apply(op, F) for F in members], images)) \
            == "w=0 w'=0 entry (0,1): -1/2*i != 1/2*i"

    def test_verify_rows_survive_degree_raising_operator(self, monkeypatch):
        # u I added to A0 of Dtilde raises deg Dtilde Pt_w by one and keeps
        # it symmetric: only the eigen and conjugation rows may fail
        shift_A0(monkeypatch, "Dtilde", lambda n: (
            MatrixPolynomial.identity(n) * Polynomial.variable()))
        assert list(failing_rows(1, 1)) \
            == ["Dtilde*Pt_w = Pt_w*Lambda_w", "PsiInv*Dbar*Psi = Dtilde"]

    def test_verify_catches_nonsymmetric_Dtilde(self, monkeypatch):
        # E_01 in A0 of Dtilde is not Hermitian against the weight, so the
        # symmetry row fails beside the two rows that read Dtilde
        symmetric = "Dtilde symmetric on the family"
        shift_A0(monkeypatch, "Dtilde", lambda n: unit_matrix(n, 0, 1))
        failing = failing_rows(2, 1)
        assert set(failing) == {symmetric, "Dtilde*Pt_w = Pt_w*Lambda_w",
                                "PsiInv*Dbar*Psi = Dtilde"}
        assert failing[symmetric] == "w=0 w'=0 entry (0,1): 0 != 3"

    def test_agrees_with_two_sided_oracle(self, families, weights):
        # symmetry_check reads the table <F_a, op F_b> and relies on
        # the weight being Hermitian; the oracle computes both sides of
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
                for op in (base, base._replace(A0=base.A0 + corner)):
                    ops = [apply(op, F) for F in members]
                    lhs = [[cell(ops[a], members[b], W)
                            for b in ws] for a in ws]
                    rhs = [[cell(members[a], ops[b], W)
                            for b in ws] for a in ws]
                    first = next(filter(None, (
                        mismatch(rhs[a][b], lhs[a][b], f"w={a} w'={b} ")
                        for a in ws for b in range(a + 1))), None)
                    assert symmetry_check(inner_product_against_image(
                        ops, images)) == first
                    assert (first is None) == (lhs == rhs) == (op is base)

    def test_eigenvalue_form_of_symmetry(self, families, weights):
        # symmetry against the family is equivalent to the Gram blocks
        # intertwining the real diagonal eigenvalue matrices
        from sphmop.structure import eigen_ledger
        for ell in (1, 2, 4):
            fam, W = families[ell], weights[ell]
            for w1 in range(5):
                for w2 in range(5):
                    G = cell(fam.PwTilde[w1], fam.PwTilde[w2], W)
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
        L, Dg, Uf = ldu_decompose(0)
        assert L == MatrixPolynomial.identity(1)
        assert Uf == MatrixPolynomial.identity(1)
        assert Dg == weights[0]

    def test_ell1_diagonal_factors(self, weights):
        L, Dg, Uf = ldu_decompose(1)
        # d0 = c_0 = 2!/1 = 2; d1 = |psi_11|^2 c_1 (1-u^2) with
        # |psi_11|^2 = |-i|^2 = 1 and c_1 = 3! 0!/(3 1! 1!) = 2
        assert Dg[0, 0] == Polynomial([2])
        assert Dg[1, 1] == Polynomial([2, 0, -2])

    def test_verify_catches_ldu_fault(self, monkeypatch):
        edit_result(monkeypatch, "ldu_decompose", lambda ldu, ell: (
            ldu[0], ldu[1] + unit_matrix(ell + 1, 0, 0), ldu[2]))
        assert failing_rows(2, 1) == {
            "LDU reassembly equals the weight polynomial part":
                "entry (0,0): 4 != 3"}

    def test_verify_catches_weight_fault(self, monkeypatch):
        # u^2 E_00 added to the weight: every row that reads the weight
        # fails; the Gram diagonal stays diagonal and invertible, but its
        # (0,0) entry leaves the closed-form norm
        edit_result(monkeypatch, "build_weight", lambda W, ell: (
            W + unit_matrix(ell + 1, 0, 0, Polynomial([0, 0, 1]))))
        assert failing_rows(2, 1) == {
            "<Pt_w, Pt_w'> = 0 for w != w'": "w=0 w'=1 entry (1,0): -1/8 != 0",
            "<Pt_w, Pt_w> diagonal and invertible":
                "w=0 entry (0,0): 13/4 != 3",
            "Dtilde symmetric on the family": "w=1 w'=0 entry (0,1): 0 != 1",
            "Etilde symmetric on the family":
                "w=1 w'=0 entry (0,1): 0 != 1/4",
            "LDU reassembly equals the weight polynomial part":
                "entry (0,0): 3 != 3 + u^2",
            "commutant dimension and block reduction": "dimension 1 != 2",
        }

    def test_reassembly(self, weights):
        for ell in (0, 1, 2, 4):
            W = weights[ell]
            # L Dg Uf = W is a verify row
            L, Dg, Uf = ldu_decompose(ell)
            n = ell + 1
            for i in range(n):
                assert L[i, i] == Polynomial([1])
                assert Uf[i, i] == Polynomial([1])
                for j in range(i + 1, n):
                    assert L[i, j].is_zero()
                    assert Uf[j, i].is_zero()


def oracle_commutant_basis(W):
    """The commutant basis from one stacked system: [A, W_m] = 0 for every
    coefficient W_m of W at once, (deg + 1) n^2 rows in the n^2 entries
    of A (row-major), solved by a single nullspace."""
    n = W.rows
    rows = []
    for m in range((W.degree() or 0) + 1):
        Pm = W.coefficient_matrix(m)
        for i in range(n):
            for j in range(n):
                # (A Pm - Pm A)[i, j] = sum_t A[i,t] Pm[t,j] - Pm[i,t] A[t,j]
                row = [ZERO] * (n * n)
                for t in range(n):
                    row[i * n + t] = row[i * n + t] + Pm[t][j]
                    row[t * n + j] = row[t * n + j] - Pm[i][t]
                rows.append(row)
    return [[v[i * n:(i + 1) * n] for i in range(n)]
            for v in exact_linalg.nullspace(rows)]


def in_span(A, basis):
    """True when the constant matrix A is a combination of basis."""
    n = len(A)
    cols = [[B[i][j] for B in basis] for i in range(n) for j in range(n)]
    try:
        exact_linalg.solve(cols, [A[i][j] for i in range(n)
                                  for j in range(n)])
    except ValueError:
        return False
    return True


class TestCommutant:
    def test_dimensions(self):
        # Koelink-van Pruijssen-Roman: the commutant is span{I, J} with J
        # the reversal, for every ell >= 1; so the reduction has two blocks
        # of sizes floor(n/2) and ceil(n/2)
        assert commutant(build_weight(0))[0] == 1
        for ell in range(1, 9):
            n = ell + 1
            dim, basis, red = commutant(build_weight(ell))
            assert dim == 2, ell
            assert red.block_sizes == (n // 2, n - n // 2), ell
            J = [[GaussianRational(int(i + j == ell)) for j in range(n)]
                 for i in range(n)]
            assert in_span(J, basis), ell
            # R's columns are J's eigenvectors: the -1 block, then the +1
            signs = MatrixPolynomial.diagonal([-1] * (n // 2)
                                              + [1] * (n - n // 2))
            assert MatrixPolynomial(J) * red.R == red.R * signs, ell

    def test_agrees_with_stacked_system_oracle(self):
        # the basis is exactly the one-shot nullspace's, list for list, so
        # the reduction built from it and `sphmop reduce` are unchanged
        for ell in range(7):
            W = build_weight(ell)
            assert commutant(W)[1] == oracle_commutant_basis(W), ell

    def test_hand_built_weights(self, monkeypatch):
        # weights the family never produces, one per branch of the
        # intersection: no lower coefficient, a shrinking basis, and the
        # early exit at dimension one; only a two-dimensional commutant is
        # reduced, so none of them has a reduction
        u = Polynomial.variable()
        n = 3
        distinct = MatrixPolynomial.diagonal([1, 2, 3])
        ones = MatrixPolynomial([[1] * n for _ in range(n)])
        cases = [
            # constant scalar: every matrix commutes
            (MatrixPolynomial.identity(n) * 5, n * n, 1),
            # the leading coefficient I leaves all n^2; W_0 with distinct
            # entries cuts them down to the diagonal
            (distinct + MatrixPolynomial.identity(n) * u, n, 2),
            # W_2, all ones, leaves a 5-dimensional commutant; W_1 cuts it
            # to span{I}, so W_0 is never reached
            (ones + distinct * u + ones * (u * u), 1, 2),
        ]
        # the intersection's systems have n^2 rows, the reduction's n
        calls = []
        nullspace = exact_linalg.nullspace
        monkeypatch.setattr(exact_linalg, "nullspace",
                            lambda m: calls.append(len(m)) or nullspace(m))
        for W, dim, systems in cases:
            oracle = oracle_commutant_basis(W)
            calls.clear()
            result = commutant(W)
            assert result[0] == dim
            assert result[1] == oracle
            assert result[2] is None
            assert calls.count(n * n) == systems

    def test_quadratic_branches(self):
        # [[2, 1], [1, 2]] has eigenvalues 1 and 3, eigenvectors (-1, 1)
        # and (1, 1), taken in ascending order
        W = MatrixPolynomial([[2, 1], [1, 2]])
        dim, basis, red = commutant(W)
        assert dim == 2
        assert red.R == MatrixPolynomial([[-1, 1], [1, 1]])
        assert red.block_sizes == (1, 1)
        # the commutant of [[1, 1], [1, 0]] is span{I, W}, and W's
        # eigenvalues (1 +- sqrt 5)/2 are not rational, with or without a
        # lower coefficient to intersect first
        W0 = MatrixPolynomial([[1, 1], [1, 0]])
        for W in (W0, W0 + MatrixPolynomial.identity(2)
                  * Polynomial.variable()):
            with pytest.raises(ArithmeticError, match="irrational spectrum"):
                commutant(W)

    def test_skew_fallback(self):
        # the commutant of I + u [[0, i], [-i, 0]] is span{I, K} with K the
        # skew part, whose Hermitian part is scalar: the reduction diagonalizes
        # the self-adjoint i(K - K*) instead
        K = MatrixPolynomial([[0, I], [-I, 0]])
        W = MatrixPolynomial.identity(2) + K * Polynomial.variable()
        dim, basis, red = commutant(W)
        assert dim == 2
        assert red.R == MatrixPolynomial([[I, -I], [ONE, ONE]])
        assert red.block_sizes == (1, 1)
        assert block_offdiagonal_is_zero(W, red.R, red.block_sizes) is None

    def test_verify_row_checks_dimension(self, monkeypatch):
        # a commutant cut down to span{I} has no reduction to check, so the
        # row must fail on the dimension alone
        label = "commutant dimension and block reduction"
        monkeypatch.setattr(cli, "commutant", lambda W: (
            1, [exact_linalg.mat_identity(W.rows)], None))
        assert verify_row(4, 1, label) == "dimension 1 != 2"
        assert verify_row(0, 1, label) is None

    def test_verify_row_checks_reduction(self, monkeypatch):
        # R = I keeps the right dimension but does not split the weight, so
        # the commutant row fails on the off-diagonal block alone
        def unreduced(W):
            dim, basis, red = commutant(W)
            return dim, basis, red._replace(
                R=MatrixPolynomial.identity(W.rows))

        monkeypatch.setattr(cli, "commutant", unreduced)
        assert failing_rows(2, 1) == {
            "commutant dimension and block reduction":
                "R* W R entry (0,1): (3)*u != 0"}

    def test_identity_in_span(self, weights):
        # the identity commutes, so it must be a combination of the basis
        for ell in (0, 2, 4):
            dim, basis, _ = commutant(weights[ell])
            assert in_span(exact_linalg.mat_identity(ell + 1), basis)

    def test_basis_members_commute_with_weight(self, weights):
        for ell in (2, 4):
            dim, basis, _ = commutant(weights[ell])
            W = weights[ell]
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
