"""Coefficient vectors and the packaged polynomial families."""

from fractions import Fraction
from math import factorial

import math
import random
import sys

import numpy as np
import pytest

from sphmop.gaussian import GaussianRational, ZERO, ONE, I
from sphmop.polynomials import Polynomial, MatrixPolynomial
from sphmop import family, hypergeometric
from sphmop.family import (coeffs_by_recursion, coeffs_by_racah, build_Pw,
                           eval_H, normalised_gegenbauer)
from sphmop.structure import build_L, build_structures, eigen_ledger

from conftest import WMAX, GRID_ELLS, edit_result, failing_rows, verify_row
from test_hypergeometric import gegenbauer


def psi_entry_reference(ell: int, j: int, k: int) -> Polynomial:
    """Independent formula for the Psi entries through Gegenbauer
    polynomials; the oracle for build_Pw(ell, 0)."""
    if j > k:
        return Polynomial.zero()
    c = (GaussianRational(2 * j + 1)
         * GaussianRational(0, -2) ** j
         * GaussianRational(Fraction(factorial(k) * factorial(j),
                                     factorial(k + j + 1))))
    return gegenbauer(k - j, j + 1) * c


class TestCoefficients:
    def test_w0_k1_example(self):
        assert coeffs_by_recursion(2, 0, 1) == (ONE, -I, ZERO)

    def test_k0_column(self):
        # at k = 0 the j = 0 recursion row reads -i(ell+2)/2 a_1 = mu a_0
        # with mu = w*ell/2, so a_1 = i*w*ell/(ell+2); the vector is e0
        # only for w = 0 (or ell = 0)
        for ell in (1, 2, 4):
            a = coeffs_by_recursion(ell, 0, 0)
            assert a[0] == ONE and all(x.is_zero() for x in a[1:])
            for w in range(1, 4):
                a = coeffs_by_recursion(ell, w, 0)
                assert a[0] == ONE
                assert a[1] == GaussianRational(0, Fraction(w * ell,
                                                            ell + 2))

    def test_w0_k2_example(self):
        a = coeffs_by_recursion(2, 0, 2)
        assert a == (ONE, GaussianRational(0, -2),
                     GaussianRational(Fraction(-2, 3)))

    def test_w0_closed_form(self):
        # a_j = (2i)^j (-k)_j j!/(2j)! at w = 0
        from math import factorial, perm
        for ell in (1, 2, 4, 6):
            for k in range(ell + 1):
                a = coeffs_by_recursion(ell, 0, k)
                for j in range(ell + 1):
                    expected = (GaussianRational(0, 2) ** j
                                * GaussianRational((-1) ** j * perm(k, j))
                                * GaussianRational(
                                    Fraction(factorial(j),
                                             factorial(2 * j))))
                    assert a[j] == expected

    def test_recursion_matches_racah(self):
        for ell in (0, 1, 2, 4):
            assert verify_row(ell, 4, "coefficient recursion = Racah "
                                      "closed form") is None

    def test_verify_catches_racah_fault(self, monkeypatch):
        # a_1 doubled in one closed-form vector fails only the Racah row
        edit_result(monkeypatch, "coeffs_by_racah", lambda a, ell, w, k: (
            a[:1] + (a[1] * 2,) + a[2:] if (w, k) == (1, 1) else a))
        assert failing_rows(2, 1) == {
            "coefficient recursion = Racah closed form":
                "w=1 k=1 entry (1,0): -1*i != -2*i"}

    def test_vanishing_tail(self):
        for ell in (2, 4, 6):
            assert verify_row(ell, 2, "coefficient tail a_j = 0 for "
                                      "j > w+k") is None

    def test_a_vector_is_L_eigenvector(self):
        for ell in (1, 2, 4):
            for w in range(4):
                for k in range(ell + 1):
                    led = eigen_ledger(ell, w, k)
                    L = build_L(ell, n=w + k)
                    a = coeffs_by_recursion(ell, w, k)
                    mu = GaussianRational(led.mu)
                    for r in range(ell + 1):
                        row = sum((L[r][c] * a[c] for c in range(ell + 1)),
                                  ZERO)
                        assert row == mu * a[r]

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            coeffs_by_recursion(2, -1, 0)
        with pytest.raises(ValueError):
            coeffs_by_racah(2, 0, 3)
        with pytest.raises(ValueError):
            normalised_gegenbauer(1, -1)


class TestPackages:
    def test_P0_ell1(self):
        P0 = build_Pw(1, 0)
        assert P0 == MatrixPolynomial([
            [Polynomial([1]), Polynomial([0, 1])],
            [Polynomial.zero(), Polynomial([-I])],
        ])

    def test_psi_upper_triangular_constant_det(self):
        # upper triangular with a nonzero constant diagonal, so det Psi is
        # a nonzero constant
        for ell in (0, 1, 2, 4):
            Psi = build_Pw(ell, 0)
            for i in range(ell + 1):
                for j in range(i):
                    assert Psi[i, j].is_zero()
                assert Psi[i, i].is_constant() and not Psi[i, i].is_zero()

    def test_psi_entries_match_gegenbauer_form(self):
        # entry (j, k) of P_w is a_j C^(j+1)_(w+k-j)(u) / C^(j+1)_(w+k-j)(1),
        # zero for j > w+k, with a_j from the Racah closed form; at w = 0
        # it is also psi_entry_reference
        for ell in GRID_ELLS + (3,):
            for w in range(WMAX + 1):
                P = build_Pw(ell, w)
                for k in range(ell + 1):
                    a = coeffs_by_racah(ell, w, k)
                    for j in range(ell + 1):
                        if j > w + k:
                            assert P[j, k].is_zero()
                            continue
                        C = gegenbauer(w + k - j, j + 1)
                        assert P[j, k] == C * (a[j] / C(1))
                        if w == 0:
                            assert P[j, k] == psi_entry_reference(ell, j, k)

    def test_entries_come_from_one_gegenbauer_table(self, monkeypatch):
        # with the structures built, no P_w sums a 2F1; a second P_w reads
        # the entries it shares with the first from the cached table
        def no_2f1(*args):
            raise AssertionError(f"hyp_terminating{args} called")

        build_structures(4)
        for module in (family, hypergeometric):
            monkeypatch.setattr(module, "hyp_terminating", no_2f1)
        build_Pw(4, 5)
        before = normalised_gegenbauer.cache_info()
        build_Pw(4, 3)
        after = normalised_gegenbauer.cache_info()
        assert after.hits > before.hits and after.misses == before.misses

    def test_gegenbauer_table_recurses_one_level(self):
        # degree 150 of a fresh table fits under a recursion limit a few
        # dozen frames above the current depth
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            C = normalised_gegenbauer(40, 150)
        finally:
            sys.setrecursionlimit(limit)
        assert C.degree() == 150 and C(1) == ONE

    def test_family_basics(self, families):
        for ell, fam in families.items():
            n = ell + 1
            assert fam.PwTilde[0] == MatrixPolynomial.identity(n)
            assert fam.Psi * fam.PsiInv == MatrixPolynomial.identity(n)
            assert fam.Pw[0] == fam.Psi

    def test_tilde_degree_and_leading_coefficient(self):
        for ell in GRID_ELLS:
            assert verify_row(ell, 4, "deg Pt_w = w with invertible "
                                      "diagonal leading coeff") is None


class TestEvalH:
    def test_value_at_one_is_ones(self):
        for ell, w, k in ((0, 3, 0), (2, 0, 0), (2, 1, 2), (4, 2, 1)):
            h = eval_H(ell, w, k, 1.0)
            assert all(abs(x - 1.0) < 1e-12 for x in h)

    def test_trivial_function_is_constant(self):
        for u in (-0.9, -0.3, 0.0, 0.4, 1.0):
            h = eval_H(2, 0, 0, u)
            assert all(abs(x - 1.0) < 1e-12 for x in h)

    def test_zonal_case_is_normalized_gegenbauer(self):
        for n in range(1, 7):
            C = gegenbauer(n, 1)
            for u in (-0.75, -0.2, 0.3, 0.8):
                ref = complex(C(Fraction(u))) / complex(C(1))
                assert abs(eval_H(0, n, 0, u)[0] - ref) < 1e-12

    def test_domain_check(self):
        for u in (1.5, -1.0000001, math.nan, math.inf, -math.inf,
                  np.float32(1.5), np.float64(math.nan)):
            with pytest.raises(ValueError, match=r"u must lie in \[-1, 1\]"):
                eval_H(2, 1, 1, u)

    def test_numpy_and_int_inputs(self):
        # u is read through float(), so any real scalar type evaluates
        for u in (np.float32(0.5), np.float32(0.3), np.float64(-0.7),
                  0, 1, -1):
            assert eval_H(4, 3, 2, u) == eval_H(4, 3, 2, float(u))

    def test_matches_exact_evaluation(self, families):
        # each entry of P_w[:, k] at the float u taken exactly, rounded
        # once: the same float combination U diag(t) p as eval_H, with p
        # from the exact polynomials of build_Pw, so equal bit for bit
        rng = random.Random(20)
        points = [-1.0, -0.999999, 0.0, 0.5, 0.9999999999, 1.0] + [
            rng.uniform(-1.0, 1.0) for _ in range(4)]
        for ell in GRID_ELLS:
            U = build_structures(ell).U.constant_value()
            n = ell + 1
            for w in range(WMAX + 1):
                Pw = families[ell].Pw[w]
                for k in range(n):
                    for u in points:
                        p = [complex(Pw[j, k](Fraction(u))) for j in range(n)]
                        t = [(1.0 - u * u) ** (j / 2.0) for j in range(n)]
                        ref = [sum(complex(U[r][j]) * t[j] * p[j]
                                   for j in range(n)) for r in range(n)]
                        assert eval_H(ell, w, k, u) == ref, (ell, w, k, u)

    def test_repeat_call_rebuilds_nothing(self, monkeypatch):
        # after one call at (ell, w, k), another builds no Polynomial and
        # takes the a-vector and every series from the cache
        eval_H(6, 5, 3, 0.25)
        built = []
        init = Polynomial.__init__

        def counted(self, coeffs):
            built.append(1)
            init(self, coeffs)

        monkeypatch.setattr(Polynomial, "__init__", counted)
        before = coeffs_by_recursion.cache_info()
        series_before = hypergeometric.series_coefficients.cache_info()
        eval_H(6, 5, 3, -0.6)
        after = coeffs_by_recursion.cache_info()
        series_after = hypergeometric.series_coefficients.cache_info()
        assert not built
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert series_after.misses == series_before.misses
        assert series_after.hits > series_before.hits
