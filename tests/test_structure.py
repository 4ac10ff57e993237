"""Structure matrices, the tridiagonal matrix L, and the eigenvalue ledger."""

from fractions import Fraction

import hashlib

import pytest

from sphmop.gaussian import GaussianRational, I, ZERO, format_gaussian
from sphmop.structure import build_structures, build_L, eigen_ledger
from sphmop import exact_linalg

from conftest import edit_result, failing_rows, unit_matrix, verify_row


def rank(m):
    """The test-local rank oracle: the pivot count of one rref."""
    return len(exact_linalg.rref([row[:] for row in m]))


def eigen_ledger_from_rep(ell: int, m1, m2):
    """Ledger from the representation parameters (m1, m2); the inverse of
    the (w, k) -> (m1, m2) map in eigen_ledger, checked against it."""
    half = Fraction(ell, 2)
    m1 = Fraction(m1)
    m2 = Fraction(m2)
    if m1 < half or abs(m2) > half:
        raise ValueError("representation does not contain this K-type")
    w = m1 - half
    k = half - m2
    if w.denominator != 1 or k.denominator != 1:
        raise ValueError("parameters do not differ from ell/2 by integers")
    return eigen_ledger(ell, int(w), int(k))


def as_ints(M):
    return [[complex(c) for c in row] for row in M.constant_value()]


class TestBuildStructures:
    def test_ell_zero(self):
        st = build_structures(0)
        assert as_ints(st.C) == [[3]]
        assert st.B.constant_value()[0][0] == GaussianRational(Fraction(3, 2))
        for name in ("A0", "C0", "C1", "V0", "V", "J", "Q0", "Q1", "M",
                     "S1", "R1", "R2", "Lambda0", "M0"):
            assert getattr(st, name).is_zero(), name

    def test_ell2_tridiagonal_sum(self):
        st = build_structures(2)
        assert as_ints(st.C0 + st.C1) == [[-2, 2, 0], [2, -4, 2], [0, 2, -2]]

    def test_ell2_hahn_matrix(self):
        st = build_structures(2)
        assert as_ints(st.U) == [[1, 1, 1], [1, 0, -2], [1, -1, 1]]

    def test_shapes_and_profiles(self):
        for ell in (1, 2, 4):
            st = build_structures(ell)
            n = ell + 1
            for name in ("A0", "V0", "V", "C", "J", "R2", "Lambda0", "M0"):
                M = getattr(st, name)
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            assert M[i, j].is_zero(), (name, i, j)
            for i in range(n):
                for j in range(n):
                    if j > i + 1 or j < i:
                        assert st.C1[i, j].is_zero()
                    if j < i - 1 or j > i:
                        assert st.C0[i, j].is_zero()
                    if j != i + 1:
                        assert st.Q0[i, j].is_zero()
                        assert st.M[i, j].is_zero()
                        assert st.S1[i, j].is_zero()
                    if j != i - 1:
                        assert st.Q1[i, j].is_zero()

    def test_B_is_half_C_minus_S1(self):
        for ell in (0, 1, 2, 4, 6):
            st = build_structures(ell)
            assert st.B == (st.C - st.S1) * Fraction(1, 2)

    def test_negative_ell_rejected(self):
        with pytest.raises(ValueError):
            build_structures(-1)


class TestHahnDiagonalization:
    @pytest.mark.parametrize("name, at, label, witness", [
        ("UstarU", (1, 1),
         "U**U diagonal with entries (j+l+1)!(l-j)!/((2j+1) l! l!)",
         "entry (1,1): 2 != 3"),
        ("Q1", (1, 0), "Uinv*A0*U = Q0+Q1", "entry (1,0): 2 != 3"),
    ])
    def test_verify_catches_structure_fault(self, monkeypatch, name, at,
                                            label, witness):
        # one entry of one structure matrix off by 1 fails only its row
        edit_result(monkeypatch, "build_structures", lambda st, ell: (
            st._replace(**{
                name: getattr(st, name) + unit_matrix(ell + 1, *at)})))
        assert failing_rows(2, 1) == {label: witness}

    # the Hahn rows of `verify`, run past the acceptance grid to ell = 8
    def test_U_columns_are_eigenvectors(self):
        for ell in range(9):
            assert verify_row(ell, 0, "(C0+C1)*U = U*diag(-j(j+1))") is None

    def test_UstarU_matches_closed_form(self):
        label = "U**U diagonal with entries (j+l+1)!(l-j)!/((2j+1) l! l!)"
        for ell in range(9):
            assert verify_row(ell, 0, label) is None

    def test_conjugation_identities(self):
        for ell in range(9):
            for label in ("Uinv*A0*U = Q0+Q1", "Uinv*(C1+C0)*U = -V0",
                          "Uinv*(C1-C0)*U = Q1*J - Q0*(J+1)"):
                assert verify_row(ell, 0, label) is None


class TestMatrixL:
    def test_ell_zero(self):
        assert build_L(0, n=3) == [[0]]

    def test_ell2_eigenvector_example(self):
        L = build_L(2, n=1)
        vec = [GaussianRational(1), -I, ZERO]
        out = [sum((L[r][c] * vec[c] for c in range(3)), ZERO)
               for r in range(3)]
        mu = GaussianRational(-2)
        assert out == [mu * v for v in vec]
        # the closing row is 0 = mu * 0 because the subdiagonal factor
        # (n - ell + 1) vanishes
        assert out[2].is_zero() and vec[2].is_zero()

    def test_pinned(self):
        # sha256 of every L(ell, n) for ell <= 12 and n <= 19, each entry
        # as format_gaussian writes it
        h = hashlib.sha256()
        for ell in range(13):
            for n in range(20):
                h.update(repr([[format_gaussian(x) for x in row]
                               for row in build_L(ell, n)]).encode())
        assert h.hexdigest() == \
            "33dd52b447fcbf6f9785454aaff4b099eddd3de09546af7b3115b2ae04183727"

    def test_geometric_multiplicity_one(self):
        # L - mu I has rank ell for every ledger eigenvalue
        for ell in (1, 2, 4):
            for n in range(6):
                L = build_L(ell, n=n)
                for k in range(min(n, ell) + 1):
                    mu = eigen_ledger(ell, n - k, k).mu
                    shifted = [[L[i][j] - (GaussianRational(mu) if i == j
                                           else ZERO)
                                for j in range(ell + 1)]
                               for i in range(ell + 1)]
                    assert rank(shifted) == ell


class TestEigenLedger:
    def test_example(self):
        led = eigen_ledger(2, 1, 1)
        assert (led.m1, led.m2) == (2, 0)
        assert led.lam == -8
        assert led.mu == -2

    def test_trivial(self):
        for ell in (0, 2, 4):
            led = eigen_ledger(ell, 0, 0)
            assert led.lam == 0 and led.mu == 0

    def test_inverse_map(self):
        led = eigen_ledger_from_rep(2, 1, 1)
        assert (led.w, led.k) == (0, 0)
        assert led.lam == 0 and led.mu == 0

    def test_rep_rejects_missing_ktype(self):
        with pytest.raises(ValueError):
            eigen_ledger_from_rep(4, 1, 0)   # m1 < ell/2
        with pytest.raises(ValueError):
            eigen_ledger_from_rep(2, 3, 2)   # |m2| > ell/2

    def test_roundtrip(self):
        for ell in (0, 1, 2, 4):
            for w in range(5):
                for k in range(ell + 1):
                    led = eigen_ledger(ell, w, k)
                    led2 = eigen_ledger_from_rep(ell, led.m1, led.m2)
                    assert (led2.w, led2.k) == (w, k)

    def test_distinct_pairs(self):
        # no two index pairs share both eigenvalues
        for ell in (1, 2, 4, 6):
            seen = {}
            for w in range(9):
                for k in range(ell + 1):
                    led = eigen_ledger(ell, w, k)
                    key = (led.lam, led.mu)
                    assert key not in seen, (seen[key], (w, k))
                    seen[key] = (w, k)
