"""Faults driven through `verify` (ROADMAP item 11).

Each fault replaces one object where `verify_rows` reads it, and the test
asserts the exact set of failing rows at (ell, wmax) = (2, 1), each with
its witness; every row not listed must still pass.  Together with the
fault tests of the layer modules, every row of `verify` has a targeted
fault.
"""

import pytest

from sphmop import cli
from sphmop.gaussian import ONE
from sphmop.polynomials import MatrixPolynomial, Polynomial

from conftest import edit_result, failing_rows, shift_A0, unit_matrix


def structure_plus(name, i, j):
    """Add E_ij to the structure matrix `name` that `verify` reads."""
    return lambda mp: edit_result(mp, "build_structures", lambda st, ell: (
        st._replace(**{
            name: getattr(st, name) + unit_matrix(ell + 1, i, j)})))


def member_times(w, factor):
    """Multiply Pt_w on the right by factor(n)."""
    return lambda mp: edit_result(mp, "build_family", lambda fam, ell, wmax: (
        fam._replace(PwTilde={
            **fam.PwTilde, w: fam.PwTilde[w] * factor(ell + 1)})))


def Ebar_A2_plus_E01(mp):
    # shift_A0 reaches only A0
    edit_result(mp, "build_operator", lambda op, name, ell: (
        op._replace(A2=op.A2 + unit_matrix(ell + 1, 0, 1))
        if name == "Ebar" else op))


def recursion_a2_is_one(mp):
    # a_2 = 1 past the tail at (w, k) = (0, 0)
    edit_result(mp, "coeffs_by_recursion", lambda a, ell, w, k: (
        a[:2] + (ONE,) + a[3:] if (w, k) == (0, 0) else a))


Pt1_times_u = member_times(1, lambda n: Polynomial.variable())


def zero_weight(mp):
    edit_result(mp, "build_weight", lambda W, ell: W * 0)


FAULTS = {
    "Etilde A0+I": (
        lambda mp: shift_A0(mp, "Etilde", MatrixPolynomial.identity), {
            "Etilde*Pt_w = Pt_w*M_w": "w=0 entry (0,0): 1 != 0",
            "PsiInv*Ebar*Psi = Etilde": "A0 entry (0,0): 0 != 1"}),
    "Dbar A0+I": (
        lambda mp: shift_A0(mp, "Dbar", MatrixPolynomial.identity), {
            "Dbar*P_w = P_w*Lambda_w": "w=0 entry (0,0): 1 != 0",
            "PsiInv*Dbar*Psi = Dtilde": "A0 entry (0,0): 1 != 0"}),
    # raises deg Etilde Pt_w by two: the images must reach wmax + 2
    "Etilde A0+u^2 E_00": (
        lambda mp: shift_A0(mp, "Etilde", lambda n: unit_matrix(
            n, 0, 0, Polynomial([0, 0, 1]))), {
            "Etilde*Pt_w = Pt_w*M_w": "w=0 entry (0,0): u^2 != 0",
            "PsiInv*Ebar*Psi = Etilde": "A0 entry (0,0): 0 != u^2",
            "Etilde symmetric on the family":
                "w=0 w'=0 entry (0,2): 1/4 != 0"}),
    "Ebar A2+E_01": (Ebar_A2_plus_E01, {
        "Ebar*P_w = P_w*M_w": "w=1 entry (0,2): -6*i + (5)*u + (-10)*u^3"
                              " != (5)*u + (-10)*u^3",
        "PsiInv*Ebar*Psi = Etilde": "A2 entry (0,1): -1*i != 0",
        "[Dbar, Ebar] = 0 on monomials to degree 12":
            "u^2 e_j: entry (0,1): (-24*i)*u + (50*i)*u^3"
            " != -30 + (-24*i)*u + (50*i)*u^3"}),
    "Pt_1 (I+E_01)": (
        member_times(1, lambda n: (MatrixPolynomial.identity(n)
                                   + unit_matrix(n, 0, 1))), {
            "Dtilde*Pt_w = Pt_w*Lambda_w":
                "w=1 entry (0,1): 4 + (-9/2)*u != 4 + (-12)*u",
            "Etilde*Pt_w = Pt_w*M_w":
                "w=1 entry (0,1): 1 + (3/2)*u != 1 + (-3)*u",
            "deg Pt_w = w with invertible diagonal leading coeff":
                "w=1 leading coeff entry (0,1): 3/2 != 0",
            "<Pt_w, Pt_w> diagonal and invertible":
                "w=1 entry (0,1): 9/8 != 0"}),
    # a member raised in degree past its partners' images
    "Pt_1 u": (Pt1_times_u, {
        "Dtilde*Pt_w = Pt_w*Lambda_w":
            "w=1 entry (0,0): 2 + (-12)*u^2 != (-9/2)*u^2",
        "Etilde*Pt_w = Pt_w*M_w":
            "w=1 entry (0,0): -1/4 + (3)*u^2 != (3/2)*u^2",
        "deg Pt_w = w with invertible diagonal leading coeff":
            "w=1 degree 2 != 1",
        "<Pt_w, Pt_w'> = 0 for w != w'": "w=0 w'=1 entry (0,0): 3/4 != 0",
        "<Pt_w, Pt_w> diagonal and invertible":
            "w=1 entry (0,2): 1/64 != 0"}),
    "V0+E_11": (structure_plus("V0", 1, 1), {
        "Uinv*(C1+C0)*U = -V0": "entry (1,1): -2 != -3"}),
    "J+E_00": (structure_plus("J", 0, 0), {
        "Uinv*(C1-C0)*U = Q1*J - Q0*(J+1)": "entry (1,0): 0 != 2"}),
    "C0+E_00": (structure_plus("C0", 0, 0), {
        "(C0+C1)*U = U*diag(-j(j+1))": "entry (0,0): 1 != 0",
        "Uinv*(C1+C0)*U = -V0": "entry (0,0): 1/3 != 0",
        "Uinv*(C1-C0)*U = Q1*J - Q0*(J+1)": "entry (0,0): -1/3 != 0"}),
    "recursion a_2 = 1": (recursion_a2_is_one, {
        "coefficient recursion = Racah closed form":
            "w=0 k=0 entry (2,0): 1 != 0",
        "coefficient tail a_j = 0 for j > w+k":
            "w=0 k=0 entry (2,0): 1 != 0"}),
    # a zero weight: zero images, so every Gram block and symmetry table
    # is zero rather than a TypeError
    "W = 0": (zero_weight, {
        "<Pt_w, Pt_w> diagonal and invertible": "w=0 entry (0,0) is 0",
        "LDU reassembly equals the weight polynomial part":
            "entry (0,0): 3 != 0",
        "commutant dimension and block reduction": "dimension 9 != 2"}),
}


@pytest.mark.parametrize("install, failing", FAULTS.values(),
                         ids=list(FAULTS))
def test_verify_fails_exactly_the_rows_a_fault_breaks(monkeypatch, install,
                                                      failing):
    install(monkeypatch)
    assert failing_rows(2, 1) == failing


def test_cli_reports_a_raised_member_as_failed_rows(monkeypatch, capsys):
    # the images reach the degree of every partner, so a member of too high
    # a degree is a witnessed failure rather than a usage error
    Pt1_times_u(monkeypatch)
    code = cli.main(["verify", "--ell", "2", "--wmax", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "5 failed (ell=2, wmax=1)"


def test_cli_reports_a_zero_weight_as_failed_rows(monkeypatch, capsys):
    zero_weight(monkeypatch)
    code = cli.main(["verify", "--ell", "2", "--wmax", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "3 failed (ell=2, wmax=1)"
