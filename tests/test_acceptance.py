"""Acceptance gate over the full desk grid (ell in {0, 1, 2, 4, 6},
w <= 8).  The exact identities are the rows of `cli.verify_rows`, checked
with zero tolerance; the remaining criteria cover what `verify` does not
report: the named coefficient example, the series solver's classification
of polynomial solutions, and byte-identical reports.  The commutant
dimensions are checked in test_orthogonality.py and the numeric group
layer in test_geometry.py."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sphmop
from sphmop.cli import verify_rows
from sphmop.gaussian import GaussianRational, ONE
from sphmop.family import coeffs_by_recursion

from conftest import GRID_ELLS, WMAX
from test_operators import classify_polynomial_solutions


@pytest.mark.parametrize("ell", GRID_ELLS)
def test_verify_rows_hold(ell):
    # criteria 1-6: every exact identity that `sphmop verify` reports, at
    # every grid size; a failing row shows up with its witness
    assert [(label, w) for label, w in verify_rows(ell, WMAX) if w] == []


def test_criterion_2_coefficient_layer():
    # named w = 0 example: a^{0,2} = (1, -2i, -2/3) whenever ell >= 2
    for ell in (2, 4, 6):
        assert coeffs_by_recursion(ell, 0, 2).a[:3] == (
            ONE, GaussianRational(0, -2), GaussianRational(Fraction(-2, 3)))


def test_criterion_4_degree_theory():
    # the series solver recovers exactly min(n+1, ell+1) polynomial
    # eigenpackets at lambda = -n(n+2), with leading vector along e_k
    for ell in GRID_ELLS:
        n = ell + 1
        for deg in range(WMAX + 1):
            sols = classify_polynomial_solutions(ell, deg)
            assert len(sols) == min(deg + 1, ell + 1)
            for w, k, v, lead in sols:
                assert w + k == deg
                assert not lead[k].is_zero()
                assert all(lead[r].is_zero() for r in range(n) if r != k)


def test_criterion_8_deterministic_reports():
    cmd = [sys.executable, "-m", "sphmop.cli", "verify",
           "--ell", "4", "--wmax", "6"]
    # the child finds the package where this process found it
    src = str(Path(sphmop.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert b"FAIL" not in first.stdout
