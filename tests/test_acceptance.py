"""Acceptance gate over the full desk grid (ell in {0, 1, 2, 4, 6},
w <= 8).  The exact identities are the rows of `cli.verify_rows`, checked
with zero tolerance; the remaining criteria cover what `verify` does not
report, and the numeric group-layer checks state their tolerances inline."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sphmop
from sphmop.cli import verify_rows
from sphmop.gaussian import GaussianRational, ONE
from sphmop.family import coeffs_by_recursion, eval_H
from sphmop.orthogonality import commutant
from sphmop import geometry as geo
from sphmop.hypergeometric import gegenbauer

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


def test_criterion_6_weight_structure(weights):
    # verify passes a trivial commutant too; the weight is reducible for
    # every even ell >= 2
    assert commutant(weights[0])[0] == 1
    assert commutant(weights[2])[0] == 2
    for ell in (4, 6):
        assert commutant(weights[ell])[0] >= 2


def test_criterion_7_group_layer_numeric():
    rng = np.random.default_rng(7)
    rep = geo.RepSO3(2)
    # value at the identity element
    assert np.max(np.abs(geo.reconstruct_phi(2, 1, 1, np.eye(4))
                         - np.eye(3))) < 1e-9
    # bi-equivariance over 100 random samples
    for _ in range(100):
        g = geo.random_rotation(rng, 4)
        k1 = geo.random_rotation(rng, 3)
        k2 = geo.random_rotation(rng, 3)
        lhs = geo.reconstruct_phi(
            2, 1, 1, geo.embed_so3(k1) @ g @ geo.embed_so3(k2))
        rhs = (geo.rep_exp(rep, k1)
               @ geo.reconstruct_phi(2, 1, 1, g)
               @ geo.rep_exp(rep, k2))
        assert np.max(np.abs(lhs - rhs)) < 1e-7
    # central parity sign (-1)^(w+k)
    for _ in range(5):
        g = geo.random_rotation(rng, 4)
        for ell, w, k in ((2, 1, 1), (2, 2, 0), (2, 0, 2), (4, 1, 2)):
            diff = (geo.reconstruct_phi(ell, w, k, -g)
                    - (-1.0) ** (w + k) * geo.reconstruct_phi(ell, w, k, g))
            assert np.max(np.abs(diff)) < 1e-7
    # zonal functions are normalized Gegenbauer polynomials
    for deg in range(1, 7):
        C = gegenbauer(deg, 1)
        for theta in np.linspace(0.1, 3.0, 7):
            phi = geo.reconstruct_phi(0, deg, 0,
                                      geo.plane_rotation_14(theta))[0, 0]
            assert abs(phi - complex(C(np.cos(theta))) / complex(C(1))) < 1e-8
    # numeric orthogonality of inequivalent component vectors
    N = 200
    nodes = [(np.cos(t * np.pi / (N + 1)),
              (np.pi / (N + 1)) * np.sin(t * np.pi / (N + 1)) ** 2)
             for t in range(1, N + 1)]
    pairs = [(1, 1), (0, 2), (2, 0), (0, 1), (1, 0)]
    for ell in (2, 4):
        vecs = {wk: [np.array(eval_H(ell, *wk, x)) for x, _ in nodes]
                for wk in pairs}
        for a, wk1 in enumerate(pairs):
            for wk2 in pairs[a + 1:]:
                dot = sum(wq * np.vdot(h2, h1).real
                          for (x, wq), h1, h2 in zip(nodes, vecs[wk1],
                                                     vecs[wk2]))
                assert abs(2.0 / np.pi * dot) < 1e-8


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
