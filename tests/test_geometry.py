"""Numeric group layer: the double cover, the representation, and the
reconstructed spherical functions with their equivariance properties."""

import functools

import numpy as np
import pytest

from sphmop import geometry as geo
from sphmop.family import eval_H
from sphmop.hypergeometric import gegenbauer


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(12345)


def rotation_y(theta):
    """Rotation about the first axis, mixing coordinates 2 and 3."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rotation_z(theta):
    """Rotation about the third axis, mixing coordinates 1 and 2."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestCover:
    def test_identity_and_center(self):
        a, b = geo.wedge_cover(np.eye(4))
        assert np.allclose(a, np.eye(3)) and np.allclose(b, np.eye(3))
        # -I is in the kernel of the cover
        a, b = geo.wedge_cover(-np.eye(4))
        assert np.allclose(a, np.eye(3)) and np.allclose(b, np.eye(3))

    def test_homomorphism(self, rng):
        for _ in range(20):
            g1 = geo.random_rotation(rng, 4)
            g2 = geo.random_rotation(rng, 4)
            a1, b1 = geo.wedge_cover(g1)
            a2, b2 = geo.wedge_cover(g2)
            a12, b12 = geo.wedge_cover(g1 @ g2)
            assert np.max(np.abs(a12 - a1 @ a2)) < 1e-8
            assert np.max(np.abs(b12 - b1 @ b2)) < 1e-8

    def test_images_are_rotations(self, rng):
        for _ in range(10):
            a, b = geo.wedge_cover(geo.random_rotation(rng, 4))
            geo.check_rotation(a)
            geo.check_rotation(b)

    def test_embedded_subgroup_is_fixed(self, rng):
        # the basis of the exterior square is aligned so that the first
        # factor of the cover restricts to the identity on the embedded
        # copy of the smaller group
        for _ in range(10):
            k = geo.random_rotation(rng, 3)
            a, b = geo.wedge_cover(geo.embed_so3(k))
            assert np.max(np.abs(a - k)) < 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            geo.wedge_cover(2.0 * np.eye(4))
        with pytest.raises(ValueError):
            geo.wedge_cover(np.eye(3))

    def test_rejects_non_finite(self):
        # NaN compares false with every tolerance, so it must be caught first
        for n in (3, 4):
            for bad in (np.nan, np.inf, -np.inf):
                g = np.eye(n)
                g[n - 1, n - 1] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    geo.check_rotation(g)


class TestRepresentation:
    def test_commutation_relations(self):
        for ell in (1, 2, 4):
            rep = geo.RepSO3(ell)
            assert np.allclose(rep.h @ rep.e - rep.e @ rep.h, 2 * rep.e)
            assert np.allclose(rep.h @ rep.f - rep.f @ rep.h, -2 * rep.f)
            assert np.allclose(rep.e @ rep.f - rep.f @ rep.e, rep.h)

    def test_one_parameter_subgroup_is_diagonal(self):
        # the rotation fixing the first axis acts diagonally with phases
        # exp(i theta (ell - 2j)/2)
        for ell in (1, 2, 4):
            rep = geo.RepSO3(ell)
            for theta in (0.3, 0.7, 2.1):
                pm = geo.rep_exp(rep, rotation_y(theta))
                expected = np.diag([np.exp(0.5j * theta * (ell - 2 * j))
                                    for j in range(ell + 1)])
                assert np.max(np.abs(pm - expected)) < 1e-9

    def test_homomorphism(self, rng):
        rep = geo.RepSO3(2)
        for _ in range(10):
            k1 = geo.random_rotation(rng, 3)
            k2 = geo.random_rotation(rng, 3)
            lhs = geo.rep_exp(rep, k1 @ k2)
            rhs = geo.rep_exp(rep, k1) @ geo.rep_exp(rep, k2)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_unitary(self, rng):
        for ell in (1, 2, 4):
            rep = geo.RepSO3(ell)
            for _ in range(5):
                p = geo.rep_exp(rep, geo.random_rotation(rng, 3))
                # unitary for the diagonal invariant form, not the flat one;
                # determinant has modulus 1 regardless
                assert abs(abs(np.linalg.det(p)) - 1.0) < 1e-9

    def test_auxiliary_function_restricts_to_rep(self, rng):
        rep = geo.RepSO3(2)
        for _ in range(10):
            k = geo.random_rotation(rng, 3)
            lhs = geo.phi_pi(rep, geo.embed_so3(k))
            assert np.max(np.abs(lhs - geo.rep_exp(rep, k))) < 1e-8


class TestSection:
    def test_carries_pole_to_target(self, rng):
        # the last three inputs lie on or next to the ray y1 < 0,
        # y2 = y3 = 0, where a single explicit chart loses accuracy
        near_ray = [(-1.0, 1e-6, 0.0), (-1.0, 1e-9, 0.0), (-2.0, 0.0, 0.0)]
        for y in [*rng.standard_normal((20, 3)), *np.array(near_ray)]:
            A = geo.section_matrix(y)
            assert np.max(np.abs(A.T @ A - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(A) - 1.0) < 1e-12
            n = np.linalg.norm(y)
            assert np.max(np.abs(A @ np.array([n, 0, 0]) - y)) < 1e-12

    def test_excluded_ray_fallback(self):
        A = geo.section_matrix(np.array([-2.0, 0.0, 0.0]))
        geo.check_rotation(A)
        assert np.max(np.abs(A @ np.array([2.0, 0, 0])
                             - np.array([-2.0, 0, 0]))) < 1e-12

    def test_zero_vector(self):
        assert np.allclose(geo.section_matrix(np.zeros(3)), np.eye(3))


class TestReconstruction:
    def test_value_at_identity(self):
        for ell, w, k in ((0, 2, 0), (2, 1, 1), (4, 0, 3)):
            phi = geo.reconstruct_phi(ell, w, k, np.eye(4))
            assert np.max(np.abs(phi - np.eye(ell + 1))) < 1e-9

    def test_trivial_function(self, rng):
        for _ in range(5):
            g = geo.random_rotation(rng, 4)
            rep = geo.RepSO3(2)
            phi = geo.reconstruct_phi(2, 0, 0, g)
            assert np.max(np.abs(phi - geo.phi_pi(rep, g))) < 1e-8

    def test_bi_equivariance(self, rng):
        # Phi(k1 g k2) = pi(k1) Phi(g) pi(k2) over a hundred random samples
        rep = geo.RepSO3(2)
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

    def test_near_excluded_ray(self):
        # coset points g e4 whose first three coordinates lie 1e-4 and 1e-9
        # off the ray x1 < 0, x2 = x3 = 0: the value is finite and
        # bi-equivariant like anywhere else
        rng = np.random.default_rng(7)
        rep = geo.RepSO3(2)
        theta = 1.0
        for offset in (1e-4, 1e-9):
            delta = np.arcsin(offset / np.sin(theta))
            g = (geo.embed_so3(rotation_z(np.pi - delta))
                 @ geo.plane_rotation_14(theta)
                 @ geo.embed_so3(geo.random_rotation(rng, 3)))
            x = g[:3, 3]
            assert x[0] < 0 and abs(np.hypot(x[1], x[2]) - offset) < 1e-15
            phi = geo.reconstruct_phi(2, 1, 1, g)
            assert np.all(np.isfinite(phi))
            for _ in range(10):
                k1 = geo.random_rotation(rng, 3)
                k2 = geo.random_rotation(rng, 3)
                lhs = geo.reconstruct_phi(
                    2, 1, 1, geo.embed_so3(k1) @ g @ geo.embed_so3(k2))
                rhs = geo.rep_exp(rep, k1) @ phi @ geo.rep_exp(rep, k2)
                assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_central_parity(self, rng):
        # Phi(-g) = (-1)^(w+k) Phi(g): the center acts by the parity of w+k
        for _ in range(5):
            g = geo.random_rotation(rng, 4)
            for ell, w, k in ((2, 1, 1), (2, 2, 0), (2, 0, 2), (4, 1, 2)):
                sign = (-1.0) ** (w + k)
                diff = (geo.reconstruct_phi(ell, w, k, -g)
                        - sign * geo.reconstruct_phi(ell, w, k, g))
                assert np.max(np.abs(diff)) < 1e-8

    def test_zonal_case_matches_gegenbauer(self):
        # at ell = 0 the function along the meridian is the normalized
        # Gegenbauer polynomial of the height coordinate
        for n in range(1, 7):
            C = gegenbauer(n, 1)
            for theta in np.linspace(0.1, 3.0, 7):
                g = geo.plane_rotation_14(theta)
                phi = geo.reconstruct_phi(0, n, 0, g)[0, 0]
                ref = complex(C(np.cos(theta))) / complex(C(1))
                assert abs(phi - ref) < 1e-8

    def test_meridian_commutes_with_axis_stabilizer(self):
        # the diagonal one-parameter subgroup stabilizing the meridian
        # commutes with the diagonal matrix of one-variable components
        rep = geo.RepSO3(2)
        pm = geo.rep_exp(rep, rotation_y(0.9))
        D = np.diag(eval_H(2, 1, 1, 0.3))
        assert np.max(np.abs(pm @ D - D @ pm)) < 1e-10


@pytest.fixture(scope="module")
def hdot():
    """Gauss quadrature (second-kind nodes) of the sphere-level inner
    product of two one-variable component vectors.  Each vector is
    evaluated once at the nodes and shared by every pair it is in."""
    N = 200
    nodes = [(np.cos(t * np.pi / (N + 1)),
              (np.pi / (N + 1)) * np.sin(t * np.pi / (N + 1)) ** 2)
             for t in range(1, N + 1)]

    @functools.cache
    def vectors(ell, w, k):
        return [np.array(eval_H(ell, w, k, x)) for x, _ in nodes]

    def quadrature(ell, wk1, wk2):
        total = 0.0
        for (_, wq), h1, h2 in zip(nodes, vectors(ell, *wk1),
                                   vectors(ell, *wk2)):
            total += wq * np.vdot(h2, h1).real
        return 2.0 / np.pi * total

    return quadrature


class TestNumericOrthogonality:
    def test_distinct_indices_orthogonal(self, hdot):
        pairs = [(1, 1), (0, 2), (2, 0), (0, 1), (1, 0), (2, 2)]
        for ell in (2, 4):
            for i, wk1 in enumerate(pairs):
                for wk2 in pairs[i + 1:]:
                    assert abs(hdot(ell, wk1, wk2)) < 1e-8

    def test_norms_positive(self, hdot):
        for ell in (2, 4):
            for wk in ((0, 0), (1, 1), (2, 0), (0, 2)):
                assert hdot(ell, wk, wk) > 1e-3

    def test_sample_norm_value(self, hdot):
        assert abs(hdot(2, (1, 1), (1, 1)) - 1.0) < 1e-8
