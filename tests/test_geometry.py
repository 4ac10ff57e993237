"""Numeric group layer: the double cover, the representation, and the
reconstructed spherical functions with their equivariance properties."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from sphmop import geometry as geo
from sphmop.family import eval_H

from test_hypergeometric import gegenbauer


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(12345)


def random_rotation(rng, dim):
    """Haar-ish random rotation from the QR decomposition of a Gaussian
    matrix, with the sign fix making it det +1."""
    m = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def rotation_y(theta):
    """Rotation about the first axis, mixing coordinates 2 and 3."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rotation_z(theta):
    """Rotation about the third axis, mixing coordinates 1 and 2."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def sl2_triple(ell):
    """The sl(2) triple e, f, h of the (ell+1)-dimensional irreducible
    representation in RepSO3's basis: h is diagonal with entries ell - 2j,
    e raises and f lowers j by one."""
    n = ell + 1
    h = np.diag([float(ell - 2 * j) for j in range(n)]).astype(complex)
    e = np.zeros((n, n), dtype=complex)
    f = np.zeros((n, n), dtype=complex)
    for j in range(1, n):
        e[j - 1, j] = ell - j + 1
    for j in range(n - 1):
        f[j + 1, j] = j + 1
    return e, f, h


def oracle_rep_exp(rep, k):
    """pi_ell(k) through the axis-angle factorization of k: the rotation
    vector r of k (|r| <= pi) satisfies k = exp([r]_x), and [r]_x
    corresponds to -r1 Y3 + r2 Y2 - r3 Y1 for the rotation generators
    below, written through the sl(2) triple e, f, h."""
    e, f, h = sl2_triple(rep.ell)
    Y1 = -0.5j * (e + f)
    Y2 = -0.5 * (e - f)
    Y3 = 0.5j * h
    r = Rotation.from_matrix(k).as_rotvec()
    return expm(-r[0] * Y3 + r[1] * Y2 - r[2] * Y1)


def rotation_about(axis, theta):
    """Rotation by theta about a coordinate axis, right-handed."""
    c, s = np.cos(theta), np.sin(theta)
    a, b = [i for i in range(3) if i != axis]
    m = np.eye(3)
    m[a, a] = m[b, b] = c
    m[a, b], m[b, a] = -s, s
    return m


class TestCover:
    def test_identity_and_center(self):
        a, b = geo.wedge_cover(np.eye(4))
        assert np.allclose(a, np.eye(3)) and np.allclose(b, np.eye(3))
        # -I is in the kernel of the cover
        a, b = geo.wedge_cover(-np.eye(4))
        assert np.allclose(a, np.eye(3)) and np.allclose(b, np.eye(3))

    def test_homomorphism(self, rng):
        for _ in range(20):
            g1 = random_rotation(rng, 4)
            g2 = random_rotation(rng, 4)
            a1, b1 = geo.wedge_cover(g1)
            a2, b2 = geo.wedge_cover(g2)
            a12, b12 = geo.wedge_cover(g1 @ g2)
            assert np.max(np.abs(a12 - a1 @ a2)) < 1e-8
            assert np.max(np.abs(b12 - b1 @ b2)) < 1e-8

    def test_images_are_rotations(self, rng):
        for _ in range(10):
            a, b = geo.wedge_cover(random_rotation(rng, 4))
            geo.check_rotation(a, 3)
            geo.check_rotation(b, 3)

    def test_embedded_subgroup_is_fixed(self, rng):
        # the basis of the exterior square is aligned so that the first
        # factor of the cover restricts to the identity on the embedded
        # copy of the smaller group
        for _ in range(10):
            k = random_rotation(rng, 3)
            a, b = geo.wedge_cover(geo.embed_so3(k))
            assert np.max(np.abs(a - k)) < 1e-9

    def test_matches_minor_by_minor_loop(self):
        # the reference fills the action on the exterior square one 2 x 2
        # minor at a time; the vectorised minors must agree bit for bit
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

        def reference(g):
            q = np.empty((6, 6))
            for a, (k, l) in enumerate(pairs):
                for b, (i, j) in enumerate(pairs):
                    q[a, b] = g[k, i] * g[l, j] - g[l, i] * g[k, j]
            q6 = geo._BASIS.T @ q @ geo._BASIS
            return q6[:3, :3], q6[3:, 3:]

        rng = np.random.default_rng(500)
        for _ in range(200):
            g = random_rotation(rng, 4)
            for got, want in zip(geo.wedge_cover(g), reference(g)):
                assert np.array_equal(got, want)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            geo.wedge_cover(2.0 * np.eye(4))
        for bad in (np.eye(3), [[1.0, 0.0], [0.0]], "eye", {"a": 1}):
            with pytest.raises(ValueError, match="4x4 nested list"):
                geo.wedge_cover(bad)

    def test_rejects_booleans_strings_and_huge_ints(self):
        # numpy would convert each of these to a float array without
        # complaint; none of them is a nested list of numbers
        for n, gate in ((4, geo.wedge_cover),
                        (3, lambda k: geo.rep_exp(geo.RepSO3(2), k))):
            eye = np.eye(n, dtype=int).tolist()
            for bad in ([[bool(x) for x in row] for row in eye],
                        [[str(x) for x in row] for row in eye],
                        [[x * 10 ** 400 for x in row] for row in eye]):
                with pytest.raises(ValueError, match=f"{n}x{n} nested list"):
                    gate(bad)
            gate(eye)

    def test_rejects_non_finite(self):
        # NaN compares false with every tolerance, so it must be caught first
        for n in (3, 4):
            for bad in (np.nan, np.inf, -np.inf):
                g = np.eye(n)
                g[n - 1, n - 1] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    geo.check_rotation(g, n)


class TestRepresentation:
    def test_commutation_relations(self):
        for ell in (1, 2, 4):
            e, f, h = sl2_triple(ell)
            assert np.allclose(h @ e - e @ h, 2 * e)
            assert np.allclose(h @ f - f @ h, -2 * f)
            assert np.allclose(e @ f - f @ e, h)

    def test_rejects_negative_ell(self):
        assert geo.RepSO3(0).ell == 0
        with pytest.raises(ValueError, match="ell must be nonnegative"):
            geo.RepSO3(-1)

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

    def test_matches_exponential_oracle(self):
        # seeded Haar rotations, rotations near the identity, and rotations
        # by pi - 1e-6 about each axis, so that each of the four branches
        # of the quaternion (the trace, or one diagonal entry, largest) runs
        rng = np.random.default_rng(2024)
        near = [rotation_about(a, t) for a in range(3) for t in (1e-9, -1e-5)]
        half_turns = [rotation_about(a, np.pi - 1e-6) for a in range(3)]
        ks = ([random_rotation(rng, 3) for _ in range(40)] + near
              + half_turns + [np.eye(3)])
        branches = {int(np.argmax([np.trace(k), *np.diag(k)])) for k in ks}
        assert branches == {0, 1, 2, 3}
        for ell in (*range(1, 7), 12):
            rep = geo.RepSO3(ell)
            for k in ks:
                diff = geo.rep_exp(rep, k) - oracle_rep_exp(rep, k)
                assert np.max(np.abs(diff)) < 1e-12, (ell, k)

    def test_homomorphism(self, rng):
        # pi_ell is a representation of SU(2); for odd ell it is one of
        # SO(3) only up to the sign of the lift
        for ell in (1, 2, 3):
            rep = geo.RepSO3(ell)
            for _ in range(10):
                k1 = random_rotation(rng, 3)
                k2 = random_rotation(rng, 3)
                lhs = geo.rep_exp(rep, k1 @ k2)
                rhs = geo.rep_exp(rep, k1) @ geo.rep_exp(rep, k2)
                err = np.max(np.abs(lhs - rhs))
                if ell % 2:
                    err = min(err, np.max(np.abs(lhs + rhs)))
                assert err < 1e-8

    def test_unitary(self, rng):
        for ell in (1, 2, 4):
            rep = geo.RepSO3(ell)
            for _ in range(5):
                p = geo.rep_exp(rep, random_rotation(rng, 3))
                # unitary for the diagonal invariant form, not the flat one;
                # determinant has modulus 1 regardless
                assert abs(abs(np.linalg.det(p)) - 1.0) < 1e-9

    def test_auxiliary_function_restricts_to_rep(self, rng):
        rep = geo.RepSO3(2)
        for _ in range(10):
            k = random_rotation(rng, 3)
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
        geo.check_rotation(A, 3)
        assert np.max(np.abs(A @ np.array([2.0, 0, 0])
                             - np.array([-2.0, 0, 0]))) < 1e-12

    def test_zero_vector(self):
        assert np.allclose(geo.section_matrix(np.zeros(3)), np.eye(3))


class TestReconstruction:
    def test_value_at_identity(self):
        for ell, w, k in ((0, 2, 0), (2, 1, 1), (4, 0, 3)):
            phi = geo.reconstruct_phi(ell, w, k, np.eye(4))
            assert np.max(np.abs(phi - np.eye(ell + 1))) < 1e-9

    def test_gates_g_once(self, monkeypatch):
        # g is the only input from outside; the rotations derived from it
        # (the section k0 and the cover image a) pass the 3x3 gate
        sizes = []
        check = geo.check_rotation
        monkeypatch.setattr(geo, "check_rotation",
                            lambda g, n: sizes.append(n) or check(g, n))
        geo.reconstruct_phi(2, 1, 1, geo.plane_rotation_14(0.7))
        assert sizes.count(4) == 1

    def test_trivial_function(self, rng):
        for _ in range(5):
            g = random_rotation(rng, 4)
            rep = geo.RepSO3(2)
            phi = geo.reconstruct_phi(2, 0, 0, g)
            assert np.max(np.abs(phi - geo.phi_pi(rep, g))) < 1e-8

    def test_bi_equivariance(self, rng):
        # Phi(k1 g k2) = pi(k1) Phi(g) pi(k2) over a hundred random samples
        rep = geo.RepSO3(2)
        for _ in range(100):
            g = random_rotation(rng, 4)
            k1 = random_rotation(rng, 3)
            k2 = random_rotation(rng, 3)
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
                 @ geo.embed_so3(random_rotation(rng, 3)))
            x = g[:3, 3]
            assert x[0] < 0 and abs(np.hypot(x[1], x[2]) - offset) < 1e-15
            phi = geo.reconstruct_phi(2, 1, 1, g)
            assert np.all(np.isfinite(phi))
            for _ in range(10):
                k1 = random_rotation(rng, 3)
                k2 = random_rotation(rng, 3)
                lhs = geo.reconstruct_phi(
                    2, 1, 1, geo.embed_so3(k1) @ g @ geo.embed_so3(k2))
                rhs = geo.rep_exp(rep, k1) @ phi @ geo.rep_exp(rep, k2)
                assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_central_parity(self, rng):
        # Phi(-g) = (-1)^(w+k) Phi(g): the center acts by the parity of w+k
        for _ in range(5):
            g = random_rotation(rng, 4)
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
                ref = complex(C(Fraction(np.cos(theta)))) / complex(C(1))
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
