"""Exact linear algebra over Q(i).  Every solver reads its answer off one
reduced row echelon form, so each is checked against its defining equation
on small random matrices, rank-deficient products (k x r)(r x n) included."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sphmop import exact_linalg as el
from sphmop.gaussian import GaussianRational, ZERO, ONE
from sphmop.orthogonality import _minimal_polynomial, _rational_roots
from sphmop.polynomials import MatrixPolynomial

parts = st.fractions(min_value=-4, max_value=4, max_denominator=3)
entries = st.one_of(st.just(ZERO), st.builds(GaussianRational, parts, parts))


def grids(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


sizes = st.integers(min_value=1, max_value=4)


def product(draw, rows, r, cols):
    """A rows x cols matrix of rank at most r, built as (rows x r)(r x cols)."""
    return el.mat_mul(draw(grids(rows, r)), draw(grids(r, cols)))


@st.composite
def products(draw):
    return product(draw, draw(sizes), draw(sizes), draw(sizes))


def apply(m, v):
    return [sum((a * b for a, b in zip(row, v)), ZERO) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def free_columns(m):
    """Columns that depend on the columns before them, found from ranks of
    leading column blocks, which do not depend on any elimination order."""
    ranks = [0] + [el.rank([row[:c + 1] for row in m])
                   for c in range(len(m[0]))]
    return [c for c in range(len(m[0])) if ranks[c + 1] == ranks[c]]


@settings(max_examples=40, deadline=None)
@given(products())
@example([[GaussianRational(a) for a in row] for row in ((1, 2, 3), (1, 3, 5))])
def test_nullspace_is_the_canonical_basis(m):
    basis = el.nullspace(m)
    free = free_columns(m)
    assert el.rank(m) + len(basis) == len(m[0])
    assert len(basis) == len(free)
    for v, own in zip(basis, free):
        assert all(x.is_zero() for x in apply(m, v))
        assert [v[c] for c in free] == [ONE if c == own else ZERO
                                        for c in free]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve(data):
    m = data.draw(products())
    y = data.draw(st.lists(entries, min_size=len(m[0]),
                           max_size=len(m[0])))
    rhs = apply(m, y)
    x = el.solve(m, rhs)
    assert apply(m, x) == rhs
    # z^T m = 0 for z in the left null space, so adding conj(z) to a
    # consistent right-hand side makes z^T rhs = |z|^2 nonzero
    for z in el.nullspace(transpose(m))[:1]:
        bad = [b + zi.conjugate() for b, zi in zip(rhs, z)]
        with pytest.raises(ValueError, match="inconsistent"):
            el.solve(m, bad)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_invert(data):
    n, r = data.draw(sizes), data.draw(sizes)
    m = product(data.draw, n, r, n)
    if r < n or el.rank(m) < n:
        with pytest.raises(ValueError, match="matrix is singular"):
            el.invert(m)
        return
    inv = el.invert(m)
    assert el.mat_mul(m, inv) == el.mat_identity(n)
    assert el.mat_mul(inv, m) == el.mat_identity(n)


@pytest.mark.parametrize("B, coeffs", [
    ([[GaussianRational(2) if i + j == 2 else ZERO for j in range(3)]
      for i in range(3)], [-4, 0, 1]),
    (MatrixPolynomial.diagonal([1, 2, 2]).constant_value(), [2, -3, 1]),
    (MatrixPolynomial.diagonal([3, 3, 3]).constant_value(), [-3, 1]),
])
def test_minimal_polynomial(B, coeffs):
    assert _minimal_polynomial(B) == coeffs


@pytest.mark.parametrize("coeffs, roots", [
    ([0, -4, 0, 1], [-2, 0, 2]),                        # x^3 - 4x
    ([Fraction(-1, 4), 0, 1], [Fraction(-1, 2), Fraction(1, 2)]),
    ([-2, 0, 1], []),                                   # x^2 - 2
    ([0, 0, 1], [0]),                                   # x^2
])
def test_rational_roots(coeffs, roots):
    # zero roots are split off before the rational root theorem runs
    assert _rational_roots([Fraction(c) for c in coeffs]) == roots
