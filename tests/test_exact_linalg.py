"""Exact linear algebra over Q(i).  Every solver reads its answer off one
reduced row echelon form, so each is checked against its defining equation
on small random matrices, rank-deficient products (k x r)(r x n) included."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sphmop import cli, exact_linalg as el
from sphmop.cli import verify_rows
from sphmop.gaussian import GaussianRational, ZERO, ONE
from sphmop.orthogonality import build_weight
from sphmop.polynomials import Polynomial
from sphmop.structure import build_structures

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


def rank(m):
    """The test-local rank oracle: the pivot count of one rref."""
    return len(el.rref([row[:] for row in m]))


def apply(m, v):
    return [sum((a * b for a, b in zip(row, v)), ZERO) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def free_columns(m):
    """Columns that depend on the columns before them, found from ranks of
    leading column blocks, which do not depend on any elimination order."""
    ranks = [0] + [rank([row[:c + 1] for row in m])
                   for c in range(len(m[0]))]
    return [c for c in range(len(m[0])) if ranks[c + 1] == ranks[c]]


@settings(max_examples=40, deadline=None)
@given(products())
@example([[GaussianRational(a) for a in row] for row in ((1, 2, 3), (1, 3, 5))])
def test_nullspace_is_the_canonical_basis(m):
    basis = el.nullspace(m)
    free = free_columns(m)
    assert rank(m) + len(basis) == len(m[0])
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
    if r < n or rank(m) < n:
        with pytest.raises(ValueError, match="matrix is singular"):
            el.invert(m)
        return
    inv = el.invert(m)
    assert el.mat_mul(m, inv) == el.mat_identity(n)
    assert el.mat_mul(inv, m) == el.mat_identity(n)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mat_mul_is_the_triple_sum(data):
    # `entries` draws ZERO often, so both factors have zeros to skip
    n, m, p = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a, b = data.draw(grids(n, m)), data.draw(grids(m, p))
    assert el.mat_mul(a, b) == [
        [sum((a[i][t] * b[t][j] for t in range(m)), ZERO) for j in range(p)]
        for i in range(n)]


def elementwise_mat_mul(a, b):
    """The test-only oracle: the product as GaussianRational multiply-adds,
    every one reduced, skipping zero entries of both factors."""
    supports = [[j for j, y in enumerate(r) if not y.is_zero()] for r in b]
    out = [[ZERO] * len(b[0]) for _ in a]
    for arow, orow in zip(a, out):
        for x, brow, support in zip(arow, b, supports):
            if x.is_zero():
                continue
            for j in support:
                orow[j] = orow[j] + x * brow[j]
    return out


@st.composite
def kernel_factors(draw, rows, cols):
    """A rows x cols matrix whose entries are all real, all imaginary or
    mixed, over one shared denominator or each over its own, with numerators
    up to 2^40 so that sums carry; some rows, or the whole matrix, zero."""
    kind = draw(st.sampled_from(["real", "imaginary", "mixed"]))
    shared = draw(st.one_of(st.none(), st.integers(1, 12)))
    top = draw(st.sampled_from([3, 2 ** 40]))

    def entry():
        part = st.integers(-top, top)
        re = draw(part) if kind != "imaginary" else 0
        im = draw(part) if kind != "real" else 0
        d = shared or draw(st.integers(1, 12))
        return GaussianRational(Fraction(re, d), Fraction(im, d))

    if draw(st.integers(0, 7)) == 0:
        return [[ZERO] * cols for _ in range(rows)]
    return [[entry() for _ in range(cols)] if draw(st.integers(0, 3))
            else [ZERO] * cols for _ in range(rows)]


@st.composite
def factor_pairs(draw):
    n, m, p = draw(sizes), draw(sizes), draw(sizes)
    return draw(kernel_factors(n, m)), draw(kernel_factors(m, p))


g = GaussianRational


@settings(max_examples=200, deadline=None)
@given(factor_pairs())
@example(([[g(2)]], [[g(Fraction(1, 3))]]))
@example(([[ZERO, ZERO]], [[g(1)], [g(0, 1)]]))
@example(([[g(0, Fraction(1, 2)), g(0, Fraction(1, 3))]],
          [[g(0, 1)], [g(0, Fraction(2, 5))]]))
@example(([[g(Fraction(1, 6)), g(Fraction(-1, 6))], [ZERO, ZERO]],
          [[g(Fraction(5, 6)), ZERO], [g(Fraction(5, 6)), g(Fraction(1, 6))]]))
def test_mat_mul_agrees_with_the_elementwise_oracle(ab):
    # 1 x 1, an all-zero factor, purely imaginary entries over mixed
    # denominators, and a zero row and an entry that cancels over equal ones
    a, b = ab
    assert el.mat_mul(a, b) == elementwise_mat_mul(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_sum_is_the_sum_of_products(data):
    n, p = data.draw(sizes), data.draw(sizes)
    pairs = []
    for m in data.draw(st.lists(sizes, min_size=1, max_size=3)):
        pairs.append((data.draw(kernel_factors(n, m)),
                      data.draw(kernel_factors(m, p))))
    expected = [[ZERO] * p for _ in range(n)]
    for a, b in pairs:
        expected = [[x + y for x, y in zip(r, s)]
                    for r, s in zip(expected, elementwise_mat_mul(a, b))]
    assert el.product_sum(
        [(el.sparse_rows(a), el.sparse_rows(b)) for a, b in pairs],
        n, p) == expected


def test_invert_needs_constant_pivots():
    # rref divides by each pivot, which must be a scalar: a Polynomial pivot
    # is a TypeError, a constant one included
    for pivot in (Polynomial.variable(), Polynomial.constant(2)):
        with pytest.raises(TypeError):
            el.invert([[pivot, ONE], [ZERO, ONE]])


def test_kernel_sees_scalars_only(monkeypatch, capsys):
    # a polynomial matrix hands exact_linalg its coefficient matrices, so
    # every product (each factor enters through sparse_rows), adjoint and
    # elimination runs on GaussianRational
    def scalars_only(fn):
        def checked(*mats):
            assert all(isinstance(x, GaussianRational)
                       for m in mats for row in m for x in row), fn.__name__
            return fn(*mats)
        return checked

    for name in ("sparse_rows", "mat_mul", "mat_conj_transpose", "rref"):
        monkeypatch.setattr(el, name, scalars_only(getattr(el, name)))
    build_structures.cache_clear()
    build_weight.cache_clear()
    assert all(w is None for _, w in verify_rows(2, 2))
    assert cli.main(["reduce", "--ell", "4"]) == 0
