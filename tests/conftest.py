from fractions import Fraction

import pytest

from sphmop import build_family, build_weight, cli
from sphmop.cli import verify_rows
from sphmop.gaussian import GaussianRational, format_gaussian
from sphmop.polynomials import MatrixPolynomial

# the desk-scale verification grid: every exact identity is checked at
# these sizes, with degrees up to WMAX
GRID_ELLS = (0, 1, 2, 4, 6)
WMAX = 8


@pytest.fixture(scope="session")
def families():
    """One FamilyPackage per grid ell, shared across the whole run."""
    return {ell: build_family(ell, WMAX) for ell in GRID_ELLS}


@pytest.fixture(scope="session")
def weights():
    return {ell: build_weight(ell) for ell in GRID_ELLS}


def verify_row(ell, wmax, label):
    """Witness of the `verify` row with this label, None when it holds.
    Rows come lazily, so the layers after it are never built."""
    return next(w for row, w in verify_rows(ell, wmax) if row == label)


def failing_rows(ell, wmax):
    """Witness of every failing `verify` row, by label."""
    return {row: w for row, w in verify_rows(ell, wmax) if w}


def edit_result(monkeypatch, name, edit):
    """Make `verify` see edit(result, *args) wherever it calls cli.<name>."""
    build = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: edit(build(*args), *args))


def shift_A0(monkeypatch, name, shift):
    """Make `verify` build the named operator with shift(n) added to A0."""
    edit_result(monkeypatch, "build_operator", lambda op, op_name, ell: (
        op._replace(A0=op.A0 + shift(ell + 1))
        if op_name == name else op))


def unit_matrix(n, i, j, entry=1):
    """The n x n matrix with `entry` at (i, j) and zeros elsewhere."""
    return MatrixPolynomial([[entry if (r, c) == (i, j) else 0
                              for c in range(n)] for r in range(n)])


def parse_gaussian(text: str) -> GaussianRational:
    """Inverse of `format_gaussian`, the reader of the JSON and CSV reports:
    accepts exactly the strings it emits and raises ValueError on any
    other."""
    re_text, im_text = text, "0"
    if text.endswith("*i"):
        # the imaginary part starts at the last sign, or at the start
        cut = max(text.rfind("+"), text.rfind("-"), 0)
        re_text, im_text = text[:cut] or "0", text[cut:-2]
    try:
        z = GaussianRational(Fraction(re_text), Fraction(im_text))
    except (ValueError, ZeroDivisionError):
        z = None
    if z is None or format_gaussian(z) != text:
        raise ValueError(
            f"not a canonical Gaussian-rational literal: {text!r}")
    return z
