import dataclasses

import pytest

from sphmop import build_family, build_weight, cli
from sphmop.cli import verify_rows

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


def shift_A0(monkeypatch, name, shift):
    """Make `verify` build the named operator with shift(n) added to A0."""
    build = cli.build_operator

    def shifted(op_name, ell):
        op = build(op_name, ell)
        if op_name == name:
            op = dataclasses.replace(op, A0=op.A0 + shift(ell + 1))
        return op

    monkeypatch.setattr(cli, "build_operator", shifted)
