import pytest

from sphmop import build_family, build_weight
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
