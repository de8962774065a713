import numpy as np
import pytest

from ionwalk.dynamics import FidelityModel
from ionwalk.fock import HilbertParams
from ionwalk import walk


@pytest.fixture(scope="session")
def params64():
    return HilbertParams(n_max=64)


@pytest.fixture(scope="session")
def walk15_ld():
    """15-step Lamb-Dicke walk reused by scaling and energy tests."""
    cfg = walk.WalkConfig(n_steps=15, params=HilbertParams(n_max=400))
    return walk.quantum_walk(cfg)


@pytest.fixture(scope="session")
def classical15():
    """15-step classical (dephased) walk."""
    cfg = walk.WalkConfig(n_steps=15, params=HilbertParams(n_max=400))
    return walk.classical_walk(cfg)


@pytest.fixture(scope="session")
def walk13_all_order():
    cfg = walk.WalkConfig(n_steps=13, params=HilbertParams(n_max=400),
                          model=FidelityModel.ALL_ORDER)
    return walk.quantum_walk(cfg)


def split_halves(grid: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    """Left/right integrated mass, sharing any x = 0 point between both."""
    h = grid[1] - grid[0]
    at_zero = np.isclose(grid, 0.0, atol=1e-9 * h)
    left = density[grid < -1e-9 * h].sum() * h + 0.5 * density[at_zero].sum() * h
    right = density[grid > 1e-9 * h].sum() * h + 0.5 * density[at_zero].sum() * h
    return float(left), float(right)
