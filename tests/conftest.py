import numpy as np
import pytest

from lpvol.specfun import DEFAULT_CONFIG, QuadConfig


@pytest.fixture(scope="session")
def cfg() -> QuadConfig:
    return DEFAULT_CONFIG


@pytest.fixture(scope="session")
def loose_cfg() -> QuadConfig:
    # for bulk sweeps where 1e-10 is overkill
    return QuadConfig(rel_tol=1e-8)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
