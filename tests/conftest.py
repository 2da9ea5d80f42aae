from pathlib import Path

import numpy as np
import pytest

from lpvol.specfun import DEFAULT_CONFIG, QuadConfig

_TESTS = Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    # every warning is an error in this suite; the ini setting, which
    # also covers the benchmark's tests, makes only RuntimeWarning one
    for item in items:
        if _TESTS in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


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
