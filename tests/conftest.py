import numpy as np
import pytest

from ellqg.ellfn import ModularParams
from ellqg.suites import _rand_pdyn as random_pdyn  # noqa: F401 (shared test inputs)
from ellqg.suites import _rand_points as random_points  # noqa: F401
from ellqg.suites import _rand_t as random_t  # noqa: F401
from ellqg.tensorspace import Composition


@pytest.fixture
def mp():
    return ModularParams(q=0.5, r=3.1)


@pytest.fixture
def mp_level():
    return ModularParams(q=0.5, r=3.1, k=0.8)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def shape_of(mu, N):
    return Composition(tuple(sum(1 for c in mu if c == l) for l in range(1, N + 1)))
