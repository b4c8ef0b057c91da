import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every run draws the same examples, so the library lines a run reaches do not
# change from run to run; each test keeps its own max_examples and deadline
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

import oracles
from affinelab.catalog import default_catalog
from affinelab.flows import IntegratorConfig

# the shared catalog also holds the entries only tests compute on, before any
# test module reads its manifold names at collection
oracles.register_test_manifolds(default_catalog())


@pytest.fixture(scope="session")
def cat():
    return default_catalog()


@pytest.fixture
def cfg():
    return IntegratorConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
