import numpy as np
import pytest

from learnpath import GaussianSpec, sample_dataset, split_dataset
from learnpath.experiments import cap_blas_threads

# run BLAS the way the CLI does, also where a test calls a runner directly
cap_blas_threads()


@pytest.fixture(scope="session")
def small_ds():
    """120 samples, 60/20/40 split. Shared read-only across the suite."""
    ds = sample_dataset(GaussianSpec(seed=7), 120)
    return split_dataset(ds, (0.5, 1 / 6, 1 / 3))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
