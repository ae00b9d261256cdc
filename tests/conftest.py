import os

# run BLAS on one thread, as a default CLI process does, also where a test
# calls a runner directly and whatever the calling shell sets: OpenBLAS reads
# this once, when numpy loads, and numpy is not loaded yet when pytest
# imports this file
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from learnpath import GaussianSpec, sample_dataset, split_dataset  # noqa: E402


@pytest.fixture(scope="session")
def small_ds():
    """120 samples, 60/20/40 split. Shared read-only across the suite."""
    ds = sample_dataset(GaussianSpec(seed=7), 120)
    return split_dataset(ds, (0.5, 1 / 6, 1 / 3))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
