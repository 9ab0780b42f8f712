"""Shared fixtures: smoke-scale datasets and cached trained models.

Model/dataset fixtures are session-scoped and use the on-disk cache, so
the first test session pays the (small) training cost once and later
sessions start instantly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.models import get_model, get_trio
from repro.nn import dtypes


@pytest.fixture(autouse=True, scope="session")
def _pin_float64_default():
    """Pin the suite to double precision.

    The gradchecks, pinned engine goldens, and cached zoo weights were
    all captured at float64; the library's float32 default is exercised
    explicitly (tests/nn/test_dtypes.py) rather than ambiently.
    """
    previous = dtypes.set_default_dtype(np.float64)
    yield
    dtypes.set_default_dtype(previous)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def mnist_smoke():
    return load_dataset("mnist", scale="smoke", seed=0)


@pytest.fixture(scope="session")
def imagenet_smoke():
    return load_dataset("imagenet", scale="smoke", seed=0)


@pytest.fixture(scope="session")
def driving_smoke():
    return load_dataset("driving", scale="smoke", seed=0)


@pytest.fixture(scope="session")
def pdf_smoke():
    return load_dataset("pdf", scale="smoke", seed=0)


@pytest.fixture(scope="session")
def drebin_smoke():
    return load_dataset("drebin", scale="smoke", seed=0)


@pytest.fixture(scope="session")
def mnist_trio(mnist_smoke):
    return get_trio("mnist", scale="smoke", seed=0, dataset=mnist_smoke)


@pytest.fixture(scope="session")
def driving_trio(driving_smoke):
    return get_trio("driving", scale="smoke", seed=0, dataset=driving_smoke)


@pytest.fixture(scope="session")
def pdf_trio(pdf_smoke):
    return get_trio("pdf", scale="smoke", seed=0, dataset=pdf_smoke)


@pytest.fixture(scope="session")
def drebin_trio(drebin_smoke):
    return get_trio("drebin", scale="smoke", seed=0, dataset=drebin_smoke)


@pytest.fixture(scope="session")
def lenet1(mnist_smoke):
    return get_model("MNI_C1", scale="smoke", seed=0, dataset=mnist_smoke)


@pytest.fixture(scope="session")
def lenet5(mnist_smoke):
    return get_model("MNI_C3", scale="smoke", seed=0, dataset=mnist_smoke)
