"""Dataset container and split helpers."""

import numpy as np
import pytest

from repro.datasets import Dataset
from repro.datasets.base import resolve_scale
from repro.errors import DatasetError


def _tiny_dataset():
    rng = np.random.default_rng(0)
    return Dataset(
        name="tiny",
        x_train=rng.random((20, 3)), y_train=np.arange(20) % 2,
        x_test=rng.random((8, 3)), y_test=np.arange(8) % 2,
        task="classification", num_classes=2)


def test_input_shape_and_describe():
    ds = _tiny_dataset()
    assert ds.input_shape == (3,)
    assert "tiny" in ds.describe()


def test_sample_seeds_no_replacement():
    ds = _tiny_dataset()
    x, y = ds.sample_seeds(8, np.random.default_rng(1))
    assert x.shape == (8, 3) and y.shape == (8,)
    # Copies, not views.
    x[0, 0] = 99.0
    assert not np.any(ds.x_test == 99.0)


def test_sample_seeds_from_train():
    ds = _tiny_dataset()
    x, _ = ds.sample_seeds(20, np.random.default_rng(2), from_train=True)
    assert x.shape == (20, 3)


def test_sample_seeds_too_many():
    with pytest.raises(DatasetError):
        _tiny_dataset().sample_seeds(9, np.random.default_rng(0))


def test_mismatched_counts_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(DatasetError):
        Dataset(name="bad", x_train=rng.random((5, 2)), y_train=np.zeros(4),
                x_test=rng.random((2, 2)), y_test=np.zeros(2))


def test_unknown_task_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(DatasetError):
        Dataset(name="bad", x_train=rng.random((2, 2)), y_train=np.zeros(2),
                x_test=rng.random((2, 2)), y_test=np.zeros(2),
                task="ranking")


def test_resolve_scale():
    assert resolve_scale("smoke") == "smoke"
    with pytest.raises(DatasetError):
        resolve_scale("enormous")
