"""Synthetic stand-ins for the paper's five datasets, plus a disk cache.

``load_dataset(name, scale, seed)`` is the single entry point used by the
model zoo and the experiment harness; generated datasets are cached as
``.npz`` files so repeated experiment runs do not pay generation cost.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

from repro.datasets.base import Dataset, SCALES, resolve_scale
from repro.datasets.drebin import generate_drebin
from repro.datasets.driving import generate_driving
from repro.datasets.imagenet import generate_imagenet
from repro.datasets.mnist import generate_mnist
from repro.datasets.pdfmalware import generate_pdf
from repro.datasets.pollution import pollute_labels
from repro.errors import DatasetError

__all__ = [
    "Dataset", "SCALES", "resolve_scale",
    "generate_mnist", "generate_imagenet", "generate_driving",
    "generate_pdf", "generate_drebin", "pollute_labels",
    "load_dataset", "dataset_names", "cache_dir",
]

_GENERATORS = {
    "mnist": generate_mnist,
    "imagenet": generate_imagenet,
    "driving": generate_driving,
    "pdf": generate_pdf,
    "drebin": generate_drebin,
}


def dataset_names():
    """Names of the five datasets, in the paper's Table 1 order."""
    return ["mnist", "imagenet", "driving", "pdf", "drebin"]


def cache_dir():
    """Directory for dataset and model caches (override: REPRO_CACHE_DIR)."""
    path = os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-deepxplore"))
    os.makedirs(path, exist_ok=True)
    return path


def load_dataset(name, scale="small", seed=0, use_cache=True):
    """Load (generating and caching on first use) a dataset by name."""
    if name not in _GENERATORS:
        raise DatasetError(
            f"unknown dataset {name!r}; known: {sorted(_GENERATORS)}")
    resolve_scale(scale)
    path = os.path.join(cache_dir(), f"dataset-{name}-{scale}-{seed}.pkl")
    if use_cache and os.path.exists(path):
        with open(path, "rb") as fh:
            return pickle.load(fh)
    dataset = _GENERATORS[name](scale=scale, seed=seed)
    if use_cache:
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(dataset, fh)
        os.replace(tmp, path)
    return dataset
