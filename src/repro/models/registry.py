"""Model zoo registry: build, train, cache, and reload the 15 DNNs.

The paper evaluates three DNNs per dataset (Table 1).  ``get_model``
returns a trained network for a zoo entry, training it on first use and
caching the weights under :func:`repro.datasets.cache_dir`, so that the
expensive part of an experiment run happens once per (model, scale, seed).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.datasets import cache_dir, load_dataset
from repro.errors import ConfigError
from repro.models.dave import (build_dave_dropout, build_dave_norminit,
                               build_dave_orig)
from repro.models.lenet import build_lenet1, build_lenet4, build_lenet5
from repro.models.malware import build_drebin_model, build_pdf_model
from repro.models.resnet import build_resnet
from repro.models.vgg import build_vgg16, build_vgg19
from repro.nn import Trainer, accuracy, dtypes, steering_accuracy
from repro.utils.rng import as_rng

__all__ = ["ModelSpec", "MODEL_ZOO", "TRIOS", "TRAINING_DTYPE", "get_model",
           "get_trio", "train_model", "model_accuracy", "zoo_names"]

#: Bump to invalidate every cached model after architecture changes.
_CACHE_VERSION = 1

#: The zoo is built and trained at float64 regardless of the library
#: default: cached weights, experiment outputs, and the pinned engine
#: goldens were all captured at double precision and must stay
#: bit-stable.  Float32 models are derived copies (see
#: ``network_from_payload(..., dtype=...)``), never retrainings.
TRAINING_DTYPE = np.dtype(np.float64)


@dataclass(frozen=True)
class ModelSpec:
    """One zoo entry: how to build and train a model, plus paper context."""

    name: str                 # paper name, e.g. "MNI_C1"
    dataset: str              # dataset key for repro.datasets.load_dataset
    architecture: str         # human-readable description (Table 1)
    builder: object           # callable(dataset, rng) -> Network
    epochs: dict = field(default_factory=dict)   # scale -> epochs
    lr: float = 1e-3
    batch_size: int = 32
    loss: str = "cross_entropy"
    reported_accuracy: str = "n/a"   # the paper's Table 1 figure


def _image_builder(build):
    return lambda dataset, rng: build(rng=rng)


def _pdf_builder(hidden):
    def build(dataset, rng):
        return build_pdf_model(hidden, dataset.x_train, rng=rng,
                               name=f"pdf_{'_'.join(map(str, hidden))}")
    return build


def _drebin_builder(hidden):
    def build(dataset, rng):
        return build_drebin_model(hidden, dataset.x_train.shape[1], rng=rng,
                                  name=f"drebin_{'_'.join(map(str, hidden))}")
    return build


_CLS_EPOCHS = {"smoke": 8, "small": 15, "full": 25}
_MLP_EPOCHS = {"smoke": 12, "small": 25, "full": 40}
_DRV_EPOCHS = {"smoke": 8, "small": 15, "full": 25}

MODEL_ZOO = {
    "MNI_C1": ModelSpec("MNI_C1", "mnist", "LeNet-1",
                        _image_builder(build_lenet1), _CLS_EPOCHS,
                        reported_accuracy="98.33%"),
    "MNI_C2": ModelSpec("MNI_C2", "mnist", "LeNet-4",
                        _image_builder(build_lenet4), _CLS_EPOCHS,
                        reported_accuracy="98.59%"),
    "MNI_C3": ModelSpec("MNI_C3", "mnist", "LeNet-5",
                        _image_builder(build_lenet5), _CLS_EPOCHS,
                        reported_accuracy="98.96%"),
    "IMG_C1": ModelSpec("IMG_C1", "imagenet", "VGG-16 (mini)",
                        _image_builder(build_vgg16), _CLS_EPOCHS,
                        reported_accuracy="92.6%"),
    "IMG_C2": ModelSpec("IMG_C2", "imagenet", "VGG-19 (mini)",
                        _image_builder(build_vgg19), _CLS_EPOCHS,
                        reported_accuracy="92.7%"),
    "IMG_C3": ModelSpec("IMG_C3", "imagenet", "ResNet (mini)",
                        _image_builder(build_resnet), _CLS_EPOCHS,
                        reported_accuracy="96.43%"),
    "DRV_C1": ModelSpec("DRV_C1", "driving", "DAVE-orig",
                        _image_builder(build_dave_orig), _DRV_EPOCHS,
                        loss="mse", reported_accuracy="99.91% (1-MSE)"),
    "DRV_C2": ModelSpec("DRV_C2", "driving", "DAVE-norminit",
                        _image_builder(build_dave_norminit), _DRV_EPOCHS,
                        loss="mse", reported_accuracy="99.94% (1-MSE)"),
    "DRV_C3": ModelSpec("DRV_C3", "driving", "DAVE-dropout",
                        _image_builder(build_dave_dropout), _DRV_EPOCHS,
                        loss="mse", reported_accuracy="99.96% (1-MSE)"),
    "PDF_C1": ModelSpec("PDF_C1", "pdf", "<200, 200>",
                        _pdf_builder((200, 200)), _MLP_EPOCHS,
                        reported_accuracy="96.15%"),
    "PDF_C2": ModelSpec("PDF_C2", "pdf", "<200, 200, 200>",
                        _pdf_builder((200, 200, 200)), _MLP_EPOCHS,
                        reported_accuracy="96.25%"),
    "PDF_C3": ModelSpec("PDF_C3", "pdf", "<200, 200, 200, 200>",
                        _pdf_builder((200, 200, 200, 200)), _MLP_EPOCHS,
                        reported_accuracy="96.47%"),
    "APP_C1": ModelSpec("APP_C1", "drebin", "<200, 200>",
                        _drebin_builder((200, 200)), _MLP_EPOCHS,
                        reported_accuracy="98.6%"),
    "APP_C2": ModelSpec("APP_C2", "drebin", "<50, 50>",
                        _drebin_builder((50, 50)), _MLP_EPOCHS,
                        reported_accuracy="96.82%"),
    "APP_C3": ModelSpec("APP_C3", "drebin", "<200, 10>",
                        _drebin_builder((200, 10)), _MLP_EPOCHS,
                        reported_accuracy="92.66%"),
}

#: The three models tested per dataset, in Table 1 order.
TRIOS = {
    "mnist": ["MNI_C1", "MNI_C2", "MNI_C3"],
    "imagenet": ["IMG_C1", "IMG_C2", "IMG_C3"],
    "driving": ["DRV_C1", "DRV_C2", "DRV_C3"],
    "pdf": ["PDF_C1", "PDF_C2", "PDF_C3"],
    "drebin": ["APP_C1", "APP_C2", "APP_C3"],
}


def zoo_names():
    """All 15 zoo model names in Table 1 order."""
    return [name for trio in TRIOS.values() for name in trio]


def _model_seed(name, seed):
    """Stable (process-independent) per-model seed derivation."""
    return (zlib.crc32(name.encode("utf-8")) * 1000003 + int(seed)) % (2 ** 63)


def model_accuracy(network, dataset):
    """Task-appropriate accuracy: top-1 or the paper's 1-MSE proxy."""
    if dataset.task == "regression":
        return steering_accuracy(network, dataset.x_test, dataset.y_test)
    return accuracy(network, dataset.x_test, dataset.y_test)


def train_model(spec, dataset, scale="small", seed=0, verbose=False):
    """Build and train a fresh model for ``spec``; returns the network.

    The builder and trainer derive their randomness from ``seed`` and the
    model name, so two zoo models on the same dataset are *independently
    initialized and shuffled* — the paper's requirement for differential
    testing to be meaningful.
    """
    rng = as_rng(_model_seed(spec.name, seed))
    with dtypes.default_dtype(TRAINING_DTYPE):
        network = spec.builder(dataset, rng)
        network.name = spec.name
        trainer = Trainer(network, loss=spec.loss, lr=spec.lr, rng=rng)
        epochs = spec.epochs.get(scale, 10)
        trainer.fit(dataset.x_train, dataset.y_train, epochs=epochs,
                    batch_size=spec.batch_size, verbose=verbose)
    return network


def _cache_paths(name, scale, seed):
    base = os.path.join(
        cache_dir(), f"model-v{_CACHE_VERSION}-{name}-{scale}-{seed}")
    return base + ".npz", base + ".json"


def get_model(name, scale="small", seed=0, use_cache=True, dataset=None,
              verbose=False):
    """Return a trained zoo model, training and caching on first use."""
    if name not in MODEL_ZOO:
        raise ConfigError(f"unknown model {name!r}; known: {zoo_names()}")
    spec = MODEL_ZOO[name]
    if dataset is None:
        dataset = load_dataset(spec.dataset, scale=scale, seed=seed)
    weights_path, meta_path = _cache_paths(name, scale, seed)
    if use_cache and os.path.exists(weights_path):
        rng = as_rng(_model_seed(spec.name, seed))
        with dtypes.default_dtype(TRAINING_DTYPE):
            network = spec.builder(dataset, rng)
        network.name = spec.name
        network.load(weights_path)
        return network
    network = train_model(spec, dataset, scale=scale, seed=seed,
                          verbose=verbose)
    if use_cache:
        network.save(weights_path)
        with open(meta_path, "w") as fh:
            json.dump({"name": name, "scale": scale, "seed": seed,
                       "accuracy": model_accuracy(network, dataset)}, fh)
    return network


def get_trio(dataset_name, scale="small", seed=0, use_cache=True,
             dataset=None, verbose=False):
    """Return the three trained models for one dataset (Table 1 trio)."""
    if dataset_name not in TRIOS:
        raise ConfigError(
            f"unknown dataset {dataset_name!r}; known: {sorted(TRIOS)}")
    if dataset is None:
        dataset = load_dataset(dataset_name, scale=scale, seed=seed)
    return [get_model(name, scale=scale, seed=seed, use_cache=use_cache,
                      dataset=dataset, verbose=verbose)
            for name in TRIOS[dataset_name]]

