"""Dataset container and common helpers for the synthetic datasets.

The paper evaluates on five datasets (MNIST, ImageNet, Udacity Driving,
Contagio/VirusTotal, Drebin) totalling ~162 GB.  This environment is
offline, so each dataset is replaced by a procedural generator that
preserves the properties DeepXplore exercises: learnable structure (so
independently trained models agree on most inputs), the input domain
(images in [0,1], count features, binary features) and the constraint
semantics of §6.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DatasetError

__all__ = ["Dataset", "SCALES", "resolve_scale"]

#: Named experiment scales.  ``smoke`` keeps CI fast; ``small`` is the
#: default for benchmarks; ``full`` approaches the paper's set-ups as far
#: as a CPU-only numpy stack allows.
SCALES = ("smoke", "small", "full")


def resolve_scale(scale):
    """Validate a scale name."""
    if scale not in SCALES:
        raise DatasetError(f"unknown scale {scale!r}; choose from {SCALES}")
    return scale


@dataclass
class Dataset:
    """A train/test split plus task metadata.

    ``task`` is ``"classification"`` or ``"regression"``.  For feature
    datasets (PDF, Drebin), ``feature_names`` labels each input column so
    experiments can report human-readable mutations (paper Tables 3-4).
    """

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    task: str = "classification"
    num_classes: int | None = None
    feature_names: list[str] | None = None
    class_names: list[str] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in ("classification", "regression"):
            raise DatasetError(f"unknown task {self.task!r}")
        if self.x_train.shape[0] != np.asarray(self.y_train).shape[0]:
            raise DatasetError("x_train/y_train sample counts differ")
        if self.x_test.shape[0] != np.asarray(self.y_test).shape[0]:
            raise DatasetError("x_test/y_test sample counts differ")

    @property
    def input_shape(self):
        """Shape of a single sample (no batch axis)."""
        return self.x_train.shape[1:]

    def sample_seeds(self, count, rng, from_train=False):
        """Randomly pick ``count`` seed inputs (with labels) from a split.

        Used by every experiment that starts from "N randomly selected
        seeds from the test set".
        """
        x = self.x_train if from_train else self.x_test
        y = self.y_train if from_train else self.y_test
        if count > x.shape[0]:
            raise DatasetError(
                f"requested {count} seeds but split has {x.shape[0]}")
        idx = rng.choice(x.shape[0], size=count, replace=False)
        return x[idx].copy(), np.asarray(y)[idx].copy()

    def describe(self):
        """One-line summary used in reports."""
        return (f"{self.name}: train={self.x_train.shape[0]} "
                f"test={self.x_test.shape[0]} input={self.input_shape} "
                f"task={self.task}")

