"""Fixed (non-trainable) input standardization layer.

The malware models consume raw feature vectors (counts, lengths, binary
flags).  Embedding the standardization into the network as a fixed affine
layer keeps the *model input* in raw feature space, which is what the
domain constraints (increment counts, flip manifest bits) operate on —
gradients with respect to raw features come out of the same backward pass.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn import dtypes
from repro.nn.layer import Layer

__all__ = ["FixedScale"]


class FixedScale(Layer):
    """``y = (x - mean) / std`` with constant ``mean``/``std`` vectors."""

    def __init__(self, mean, std, name=None):
        super().__init__(name=name)
        dtype = dtypes.get_default_dtype()
        self.mean = np.asarray(mean, dtype=dtype)
        std = np.asarray(std, dtype=dtype).copy()
        std[std == 0.0] = 1.0  # constant features pass through unscaled
        self.std = std
        if self.mean.shape != self.std.shape:
            raise ShapeError(
                f"mean shape {self.mean.shape} != std shape {self.std.shape}")

    @classmethod
    def from_data(cls, x, name=None):
        """Fit mean/std from a training matrix ``(n, features)``.

        Statistics are computed at float64 for stability, then stored at
        the policy dtype by ``__init__``.
        """
        x = np.asarray(x, dtype=np.float64)
        return cls(x.mean(axis=0), x.std(axis=0), name=name)

    def forward(self, x, training=False, workspace=None):
        if x.shape[1:] != self.mean.shape:
            raise ShapeError(
                f"{self.name}: expected features {self.mean.shape}, "
                f"got {x.shape}")
        return (x - self.mean) / self.std, None

    def backward(self, ctx, grad_out, accumulate=True):
        return grad_out / self.std

    def buffers(self):
        return {f"{self.name}.mean": self.mean, f"{self.name}.std": self.std}

    def output_shape(self, input_shape):
        return tuple(input_shape)
