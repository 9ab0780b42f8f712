"""Trainable parameter container."""

from __future__ import annotations

import numpy as np

from repro.nn import dtypes

__all__ = ["Parameter"]


class Parameter:
    """A named trainable array plus its accumulated gradient.

    Layers own their parameters; optimizers mutate ``value`` in place based
    on ``grad``.  Gradients accumulate across :meth:`repro.nn.Layer.backward`
    calls until :meth:`zero_grad` is invoked, which lets a training step sum
    gradients over sub-batches if it wants to.

    Storage dtype follows the active :mod:`repro.nn.dtypes` policy at
    construction time (pass ``dtype`` to override).
    """

    def __init__(self, value, name, dtype=None):
        self.value = np.asarray(value, dtype=dtypes.resolve(dtype))
        self.grad = np.zeros_like(self.value)
        self.name = str(name)

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def zero_grad(self):
        self.grad.fill(0.0)

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"
