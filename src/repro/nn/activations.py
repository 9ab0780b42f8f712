"""Activation functions as forward/backward strategy objects.

Layers with built-in activations (Dense, Conv2D) compose one of these so
that neuron coverage — which the paper measures on *post-activation*
outputs, matching the Keras convention — sees the activated values.

Each activation implements ``forward(z)`` and ``backward(grad, z, a)``
where ``z`` is the pre-activation, ``a`` the cached activation output, and
``grad`` the upstream gradient with respect to ``a``.  ``backward`` returns
the gradient with respect to ``z``.

Fused epilogues: layers that run the activation as a GEMM epilogue call
:meth:`Activation.forward_into` with ``out`` aliasing ``z``, overwriting
the pre-activation in place and dropping it from the backward context.
That is only legal when :attr:`Activation.needs_preactivation` is false —
i.e. ``backward`` can be computed from ``a`` (and ``grad``) alone, with
**bit-identical** results to the ``z``-based formula.  ``backward`` then
receives ``z=None``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "Activation",
    "Linear",
    "Relu",
    "Softmax",
    "Atan",
    "get_activation",
]


class Activation:
    """Base class for activation strategies."""

    name = "activation"

    #: True when :meth:`backward` needs the pre-activation ``z``.  When
    #: false, fused layers may overwrite ``z`` in place and pass
    #: ``z=None`` to backward.
    needs_preactivation = True

    def forward(self, z):
        raise NotImplementedError

    def forward_into(self, z, out):
        """Compute the activation into ``out`` (which may alias ``z``).

        The generic fallback materializes :meth:`forward` and copies;
        cheap elementwise activations override with a true in-place
        kernel.  Values are bit-identical to :meth:`forward` either way.
        """
        result = self.forward(z)
        if result is not out:
            out[...] = result
        return out

    def backward(self, grad, z, a):
        raise NotImplementedError

    def backward_into(self, grad, z, a, out, mask):
        """Backward pass into a preallocated ``out`` buffer.

        ``mask`` is a preallocated bool scratch of the same shape;
        activations that can use it avoid every temporary.  The default
        falls back to :meth:`backward` plus a copy, so values are
        bit-identical either way.
        """
        result = self.backward(grad, z, a)
        if result is not out:
            out[...] = result
        return out

    def __repr__(self):
        return f"{type(self).__name__}()"


class Linear(Activation):
    """Identity activation."""

    name = "linear"
    needs_preactivation = False

    def forward(self, z):
        return z

    def forward_into(self, z, out):
        if out is not z:
            out[...] = z
        return out

    def backward(self, grad, z, a):
        return grad


class Relu(Activation):
    """Rectified linear unit: max(0, z)."""

    name = "relu"
    needs_preactivation = False

    def forward(self, z):
        return np.maximum(z, 0.0)

    def forward_into(self, z, out):
        return np.maximum(z, 0.0, out=out)

    def backward(self, grad, z, a):
        # a = max(z, 0) makes (a > 0) ⟺ (z > 0): identical either way.
        return grad * (a > 0.0)

    def backward_into(self, grad, z, a, out, mask):
        np.greater(a, 0.0, out=mask)
        return np.multiply(grad, mask, out=out)


class Atan(Activation):
    """Arctangent activation, used by the DAVE steering head.

    The Nvidia DAVE-2 architecture emits ``atan(z)`` so the steering angle
    is bounded to (-pi/2, pi/2); the original DeepXplore models multiply by
    2 but the bounded shape is what matters for gradient ascent.
    """

    name = "atan"

    def forward(self, z):
        return np.arctan(z)

    def backward(self, grad, z, a):
        return grad / (1.0 + z * z)


class Softmax(Activation):
    """Softmax over the last axis, with an exact Jacobian-vector backward.

    The exact backward (rather than the fused cross-entropy shortcut) is
    required because DeepXplore differentiates *individual class
    probabilities* with respect to the input (Equation 2 of the paper), not
    just the training loss.
    """

    name = "softmax"
    needs_preactivation = False

    def forward(self, z):
        shifted = z - z.max(axis=-1, keepdims=True)
        ez = np.exp(shifted)
        return ez / ez.sum(axis=-1, keepdims=True)

    def backward(self, grad, z, a):
        inner = (grad * a).sum(axis=-1, keepdims=True)
        return a * (grad - inner)


_ACTIVATIONS = {
    "linear": Linear,
    "relu": Relu,
    "softmax": Softmax,
    "atan": Atan,
}


def get_activation(spec):
    """Resolve ``spec`` (name, class instance, or ``None``) to an instance."""
    if spec is None:
        return Linear()
    if isinstance(spec, Activation):
        return spec
    try:
        return _ACTIVATIONS[spec]()
    except KeyError:
        known = ", ".join(sorted(_ACTIVATIONS))
        raise ConfigError(f"unknown activation {spec!r}; known: {known}") from None
