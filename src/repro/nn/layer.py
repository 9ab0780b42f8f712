"""Layer protocol for the numpy NN framework.

A :class:`Layer` is *stateless between calls*: :meth:`forward` returns
``(output, ctx)`` where ``ctx`` carries everything a subsequent
:meth:`backward` needs, and :meth:`backward` takes that context
explicitly.  Nothing about an execution is stored on the layer, so any
number of forward passes can be in flight at once and any number of
backwards can be taken from one recorded forward (see
:class:`repro.nn.tape.ForwardPass`).  The framework is deliberately
*define-by-run over a fixed sequence*: DeepXplore only needs sequential
(optionally residual) models, whole-layer activation recording, and
gradients of arbitrary internal neurons with respect to the input — all
of which a layer list supports without a general autograd graph.

Neuron semantics (used by :mod:`repro.coverage`): layers advertise how many
*neurons* they expose via :meth:`neuron_count` and map a raw layer output to
per-neuron scalars via :meth:`neuron_outputs`.  Following the original
DeepXplore implementation, a convolutional feature-map channel is a single
neuron whose output is the spatial mean; a dense unit is one neuron.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Layer"]


class Layer:
    """Base class for all layers."""

    #: whether this layer's outputs participate in neuron coverage
    exposes_neurons = False

    def __init__(self, name=None):
        self.name = name or type(self).__name__.lower()

    # -- core protocol -----------------------------------------------------
    def forward(self, x, training=False, workspace=None):
        """Compute the layer output for ``x``.

        Returns ``(output, ctx)`` where ``ctx`` is an opaque backward
        context (``None`` when the backward needs nothing).  The context
        must be treated as immutable by :meth:`backward`.

        ``workspace`` is the pass's :class:`repro.nn.workspace.Workspace`
        (:meth:`repro.nn.network.Network.run` always passes one).  Layers
        that need output or scratch buffers draw them from it and take
        it as a required keyword; the rest ignore it.  Workspace-backed
        outputs and contexts are only valid until the next pass that
        shares the workspace.  Layers never store the workspace.
        """
        raise NotImplementedError

    def backward(self, ctx, grad_out, accumulate=True):
        """Propagate ``grad_out`` to the layer input.

        ``ctx`` is the context returned by the :meth:`forward` call being
        differentiated.  Parameter gradients are accumulated into
        ``Parameter.grad`` only when ``accumulate`` is true — input-only
        gradients (the DeepXplore hot path) skip that work entirely.
        Must not mutate ``ctx`` or any other layer state.
        """
        raise NotImplementedError

    def parameters(self):
        """Trainable :class:`~repro.nn.parameter.Parameter` objects."""
        return []

    def buffers(self):
        """Non-trainable state to serialize (e.g. batch-norm running stats).

        Returns a dict mapping buffer name to the array itself; mutating
        the returned arrays in place updates the layer.
        """
        return {}

    def output_shape(self, input_shape):
        """Shape (without batch axis) produced for ``input_shape``."""
        raise NotImplementedError

    # -- neuron bookkeeping --------------------------------------------------
    def neuron_count(self, input_shape):
        """Number of coverage neurons this layer exposes."""
        return 0

    def neuron_outputs(self, output):
        """Map a raw batched ``output`` to shape ``(batch, neuron_count)``.

        Default: flatten feature axes for dense-style outputs; conv layers
        override with a spatial mean per channel.
        """
        return output.reshape(output.shape[0], -1)

    def neuron_seed(self, output_shape, neuron_index, dtype=np.float64):
        """Gradient seed selecting ``neuron_index``'s scalar output.

        Returns an array shaped like one unbatched output whose inner
        product with the layer output equals the neuron's scalar value (as
        defined by :meth:`neuron_outputs`).  Used to start backpropagation
        from an arbitrary hidden neuron.  ``dtype`` should match the tape
        being differentiated so backward never silently upcasts.
        """
        seed = np.zeros(output_shape, dtype=dtype)
        seed.reshape(-1)[neuron_index] = 1.0
        return seed

    # -- misc ---------------------------------------------------------------
    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"
