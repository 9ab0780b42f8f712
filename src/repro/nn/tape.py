"""The :class:`ForwardPass` tape: one recorded forward, many backwards.

DeepXplore's joint-optimization loop needs four views of the same
execution — output probabilities (oracle), hidden-neuron activations
(coverage), the gradient of a class score, and the gradient of a hidden
neuron (objectives).  The original substrate recomputed a forward pass
for each view and stashed backward state on the :class:`Network` and its
layers, which made the engine non-reentrant.

:meth:`Network.run` instead returns a ``ForwardPass``: an immutable tape
owning every layer's output and backward context.  All derived views are
methods on the tape; none of them touch the network or layers, so any
number of backwards can be taken from one forward, in any order,
interleaved with other tapes on the same network.
"""

from __future__ import annotations

import numpy as np

from repro.nn import instrumentation

__all__ = ["ForwardPass", "scale_layerwise"]


def scale_layerwise(activations, neuron_layers):
    """Scale each layer's slice of ``activations`` to [0, 1] per input.

    ``activations`` has shape ``(batch, total_neurons)``; ``neuron_layers``
    is the network's flat neuron table.  Layers whose outputs are constant
    for an input scale to all-zeros (nothing is "more activated").
    """
    scaled = np.empty_like(activations)
    for entry in neuron_layers:
        block = activations[:, entry.offset:entry.offset + entry.count]
        lo = block.min(axis=1, keepdims=True)
        hi = block.max(axis=1, keepdims=True)
        span = hi - lo
        safe = np.where(span > 0, span, 1.0)
        scaled[:, entry.offset:entry.offset + entry.count] = \
            np.where(span > 0, (block - lo) / safe, 0.0)
    return scaled


class ForwardPass:
    """Immutable record of one forward pass through a :class:`Network`.

    Construction happens in :meth:`repro.nn.network.Network.run`; all
    attributes are read-only by convention and the per-layer tuples are
    never mutated.  Backward methods replay the tape without writing to
    the network, its layers, or the tape itself — parameter gradients are
    only accumulated when explicitly requested (``accumulate=True``,
    used by training).
    """

    __slots__ = ("network", "x", "training", "_layer_outputs", "_contexts")

    def __init__(self, network, x, layer_outputs, contexts, training):
        self.network = network
        self.x = x
        self.training = bool(training)
        self._layer_outputs = tuple(layer_outputs)
        self._contexts = tuple(contexts)

    @property
    def dtype(self):
        """The dtype this pass was computed in."""
        return self.x.dtype

    # -- forward views ------------------------------------------------------
    @property
    def batch_size(self):
        return int(self.x.shape[0])

    def outputs(self):
        """The network's final output for the recorded input."""
        if not self._layer_outputs:
            return self.x
        return self._layer_outputs[-1]

    def neuron_activations(self, scaled=False):
        """Per-neuron outputs, shape ``(batch, total_neurons)``.

        Conv channels are reduced to their spatial mean, matching the
        original DeepXplore's definition of a neuron's output value.
        With ``scaled=True`` each layer's slice is min-max scaled to
        [0, 1] per input (the paper's §7.1 convention, used by
        :class:`~repro.coverage.NeuronCoverageTracker`).
        """
        network = self.network
        entries = network._neuron_layers
        cols = [network.layers[e.layer_index].neuron_outputs(
            self._layer_outputs[e.layer_index]) for e in entries]
        if cols:
            acts = np.concatenate(cols, axis=1)
        else:
            acts = np.zeros((self.batch_size, 0))
        if scaled:
            acts = scale_layerwise(acts, entries)
        return acts

    # -- backward views -----------------------------------------------------
    def _backward_from(self, layer_index, grad, accumulate=False,
                       inject=None):
        layers = self.network.layers
        for i in range(layer_index, -1, -1):
            if inject and i in inject:
                # Linearity: adding a seed where the sweep passes its
                # layer equals running a second backward from there.
                grad = grad + inject[i]
            grad = layers[i].backward(self._contexts[i], grad,
                                      accumulate=accumulate)
        instrumentation.record_backward(self.network)
        # Layers return views into the pass's workspace buffers; hand
        # the caller an owned copy so the gradient survives the next
        # pass that shares them.
        return np.array(grad, copy=True)

    def gradient_of_output(self, seed, accumulate=False):
        """d(seed . output)/dx for the recorded input.

        ``seed`` is broadcast against the network output, so it can be a
        single unbatched seed shared by the batch or a full per-sample
        seed array (one backward computes per-sample functionals of the
        output — e.g. each sample's own class score).  Training passes
        the loss gradient with ``accumulate=True``, which adds every
        parameter's gradient into ``Parameter.grad``.
        """
        out = self.outputs()
        grad = np.broadcast_to(np.asarray(seed, dtype=self.dtype),
                               out.shape).copy()
        if not self._layer_outputs:
            return grad
        return self._backward_from(len(self._layer_outputs) - 1, grad,
                                   accumulate=accumulate)

    def gradient_joint(self, seed, neuron=None, scale=1.0,
                       accumulate=False):
        """d(seed . output + scale * sum of neuron values)/dx in ONE sweep.

        ``neuron`` is ``None``, one flat neuron id, or a sequence of ids.
        By linearity this equals ``gradient_of_output(seed) + scale *
        sum(gradient_of_neuron(n) for n in neurons)``: each neuron's seed
        is injected as the backward sweep passes its layer, so no second
        sweep runs.  The engine's ascent takes every gradient this way at
        both dtypes; the sweep sums in another float order than the
        separate methods, so the two agree to rounding, not bit for bit.
        """
        neurons = ([] if neuron is None
                   else [neuron] if np.ndim(neuron) == 0 else list(neuron))
        if not neurons:
            return self.gradient_of_output(seed, accumulate=accumulate)
        out = self.outputs()
        grad = np.broadcast_to(np.asarray(seed, dtype=self.dtype),
                               out.shape).copy()
        if not self._layer_outputs:
            return grad
        inject = {}
        for one in neurons:
            index, seed_one = self._neuron_seed(one)
            seed_one = np.asarray(scale * seed_one, dtype=self.dtype)
            inject[index] = (inject[index] + seed_one if index in inject
                             else seed_one)
        return self._backward_from(len(self._layer_outputs) - 1, grad,
                                   accumulate=accumulate, inject=inject)

    def _neuron_seed(self, flat_neuron_index):
        """``(layer index, unbatched seed)`` selecting one neuron's output."""
        network = self.network
        entry, local = network.neuron_layer_of(flat_neuron_index)
        index = entry.layer_index
        return index, network.layers[index].neuron_seed(
            network._output_shapes[index], local, dtype=self.dtype)

    def gradient_of_neuron(self, flat_neuron_index, accumulate=False):
        """Gradient of one hidden neuron's scalar output w.r.t. the input."""
        index, seed_one = self._neuron_seed(flat_neuron_index)
        grad = np.broadcast_to(
            seed_one, (self.batch_size,) + seed_one.shape).copy()
        return self._backward_from(index, grad, accumulate=accumulate)

    def __repr__(self):
        return (f"ForwardPass(network={self.network.name!r}, "
                f"batch={self.batch_size}, training={self.training})")
