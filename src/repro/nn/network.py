"""The :class:`Network` container: a stateless layer stack plus the tape.

This is the piece of the substrate DeepXplore actually depends on.  Keras
gave the original authors three capabilities:

1. ``model.predict`` — plain inference (:meth:`Network.predict`);
2. sub-models exposing any intermediate neuron's output
   (:meth:`Network.neuron_activations`);
3. ``K.gradients(objective, input)`` — the derivative of any scalar built
   from output probabilities and hidden-neuron outputs with respect to the
   *input* (:meth:`~repro.nn.tape.ForwardPass.gradient_of_output`,
   :meth:`~repro.nn.tape.ForwardPass.gradient_of_neuron`,
   :meth:`~repro.nn.tape.ForwardPass.gradient_joint`).

All three are provided on top of a single primitive: :meth:`Network.run`
executes one recorded forward pass and returns an immutable
:class:`~repro.nn.tape.ForwardPass` tape, off which outputs, neuron
activations, and any number of input-gradients are derived without
re-running the network.  No forward or backward state is ever left on
the network or its layers, so concurrent tapes on the same network are
safe and the engine is reentrant.  ``predict`` and
``neuron_activations`` below each build fresh tapes per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CoverageError, ShapeError
from repro.nn import dtypes, instrumentation
from repro.nn.tape import ForwardPass
from repro.nn.workspace import Workspace

__all__ = ["Network", "LayerNeurons"]


@dataclass(frozen=True)
class LayerNeurons:
    """Per-layer slice of the flat neuron table."""

    layer_index: int
    layer_name: str
    offset: int
    count: int


class Network:
    """An ordered stack of layers with a fixed input shape.

    Parameters
    ----------
    layers:
        Sequence of :class:`repro.nn.layer.Layer`.
    input_shape:
        Shape of one input sample (no batch axis), e.g. ``(1, 28, 28)``.
    name:
        Used in reports and as the weight-cache key component.
    """

    def __init__(self, layers, input_shape, name="network"):
        self.layers = list(layers)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.name = str(name)
        # Compute dtype: inferred from the parameters (all layers are
        # built under one policy scope), falling back to the policy for
        # parameter-free networks.
        params = [p for layer in self.layers for p in layer.parameters()]
        self._dtype = params[0].dtype if params else dtypes.get_default_dtype()
        self._output_shapes = []
        shape = self.input_shape
        for layer in self.layers:
            shape = tuple(layer.output_shape(shape))
            self._output_shapes.append(shape)
        self.output_shape = shape

        # Flat neuron table over layers that expose neurons.
        self._neuron_layers = []
        offset = 0
        prev_shape = self.input_shape
        for index, layer in enumerate(self.layers):
            if layer.exposes_neurons:
                count = layer.neuron_count(prev_shape)
                self._neuron_layers.append(
                    LayerNeurons(index, layer.name, offset, count))
                offset += count
            prev_shape = self._output_shapes[index]
        self.total_neurons = offset

    # -- introspection ------------------------------------------------------
    def parameters(self):
        params = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def buffers(self):
        buffers = {}
        for layer in self.layers:
            buffers.update(layer.buffers())
        return buffers

    def parameter_count(self):
        return int(sum(p.value.size for p in self.parameters()))

    @property
    def dtype(self):
        """The compute/storage dtype of this network."""
        return self._dtype

    @property
    def neuron_layers(self):
        """The flat neuron table (read-only list of :class:`LayerNeurons`)."""
        return list(self._neuron_layers)

    def neuron_layer_of(self, flat_index):
        """Map a flat neuron index to ``(LayerNeurons, local_index)``."""
        if not 0 <= flat_index < self.total_neurons:
            raise CoverageError(
                f"neuron index {flat_index} out of range "
                f"[0, {self.total_neurons})")
        for entry in self._neuron_layers:
            if flat_index < entry.offset + entry.count:
                return entry, flat_index - entry.offset
        raise CoverageError(f"corrupt neuron table for index {flat_index}")

    # -- execution ----------------------------------------------------------
    def _check_input(self, x):
        x = np.asarray(x, dtype=self._dtype)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"{self.name}: expected input shape (batch, "
                f"{', '.join(map(str, self.input_shape))}), got {x.shape}")
        return x

    def run(self, x, training=False, workspace=None):
        """Execute one recorded forward pass; returns a
        :class:`~repro.nn.tape.ForwardPass` tape.

        The tape owns every layer's output and backward context, so the
        oracle check, coverage update, and all input-gradients of one
        ascent iteration derive from this single execution.

        Every layer draws its output and scratch buffers from
        ``workspace`` (a :class:`~repro.nn.workspace.Workspace`), so the
        returned tape is only valid until the next pass that shares it.
        The ascent loop passes one workspace per model and
        ``Trainer.fit`` one per fit; with ``None`` the pass gets a fresh
        workspace of its own, which is what callers that hold tapes
        across forwards want.
        """
        x = self._check_input(x)
        if workspace is None:
            workspace = Workspace()
        outputs = []
        contexts = []
        out = x
        for layer in self.layers:
            out, ctx = layer.forward(out, training=training,
                                     workspace=workspace)
            outputs.append(out)
            contexts.append(ctx)
        instrumentation.record_forward(self, x.shape[0])
        return ForwardPass(self, x, outputs, contexts, training)

    def forward(self, x, training=False):
        """Run the network and return only its final output."""
        return self.run(x, training=training).outputs()

    def predict(self, x, batch_size=256):
        """Inference in batches; never triggers training-mode behaviour."""
        x = self._check_input(x)
        if x.shape[0] <= batch_size:
            return self.forward(x, training=False)
        chunks = [self.forward(x[i:i + batch_size], training=False)
                  for i in range(0, x.shape[0], batch_size)]
        return np.concatenate(chunks, axis=0)

    def neuron_activations(self, x, batch_size=256):
        """Per-neuron outputs, shape ``(batch, total_neurons)``.

        Conv channels are reduced to their spatial mean, matching the
        original DeepXplore's definition of a neuron's output value.
        """
        x = self._check_input(x)
        rows = [self.run(x[start:start + batch_size]).neuron_activations()
                for start in range(0, x.shape[0], batch_size)]
        return np.concatenate(rows, axis=0)

    # -- serialization --------------------------------------------------------
    def state_dict(self):
        """All weights and buffers as ``{name: array}`` (copies)."""
        state = {p.name: p.value.copy() for p in self.parameters()}
        for name, buf in self.buffers().items():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state):
        """Load arrays saved by :meth:`state_dict` (names must match)."""
        for param in self.parameters():
            if param.name not in state:
                raise KeyError(f"missing parameter {param.name!r} in state")
            value = np.asarray(state[param.name], dtype=param.value.dtype)
            if value.shape != param.value.shape:
                raise ShapeError(
                    f"{param.name}: saved shape {value.shape} != "
                    f"model shape {param.value.shape}")
            param.value[...] = value
        for name, buf in self.buffers().items():
            if name not in state:
                raise KeyError(f"missing buffer {name!r} in state")
            buf[...] = np.asarray(state[name], dtype=buf.dtype)

    def save(self, path):
        """Persist weights/buffers to an ``.npz`` file."""
        np.savez_compressed(path, **self.state_dict())

    def load(self, path):
        """Restore weights/buffers from :meth:`save` output."""
        with np.load(path) as data:
            self.load_state_dict({k: data[k] for k in data.files})

    def __repr__(self):
        return (f"Network(name={self.name!r}, layers={len(self.layers)}, "
                f"neurons={self.total_neurons}, "
                f"params={self.parameter_count()})")
