"""Dense layer: shapes, gradient checks, neuron bookkeeping."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import Dense, Workspace

from tests.nn.gradcheck import apply, check_layer_gradients


def test_forward_shape_and_value():
    rng = np.random.default_rng(0)
    layer = Dense(4, 3, activation="linear", rng=rng)
    x = rng.normal(size=(5, 4))
    out = apply(layer, x)
    assert out.shape == (5, 3)
    expected = x @ layer.weight.value.T + layer.bias.value
    np.testing.assert_allclose(out, expected)


def test_rejects_wrong_input_shape():
    layer = Dense(4, 3, rng=0)
    with pytest.raises(ShapeError):
        apply(layer, np.zeros((2, 5)))


@pytest.mark.parametrize("activation", ["linear", "relu", "softmax", "atan"])
def test_gradients(activation):
    rng = np.random.default_rng(1)
    layer = Dense(6, 4, activation=activation, rng=rng)
    x = rng.normal(size=(3, 6))
    check_layer_gradients(layer, x, rng)


def test_gradients_accumulate_until_zeroed():
    rng = np.random.default_rng(2)
    layer = Dense(3, 2, activation="linear", rng=rng)
    x = rng.normal(size=(2, 3))
    _, ctx = layer.forward(x, workspace=Workspace())
    layer.backward(ctx, np.ones((2, 2)))
    first = layer.weight.grad.copy()
    _, ctx = layer.forward(x, workspace=Workspace())
    layer.backward(ctx, np.ones((2, 2)))
    np.testing.assert_allclose(layer.weight.grad, 2 * first)
    layer.weight.zero_grad()
    assert np.all(layer.weight.grad == 0.0)


def test_neuron_bookkeeping():
    layer = Dense(5, 7, rng=0)
    assert layer.exposes_neurons
    assert layer.neuron_count((5,)) == 7
    out = np.arange(14, dtype=float).reshape(2, 7)
    np.testing.assert_array_equal(layer.neuron_outputs(out), out)
    seed = layer.neuron_seed((7,), 3)
    assert seed.shape == (7,)
    assert seed[3] == 1.0 and seed.sum() == 1.0


def test_output_shape():
    assert Dense(5, 7, rng=0).output_shape((5,)) == (7,)
