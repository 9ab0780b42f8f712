"""Network container: shapes, neuron table, input-gradients, serialization."""

import numpy as np
import pytest

from repro.errors import CoverageError, ShapeError
from repro.nn import (Conv2D, Dense, Flatten, MaxPool2D, Network)
from tests.nn.gradcheck import gradient_of_class, neuron_value


@pytest.fixture
def small_cnn():
    rng = np.random.default_rng(0)
    return Network([
        Conv2D(1, 3, 3, padding=1, rng=rng, name="c1"),
        MaxPool2D(2, name="p1"),
        Conv2D(3, 4, 3, padding=1, rng=rng, name="c2"),
        Flatten(name="f"),
        Dense(4 * 4 * 4, 6, rng=rng, name="fc"),
        Dense(6, 3, activation="softmax", rng=rng, name="out"),
    ], input_shape=(1, 8, 8), name="small")


def test_shapes_and_counts(small_cnn):
    assert small_cnn.output_shape == (3,)
    assert small_cnn.total_neurons == 3 + 4 + 6 + 3
    names = [e.layer_name for e in small_cnn.neuron_layers]
    assert names == ["c1", "c2", "fc", "out"]
    offsets = [e.offset for e in small_cnn.neuron_layers]
    assert offsets == [0, 3, 7, 13]


def test_neuron_layer_of(small_cnn):
    entry, local = small_cnn.neuron_layer_of(0)
    assert entry.layer_name == "c1" and local == 0
    entry, local = small_cnn.neuron_layer_of(8)
    assert entry.layer_name == "fc" and local == 1
    with pytest.raises(CoverageError):
        small_cnn.neuron_layer_of(16)
    with pytest.raises(CoverageError):
        small_cnn.neuron_layer_of(-1)


def test_input_validation(small_cnn):
    with pytest.raises(ShapeError):
        small_cnn.predict(np.zeros((2, 1, 7, 8)))


def test_predict_batching_consistent(small_cnn, rng):
    x = rng.random((10, 1, 8, 8))
    np.testing.assert_allclose(small_cnn.predict(x, batch_size=3),
                               small_cnn.predict(x, batch_size=100))


def test_neuron_activations_shape_and_values(small_cnn, rng):
    x = rng.random((4, 1, 8, 8))
    acts = small_cnn.neuron_activations(x)
    assert acts.shape == (4, small_cnn.total_neurons)
    # Output-layer neurons are the softmax probabilities themselves.
    np.testing.assert_allclose(acts[:, -3:], small_cnn.predict(x))


def test_class_gradient_matches_numeric(small_cnn, rng):
    x = rng.random((2, 1, 8, 8))
    grad = gradient_of_class(small_cnn.run(x), 1)
    assert grad.shape == x.shape
    eps = 1e-6
    for idx in [(0, 0, 2, 3), (1, 0, 7, 7)]:
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        numeric = (small_cnn.predict(xp)[idx[0], 1]
                   - small_cnn.predict(xm)[idx[0], 1]) / (2 * eps)
        assert abs(grad[idx] - numeric) < 1e-7


def test_neuron_gradient_matches_numeric(small_cnn, rng):
    x = rng.random((2, 1, 8, 8))
    for neuron in [0, 5, 9, small_cnn.total_neurons - 1]:
        grad = small_cnn.run(x).gradient_of_neuron(neuron)
        eps = 1e-6
        idx = (1, 0, 4, 4)
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        numeric = (neuron_value(small_cnn.run(xp), neuron)[1]
                   - neuron_value(small_cnn.run(xm), neuron)[1]) / (2 * eps)
        assert abs(grad[idx] - numeric) < 1e-6, neuron


def test_state_dict_roundtrip(small_cnn, rng, tmp_path):
    x = rng.random((3, 1, 8, 8))
    before = small_cnn.predict(x)
    path = tmp_path / "weights.npz"
    small_cnn.save(path)
    # Perturb, then restore.
    for param in small_cnn.parameters():
        param.value += 1.0
    assert not np.allclose(small_cnn.predict(x), before)
    small_cnn.load(path)
    np.testing.assert_allclose(small_cnn.predict(x), before)


def test_load_rejects_missing_and_mismatched(small_cnn):
    state = small_cnn.state_dict()
    bad = dict(state)
    first_key = next(iter(bad))
    del bad[first_key]
    with pytest.raises(KeyError):
        small_cnn.load_state_dict(bad)
    bad = dict(state)
    bad[first_key] = np.zeros((1, 1))
    with pytest.raises(ShapeError):
        small_cnn.load_state_dict(bad)


def test_parameter_count(small_cnn):
    expected = sum(p.value.size for p in small_cnn.parameters())
    assert small_cnn.parameter_count() == expected
    assert "small" in repr(small_cnn)


def test_class_gradient_requires_flat_output():
    rng = np.random.default_rng(1)
    net = Network([Conv2D(1, 2, 3, padding=1, rng=rng)], (1, 4, 4))
    with pytest.raises(ShapeError):
        gradient_of_class(net.run(np.zeros((1, 1, 4, 4))), 0)
