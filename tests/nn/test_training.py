"""Trainer: learning actually happens, metrics, determinism."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn import (Dense, Network, Trainer, accuracy, mse,
                      steering_accuracy)


def _toy_classification(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return x, y


def _mlp(seed=0, out=2, activation="softmax"):
    rng = np.random.default_rng(seed)
    return Network([
        Dense(4, 16, rng=rng, name="h"),
        Dense(16, out, activation=activation, rng=rng, name="o"),
    ], input_shape=(4,), name="toy")


def test_loss_decreases_and_accuracy_improves():
    x, y = _toy_classification()
    net = _mlp()
    before = accuracy(net, x, y)
    trainer = Trainer(net, loss="cross_entropy", rng=1, lr=0.01)
    history = trainer.fit(x, y, epochs=25, batch_size=32)
    assert history["loss"][-1] < history["loss"][0]
    after = accuracy(net, x, y)
    assert after > max(before, 0.9)


def test_regression_training():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(400, 4))
    y = 0.5 * x[:, 0] - 0.25 * x[:, 2]
    net = _mlp(seed=2, out=1, activation="linear")
    trainer = Trainer(net, loss="mse", rng=4)
    trainer.fit(x, y, epochs=20, batch_size=32)
    assert mse(net, x, y) < 0.05
    assert steering_accuracy(net, x, y) > 0.95


def test_mismatched_shapes_rejected():
    net = _mlp(seed=5)
    trainer = Trainer(net)
    with pytest.raises(ConfigError):
        trainer.fit(np.zeros((10, 4)), np.zeros(9, dtype=int), epochs=1)


def test_training_is_deterministic_given_seeds():
    x, y = _toy_classification(seed=7)

    def run():
        net = _mlp(seed=11)
        Trainer(net, rng=13).fit(x, y, epochs=3, batch_size=32)
        return net.predict(x[:5])

    np.testing.assert_array_equal(run(), run())
