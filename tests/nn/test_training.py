"""Trainer: learning actually happens, metrics, determinism."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn import (Adam, Conv2D, Dense, Flatten, MaxPool2D, Network,
                      Trainer, accuracy, get_loss, mse, steering_accuracy)


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


def test_fit_keeps_one_workspace_and_trains_like_fresh_ones():
    """``Trainer.fit`` reuses one workspace across its steps; over a
    sample count that leaves a short last batch (so the next epoch
    grows the batch back into the buffers) it trains to the bytes of a
    step loop that gives each step a fresh workspace."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(37, 1, 8, 8))
    y = rng.integers(0, 3, size=37)

    def cnn():
        init = np.random.default_rng(22)
        return Network([
            Conv2D(1, 4, 3, stride=2, padding=1, rng=init, name="c1"),
            Conv2D(4, 4, 3, padding=1, rng=init, name="c2"),
            MaxPool2D(2, name="mp"),
            Flatten(name="f"),
            Dense(4 * 2 * 2, 3, activation="softmax", rng=init, name="o"),
        ], input_shape=(1, 8, 8), name="fit_cnn")

    fitted = cnn()
    Trainer(fitted, rng=23).fit(x, y, epochs=2, batch_size=16)

    stepped = cnn()
    shuffle, loss, optimizer = (np.random.default_rng(23),
                                get_loss("cross_entropy"), Adam())
    params = stepped.parameters()
    indices = np.arange(x.shape[0])
    for _ in range(2):
        shuffle.shuffle(indices)
        for start in range(0, x.shape[0], 16):
            batch = indices[start:start + 16]
            optimizer.zero_grad(params)
            tape = stepped.run(x[batch], training=True)
            _, grad = loss(tape.outputs(), y[batch])
            tape.gradient_of_output(grad, accumulate=True)
            optimizer.step(params)

    want = stepped.state_dict()
    got = fitted.state_dict()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
