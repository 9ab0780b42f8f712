"""ForwardPass tape: gradients vs finite differences, backward isolation,
and the no-residual-state guarantee.

Every layer type in ``repro.nn`` appears in at least one of the tiny
networks below, so ``gradient_of_class`` / ``gradient_of_neuron`` are
finite-difference-checked through each layer's pure
``backward(ctx, grad)`` path.
"""

import numpy as np
import pytest

from repro.nn import (AvgPool2D, BatchNorm, Conv2D, Dense, Dropout,
                      FixedScale, Flatten, GlobalAvgPool2D, MaxPool2D,
                      Network, Residual, dtypes)
from tests.nn.gradcheck import gradient_of_class, neuron_value

#: Gradcheck settings per compute dtype.  The central difference at
#: float32 carries ~eps_machine/eps of relative noise, so the step and
#: tolerance scale with precision rather than pretending float32 can
#: resolve 1e-6.
GRADCHECK = {
    "float64": {"eps": 1e-6, "atol": 1e-6},
    "float32": {"eps": 1e-3, "atol": 1e-2},
}


def _dense_net():
    rng = np.random.default_rng(0)
    return Network([
        FixedScale(rng.normal(size=6), rng.uniform(0.5, 2.0, size=6),
                   name="scale"),
        Dense(6, 8, activation="atan", rng=rng, name="h1"),
        Dropout(0.4, rng=rng, name="drop"),
        BatchNorm(8, name="bn"),
        Dense(8, 4, activation="softmax", rng=rng, name="out"),
    ], input_shape=(6,), name="dense_net")


def _conv_net():
    rng = np.random.default_rng(1)
    net = Network([
        Conv2D(1, 3, 3, padding=1, rng=rng, name="c1"),
        MaxPool2D(2, name="mp"),
        Conv2D(3, 4, 3, padding=1, activation="atan", rng=rng, name="c2"),
        AvgPool2D(2, name="ap"),
        Flatten(name="f"),
        Dense(4 * 2 * 2, 5, activation="softmax", rng=rng, name="out"),
    ], input_shape=(1, 8, 8), name="conv_net")
    return net


def _residual_net():
    rng = np.random.default_rng(2)
    body = [Conv2D(2, 2, 3, padding=1, rng=rng, name="b1"),
            BatchNorm(2, name="bn"),
            Conv2D(2, 2, 3, padding=1, activation="linear", rng=rng,
                   name="b2")]
    net = Network([
        Conv2D(1, 2, 3, padding=1, rng=rng, name="stem"),
        Residual(body, name="res"),
        GlobalAvgPool2D(name="gap"),
        Dense(2, 3, activation="softmax", rng=rng, name="out"),
    ], input_shape=(1, 4, 4), name="res_net")
    # Non-trivial inference statistics so BatchNorm's backward is exercised.
    bn = body[1]
    bn.running_mean[:] = rng.normal(size=2)
    bn.running_var[:] = rng.uniform(0.5, 2.0, size=2)
    return net


NETWORKS = {
    "dense": _dense_net,
    "conv": _conv_net,
    "residual": _residual_net,
}


def _build(kind, dtype="float64"):
    with dtypes.default_dtype(np.dtype(dtype)):
        return NETWORKS[kind]()


def _input_for(net, rng):
    return (rng.random((2,) + net.input_shape) + 0.05).astype(net.dtype)


def _probe_indices(net, rng, n=4):
    shape = (2,) + net.input_shape
    return [tuple(rng.integers(0, s) for s in shape) for _ in range(n)]


@pytest.mark.parametrize("dtype", sorted(GRADCHECK))
@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_gradient_of_class_matches_finite_difference(kind, dtype):
    net = _build(kind, dtype)
    assert net.dtype == np.dtype(dtype)
    tol = GRADCHECK[dtype]
    rng = np.random.default_rng(7)
    x = _input_for(net, rng)
    tape = net.run(x)
    grad = gradient_of_class(tape, 1)
    assert grad.shape == x.shape
    assert grad.dtype == np.dtype(dtype)
    eps = tol["eps"]
    for idx in _probe_indices(net, rng):
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        numeric = (float(net.predict(xp)[idx[0], 1])
                   - float(net.predict(xm)[idx[0], 1])) / (2 * eps)
        assert abs(grad[idx] - numeric) < tol["atol"], idx


@pytest.mark.parametrize("dtype", sorted(GRADCHECK))
@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_gradient_of_neuron_matches_finite_difference(kind, dtype):
    net = _build(kind, dtype)
    tol = GRADCHECK[dtype]
    rng = np.random.default_rng(8)
    x = _input_for(net, rng)
    tape = net.run(x)
    neurons = [0, net.total_neurons // 2, net.total_neurons - 1]
    eps = tol["eps"]
    for neuron in neurons:
        grad = tape.gradient_of_neuron(neuron)
        assert grad.dtype == np.dtype(dtype)
        idx = _probe_indices(net, rng, n=2)[0]
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        numeric = (float(neuron_value(net.run(xp), neuron)[idx[0]])
                   - float(neuron_value(net.run(xm), neuron)[idx[0]])) / (2 * eps)
        assert abs(grad[idx] - numeric) < tol["atol"], neuron


@pytest.mark.parametrize("neurons", [None, 4, [0, 2], [1, 5]],
                         ids=["none", "one", "same-layer", "two-layers"])
def test_gradient_joint_matches_separate_sweeps(neurons):
    """One fused sweep equals the output gradient plus ``scale`` times
    each picked neuron's own gradient (c1 holds neurons 0-2, c2 3-6)."""
    net = _build("conv", "float64")
    rng = np.random.default_rng(13)
    tape = net.run(_input_for(net, rng))
    seed = rng.normal(size=tape.outputs().shape)
    scale = 0.7
    want = tape.gradient_of_output(seed)
    for neuron in [] if neurons is None else np.atleast_1d(neurons):
        want = want + scale * tape.gradient_of_neuron(int(neuron))
    got = tape.gradient_joint(seed, neurons, scale)
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_multiple_backwards_from_one_tape_do_not_corrupt(kind):
    net = NETWORKS[kind]()
    rng = np.random.default_rng(9)
    x = _input_for(net, rng)
    tape = net.run(x)
    first = gradient_of_class(tape, 0)
    # Interleave other backwards (and a fresh tape on the same network).
    tape.gradient_of_neuron(0)
    gradient_of_class(tape, 1)
    gradient_of_class(net.run(rng.random((3,) + net.input_shape)), 0)
    again = gradient_of_class(tape, 0)
    np.testing.assert_array_equal(first, again)


def test_tape_outputs_and_activations_consistent():
    net = _conv_net()
    rng = np.random.default_rng(10)
    x = _input_for(net, rng)
    tape = net.run(x)
    np.testing.assert_allclose(tape.outputs(), net.predict(x))
    acts = tape.neuron_activations()
    np.testing.assert_allclose(acts, net.neuron_activations(x))
    for neuron in [0, 3, acts.shape[1] - 1]:
        np.testing.assert_allclose(neuron_value(tape, neuron), acts[:, neuron])
    scaled = tape.neuron_activations(scaled=True)
    assert scaled.min() >= 0.0 and scaled.max() <= 1.0


def test_tape_gradients_do_not_touch_parameter_grads():
    net = _dense_net()
    rng = np.random.default_rng(11)
    x = _input_for(net, rng)
    for param in net.parameters():
        param.zero_grad()
    tape = net.run(x)
    gradient_of_class(tape, 0)
    tape.gradient_of_neuron(1)
    for param in net.parameters():
        assert np.all(param.grad == 0.0), param.name
    # The explicit training path accumulates.  (A uniform seed would die
    # in the softmax Jacobian, so weight one class only.)
    seed = np.zeros_like(tape.outputs())
    seed[:, 0] = 1.0
    tape.gradient_of_output(seed, accumulate=True)
    assert any(np.any(p.grad != 0.0) for p in net.parameters())


@pytest.mark.parametrize("kind", sorted(NETWORKS))
def test_no_recorded_state_survives_any_public_call(kind):
    """Regression for the old ``Network._recorded`` leak: after any
    public call, neither the network nor its layers hold execution
    state."""
    net = NETWORKS[kind]()
    rng = np.random.default_rng(12)
    x = _input_for(net, rng)

    def state_keys():
        keys = {"network": sorted(net.__dict__)}
        stack = list(net.layers)
        while stack:
            layer = stack.pop()
            keys[layer.name] = sorted(layer.__dict__)
            stack.extend(getattr(layer, "body", []))
            stack.extend(getattr(layer, "shortcut", []))
        return keys

    before = state_keys()
    net.predict(x)
    net.neuron_activations(x)
    tape = net.run(x)
    neuron_value(tape, 0)
    tape.gradient_of_neuron(net.total_neurons - 1)
    gradient_of_class(tape, 1)
    assert state_keys() == before
    assert not hasattr(net, "_recorded")
    for layer in net.layers:
        assert not hasattr(layer, "_cache")
