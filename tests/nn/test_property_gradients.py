"""Property-based gradient verification over randomly composed networks.

The single most important invariant of the substrate: for *any* network
this framework can express, the analytic input-gradient matches finite
differences.  Hypothesis composes random layer stacks and random probe
points; a failure here would silently corrupt every DeepXplore result.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (AvgPool2D, BatchNorm, Conv2D, Dense, Flatten,
                      MaxPool2D, Network)
from tests.nn.gradcheck import gradient_of_class, neuron_value


@st.composite
def random_cnn(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    channels = draw(st.integers(1, 3))
    width = draw(st.integers(2, 5))
    use_bn = draw(st.booleans())
    pool_cls = draw(st.sampled_from([MaxPool2D, AvgPool2D]))
    # The zoo's hidden activations: atan's backward needs the
    # pre-activation; relu and linear run fused into the conv epilogue.
    act = draw(st.sampled_from(["relu", "atan", "linear"]))
    layers = [Conv2D(channels, width, 3, padding=1, activation=act, rng=rng,
                     name="c1")]
    if use_bn:
        bn = BatchNorm(width, name="bn")
        bn.running_mean[:] = rng.normal(size=width)
        bn.running_var[:] = rng.uniform(0.5, 2.0, size=width)
        layers.append(bn)
    layers += [
        pool_cls(2, name="p"),
        Flatten(name="f"),
        Dense(width * 3 * 3, 4, activation="softmax", rng=rng, name="o"),
    ]
    net = Network(layers, input_shape=(channels, 6, 6), name=f"gen{seed}")
    return net, rng


@given(random_cnn(), st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_class_gradient_matches_numeric(net_rng, class_index):
    net, rng = net_rng
    x = rng.random((2, *net.input_shape))
    grad = gradient_of_class(net.run(x), class_index)
    eps = 1e-6
    idx = tuple([1] + [int(rng.integers(0, s)) for s in net.input_shape])
    xp = x.copy(); xp[idx] += eps
    xm = x.copy(); xm[idx] -= eps
    numeric = (net.predict(xp)[1, class_index]
               - net.predict(xm)[1, class_index]) / (2 * eps)
    assert abs(grad[idx] - numeric) < 1e-6


@given(random_cnn())
@settings(max_examples=10, deadline=None)
def test_neuron_gradient_matches_numeric(net_rng):
    net, rng = net_rng
    x = rng.random((1, *net.input_shape))
    neuron = int(rng.integers(0, net.total_neurons))
    grad = net.run(x).gradient_of_neuron(neuron)
    eps = 1e-6
    idx = tuple([0] + [int(rng.integers(0, s)) for s in net.input_shape])
    xp = x.copy(); xp[idx] += eps
    xm = x.copy(); xm[idx] -= eps
    numeric = (neuron_value(net.run(xp), neuron)[0]
               - neuron_value(net.run(xm), neuron)[0]) / (2 * eps)
    assert abs(grad[idx] - numeric) < 1e-6


@given(random_cnn())
@settings(max_examples=10, deadline=None)
def test_gradient_linearity(net_rng):
    """d(a*F_i + b*F_j)/dx == a*dF_i/dx + b*dF_j/dx — the property the
    joint objective's gradient summation relies on."""
    net, rng = net_rng
    x = rng.random((1, *net.input_shape))
    seed = np.zeros(net.output_shape)
    seed[0], seed[1] = 2.0, -3.0
    tape = net.run(x)
    combined = tape.gradient_of_output(seed)
    separate = (2.0 * gradient_of_class(tape, 0)
                - 3.0 * gradient_of_class(tape, 1))
    np.testing.assert_allclose(combined, separate, atol=1e-10)
