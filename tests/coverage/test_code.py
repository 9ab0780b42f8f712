"""Code-coverage tracer for the prediction path."""

import numpy as np

from repro.coverage import CodeCoverage
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, Network


def _net():
    rng = np.random.default_rng(0)
    return Network([
        Conv2D(1, 2, 3, padding=1, rng=rng, name="c"),
        MaxPool2D(2, name="p"),
        Flatten(name="f"),
        Dense(2 * 4 * 4, 3, activation="softmax", rng=rng, name="o"),
    ], input_shape=(1, 8, 8), name="cc")


def test_lines_executed_nonempty():
    net = _net()
    hits = CodeCoverage(net).lines_executed(np.zeros((1, 1, 8, 8)))
    assert hits
    files = {f for f, _ in hits}
    assert any(f.endswith("conv.py") for f in files)
    assert any(f.endswith("dense.py") for f in files)


def test_one_input_saturates_dynamic_coverage():
    """The paper's Table 6 phenomenon: any single input executes the same
    prediction-path lines as a large reference set."""
    net = _net()
    cov = CodeCoverage(net)
    rng = np.random.default_rng(1)
    one = rng.random((1, 1, 8, 8))
    many = rng.random((30, 1, 8, 8))
    assert cov.coverage(one, reference=many) == 1.0


def test_tracer_restores_previous_trace():
    import sys
    net = _net()
    sentinel_called = []

    def sentinel(frame, event, arg):
        sentinel_called.append(event)
        return None

    sys.settrace(sentinel)
    try:
        CodeCoverage(net).lines_executed(np.zeros((1, 1, 8, 8)))
        assert sys.gettrace() is sentinel
    finally:
        sys.settrace(None)
