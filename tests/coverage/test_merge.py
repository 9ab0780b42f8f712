"""Merge laws of the coverage tracker (the campaign's correctness core).

Coverage merging must be a semilattice join: commutative, associative,
idempotent, and equal to one tracker that saw the union of all inputs.
These laws are what make sharded campaigns equivalent to serial runs.
"""

import numpy as np
import pytest

from repro.coverage import NeuronCoverageTracker
from repro.errors import CoverageError
from repro.nn import Dense, Network


@pytest.fixture
def net():
    rng = np.random.default_rng(0)
    return Network([
        Dense(4, 6, rng=rng, name="h1"),
        Dense(6, 3, activation="softmax", rng=rng, name="out"),
    ], input_shape=(4,), name="mergenet")


@pytest.fixture
def batches(rng):
    return [rng.random((5, 4)) for _ in range(3)]


def _tracker_fed(net, inputs, threshold=0.5):
    tracker = NeuronCoverageTracker(net, threshold=threshold)
    for x in inputs:
        tracker.update(x)
    return tracker


def test_merge_equals_union_of_inputs(net, batches):
    """N trackers fed one batch each, merged == one tracker fed all."""
    parts = [_tracker_fed(net, [x]) for x in batches]
    merged = NeuronCoverageTracker(net, threshold=0.5)
    for part in parts:
        merged.merge(part)
    whole = _tracker_fed(net, batches)
    np.testing.assert_array_equal(merged.covered, whole.covered)
    assert merged.coverage() == whole.coverage()


def test_merge_is_order_independent(net, batches):
    parts = [_tracker_fed(net, [x]) for x in batches]
    forward = NeuronCoverageTracker(net, threshold=0.5)
    for part in parts:
        forward.merge(part)
    backward = NeuronCoverageTracker(net, threshold=0.5)
    for part in reversed(parts):
        backward.merge(part)
    np.testing.assert_array_equal(forward.covered, backward.covered)


def test_merge_is_idempotent(net, batches):
    a = _tracker_fed(net, batches[:1])
    before = a.covered.copy()
    a.merge(a.state_dict())
    np.testing.assert_array_equal(a.covered, before)


def test_merge_accepts_state_dict(net, batches):
    """State dicts cross process boundaries; merging one == merging the
    tracker it came from."""
    a = _tracker_fed(net, batches[:1])
    b = _tracker_fed(net, batches[1:])
    via_tracker = a.clone().merge(b)
    via_state = a.clone().merge(b.state_dict())
    np.testing.assert_array_equal(via_tracker.covered, via_state.covered)


def test_state_dict_roundtrip(net, batches):
    a = _tracker_fed(net, batches)
    twin = NeuronCoverageTracker(net, threshold=0.5)
    twin.load_state_dict(a.state_dict())
    np.testing.assert_array_equal(twin.covered, a.covered)
    assert twin.coverage() == a.coverage()


def test_state_dict_is_a_copy(net, batches):
    a = _tracker_fed(net, batches[:1])
    state = a.state_dict()
    state["covered"][:] = True
    assert not a.covered.all()


def test_from_state_restores_layer_filter(net, batches):
    filtered = NeuronCoverageTracker(net, threshold=0.5,
                                     layer_filter=lambda l: l.name == "h1")
    filtered.update(batches[0])
    rebuilt = NeuronCoverageTracker.from_state(net, filtered.state_dict())
    assert rebuilt.tracked_count == filtered.tracked_count
    np.testing.assert_array_equal(rebuilt.covered, filtered.covered)


def test_merge_rejects_threshold_mismatch(net):
    a = NeuronCoverageTracker(net, threshold=0.5)
    b = NeuronCoverageTracker(net, threshold=0.25)
    with pytest.raises(CoverageError):
        a.merge(b)


def test_merge_rejects_layer_filter_mismatch(net):
    a = NeuronCoverageTracker(net, threshold=0.5)
    b = NeuronCoverageTracker(net, threshold=0.5,
                              layer_filter=lambda l: l.name == "h1")
    with pytest.raises(CoverageError):
        a.merge(b)
