"""System-level property tests over randomly built model pairs.

These check the cross-module invariants the whole reproduction rests on,
with Hypothesis choosing architectures and seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import minimize_suite
from repro.core import (AscentEngine, DeepXplore, Hyperparams,
                        LightingConstraint, Unconstrained)
from repro.coverage import NeuronCoverageTracker, coverage_of_inputs
from repro.nn import Dense, Network, Trainer


def _model_pair(seed, hidden=8, classes=3, features=6):
    """Two small, *differently initialized* classifiers on one task."""
    models = []
    rng_data = np.random.default_rng(seed)
    x = rng_data.normal(size=(150, features))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int) + \
        (x[:, 2] > 0.8).astype(int)
    y = np.clip(y, 0, classes - 1)
    for i in range(2):
        rng = np.random.default_rng(seed + 1000 + i)
        net = Network([
            Dense(features, hidden, rng=rng, name="h"),
            Dense(hidden, classes, activation="softmax", rng=rng,
                  name="o"),
        ], (features,), name=f"p{i}")
        Trainer(net, rng=seed + 2000 + i, lr=0.01).fit(
            x, y, epochs=8, batch_size=32)
        models.append(net)
    return models, x


@given(st.integers(0, 50))
@settings(max_examples=8, deadline=None)
def test_recorded_tests_always_disagree(seed):
    models, x = _model_pair(seed)
    engine = DeepXplore(models, Hyperparams(step=0.05, max_iterations=15),
                        Unconstrained(), rng=seed)
    result = engine.run(x[:12])
    for test in result.tests:
        preds = [m.predict(test.x[None]).argmax(axis=1)[0] for m in models]
        assert len(set(preds)) > 1


@given(st.integers(0, 50))
@settings(max_examples=6, deadline=None)
def test_batch_and_sequential_agree_on_pre_disagreements(seed):
    models, x = _model_pair(seed)
    hp = Hyperparams(step=0.05, max_iterations=10)
    seq = DeepXplore(models, hp, Unconstrained(), rng=seed).run(x[:15])
    bat = AscentEngine(models, hp, Unconstrained(), rng=seed).run(x[:15])
    assert seq.seeds_disagreed == bat.seeds_disagreed


@given(st.integers(0, 50), st.floats(0.1, 0.7))
@settings(max_examples=8, deadline=None)
def test_minimized_suite_preserves_coverage(seed, threshold):
    models, x = _model_pair(seed)
    inputs = x[:15]
    chosen, _ = minimize_suite(models, inputs, threshold=threshold)
    subset = inputs[chosen]
    for net in models:
        full = coverage_of_inputs(net, inputs, threshold=threshold)
        mini = coverage_of_inputs(net, subset, threshold=threshold)
        assert mini == pytest.approx(full)


@given(st.integers(0, 50))
@settings(max_examples=6, deadline=None)
def test_coverage_union_equals_merge(seed):
    models, x = _model_pair(seed)
    net = models[0]
    a = NeuronCoverageTracker(net, threshold=0.4)
    b = NeuronCoverageTracker(net, threshold=0.4)
    combined = NeuronCoverageTracker(net, threshold=0.4)
    a.update(x[:7])
    b.update(x[7:14])
    combined.update(x[:14])
    a.merge(b)
    np.testing.assert_array_equal(a.covered, combined.covered)


@given(st.integers(0, 30))
@settings(max_examples=6, deadline=None)
def test_lighting_preserves_relative_pixel_structure(seed):
    """A lighting-constrained test differs from its seed by (almost) a
    constant offset wherever pixels are unclipped — the constraint's
    defining property, end to end through the generator."""
    models, x_feat = _model_pair(seed)
    # Build an image-shaped task instead: reuse the pair on 1x4x4 images.
    rng = np.random.default_rng(seed)
    img_models = []
    from repro.nn import Conv2D, Flatten
    for i in range(2):
        r = np.random.default_rng(seed + 31 + i)
        net = Network([
            Conv2D(1, 2, 3, padding=1, rng=r, name="c"),
            Flatten(name="f"),
            Dense(2 * 16, 2, activation="softmax", rng=r, name="o"),
        ], (1, 4, 4), name=f"img{i}")
        img_models.append(net)
    seeds = rng.random((6, 1, 4, 4)) * 0.6 + 0.2  # away from clip bounds
    engine = DeepXplore(img_models,
                        Hyperparams(step=0.05, max_iterations=10),
                        LightingConstraint(), rng=seed)
    result = engine.run(seeds)
    for test in result.tests:
        if test.iterations == 0:
            continue
        delta = test.x - seeds[test.seed_index]
        interior = (test.x > 1e-9) & (test.x < 1.0 - 1e-9)
        if interior.sum() >= 2:
            values = delta[interior]
            assert values.max() - values.min() < 1e-9
