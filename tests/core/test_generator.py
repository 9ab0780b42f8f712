"""Algorithm 1 driver: end-to-end generation on the smoke-scale zoo."""

import numpy as np
import pytest

from repro.core import (DeepXplore, Hyperparams, LightingConstraint,
                        PAPER_HYPERPARAMS, constraint_for_dataset)
from repro.core.engine import normalize_gradient
from repro.coverage import NeuronCoverageTracker
from repro.errors import ConfigError


def test_normalize_gradient_unit_rms():
    rng = np.random.default_rng(0)
    grad = rng.normal(scale=37.0, size=(3, 2, 4, 4))
    out = normalize_gradient(grad)
    rms = np.sqrt((out.reshape(3, -1) ** 2).mean(axis=1))
    np.testing.assert_allclose(rms, 1.0, atol=1e-6)


def test_normalize_gradient_zero_safe():
    out = normalize_gradient(np.zeros((2, 5)))
    np.testing.assert_array_equal(out, 0.0)


def test_requires_two_models(lenet1):
    with pytest.raises(ConfigError):
        DeepXplore([lenet1])


def test_tracker_count_must_match(mnist_trio):
    trackers = [NeuronCoverageTracker(mnist_trio[0])]
    with pytest.raises(ConfigError):
        DeepXplore(mnist_trio, trackers=trackers)


def test_finds_differences_on_mnist(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(25, np.random.default_rng(3))
    engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                        LightingConstraint(), rng=5)
    result = engine.run(seeds)
    assert result.difference_count > 0
    assert result.seeds_processed == 25
    assert (result.seeds_disagreed + result.seeds_exhausted
            <= result.seeds_processed)


def test_generated_tests_expose_disagreement(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(25, np.random.default_rng(4))
    engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                        LightingConstraint(), rng=6)
    result = engine.run(seeds)
    for test in result.tests:
        preds = [m.predict(test.x[None]).argmax(axis=1)[0]
                 for m in mnist_trio]
        assert len(set(preds)) > 1, "recorded test does not differ"
        np.testing.assert_array_equal(preds, test.predictions)


def test_generated_inputs_stay_valid_pixels(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(15, np.random.default_rng(5))
    engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                        LightingConstraint(), rng=7)
    result = engine.run(seeds)
    for test in result.tests:
        assert test.x.min() >= 0.0 and test.x.max() <= 1.0


def test_coverage_grows_with_tests(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(25, np.random.default_rng(6))
    engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                        LightingConstraint(), rng=8)
    assert engine.mean_coverage() == 0.0
    result = engine.run(seeds)
    if result.difference_count:
        assert engine.mean_coverage() > 0.0
    assert set(result.coverage) == {m.name for m in mnist_trio}


def test_max_tests_stops_early(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(30, np.random.default_rng(7))
    engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                        LightingConstraint(), rng=9)
    result = engine.run(seeds, max_tests=2)
    assert result.difference_count == 2
    assert result.seeds_processed <= 30


def test_cycle_respects_visit_budget(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(5, np.random.default_rng(8))
    engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                        LightingConstraint(), rng=10)
    result = engine.run(seeds, desired_coverage=1.0, cycle=True,
                        max_seed_visits=12)
    assert result.seeds_processed <= 12


def test_regression_generation(driving_trio, driving_smoke):
    seeds, _ = driving_smoke.sample_seeds(20, np.random.default_rng(9))
    engine = DeepXplore(driving_trio, PAPER_HYPERPARAMS["driving"],
                        constraint_for_dataset(driving_smoke),
                        task="regression", rng=11)
    result = engine.run(seeds)
    assert result.difference_count > 0
    for test in result.tests:
        assert test.predictions.dtype.kind == "f"


def test_feature_domain_generation(drebin_trio, drebin_smoke):
    seeds, _ = drebin_smoke.sample_seeds(15, np.random.default_rng(10))
    engine = DeepXplore(drebin_trio, PAPER_HYPERPARAMS["drebin"],
                        constraint_for_dataset(drebin_smoke), rng=12)
    result = engine.run(seeds)
    # Generated Drebin inputs must remain binary and only ever add bits.
    for test in result.tests:
        if test.iterations == 0:
            continue
        seed = seeds[test.seed_index]
        assert set(np.unique(test.x)).issubset({0.0, 1.0})
        assert np.all(test.x >= seed)  # add-only


def test_test_inputs_stacking(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(15, np.random.default_rng(11))
    engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                        LightingConstraint(), rng=13)
    result = engine.run(seeds)
    stacked = result.test_inputs()
    if result.difference_count:
        assert stacked.shape == (result.difference_count,
                                 *mnist_smoke.input_shape)


def test_deterministic_given_seed(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(10, np.random.default_rng(12))

    def run():
        engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            LightingConstraint(), rng=99)
        return engine.run(seeds)

    a, b = run(), run()
    assert a.difference_count == b.difference_count
    for ta, tb in zip(a.tests, b.tests):
        np.testing.assert_array_equal(ta.x, tb.x)
