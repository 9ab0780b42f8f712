"""Vectorized engine: equivalence of outcomes with the sequential one."""

import numpy as np
import pytest

from repro.core import (AscentEngine, DeepXplore, LightingConstraint,
                        PAPER_HYPERPARAMS, SingleRectOcclusion,
                        constraint_for_dataset)
from repro.errors import ConfigError


def test_requires_two_models(lenet1):
    with pytest.raises(ConfigError):
        AscentEngine([lenet1])


def test_finds_differences(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(25, np.random.default_rng(3))
    engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                          LightingConstraint(), rng=5)
    result = engine.run(seeds)
    assert result.difference_count > 0
    assert result.seeds_processed == 25
    for test in result.tests:
        preds = [m.predict(test.x[None]).argmax(axis=1)[0]
                 for m in mnist_trio]
        assert len(set(preds)) > 1
        np.testing.assert_array_equal(preds, test.predictions)


def test_inputs_stay_valid(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(20, np.random.default_rng(4))
    engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                          LightingConstraint(), rng=6)
    result = engine.run(seeds)
    for test in result.tests:
        assert test.x.min() >= 0.0 and test.x.max() <= 1.0


def test_pre_disagreed_recorded(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(30, np.random.default_rng(5))
    batch = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                         LightingConstraint(), rng=7)
    sequential = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            LightingConstraint(), rng=7)
    rb = batch.run(seeds)
    rs = sequential.run(seeds)
    # Pre-disagreement is a model property, identical for both drivers.
    assert rb.seeds_disagreed == rs.seeds_disagreed


def test_comparable_yield_to_sequential(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(25, np.random.default_rng(6))
    batch = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                         LightingConstraint(), rng=8)
    sequential = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            LightingConstraint(), rng=8)
    rb = batch.run(seeds)
    rs = sequential.run(seeds)
    assert rb.difference_count >= rs.difference_count // 2
    assert rb.difference_count <= rs.difference_count * 2 + 4


def test_max_tests(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(30, np.random.default_rng(7))
    engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                          LightingConstraint(), rng=9)
    result = engine.run(seeds, max_tests=3)
    assert result.difference_count >= 3  # may slightly overshoot per wave
    assert result.difference_count <= 3 + 30


def test_regression_batch(driving_trio, driving_smoke):
    seeds, _ = driving_smoke.sample_seeds(20, np.random.default_rng(8))
    engine = AscentEngine(driving_trio, PAPER_HYPERPARAMS["driving"],
                          constraint_for_dataset(driving_smoke),
                          task="regression", rng=10)
    result = engine.run(seeds)
    assert result.difference_count > 0


def test_feature_batch(pdf_trio, pdf_smoke):
    seeds, _ = pdf_smoke.sample_seeds(20, np.random.default_rng(9))
    engine = AscentEngine(pdf_trio, PAPER_HYPERPARAMS["pdf"],
                          constraint_for_dataset(pdf_smoke), rng=11)
    result = engine.run(seeds)
    # Generated PDFs keep integer counts on mutable features.
    mask = pdf_smoke.metadata["mutable_mask"]
    for test in result.tests:
        counts = test.x[mask]
        np.testing.assert_array_equal(counts, np.round(counts))


def _changed_bounding_boxes(result, seeds):
    """Bounding box of changed pixels for each ascent-found test."""
    boxes = []
    for test in result.tests:
        if test.iterations == 0:
            continue
        delta = np.abs(test.x - seeds[test.seed_index])[0]
        rows_hit, cols_hit = np.nonzero(delta > 1e-12)
        if rows_hit.size:
            boxes.append((rows_hit.min(), rows_hit.max(),
                          cols_hit.min(), cols_hit.max()))
    return boxes


def test_occlusion_patches_are_per_seed(mnist_trio, mnist_smoke):
    """Each seed ascends under its own patch draw: every generated test
    changed only one 8x8 rectangle, and the rectangles differ across
    seeds (the old engine shared one position batch-wide)."""
    seeds, _ = mnist_smoke.sample_seeds(30, np.random.default_rng(13))
    engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                          SingleRectOcclusion(8, 8), rng=14)
    result = engine.run(seeds)
    boxes = _changed_bounding_boxes(result, seeds)
    assert len(boxes) >= 2
    for top, bottom, left, right in boxes:
        assert bottom - top + 1 <= 8
        assert right - left + 1 <= 8
    # 30 independent draws of an 8x8 position in 28x28 collide with
    # probability ~(1/441)^(n-1); all-equal means shared state.
    assert len(set(boxes)) > 1


def test_batch_occlusion_matches_sequential_semantics(mnist_trio,
                                                      mnist_smoke):
    """Sequential-engine invariants hold for the batched engine too:
    occlusion tests stay in [0, 1] and touch only their own patch."""
    seeds, _ = mnist_smoke.sample_seeds(15, np.random.default_rng(14))
    sequential = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            SingleRectOcclusion(8, 8), rng=15)
    batch = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                         SingleRectOcclusion(8, 8), rng=15)
    rs = sequential.run(seeds)
    rb = batch.run(seeds)
    for result in (rs, rb):
        for top, bottom, left, right in _changed_bounding_boxes(result,
                                                                seeds):
            assert bottom - top + 1 <= 8 and right - left + 1 <= 8
    # Comparable yield, as for the lighting constraint.
    assert rb.difference_count >= rs.difference_count // 2 - 1


def test_coverage_tracked(mnist_trio, mnist_smoke):
    seeds, _ = mnist_smoke.sample_seeds(20, np.random.default_rng(10))
    engine = AscentEngine(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                          LightingConstraint(), rng=12)
    result = engine.run(seeds)
    if result.difference_count:
        assert engine.mean_coverage() > 0.0
    assert set(result.coverage) == {m.name for m in mnist_trio}
