"""Analysis tools: diversity, overlap, SSIM, pollution, retraining."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import (average_l1_diversity, class_pair_overlap,
                            detect_polluted, retrain_with_augmentation, ssim)
from repro.core.engine import GeneratedTest
from repro.datasets import pollute_labels
from repro.errors import ConfigError, ShapeError
from repro.nn import accuracy


def _fake_test(x, seed_index):
    return GeneratedTest(x=x, seed_index=seed_index, iterations=1,
                         predictions=np.array([0, 1]), seed_class=0,
                         elapsed=0.0)


class TestDiversity:
    def test_average_l1(self):
        seeds = np.zeros((2, 1, 2, 2))
        tests = [_fake_test(np.full((1, 2, 2), 0.5), 0),
                 _fake_test(np.full((1, 2, 2), 0.25), 1)]
        assert average_l1_diversity(tests, seeds) == pytest.approx(1.5)

    def test_empty(self):
        assert average_l1_diversity([], np.zeros((1, 2))) == 0.0


class TestSsim:
    def test_identity_is_one(self):
        img = np.random.default_rng(0).random((1, 8, 8))
        assert ssim(img, img) == pytest.approx(1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        assert ssim(a, b) == pytest.approx(ssim(b, a))

    def test_different_images_below_one(self):
        rng = np.random.default_rng(2)
        a = rng.random((8, 8))
        b = 1.0 - a
        assert ssim(a, b) < 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((4, 4)), np.zeros((5, 5)))
        with pytest.raises(ShapeError):
            ssim(np.zeros(4), np.zeros(4))

    @given(arrays(np.float64, (6, 6), elements=st.floats(0, 1)))
    @settings(max_examples=20, deadline=None)
    def test_bounded(self, img):
        value = ssim(img, 1.0 - img)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    def test_multichannel_averages(self):
        rng = np.random.default_rng(3)
        a = rng.random((3, 8, 8))
        per_channel = np.mean([ssim(a[c], a[c]) for c in range(3)])
        assert ssim(a, a) == pytest.approx(per_channel)


class TestOverlap:
    def test_same_class_overlaps_more(self, lenet5, mnist_smoke):
        same, diff = class_pair_overlap(lenet5, mnist_smoke, n_pairs=30,
                                        threshold=0.25, rng=0)
        assert same.avg_overlap > diff.avg_overlap
        assert same.total_neurons == lenet5.total_neurons

    def test_overlap_bounded_by_activated(self, lenet5, mnist_smoke):
        same, diff = class_pair_overlap(lenet5, mnist_smoke, n_pairs=10,
                                        threshold=0.25, rng=1)
        for stats in (same, diff):
            assert stats.avg_overlap <= stats.avg_activated + 1e-9


class TestPollutionDetection:
    def test_detects_planted_cluster(self, mnist_smoke):
        polluted_ds, truth = pollute_labels(mnist_smoke, source_class=9,
                                            target_class=1, fraction=0.5,
                                            rng=4)
        # Use the actual polluted images as the "generated" inputs: the
        # detector must then recover them (sanity upper bound).
        generated = polluted_ds.x_train[truth[:3]]
        report = detect_polluted(generated, polluted_ds, truth,
                                 suspect_label=1)
        assert report.detection_rate > 0.3
        assert report.flagged.size == truth.size
        assert 0.0 <= report.precision <= 1.0

    def test_validation(self, mnist_smoke):
        polluted_ds, truth = pollute_labels(mnist_smoke, rng=5)
        with pytest.raises(ConfigError):
            detect_polluted(np.zeros((2, 4)), polluted_ds, truth, 1)
        with pytest.raises(ConfigError):
            detect_polluted(np.zeros((1, 1, 28, 28)), polluted_ds, truth,
                            suspect_label=77)


class TestRetraining:
    def test_curve_has_epochs_plus_one_points(self, mnist_smoke):
        from repro.models import get_model
        net = get_model("MNI_C1", scale="smoke", seed=0,
                        dataset=mnist_smoke)
        extra_x, extra_y = mnist_smoke.sample_seeds(
            10, np.random.default_rng(6))
        curve = retrain_with_augmentation(net, mnist_smoke, extra_x,
                                          extra_y, epochs=2, rng=7)
        assert len(curve.accuracies) == 3
        assert curve.source == "deepxplore"
        assert isinstance(curve.improvement, float)

    def test_shape_mismatch(self, mnist_smoke):
        from repro.models import get_model
        net = get_model("MNI_C1", scale="smoke", seed=0,
                        dataset=mnist_smoke)
        with pytest.raises(ConfigError):
            retrain_with_augmentation(net, mnist_smoke,
                                      np.zeros((3, 1, 28, 28)),
                                      np.zeros(2), epochs=1)
