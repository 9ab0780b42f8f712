"""Failure injection: the library must fail loudly and precisely, not
corrupt results silently."""

import numpy as np
import pytest

from repro.core import DeepXplore, LightingConstraint, PAPER_HYPERPARAMS
from repro.datasets import load_dataset
from repro.errors import ReproError, ShapeError
from repro.models import get_model
from repro.nn import Dense, Network, Trainer


class TestCorruptedWeightCache:
    def test_truncated_cache_file_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        dataset = load_dataset("pdf", scale="smoke", seed=0)
        model = get_model("PDF_C1", scale="smoke", seed=0, dataset=dataset)
        # Corrupt the cached weights, then force a reload.
        caches = list(tmp_path.glob("model-*PDF_C1*.npz"))
        assert caches, "model cache file expected"
        caches[0].write_bytes(b"not a zipfile")
        with pytest.raises(Exception):
            get_model("PDF_C1", scale="smoke", seed=0, dataset=dataset)

    def test_wrong_architecture_state_rejected(self):
        rng = np.random.default_rng(0)
        a = Network([Dense(4, 3, activation="softmax", rng=rng,
                           name="out")], (4,), "a")
        b = Network([Dense(4, 5, activation="softmax", rng=rng,
                           name="out")], (4,), "b")
        with pytest.raises(ShapeError):
            b.load_state_dict(a.state_dict())


class TestHostileInputs:
    def test_nan_seed_does_not_crash_generator(self, mnist_trio):
        engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            LightingConstraint(), rng=1)
        seed = np.full((1, 28, 28), np.nan)
        # NaNs propagate to NaN predictions; the oracle sees "no valid
        # difference" and the generator must terminate cleanly.
        result = engine.generate_from_seed(seed)
        assert result is None or result.x.shape == (1, 28, 28)

    def test_wrong_shape_seed_raises(self, mnist_trio):
        engine = DeepXplore(mnist_trio, PAPER_HYPERPARAMS["mnist"],
                            LightingConstraint(), rng=2)
        with pytest.raises(ShapeError):
            engine.generate_from_seed(np.zeros((2, 14, 14)))

    def test_inf_inputs_flagged_by_prediction(self, lenet1):
        probs = lenet1.predict(np.full((1, 1, 28, 28), np.inf))
        # Softmax of inf logits is NaN — visible, not silently wrong.
        assert np.isnan(probs).any() or np.isfinite(probs).all()


class TestTrainingRobustness:
    def test_empty_batchless_training_raises(self):
        rng = np.random.default_rng(3)
        net = Network([Dense(4, 2, activation="softmax", rng=rng)], (4,))
        with pytest.raises(ReproError):
            Trainer(net).fit(np.zeros((3, 4)), np.zeros(2, dtype=int))

    def test_non_integer_labels_fail_loss(self):
        rng = np.random.default_rng(4)
        net = Network([Dense(4, 2, activation="softmax", rng=rng)], (4,))
        with pytest.raises((IndexError, TypeError)):
            Trainer(net).fit(np.zeros((3, 4)),
                             np.array(["a", "b", "c"]), epochs=1)


class TestErrorHierarchy:
    def test_all_library_errors_catchable_as_repro_error(self):
        from repro import errors
        for name in ("ShapeError", "ConfigError", "ConstraintError",
                     "CoverageError", "DatasetError"):
            assert issubclass(getattr(errors, name), ReproError)
