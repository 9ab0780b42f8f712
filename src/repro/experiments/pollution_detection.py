"""§7.3 pollution detection: recover mislabelled training samples.

One LeNet-5 trains on clean MNIST, another on a polluted copy (a fraction
of 9s relabelled as 1s).  DeepXplore generates inputs the two models
disagree on in exactly the polluted direction (clean says 9, polluted says
1); an SSIM nearest-neighbour search from those inputs into the polluted
training class then flags the polluted samples.  The paper recovers 95.6%.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import detect_polluted
from repro.core import DeepXplore, Hyperparams, LightingConstraint
from repro.datasets import load_dataset, pollute_labels
from repro.experiments.common import ExperimentResult
from repro.models import build_lenet5
from repro.models.registry import TRAINING_DTYPE
from repro.nn import Trainer, dtypes
from repro.utils.rng import as_rng

__all__ = ["run_pollution_detection"]

_SOURCE, _TARGET = 9, 1


def _train_lenet5(dataset, seed, epochs):
    # Trained at the zoo dtype so the experiment's outputs stay stable
    # under the float32 library default.
    with dtypes.default_dtype(TRAINING_DTYPE):
        network = build_lenet5(rng=as_rng(seed), name=f"lenet5-{seed}")
        trainer = Trainer(network, loss="cross_entropy",
                          rng=as_rng(seed + 1))
        trainer.fit(dataset.x_train, dataset.y_train, epochs=epochs,
                    batch_size=32)
    return network


def run_pollution_detection(scale="small", seed=0, fraction=0.3, epochs=None,
                            max_generated=40):
    """Run the pollution-detection experiment end to end."""
    dataset = load_dataset("mnist", scale=scale, seed=seed)
    polluted_ds, truth = pollute_labels(dataset, source_class=_SOURCE,
                                        target_class=_TARGET,
                                        fraction=fraction, rng=seed + 3)
    epochs = epochs or {"smoke": 8, "small": 15, "full": 25}.get(scale, 10)
    clean_model = _train_lenet5(dataset, seed + 100, epochs)
    polluted_model = _train_lenet5(polluted_ds, seed + 200, epochs)

    # Generate inputs the models disagree on, seeded from 9s.
    rng = as_rng(seed + 5)
    nines = dataset.x_train[np.asarray(dataset.y_train) == _SOURCE]
    hp = Hyperparams(lambda1=1.0, lambda2=0.1, step=10.0 / 255.0,
                     max_iterations=30)
    engine = DeepXplore([clean_model, polluted_model], hp,
                        LightingConstraint(), task="classification", rng=rng)
    targeted = []
    for i in range(nines.shape[0]):
        if len(targeted) >= max_generated:
            break
        test = engine.generate_from_seed(nines[i], seed_index=i)
        if test is None:
            continue
        clean_pred, polluted_pred = test.predictions
        if clean_pred == _SOURCE and polluted_pred == _TARGET:
            targeted.append(test.x)

    result = ExperimentResult(
        experiment_id="pollution",
        title="Training-data pollution detection via DeepXplore + SSIM",
        headers=["# polluted", "# generated", "# flagged", "# detected",
                 "detection rate"],
        paper_reference="95.6% of polluted samples correctly identified",
    )
    if not targeted:
        result.rows.append([truth.size, 0, 0, 0, "n/a"])
        result.notes.append("no 9->1 difference-inducing inputs generated; "
                            "increase the seed budget or scale")
        return result
    report = detect_polluted(np.stack(targeted), polluted_ds, truth,
                             suspect_label=_TARGET)
    result.rows.append([truth.size, len(targeted), report.flagged.size,
                        report.detected, f"{report.detection_rate:.1%}"])
    result.notes.append(
        f"pollution: {fraction:.0%} of digit-{_SOURCE} training samples "
        f"relabelled {_TARGET}; detection budget = ground-truth size")
    return result
