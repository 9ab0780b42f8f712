"""Table 12: iterations to the first difference vs model similarity.

A LeNet-1 control is compared against variants that differ in (1) the
number of training samples, (2) the number of filters per convolutional
layer, or (3) the number of training epochs.  The fewer the differences,
the more iterations DeepXplore needs; identical models time out ('-').
"""

from __future__ import annotations

import numpy as np

from repro.core import DeepXplore, Hyperparams, Unconstrained
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentResult
from repro.models import build_lenet1_variant
from repro.models.registry import TRAINING_DTYPE
from repro.nn import Trainer, dtypes
from repro.utils.rng import as_rng

__all__ = ["run_model_similarity", "train_control_pair"]

#: Perturbation grids.  The paper's training-sample row spans 0..10,000
#: removed samples from a 60,000-sample set; ours spans comparable
#: fractions of the (much smaller) synthetic training split.  The control
#: trains for few epochs so extra epochs genuinely move the boundary —
#: on a small dataset a fully converged model no longer changes.
SAMPLE_FRACTIONS = (0.0, 0.01, 0.1, 0.3, 0.6)
FILTER_DELTAS = (0, 1, 2, 3, 4)
EPOCH_DELTAS = (0, 1, 2, 4, 8)

_CONTROL_EPOCHS = 4
_TRAIN_SEED = 1234


def _train(network, x, y, epochs, rng):
    trainer = Trainer(network, loss="cross_entropy", rng=rng)
    trainer.fit(x, y, epochs=epochs, batch_size=32)
    return network


def _build_variant(**kwargs):
    # Trained-model comparisons are pinned at the zoo's training dtype so
    # the bit-identical-twins row (amount = 0) stays exactly that.
    with dtypes.default_dtype(TRAINING_DTYPE):
        return build_lenet1_variant(**kwargs)


def train_control_pair(dataset, kind, amount, seed=0):
    """Train the control LeNet-1 and one perturbed variant.

    ``kind`` is ``"samples"``, ``"filters"`` or ``"epochs"``; ``amount``
    the perturbation magnitude (fraction removed, extra filters, or extra
    epochs).  Everything else — init seed, shuffle order — is identical,
    so ``amount = 0`` yields bit-identical twins (the paper's timeout row).
    """
    x, y = dataset.x_train, np.asarray(dataset.y_train)
    control = _build_variant(rng=as_rng(_TRAIN_SEED), name="control")
    _train(control, x, y, _CONTROL_EPOCHS, as_rng(_TRAIN_SEED + 1))

    if kind == "samples":
        n_remove = int(round(len(x) * amount))
        keep = slice(0, len(x) - n_remove)
        variant = _build_variant(rng=as_rng(_TRAIN_SEED),
                                 name="variant")
        _train(variant, x[keep], y[keep], _CONTROL_EPOCHS,
               as_rng(_TRAIN_SEED + 1))
    elif kind == "filters":
        variant = _build_variant(rng=as_rng(_TRAIN_SEED),
                                 extra_filters=int(amount),
                                 name="variant")
        _train(variant, x, y, _CONTROL_EPOCHS, as_rng(_TRAIN_SEED + 1))
    elif kind == "epochs":
        variant = _build_variant(rng=as_rng(_TRAIN_SEED),
                                 name="variant")
        _train(variant, x, y, _CONTROL_EPOCHS + int(amount),
               as_rng(_TRAIN_SEED + 1))
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    return control, variant


def _mean_iterations(control, variant, seeds, rng, max_iterations=150):
    """Average ascent iterations to a difference; NaN per-seed timeouts.

    Uses the unconstrained (full-gradient) search: between near-identical
    models the 1-D lighting manifold almost never crosses the sliver
    where they disagree, so restricting to it would measure the
    constraint, not the model similarity the paper's Table 12 studies.
    """
    hp = Hyperparams(lambda1=1.0, lambda2=0.0, step=10.0 / 255.0,
                     max_iterations=max_iterations)
    engine = DeepXplore([control, variant], hp, Unconstrained(),
                        task="classification", rng=rng)
    iterations = []
    for i in range(seeds.shape[0]):
        test = engine.generate_from_seed(seeds[i], seed_index=i)
        if test is not None and test.iterations > 0:
            iterations.append(test.iterations)
    if not iterations:
        return float("nan"), 0
    return float(np.mean(iterations)), len(iterations)


def run_model_similarity(scale="small", seed=0, n_seeds=25,
                         max_iterations=150):
    """Run the Table 12 experiment (three perturbation families)."""
    dataset = load_dataset("mnist", scale=scale, seed=seed)
    rng = as_rng(seed + 12)
    n_seeds = min(n_seeds, dataset.x_test.shape[0])
    seeds, _ = dataset.sample_seeds(n_seeds, rng)
    result = ExperimentResult(
        experiment_id="table12",
        title="Iterations to first difference vs model similarity",
        headers=["Perturbation", "amount", "mean # iterations",
                 "# seeds with diff"],
        paper_reference=("identical models time out; iterations shrink as "
                         "differences grow (e.g. 616 -> 257 over the "
                         "training-sample row)"),
    )
    grids = [("samples", SAMPLE_FRACTIONS), ("filters", FILTER_DELTAS),
             ("epochs", EPOCH_DELTAS)]
    for kind, amounts in grids:
        for amount in amounts:
            control, variant = train_control_pair(dataset, kind, amount,
                                                  seed=seed)
            mean_iters, found = _mean_iterations(
                control, variant, seeds, as_rng(seed + 99),
                max_iterations=max_iterations)
            cell = "-" if np.isnan(mean_iters) else round(mean_iters, 1)
            result.rows.append([kind, amount, cell, found])
    result.notes.append(
        "'samples' amount = fraction of training data removed from the "
        "variant; '-' = no difference within the iteration budget")
    return result
