"""Table 2: number of difference-inducing inputs per tested DNN.

The paper runs DeepXplore with 2,000 random test-set seeds per dataset and
reports how many difference-inducing inputs each DNN accounts for.  We
attribute each generated test to the DNN that disagreed with the majority
prediction (the model actually exhibiting the erroneous behaviour); tests
with no clear majority attribute to the first dissenting model.
"""

from __future__ import annotations

import numpy as np

from repro.core import PAPER_HYPERPARAMS, DeepXplore, constraint_for_dataset
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentResult, seeds_for_scale
from repro.models import TRIOS, get_trio
from repro.utils.rng import as_rng

__all__ = ["run_difference_counts", "attribute_test"]


def attribute_test(test, n_models):
    """Index of the model whose prediction dissents from the majority."""
    preds = np.asarray(test.predictions)
    if preds.dtype.kind == "f":
        # Regression: the model furthest from the median angle.
        median = np.median(preds)
        return int(np.abs(preds - median).argmax())
    values, counts = np.unique(preds, return_counts=True)
    if counts.max() == 1:
        return 0  # total disagreement: attribute to the first model
    majority = values[counts.argmax()]
    dissenters = np.flatnonzero(preds != majority)
    return int(dissenters[0]) if dissenters.size else 0


def run_difference_counts(scale="small", seed=0, datasets=None,
                          use_cache=True):
    """Run the Table 2 experiment over all (or selected) datasets."""
    datasets = datasets or list(TRIOS)
    result = ExperimentResult(
        experiment_id="table2",
        title="Difference-inducing inputs found per tested DNN",
        headers=["DNN name", "lambda1", "lambda2", "s", "t",
                 "# seeds", "# differences"],
        paper_reference=("2,000 seeds per dataset; 789-2,000 differences "
                         "per DNN (Table 2)"),
    )
    rng = as_rng(seed)
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=scale, seed=seed)
        models = get_trio(dataset_name, scale=scale, seed=seed,
                          dataset=dataset, use_cache=use_cache)
        hp = PAPER_HYPERPARAMS[dataset_name]
        n_seeds = seeds_for_scale(scale, maximum=dataset.x_test.shape[0])
        seeds, _ = dataset.sample_seeds(n_seeds, rng)
        run = DeepXplore(models, hp, constraint_for_dataset(dataset),
                         task=dataset.task, rng=rng).run(seeds)
        per_model = np.zeros(len(models), dtype=int)
        for test in run.tests:
            per_model[attribute_test(test, len(models))] += 1
        step = "N/A" if dataset_name == "drebin" else hp.step
        for model, count in zip(models, per_model):
            result.rows.append([model.name, hp.lambda1, hp.lambda2, step,
                                hp.threshold, n_seeds, int(count)])
    result.notes.append(
        "differences attributed to the DNN dissenting from the majority "
        "prediction; the paper reports per-DNN totals the same way")
    return result
