"""Figure 9: neuron coverage of DeepXplore vs adversarial vs random inputs.

For each dataset, the same number of inputs (1% of the test set in the
paper) from three sources is measured at activation thresholds
t in {0, 0.25, 0.5, 0.75}: inputs generated by DeepXplore, adversarial
(FGSM) inputs, and randomly selected test inputs.  Coverage is averaged
over the dataset's three models.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import fgsm, random_inputs, regression_adversarial
from repro.core import PAPER_HYPERPARAMS, DeepXplore, constraint_for_dataset
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentResult
from repro.models import TRIOS, get_trio
from repro.utils.rng import as_rng

__all__ = ["run_coverage_comparison", "THRESHOLDS"]

THRESHOLDS = (0.0, 0.25, 0.5, 0.75)


def _mean_coverage(models, inputs, threshold):
    from repro.coverage import coverage_of_inputs
    return float(np.mean([
        coverage_of_inputs(m, inputs, threshold=threshold) for m in models]))


def _deepxplore_inputs(models, dataset, budget, rng):
    """Generate ``budget`` inputs with the coverage objective active.

    Only ascent-generated inputs count: seeds the models already
    disagreed on are ordinary test inputs, not DeepXplore's product, and
    including them would dilute the comparison toward "random".  The
    coverage weight is raised to lambda2 = 1 — this experiment measures
    what coverage-guided generation buys, the setting Table 5 also uses.
    """
    from repro.extensions import select_seeds
    hp = PAPER_HYPERPARAMS[dataset.name.split("-")[0]].with_(lambda2=1.0)
    engine = DeepXplore(models, hp, constraint_for_dataset(dataset),
                        task=dataset.task, rng=rng)
    strategy = "balanced" if dataset.task == "classification" else "random"
    seeds, _ = select_seeds(strategy, dataset,
                            min(budget * 8, dataset.x_test.shape[0]),
                            rng=rng)
    generated = []
    for i in range(seeds.shape[0]):
        if len(generated) >= budget:
            break
        test = engine.generate_from_seed(seeds[i], seed_index=i)
        if test is not None and test.iterations > 0:
            generated.append(test.x)
    if not generated:
        return None
    return np.stack(generated)


def _adversarial_inputs(models, dataset, budget, rng):
    seeds, labels = dataset.sample_seeds(budget, rng)
    if dataset.task == "regression":
        return regression_adversarial(models[0], seeds, labels)
    return fgsm(models[0], seeds, labels)


def run_coverage_comparison(scale="small", seed=0, budget=None,
                            use_cache=True, datasets=None):
    """Run the Figure 9 comparison; returns per-dataset series."""
    datasets = datasets or list(TRIOS)
    result = ExperimentResult(
        experiment_id="figure9",
        title="Neuron coverage: DeepXplore vs adversarial vs random",
        headers=["Dataset", "t", "DeepXplore", "Adversarial", "Random"],
        paper_reference=("DeepXplore covers 34.4% more neurons than random "
                         "and 33.2% more than adversarial on average"),
    )
    rng = as_rng(seed + 9)
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=scale, seed=seed)
        models = get_trio(dataset_name, scale=scale, seed=seed,
                          dataset=dataset, use_cache=use_cache)
        n = budget or max(5, dataset.x_test.shape[0] // 100)
        dx_inputs = _deepxplore_inputs(models, dataset, n, rng)
        adv_inputs = _adversarial_inputs(models, dataset, n, rng)
        rand_inputs, _ = random_inputs(dataset, n, rng)
        xs, dx_series, adv_series, rand_series = [], [], [], []
        for t in THRESHOLDS:
            dx_cov = (_mean_coverage(models, dx_inputs, t)
                      if dx_inputs is not None else float("nan"))
            adv_cov = _mean_coverage(models, adv_inputs, t)
            rand_cov = _mean_coverage(models, rand_inputs, t)
            result.rows.append([dataset_name, t, f"{dx_cov:.1%}",
                                f"{adv_cov:.1%}", f"{rand_cov:.1%}"])
            xs.append(t)
            dx_series.append(dx_cov)
            adv_series.append(adv_cov)
            rand_series.append(rand_cov)
        result.series[f"{dataset_name}/deepxplore"] = (xs, dx_series)
        result.series[f"{dataset_name}/adversarial"] = (xs, adv_series)
        result.series[f"{dataset_name}/random"] = (xs, rand_series)
    result.notes.append(
        "same input budget per method (~1% of the test split); coverage "
        "averaged over the dataset's three models")
    return result
