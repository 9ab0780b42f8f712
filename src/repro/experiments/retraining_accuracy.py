"""Figure 10: accuracy improvement from retraining with generated tests.

Each LeNet is retrained for five epochs on its training set augmented with
the same number of extra samples from three sources: DeepXplore tests
(labelled by majority vote — no manual labels), adversarial inputs
(labelled with their seed's ground truth, standing in for the paper's
manual labelling), and random test samples (ground-truth labels).
"""

from __future__ import annotations

from repro.analysis import retrain_with_augmentation
from repro.baselines import fgsm, random_inputs
from repro.core import (PAPER_HYPERPARAMS, DeepXplore,
                        constraint_for_dataset, majority_label)
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentResult
from repro.models import TRIOS, get_model, train_model, MODEL_ZOO
from repro.utils.rng import as_rng

__all__ = ["run_retraining_accuracy"]


def _deepxplore_augmentation(models, dataset, count, rng):
    hp = PAPER_HYPERPARAMS["mnist"]
    runner = DeepXplore(models, hp, constraint_for_dataset(dataset),
                        task="classification", rng=rng)
    seeds, _ = dataset.sample_seeds(
        min(count * 4, dataset.x_test.shape[0]), rng)
    run = runner.run(seeds, max_tests=count)
    tests = run.test_inputs()
    if tests.shape[0] == 0:
        return None, None
    labels = majority_label(models, tests)
    return tests[:count], labels[:count]


def run_retraining_accuracy(scale="small", seed=0, n_augment=100, epochs=5,
                            use_cache=True):
    """Run the Figure 10 experiment on the three LeNets."""
    dataset = load_dataset("mnist", scale=scale, seed=seed)
    rng = as_rng(seed + 10)
    models = [get_model(name, scale=scale, seed=seed, dataset=dataset,
                        use_cache=use_cache) for name in TRIOS["mnist"]]
    n_augment = min(n_augment, dataset.x_test.shape[0] // 2)

    dx_x, dx_y = _deepxplore_augmentation(models, dataset, n_augment, rng)
    adv_seeds, adv_labels = dataset.sample_seeds(n_augment, rng)
    adv_x = fgsm(models[0], adv_seeds, adv_labels)
    rand_x, rand_y = random_inputs(dataset, n_augment, rng)

    sources = {
        "deepxplore": (dx_x, dx_y),
        "adversarial": (adv_x, adv_labels),
        "random": (rand_x, rand_y),
    }
    result = ExperimentResult(
        experiment_id="figure10",
        title="Accuracy after augmented retraining (per epoch)",
        headers=["Model", "Source"] + [f"epoch {e}"
                                       for e in range(epochs + 1)],
        paper_reference=("DeepXplore augmentation yields 1-3% higher "
                         "accuracy than adversarial/random augmentation"),
    )
    for model_name in TRIOS["mnist"]:
        for source, (x_extra, y_extra) in sources.items():
            if x_extra is None:
                result.rows.append([model_name, source, "no tests found"])
                continue
            # Fresh copy so each retraining starts from the same weights.
            network = train_model(MODEL_ZOO[model_name], dataset,
                                  scale=scale, seed=seed) \
                if not use_cache else get_model(
                    model_name, scale=scale, seed=seed, dataset=dataset,
                    use_cache=True)
            curve = retrain_with_augmentation(
                network, dataset, x_extra, y_extra, epochs=epochs,
                rng=as_rng(seed + 11), source=source)
            row = [model_name, source] + [f"{a:.2%}"
                                          for a in curve.accuracies]
            result.rows.append(row)
            result.series[f"{model_name}/{source}"] = (
                list(range(epochs + 1)), curve.accuracies)
    result.notes.append(
        "DeepXplore labels come from majority vote (automatic); baseline "
        "labels use seed ground truth (standing in for manual labelling)")
    return result
