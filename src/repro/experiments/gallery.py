"""Figure 8: gallery of difference-inducing inputs per image constraint.

Generates difference-inducing inputs for the three vision datasets under
each of the three image constraints (lighting, single-rectangle occlusion,
multi-rectangle blackout) and optionally writes seed/generated image pairs
as PGM/PPM files — the reproduction of the paper's image grid.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from repro.core import PAPER_HYPERPARAMS, DeepXplore, constraint_for_dataset
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentResult, seeds_for_scale
from repro.models import get_trio
from repro.utils.imageops import save_pgm, save_ppm
from repro.utils.rng import as_rng

__all__ = ["run_gallery", "CONSTRAINT_KINDS"]

CONSTRAINT_KINDS = ("light", "occl", "blackout")
_VISION_DATASETS = ("mnist", "imagenet", "driving")


def _describe_predictions(dataset, test):
    preds = np.asarray(test.predictions)
    if preds.dtype.kind == "f":
        return " / ".join(f"{p:+.2f} rad" for p in preds)
    names = dataset.class_names or [str(i) for i in range(100)]
    return " / ".join(names[int(p)] for p in preds)


def _save_pair(output_dir, tag, seed_img, gen_img):
    os.makedirs(output_dir, exist_ok=True)
    save_fn = save_ppm if seed_img.shape[0] == 3 else save_pgm
    save_fn(os.path.join(output_dir, f"{tag}-seed.{'ppm' if seed_img.shape[0] == 3 else 'pgm'}"),
            seed_img)
    save_fn(os.path.join(output_dir, f"{tag}-generated.{'ppm' if seed_img.shape[0] == 3 else 'pgm'}"),
            gen_img)


def run_gallery(scale="small", seed=0, per_cell=2, output_dir=None,
                use_cache=True, datasets=None):
    """Generate the Figure 8 grid; returns a table of found examples."""
    datasets = datasets or list(_VISION_DATASETS)
    result = ExperimentResult(
        experiment_id="figure8",
        title="Difference-inducing inputs per constraint and dataset",
        headers=["Dataset", "Constraint", "seed idx", "iterations",
                 "predictions (per model)"],
        paper_reference=("images generated under lighting, single-rect and "
                         "multi-rect constraints that flip at least one "
                         "model's output"),
    )
    for dataset_name in datasets:
        dataset = load_dataset(dataset_name, scale=scale, seed=seed)
        models = get_trio(dataset_name, scale=scale, seed=seed,
                          dataset=dataset, use_cache=use_cache)
        hp = PAPER_HYPERPARAMS[dataset_name]
        for kind in CONSTRAINT_KINDS:
            rng = as_rng(seed + zlib.crc32(kind.encode()) % 1000)
            n_seeds = seeds_for_scale(scale, maximum=dataset.x_test.shape[0])
            seeds_x, _ = dataset.sample_seeds(n_seeds, rng)
            engine = DeepXplore(models, hp,
                                constraint_for_dataset(dataset, kind=kind),
                                task=dataset.task, rng=rng)
            found = 0
            for i in range(seeds_x.shape[0]):
                if found >= per_cell:
                    break
                test = engine.generate_from_seed(seeds_x[i], seed_index=i)
                if test is None or test.iterations == 0:
                    continue
                found += 1
                result.rows.append([
                    dataset_name, kind, i, test.iterations,
                    _describe_predictions(dataset, test)])
                if output_dir:
                    _save_pair(output_dir,
                               f"{dataset_name}-{kind}-{found}",
                               seeds_x[i], test.x)
            if found == 0:
                result.rows.append([dataset_name, kind, "-", "-",
                                    "no example found"])
    if output_dir:
        result.notes.append(f"seed/generated image pairs written to "
                            f"{output_dir}")
    return result
