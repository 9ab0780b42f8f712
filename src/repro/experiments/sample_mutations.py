"""Tables 3 & 4: sample feature mutations behind malware evasions.

Table 3 (Drebin): manifest features DeepXplore *added* to make malware
classify as benign.  Table 4 (PDF): the top-3 most in(de)cremented
features for evasive PDFs.  Both render before/after values for generated
difference-inducing inputs whose seed was malicious and which at least one
model now calls benign.
"""

from __future__ import annotations

import numpy as np

from repro.core import PAPER_HYPERPARAMS, DeepXplore, constraint_for_dataset
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentResult, seeds_for_scale
from repro.models import get_trio
from repro.utils.rng import as_rng

__all__ = ["run_drebin_samples", "run_pdf_samples", "find_evasions"]

_MALICIOUS = 1
_BENIGN = 0


def find_evasions(dataset_name, scale, seed, max_samples=2, use_cache=True):
    """Generate evasive malware inputs for a feature dataset.

    Returns a list of ``(seed_x, mutated_x)`` pairs where the seed was
    agreed malicious and at least one model flips to benign on the mutated
    input.
    """
    dataset = load_dataset(dataset_name, scale=scale, seed=seed)
    models = get_trio(dataset_name, scale=scale, seed=seed, dataset=dataset,
                      use_cache=use_cache)
    rng = as_rng(seed + 17)
    n_seeds = seeds_for_scale(scale, maximum=dataset.x_test.shape[0])
    seeds, labels = dataset.sample_seeds(n_seeds, rng)
    malicious = seeds[np.asarray(labels) == _MALICIOUS]
    engine = DeepXplore(models, PAPER_HYPERPARAMS[dataset_name],
                        constraint_for_dataset(dataset),
                        task="classification", rng=rng)
    evasions = []
    for i in range(malicious.shape[0]):
        if len(evasions) >= max_samples:
            break
        test = engine.generate_from_seed(malicious[i], seed_index=i)
        if test is None or test.iterations == 0:
            continue
        if _BENIGN in test.predictions:
            evasions.append((malicious[i], test.x))
    return dataset, evasions


def _mutation_rows(dataset, evasions, top_k=3):
    from repro.analysis import mutation_report
    rows = []
    for sample_no, (before, after) in enumerate(evasions, start=1):
        for mut in mutation_report(before, after, dataset.feature_names,
                                   top_k=top_k):
            rows.append([f"input {sample_no}", mut.name,
                         f"{mut.before:g}", f"{mut.after:g}"])
    return rows


def run_drebin_samples(scale="small", seed=0, use_cache=True):
    """Table 3: manifest features added to evade the Drebin detectors."""
    dataset, evasions = find_evasions("drebin", scale, seed,
                                      use_cache=use_cache)
    result = ExperimentResult(
        experiment_id="table3",
        title="Features added to the manifest for Drebin evasions",
        headers=["sample", "feature", "before", "after"],
        rows=_mutation_rows(dataset, evasions),
        paper_reference=("two sample malware inputs with 3 manifest "
                         "features flipped 0 -> 1 each"),
    )
    if not evasions:
        result.notes.append("no evasions found at this scale/seed")
    result.notes.append("constraint: manifest features only, add-only")
    return result


def run_pdf_samples(scale="small", seed=0, use_cache=True):
    """Table 4: top-3 most in(de)cremented features for PDF evasions."""
    dataset, evasions = find_evasions("pdf", scale, seed,
                                      use_cache=use_cache)
    result = ExperimentResult(
        experiment_id="table4",
        title="Top in(de)cremented features for PDF evasions",
        headers=["sample", "feature", "before", "after"],
        rows=_mutation_rows(dataset, evasions),
        paper_reference=("e.g. size 1 -> 34, count_action 0 -> 21, "
                         "count_endobj 1 -> 20"),
    )
    if not evasions:
        result.notes.append("no evasions found at this scale/seed")
    result.notes.append(
        "constraint: count/length features only, integer updates")
    return result
