"""repro — a full reproduction of DeepXplore (Pei et al., SOSP 2017).

Automated whitebox testing of deep learning systems: neuron coverage,
cross-referencing differential oracles, and gradient-based joint
optimization for generating difference-inducing corner-case inputs.

Quickstart::

    import numpy as np
    from repro import (load_dataset, get_trio, DeepXplore,
                       PAPER_HYPERPARAMS, constraint_for_dataset)

    dataset = load_dataset("mnist", scale="small")
    models = get_trio("mnist", scale="small", dataset=dataset)
    seeds, _ = dataset.sample_seeds(50, rng=np.random.default_rng(0))
    engine = DeepXplore(models, PAPER_HYPERPARAMS["mnist"],
                        constraint_for_dataset(dataset),
                        task="classification", rng=0)
    result = engine.run(seeds)
    print(result.difference_count, "difference-inducing inputs,",
          f"{engine.mean_coverage():.1%} neuron coverage")

:class:`~repro.core.DeepXplore` runs Algorithm 1 one seed at a time;
:class:`~repro.core.AscentEngine` takes the same arguments and ascends
the whole seed set at once, and ``rule=make_rule("momentum")`` swaps
the per-iteration update rule.  Every combination runs the same
:func:`~repro.core.run_ascent` loop.

Package map:

* :mod:`repro.nn` — numpy NN framework (the TensorFlow/Keras substitute)
* :mod:`repro.datasets` — synthetic stand-ins for the five datasets
* :mod:`repro.models` — the 15-model zoo of Table 1
* :mod:`repro.coverage` — neuron coverage and the code-coverage contrast
* :mod:`repro.core` — objectives, constraints, Algorithm 1
* :mod:`repro.corpus` — persistent corpus store + coverage-guided fuzzing
* :mod:`repro.baselines` — random and adversarial testing
* :mod:`repro.analysis` — diversity, overlap, SSIM, pollution, retraining
* :mod:`repro.experiments` — one runner per paper table/figure
"""

from repro.core import (AscentEngine, AscentRule, Campaign, DeepXplore,
                        GeneratedTest, GenerationResult, Hyperparams,
                        MomentumRule, PAPER_HYPERPARAMS, VanillaRule,
                        constraint_for_dataset, majority_label, make_engine,
                        make_rule)
from repro.corpus import CorpusStore, FuzzReport, FuzzSession, SeedScheduler
from repro.coverage import NeuronCoverageTracker, coverage_of_inputs
from repro.datasets import Dataset, dataset_names, load_dataset
from repro.errors import ReproError
from repro.models import get_model, get_trio, zoo_names

__version__ = "1.0.0"

__all__ = [
    "AscentEngine", "AscentRule", "Campaign",
    "DeepXplore", "GeneratedTest", "GenerationResult", "Hyperparams",
    "MomentumRule", "VanillaRule", "make_engine", "make_rule",
    "PAPER_HYPERPARAMS", "constraint_for_dataset", "majority_label",
    "CorpusStore", "FuzzReport", "FuzzSession", "SeedScheduler",
    "NeuronCoverageTracker", "coverage_of_inputs",
    "Dataset", "dataset_names", "load_dataset",
    "ReproError",
    "get_model", "get_trio", "zoo_names",
    "__version__",
]
