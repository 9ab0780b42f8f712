"""One module per table/figure of the paper's evaluation (§6-§7).

``run_all`` executes every experiment at a given scale and returns the
results keyed by experiment id — the programmatic face of EXPERIMENTS.md.
"""

from repro.experiments.class_overlap import run_class_overlap
from repro.experiments.code_vs_neuron import run_code_vs_neuron
from repro.experiments.common import ExperimentResult, seeds_for_scale
from repro.experiments.coverage_comparison import run_coverage_comparison
from repro.experiments.coverage_diversity import run_coverage_diversity
from repro.experiments.coverage_runtime import run_coverage_runtime
from repro.experiments.difference_counts import run_difference_counts
from repro.experiments.gallery import run_gallery
from repro.experiments.hyperparam_sweeps import (run_lambda1_sweep,
                                                 run_lambda2_sweep,
                                                 run_step_size_sweep)
from repro.experiments.model_similarity import run_model_similarity
from repro.experiments.model_zoo import run_model_zoo
from repro.experiments.pollution_detection import run_pollution_detection
from repro.experiments.retraining_accuracy import run_retraining_accuracy
from repro.experiments.sample_mutations import (run_drebin_samples,
                                                run_pdf_samples)

__all__ = [
    "ExperimentResult", "seeds_for_scale",
    "run_model_zoo", "run_difference_counts", "run_drebin_samples",
    "run_pdf_samples", "run_coverage_diversity", "run_code_vs_neuron",
    "run_class_overlap", "run_coverage_runtime", "run_step_size_sweep",
    "run_lambda1_sweep", "run_lambda2_sweep", "run_model_similarity",
    "run_gallery", "run_coverage_comparison", "run_retraining_accuracy",
    "run_pollution_detection", "run_all", "EXPERIMENTS",
]

#: experiment id -> runner, in the paper's order.
EXPERIMENTS = {
    "table1": run_model_zoo,
    "table2": run_difference_counts,
    "table3": run_drebin_samples,
    "table4": run_pdf_samples,
    "table5": run_coverage_diversity,
    "table6": run_code_vs_neuron,
    "table7": run_class_overlap,
    "table8": run_coverage_runtime,
    "table9": run_step_size_sweep,
    "table10": run_lambda1_sweep,
    "table11": run_lambda2_sweep,
    "table12": run_model_similarity,
    "figure8": run_gallery,
    "figure9": run_coverage_comparison,
    "figure10": run_retraining_accuracy,
    "pollution": run_pollution_detection,
}


def run_all(scale="smoke", seed=0, experiment_ids=None, verbose=True):
    """Run every (or the selected) experiment; returns {id: result}."""
    chosen = experiment_ids or list(EXPERIMENTS)
    results = {}
    for experiment_id in chosen:
        runner = EXPERIMENTS[experiment_id]
        result = runner(scale=scale, seed=seed)
        results[experiment_id] = result
        if verbose:
            print(result.render())
            print()
    return results
