"""Extensions the paper mentions but does not evaluate.

Each extension is exercised by an ablation benchmark under
``benchmarks/test_ablation_*.py``; none of them changes the behaviour of
the core reproduction.
"""

from repro.extensions.multi_neuron import MultiNeuronCoverageObjective
from repro.extensions.seed_selection import (class_balanced_seeds,
                                             low_confidence_seeds,
                                             random_seeds, select_seeds)
from repro.extensions.soft_constraints import SoftBoxConstraint

__all__ = [
    "MultiNeuronCoverageObjective",
    "class_balanced_seeds", "low_confidence_seeds", "random_seeds",
    "select_seeds",
    "SoftBoxConstraint",
]
