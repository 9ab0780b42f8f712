"""Comparison baselines: random test selection and adversarial testing."""

from repro.baselines.adversarial import (fgsm, iterative_fgsm,
                                         regression_adversarial)
from repro.baselines.random_testing import random_inputs

__all__ = ["fgsm", "iterative_fgsm", "regression_adversarial",
           "random_inputs"]
