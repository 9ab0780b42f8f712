"""Analysis tools for the paper's §7 result sections."""

from repro.analysis.diversity import average_l1_diversity
from repro.analysis.minimize import minimize_suite
from repro.analysis.mutations import FeatureMutation, mutation_report
from repro.analysis.overlap import (OverlapStats, activation_overlap,
                                    class_pair_overlap)
from repro.analysis.pollution import PollutionReport, detect_polluted
from repro.analysis.retraining import RetrainingCurve, retrain_with_augmentation
from repro.analysis.ssim import ssim

__all__ = [
    "average_l1_diversity",
    "minimize_suite",
    "FeatureMutation", "mutation_report",
    "OverlapStats", "activation_overlap", "class_pair_overlap",
    "PollutionReport", "detect_polluted",
    "RetrainingCurve", "retrain_with_augmentation",
    "ssim",
]
