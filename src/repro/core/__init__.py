"""DeepXplore core: joint-optimization test generation (paper §3-§4)."""

from repro.core.campaign import Campaign, CampaignShard, shard_corpus
from repro.core.config import Hyperparams, PAPER_HYPERPARAMS
from repro.core.constraints import (Constraint, DrebinConstraint,
                                    LightingConstraint, MultiRectOcclusion,
                                    PdfFeatureConstraint, SingleRectOcclusion,
                                    Unconstrained, constraint_for_dataset)
from repro.core.engine import (ASCENT_RULES, AdamRule, AdaptiveStepRule,
                               AscentContext, AscentEngine, AscentRule,
                               DeepFoolRule, DeepXplore, GeneratedTest,
                               GenerationResult, MomentumRule, NesterovRule,
                               VanillaRule, make_rule, run_ascent)
from repro.core.factory import make_engine, resolve_models
from repro.core.objectives import CoverageObjective
from repro.core.oracle import (ClassificationOracle, RegressionOracle,
                               majority_label, make_oracle)

__all__ = [
    "ASCENT_RULES", "AdamRule", "AdaptiveStepRule", "AscentContext",
    "AscentEngine", "AscentRule", "DeepFoolRule",
    "MomentumRule", "NesterovRule", "VanillaRule", "make_engine",
    "make_rule", "resolve_models", "run_ascent",
    "Campaign", "CampaignShard", "shard_corpus",
    "Hyperparams", "PAPER_HYPERPARAMS",
    "Constraint", "DrebinConstraint", "LightingConstraint",
    "MultiRectOcclusion", "PdfFeatureConstraint", "SingleRectOcclusion",
    "Unconstrained", "constraint_for_dataset",
    "DeepXplore", "GeneratedTest", "GenerationResult",
    "CoverageObjective",
    "ClassificationOracle", "RegressionOracle", "majority_label",
    "make_oracle",
]
