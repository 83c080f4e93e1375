"""Online feature selection through negotiating truncation-based learners."""

from .data import Dataset, SyntheticSpec, budget, generate_synthetic, load_sparse_text, permute, save_sparse_text
from .learners import VARIANTS, Learner, LearnerConfig, Prediction
from .negotiation import (
    FeatureTrust,
    MIN_ERROR,
    MIN_UTILITY,
    NegotiationConfig,
    NegotiationTranscript,
    Offer,
    Participant,
    merge_bilateral,
    merge_multilateral,
    run_negotiation,
)
from .sparse import SparseVector, add_scaled, dot, project_l2_ball, truncate
from .system import RunReport, SystemConfig, elect_trustful, evaluate_holdout, run_moanofs
from .trust import TrustParams, TrustState, direct_trust, satisfaction_of_window, update_trust
from .utility import (
    DeadlineParams,
    IssueDomain,
    IssueWeightProfile,
    TimeStrategyParams,
    aggregate_utility,
    linear_score,
    offer_cost,
    time_dependent_value,
    time_pressure,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "SyntheticSpec", "budget", "generate_synthetic", "load_sparse_text",
    "permute", "save_sparse_text",
    "VARIANTS", "Learner", "LearnerConfig", "Prediction",
    "FeatureTrust", "MIN_ERROR", "MIN_UTILITY", "NegotiationConfig",
    "NegotiationTranscript", "Offer", "Participant",
    "merge_bilateral", "merge_multilateral", "run_negotiation",
    "SparseVector", "add_scaled", "dot", "project_l2_ball", "truncate",
    "RunReport", "SystemConfig", "elect_trustful", "evaluate_holdout", "run_moanofs",
    "TrustParams", "TrustState", "direct_trust", "satisfaction_of_window", "update_trust",
    "DeadlineParams", "IssueDomain", "IssueWeightProfile", "TimeStrategyParams",
    "aggregate_utility", "linear_score", "offer_cost", "time_dependent_value",
    "time_pressure",
]
