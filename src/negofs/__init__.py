"""Online feature selection through negotiating truncation-based learners."""

from .data import Dataset, SyntheticSpec, budget, generate_synthetic, load_sparse_text, permute, save_sparse_text
from .learners import VARIANTS, Learner, LearnerConfig
from .negotiation import (
    FeatureTrust,
    MIN_ERROR,
    MIN_UTILITY,
    NegotiationConfig,
    Offer,
    Participant,
    merge_multilateral,
    run_negotiation,
)
from .sparse import SparseVector, dot
from .system import RunReport, SystemConfig, elect_trustful, run_moanofs
from .trust import TrustParams, TrustState, update_trust
from .utility import IssueWeightProfile

__version__ = "0.1.0"

__all__ = [
    "Dataset", "SyntheticSpec", "budget", "generate_synthetic", "load_sparse_text",
    "permute", "save_sparse_text",
    "VARIANTS", "Learner", "LearnerConfig",
    "FeatureTrust", "MIN_ERROR", "MIN_UTILITY", "NegotiationConfig", "Offer", "Participant",
    "merge_multilateral", "run_negotiation",
    "SparseVector", "dot",
    "RunReport", "SystemConfig", "elect_trustful", "run_moanofs",
    "TrustParams", "TrustState", "update_trust", "IssueWeightProfile",
]
