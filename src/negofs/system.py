"""Two-level orchestration: elect the k most trustful learners, then let the
elected negotiate the final selected-feature vector.

Level 1 runs every learner over a calibration prefix of the permuted
stream, refreshing each learner's trust with its windowed accuracy, and
keeps the top k. Level 2 hands the remaining stream to the negotiation
engine. With k equal to the roster size there is nothing to elect, so the
whole stream goes straight to the negotiation: that is the single-level
system (MANOFS, and BANOFS with a roster of two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from .data import Dataset, Instance, budget, permute, stream_of
from .learners import Learner, LearnerConfig, sign_of
from .negotiation import (
    MIN_ERROR,
    NegotiationConfig,
    NegotiationTranscript,
    Participant,
    TrialMetrics,
    _check_trial_settings,
    run_negotiation,
    score_chunk,
)
from .sparse import SparseVector, dot
from .trust import TrustParams, TrustState, direct_trust
from .utility import IssueWeightProfile


@dataclass
class SystemConfig:
    roster: list[LearnerConfig]
    k: int
    budget_fraction: float = 0.1
    t_max: int = 10
    calibration_fraction: float = 0.2
    issue_weights: IssueWeightProfile = field(default_factory=IssueWeightProfile)
    trust_params: TrustParams = field(default_factory=TrustParams)
    conflict_rule: str = MIN_ERROR
    seed: int = 0
    epsilon: Optional[float] = None       # None: 1 / number of negotiators

    def __post_init__(self):
        n = len(self.roster)
        if n < 2:
            raise ValueError("the roster needs at least 2 learners")
        if not 2 <= self.k <= n:
            raise ValueError(f"k must lie in [2, {n}], got {self.k}")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must lie in (0, 1]")
        if not 0.0 < self.calibration_fraction < 1.0:
            raise ValueError("calibration_fraction must lie in (0, 1)")
        _check_trial_settings(self.t_max, self.epsilon, self.conflict_rule)


@dataclass
class LearnerReport:
    learner_id: int
    variant: str
    mistakes: int
    instances: int
    error_rate: float
    cumulative_time: float
    trust: float
    elected: bool


@dataclass
class RunReport:
    dataset: str
    B: int
    conflict_rule: str
    per_learner: list[LearnerReport]
    elected: list[int]
    trials: list[TrialMetrics]
    merged: SparseVector
    system_mistakes: int
    system_instances: int
    calibration_instances: int
    calibration_degenerate: bool
    transcript: NegotiationTranscript

    @property
    def system_error_rate(self) -> float:
        return self.system_mistakes / self.system_instances if self.system_instances else 0.0


def elect_trustful(
    trusts: Mapping[int, TrustState],
    mistakes: Mapping[int, int],
    times: Mapping[int, float],
    k: int,
) -> list[int]:
    """The k most trustful learner ids, in election order.

    Ties on trust fall back to fewer mistakes, then less cumulative time,
    then the lower id, so the election is deterministic.
    """
    if k > len(trusts):
        raise ValueError(f"cannot elect {k} of {len(trusts)} learners")
    ranked = sorted(
        trusts,
        key=lambda i: (-direct_trust(trusts[i]), mistakes[i], times[i], i),
    )
    return ranked[:k]


def calibrate(
    learners: Sequence[Learner],
    stream: Sequence[Instance],
    trust_params: TrustParams,
    window: int,
) -> list[TrustState]:
    """Run learners over a calibration stream, scoring trust per window."""
    states = [TrustState() for _ in learners]
    for li, learner in enumerate(learners):
        for start in range(0, len(stream), window):
            _, states[li] = score_chunk(
                learner, stream[start:start + window], states[li], trust_params
            )
    return states


def _effective_seed(system_seed: int, index: int, config_seed: int) -> int:
    # Decorrelates learners across runs while still honouring a per-learner
    # seed chosen in the roster config.
    return (system_seed * 100003 + index * 7919 + config_seed) % 2 ** 32


def build_learners(cfg: SystemConfig, dimension: int) -> list[Learner]:
    B = budget(dimension, cfg.budget_fraction)
    learners = []
    for i, lc in enumerate(cfg.roster):
        effective = replace(
            lc,
            B=lc.B if lc.B is not None else B,
            seed=_effective_seed(cfg.seed, i, lc.seed),
        )
        learners.append(Learner(effective, dimension))
    return learners


def run_moanofs(dataset: Dataset, cfg: SystemConfig) -> RunReport:
    """Execute the full two-level pipeline on a dataset.

    The stream order comes from a permutation seeded by the config. When
    k < n, the first calibration_fraction of the stream elects the roster
    and only the remainder is negotiated; calibration and negotiation
    instances never overlap. When k = n the whole stream is negotiated by
    the full roster.
    """
    if len(dataset) < 10:
        raise ValueError(f"dataset must have at least 10 instances, got {len(dataset)}")

    d = dataset.dimension
    B = budget(d, cfg.budget_fraction)
    stream = stream_of(dataset, permute(dataset, cfg.seed))
    n = len(cfg.roster)
    learners = build_learners(cfg, d)

    degenerate = False
    if cfg.k < n:
        n_cal = int(cfg.calibration_fraction * len(stream))
        degenerate = n_cal == 0
        window = max(1, math.ceil(n_cal / cfg.t_max))
        trust_states = calibrate(learners, stream[:n_cal], cfg.trust_params, window)
        elected = elect_trustful(
            {i: trust_states[i] for i in range(n)},
            {i: learners[i].mistakes for i in range(n)},
            {i: learners[i].cumulative_time for i in range(n)},
            cfg.k,
        )
        level2 = stream[n_cal:]
    else:
        n_cal = 0
        trust_states = [TrustState() for _ in learners]
        elected = list(range(n))
        level2 = stream

    participants = [
        Participant(i, learners[i], trust_states[i]) for i in elected
    ]
    ncfg = NegotiationConfig(
        t_max=cfg.t_max,
        merged_budget=B,
        epsilon=cfg.epsilon,
        conflict_rule=cfg.conflict_rule,
        issue_weights=cfg.issue_weights,
        trust_params=cfg.trust_params,
    )
    merged, transcript, trials = run_negotiation(participants, level2, ncfg)

    for p in participants:
        trust_states[p.id] = p.trust_state
    per_learner = [
        LearnerReport(
            learner_id=i,
            variant=learner.config.variant,
            mistakes=learner.mistakes,
            instances=learner.instances,
            error_rate=learner.error_rate,
            cumulative_time=learner.cumulative_time,
            trust=direct_trust(trust_states[i]),
            elected=i in elected,
        )
        for i, learner in enumerate(learners)
    ]

    return RunReport(
        dataset=dataset.name,
        B=B,
        conflict_rule=cfg.conflict_rule,
        per_learner=per_learner,
        elected=elected,
        trials=trials,
        merged=merged,
        system_mistakes=sum(t.system_mistakes for t in trials),
        system_instances=len(level2),
        calibration_instances=n_cal,
        calibration_degenerate=degenerate,
        transcript=transcript,
    )


def evaluate_holdout(w: SparseVector, holdout: Sequence[Instance]) -> float:
    """Fraction of holdout instances whose sign prediction disagrees."""
    if not holdout:
        raise ValueError("holdout must be non-empty")
    wrong = sum(1 for x, y in holdout if sign_of(dot(w, x)) != y)
    return wrong / len(holdout)
