"""Two-level orchestration: elect the k most trustful learners, then let the
elected negotiate the final selected-feature vector.

Level 1 runs every learner over a calibration prefix of the permuted
stream, refreshing each learner's trust with its accuracy on the same t_max
chunks level 2 uses, and keeps the top k. Level 2 hands the remaining
stream to the negotiation engine. With k equal to the roster size there is
nothing to elect, so the whole stream goes straight to the negotiation:
that is the single-level system (MANOFS, and BANOFS with a roster of
two). Both levels run under SystemConfig's TrialSettings; level 2's
NegotiationConfig copies them. run_single steps one learner alone through
the same stream and chunks, so every run the CLI reports is built here.

An optional observer passed to run_moanofs goes to the negotiation, which
calls its ``on_trial`` once per finished trial (see negofs.negotiation); a
NegotiationTranscript records the protocol messages that way.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

from .data import Dataset, Instance, budget, permute, stream_of
from .learners import Learner, LearnerConfig
from .negotiation import (
    NegotiationConfig,
    Participant,
    TrialMetrics,
    TrialObserver,
    TrialSettings,
    _trial_chunks,
    run_negotiation,
    score_chunk,
)
from .sparse import SparseVector, _check_field_types


@dataclass
class SystemConfig(TrialSettings):
    roster: list[LearnerConfig]
    k: int
    budget_fraction: float = 0.1
    calibration_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        _check_field_types(self, ("k", "seed"), ("budget_fraction", "calibration_fraction"))
        n = len(self.roster)
        if n < 2:
            raise ValueError("the roster needs at least 2 learners")
        if not 2 <= self.k <= n:
            raise ValueError(f"k must lie in [2, {n}], got {self.k}")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError("budget_fraction must lie in (0, 1]")
        if not 0.0 < self.calibration_fraction < 1.0:
            raise ValueError("calibration_fraction must lie in (0, 1)")
        super().__post_init__()


@dataclass
class LearnerReport:
    learner_id: int
    mistakes: int
    instances: int
    cumulative_time: float
    trust: float


@dataclass
class RunReport:
    B: int
    per_learner: list[LearnerReport]
    elected: list[int]
    trials: list[TrialMetrics]
    merged: SparseVector
    system_mistakes: int
    system_instances: int
    calibration_instances: int


def _learner_report(p: Participant) -> LearnerReport:
    learner = p.learner
    return LearnerReport(p.id, learner.mistakes, learner.instances, p.cost_time,
                         p.trust_state.sat)


def elect_trustful(participants: Sequence[Participant], k: int) -> list[Participant]:
    """The k most trustful participants, in election order.

    Ties on trust fall back to fewer mistakes, then the lower id, so the
    election is deterministic; measured time never decides it.
    """
    if k > len(participants):
        raise ValueError(f"cannot elect {k} of {len(participants)} learners")
    ranked = sorted(
        participants,
        key=lambda p: (-p.trust_state.sat, p.learner.mistakes, p.id),
    )
    return ranked[:k]


def calibrate(
    participants: Sequence[Participant], stream: Sequence[Instance], settings: TrialSettings
) -> None:
    """Step every participant through the stream's t_max chunks, scoring its trust per chunk."""
    for chunk in _trial_chunks(stream, settings.t_max):
        for p in participants:
            score_chunk(p, chunk, settings)


def build_learners(cfg: SystemConfig, dimension: int) -> list[Learner]:
    B = budget(dimension, cfg.budget_fraction)
    # The seed decorrelates learners within a run and across runs.
    return [
        Learner(lc, dimension, B, seed=(cfg.seed * 100003 + i * 7919) % 2 ** 32)
        for i, lc in enumerate(cfg.roster)
    ]


def run_moanofs(
    dataset: Dataset, cfg: SystemConfig, observer: TrialObserver | None = None
) -> RunReport:
    """Execute the full two-level pipeline on a dataset.

    The stream order comes from a permutation seeded by the config. When
    k < n, the first calibration_fraction of the stream elects the roster
    and only the remainder is negotiated; calibration and negotiation
    instances never overlap. When k = n the whole stream is negotiated by
    the full roster. The observer, when given, sees every negotiation trial.
    """
    if len(dataset) < 10:
        raise ValueError(f"dataset must have at least 10 instances, got {len(dataset)}")

    d = dataset.dimension
    B = budget(d, cfg.budget_fraction)
    stream = stream_of(dataset, permute(dataset, cfg.seed))
    participants = [
        Participant(i, learner) for i, learner in enumerate(build_learners(cfg, d))
    ]

    n_cal = 0
    elected = participants
    if cfg.k < len(participants):
        n_cal = int(cfg.calibration_fraction * len(stream))
        calibrate(participants, stream[:n_cal], cfg)
        elected = elect_trustful(participants, cfg.k)
    level2 = stream[n_cal:]

    ncfg = NegotiationConfig(
        merged_budget=B, **{f.name: getattr(cfg, f.name) for f in fields(TrialSettings)}
    )
    merged, _, trials = run_negotiation(elected, level2, ncfg, observer)

    return RunReport(
        B=B,
        per_learner=[_learner_report(p) for p in participants],
        elected=[p.id for p in elected],
        trials=trials,
        merged=merged,
        system_mistakes=sum(t.system_mistakes for t in trials),
        system_instances=len(level2),
        calibration_instances=n_cal,
    )


def run_single(dataset: Dataset, learner_config: LearnerConfig, cfg: SystemConfig) -> RunReport:
    """One learner, seeded with cfg.seed, alone on run_moanofs's stream and budget.

    It steps through the stream's t_max chunks with score_chunk, up to the
    first empty one; each chunk is a trial, and merged is its final weights.
    """
    B = budget(dataset.dimension, cfg.budget_fraction)
    stream = stream_of(dataset, permute(dataset, cfg.seed))
    p = Participant(0, Learner(learner_config, dataset.dimension, B, seed=cfg.seed))
    learner = p.learner
    trials = []
    for chunk in _trial_chunks(stream, cfg.t_max):
        if not chunk:
            break
        before = learner.mistakes
        score_chunk(p, chunk, cfg)
        trials.append(TrialMetrics(len(chunk), learner.mistakes - before, len(learner.w)))
    return RunReport(B=B, per_learner=[_learner_report(p)], elected=[p.id], trials=trials,
                     merged=learner.w, system_mistakes=learner.mistakes,
                     system_instances=len(stream), calibration_instances=0)
