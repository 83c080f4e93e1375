"""Contract-net style negotiation between learner-agents.

Each trial the initiator issues a call for proposals, every responsive
participant answers with an offer (its weight vector plus error count, cost
time and trust value), the offers are merged feature by feature, and the
merged vector is broadcast back so every participant starts the next trial
from the agreed selection.

Merge rules, per feature:
  * selected by nobody: stays zero;
  * selected by exactly one offer: that offer's weight survives;
  * selected by several offers: the weight comes from the offer that wins
    the conflict rule (fewest errors, or lowest composite utility cost).

Every selection also earns the feature trust points; when the merged
support would exceed the merged budget, the most trusted (then largest,
then lowest-index) features are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .learners import Learner, sign_of
from .sparse import SparseVector, check_budget, dot
from .trust import TrustParams, TrustState, direct_trust, satisfaction_of_window, update_trust
from .utility import DeadlineParams, IssueWeightProfile, offer_cost, round_domain, time_pressure

INITIATOR = "init"
EVERYONE = "*"

MIN_ERROR = "MIN_ERROR"
MIN_UTILITY = "MIN_UTILITY"


class NegotiationError(RuntimeError):
    pass


class InsufficientOffersError(NegotiationError):
    """Fewer than two participants answered a call for proposals."""


class MessageKind(str, Enum):
    CFP = "CFP"
    PROPOSE = "PROPOSE"
    ACCEPT = "ACCEPT"
    REJECT = "REJECT"
    INFORM = "INFORM"
    ABORT = "ABORT"


@dataclass(frozen=True)
class Offer:
    """A negotiator's proposal for one round."""

    participant_id: int
    w: SparseVector
    err_count: int
    cost_time: float
    trust: float
    instances: int = 0

    def __post_init__(self):
        if self.err_count < 0:
            raise ValueError("err_count must be non-negative")
        if not 0.0 <= self.trust <= 1.0:
            raise ValueError(f"trust must lie in [0, 1], got {self.trust}")


@dataclass(frozen=True)
class ProtocolMessage:
    round: int
    kind: MessageKind
    sender: str
    receiver: str
    payload: object = None
    note: str = ""

    def digest(self) -> str:
        """Support size and L2 norm of the payload vector, or the note."""
        vec = self.payload.w if isinstance(self.payload, Offer) else self.payload
        if isinstance(vec, SparseVector):
            return f"{len(vec)};{vec.norm_l2():.6f}"
        return self.note or "-"


class NegotiationTranscript:
    """Append-only message log; one negotiation round per CFP..INFORM/ABORT."""

    def __init__(self):
        self.messages: list[ProtocolMessage] = []

    def append(self, message: ProtocolMessage) -> None:
        if self.messages and message.round < self.messages[-1].round:
            raise ValueError("transcript rounds must be non-decreasing")
        self.messages.append(message)

    def __len__(self) -> int:
        return len(self.messages)

    def rounds(self) -> dict[int, list[ProtocolMessage]]:
        by_round: dict[int, list[ProtocolMessage]] = {}
        for m in self.messages:
            by_round.setdefault(m.round, []).append(m)
        return by_round

    def serialize(self) -> str:
        lines = [
            "\t".join(
                (str(m.round), m.kind.value, m.sender, m.receiver, m.digest())
            )
            for m in self.messages
        ]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class NegotiationConfig:
    t_max: int
    merged_budget: int
    epsilon: Optional[float] = None
    conflict_rule: str = MIN_ERROR
    issue_weights: IssueWeightProfile = field(default_factory=IssueWeightProfile)
    trust_params: TrustParams = field(default_factory=TrustParams)

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.conflict_rule not in (MIN_ERROR, MIN_UTILITY):
            raise ValueError(f"unknown conflict rule {self.conflict_rule!r}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


class FeatureTrust:
    """Per-feature trust layer: starts at 0.05, earns epsilon per selection."""

    INITIAL = 0.05

    def __init__(self, epsilon: float):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.epsilon = epsilon
        self._tf: dict[int, float] = {}

    def value(self, index: int) -> float:
        return self._tf.get(index, self.INITIAL)

    def bump(self, index: int, selections: int) -> float:
        tf = min(1.0, self.value(index) + self.epsilon * selections)
        self._tf[index] = tf
        return tf


class Participant:
    """A learner enrolled in the negotiation, with its trust bookkeeping."""

    def __init__(self, participant_id: int, learner: Learner,
                 trust_state: TrustState | None = None):
        self.id = participant_id
        self.learner = learner
        self.trust_state = trust_state if trust_state is not None else TrustState()
        self.responsive = True

    def make_offer(self) -> Offer:
        return Offer(
            participant_id=self.id,
            w=self.learner.w,
            err_count=self.learner.mistakes,
            cost_time=self.learner.cumulative_time,
            trust=direct_trust(self.trust_state),
            instances=self.learner.instances,
        )


def score_chunk(
    learner: Learner,
    chunk: Sequence[tuple[SparseVector, int]],
    state: TrustState,
    params: TrustParams,
) -> tuple[int, TrustState]:
    """Step a learner through one chunk and refresh its trust with the chunk accuracy.

    Returns the chunk's mistakes and the new trust state; an empty chunk
    leaves the state as it was.
    """
    correct = 0
    for x, y in chunk:
        if learner.step(x, y).sign == y:
            correct += 1
    if chunk:
        state = update_trust(state, satisfaction_of_window(correct, len(chunk)), params)
    return len(chunk) - correct, state


@dataclass
class TrialMetrics:
    round: int
    chunk_size: int
    stale: bool
    aborted: bool
    participant_mistakes: dict[int, int]
    system_mistakes: int
    merged_support: int


def call_for_proposals(
    round_index: int,
    participants: Sequence[Participant],
    transcript: NegotiationTranscript,
    stale: bool = False,
) -> list[Offer]:
    """Open a round: CFP out, one PROPOSE per responsive participant back.

    Non-responders are logged as REJECT and skipped; fewer than two offers
    cannot be merged and raises InsufficientOffersError.
    """
    transcript.append(
        ProtocolMessage(round_index, MessageKind.CFP, INITIATOR, EVERYONE,
                        note="stale" if stale else "")
    )
    offers: list[Offer] = []
    for p in participants:
        if not p.responsive:
            transcript.append(
                ProtocolMessage(round_index, MessageKind.REJECT, str(p.id), INITIATOR)
            )
            continue
        offer = p.make_offer()
        offers.append(offer)
        transcript.append(
            ProtocolMessage(round_index, MessageKind.PROPOSE, str(p.id), INITIATOR,
                            payload=offer)
        )
    if len(offers) < 2:
        raise InsufficientOffersError(
            f"round {round_index}: {len(offers)} offer(s) received, need at least 2"
        )
    return offers


def merge_bilateral(o1: Offer, o2: Offer) -> SparseVector:
    """Two-party merge: union of selections, fewer errors wins conflicts.

    Equal error counts fall back to the lower participant id.
    """
    if o1.w.dimension != o2.w.dimension:
        raise ValueError("offers must share a dimension")
    if (o2.err_count, o2.participant_id) < (o1.err_count, o1.participant_id):
        o1, o2 = o2, o1
    merged = o2.w.to_dict()
    merged.update(o1.w.to_dict())  # o1 wins every conflict
    return SparseVector(o1.w.dimension, merged)


def offer_costs(
    offers: Sequence[Offer], weights: IssueWeightProfile
) -> dict[int, float]:
    """Composite cost per offer, normalized within this round's ranges."""
    err_domain = round_domain(
        [o.err_count / o.instances if o.instances else 0.0 for o in offers]
    )
    time_domain = round_domain([o.cost_time for o in offers])
    return {
        o.participant_id: offer_cost(o, weights, err_domain, time_domain)
        for o in offers
    }


def merge_multilateral(
    offers: Sequence[Offer],
    feature_trust: FeatureTrust,
    cfg: NegotiationConfig,
) -> tuple[SparseVector, FeatureTrust]:
    """Merge two or more offers and award feature trust.

    Conflicts (a feature selected by several offers) are resolved by the
    configured rule; ties prefer the lower participant id. The feature trust
    of every selected feature grows by epsilon per selecting offer. If the
    union exceeds the merged budget, features are kept by descending trust,
    then descending magnitude, then ascending index.
    """
    if len(offers) < 2:
        raise InsufficientOffersError(f"{len(offers)} offer(s) cannot be merged")
    dimension = offers[0].w.dimension
    for o in offers[1:]:
        if o.w.dimension != dimension:
            raise ValueError("offers must share a dimension")

    if cfg.conflict_rule == MIN_UTILITY:
        costs = offer_costs(offers, cfg.issue_weights)
        rank = lambda o: (costs[o.participant_id], o.participant_id)
    else:
        rank = lambda o: (o.err_count, o.participant_id)

    merged: dict[int, float] = {}
    selectors: dict[int, int] = {}
    for offer in offers:
        for i, v in offer.w.items():
            selectors[i] = selectors.get(i, 0) + 1
            if i not in merged:
                merged[i] = v
            # conflicts resolved below once all selectors are known

    conflicted = [i for i, count in selectors.items() if count > 1]
    for i in conflicted:
        winner = min((o for o in offers if i in o.w), key=rank)
        merged[i] = winner.w.get(i)

    for i, count in selectors.items():
        feature_trust.bump(i, count)

    if len(merged) > cfg.merged_budget:
        kept = sorted(
            merged.items(),
            key=lambda iv: (-feature_trust.value(iv[0]), -abs(iv[1]), iv[0]),
        )[: cfg.merged_budget]
        merged = dict(kept)

    return SparseVector(dimension, merged), feature_trust


def broadcast(
    merged: SparseVector,
    participants: Sequence[Participant],
    transcript: NegotiationTranscript,
    round_index: int,
) -> None:
    """Replace every participant's weights with the merged vector.

    Second-order scales are left untouched; a participant whose own budget
    is tighter than the merged support re-truncates on its next update.
    """
    for p in participants:
        p.learner.w = merged
    transcript.append(
        ProtocolMessage(round_index, MessageKind.INFORM, INITIATOR, EVERYONE,
                        payload=merged)
    )


def _accept_offers(
    offers: list[Offer],
    cfg: NegotiationConfig,
    round_index: int,
    transcript: NegotiationTranscript,
) -> list[Offer]:
    """Decide which offers enter this round's merge, logging ACCEPT/REJECT."""
    if cfg.conflict_rule == MIN_UTILITY:
        costs = offer_costs(offers, cfg.issue_weights)
        pressure = time_pressure(
            float(round_index), DeadlineParams(float(cfg.t_max))
        )
        threshold = 1.0 - pressure
        acceptable = [o for o in offers if costs[o.participant_id] <= threshold]
        if len(acceptable) < 2:
            # Cooperative fallback: the negotiation must conclude, so the two
            # cheapest offers are taken even under early-round pressure.
            acceptable = sorted(
                offers, key=lambda o: (costs[o.participant_id], o.participant_id)
            )[:2]
    else:
        acceptable = list(offers)

    accepted_ids = {o.participant_id for o in acceptable}
    for o in offers:
        kind = MessageKind.ACCEPT if o.participant_id in accepted_ids else MessageKind.REJECT
        transcript.append(
            ProtocolMessage(round_index, kind, INITIATOR, str(o.participant_id))
        )
    return acceptable


def run_negotiation(
    participants: Sequence[Participant],
    stream: Sequence[tuple[SparseVector, int]],
    cfg: NegotiationConfig,
    transcript: NegotiationTranscript | None = None,
) -> tuple[SparseVector, NegotiationTranscript, list[TrialMetrics]]:
    """Drive t_max negotiation trials over a labelled stream.

    The stream is cut into t_max contiguous chunks. Each trial: every
    participant steps through the chunk (and its trust is refreshed with the
    chunk accuracy), then CFP -> merge -> broadcast. The initiator also
    predicts each instance with the current merged vector, which gives the
    system-level online mistake count. Trials past the end of a short stream
    negotiate on stale offers and are flagged in the transcript.
    """
    if not stream:
        raise ValueError("stream must be non-empty")
    if len(participants) < 2:
        raise ValueError("a negotiation needs at least 2 participants")
    dimension = participants[0].learner.dimension
    check_budget(cfg.merged_budget, dimension)

    transcript = transcript if transcript is not None else NegotiationTranscript()
    epsilon = cfg.epsilon if cfg.epsilon is not None else 1.0 / len(participants)
    feature_trust = FeatureTrust(epsilon)
    merged = SparseVector(dimension)
    chunk_size = math.ceil(len(stream) / cfg.t_max)
    metrics: list[TrialMetrics] = []

    for trial in range(1, cfg.t_max + 1):
        chunk = stream[(trial - 1) * chunk_size: trial * chunk_size]
        stale = len(chunk) == 0

        system_mistakes = 0
        for x, y in chunk:
            if sign_of(dot(merged, x)) != y:
                system_mistakes += 1

        participant_mistakes: dict[int, int] = {}
        for p in participants:
            participant_mistakes[p.id], p.trust_state = score_chunk(
                p.learner, chunk, p.trust_state, cfg.trust_params
            )

        try:
            offers = call_for_proposals(trial, participants, transcript, stale=stale)
        except InsufficientOffersError:
            transcript.append(
                ProtocolMessage(trial, MessageKind.ABORT, INITIATOR, EVERYONE)
            )
            metrics.append(TrialMetrics(trial, len(chunk), stale, True,
                                        participant_mistakes, system_mistakes,
                                        len(merged)))
            continue

        merge_set = _accept_offers(offers, cfg, trial, transcript)
        merged, feature_trust = merge_multilateral(merge_set, feature_trust, cfg)
        broadcast(merged, participants, transcript, trial)
        metrics.append(TrialMetrics(trial, len(chunk), stale, False,
                                    participant_mistakes, system_mistakes,
                                    len(merged)))

    return merged, transcript, metrics
