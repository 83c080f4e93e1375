"""Contract-net style negotiation between learner-agents.

Each trial the initiator issues a call for proposals, every participant
answers with an offer (its weight vector plus error count, cost time and
trust value), the offers are merged feature by feature, and the
merged vector is broadcast back so every participant starts the next trial
from the agreed selection. Cost time is the seconds a participant's learner
has spent stepping through its chunks (0.0 unless cfg.measure_time is set).
cfg is a NegotiationConfig: the TrialSettings both levels run under
(SystemConfig extends them too) plus the merged budget.

Merge rules, per feature:
  * selected by nobody: stays zero;
  * selected by exactly one offer: that offer's weight survives;
  * selected by several offers: the weight comes from the first of them in
    the trial's ranking: fewest errors, or lowest composite utility cost
    (the one cost per offer per round), ties to the lower participant id.

Every selection also earns the feature trust points; when the merged
support would exceed the merged budget, the most trusted (then largest,
then lowest-index) features are kept.

The initiator's margin dot(merged, x) on a chunk's first instance is
computed once and handed to every participant that still holds the merged
vector, so with one instance per trial each trial takes a single dot.

The protocol steps record nothing. An optional observer passed to
run_negotiation sees each finished trial through
``on_trial(round_index, stale, offers, accepted, merged)``; a
NegotiationTranscript is one such observer and rebuilds the trial's CFP,
PROPOSE, ACCEPT/REJECT and INFORM messages from those arguments.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional, Protocol, Sequence

from .learners import Learner, sign_of
from .sparse import SparseVector, _check_field_types, _cut, _cut_excess, _from_unsorted, _overlay
from .sparse import check_budget, dot
from .trust import TrustParams, TrustState, update_trust
from .utility import IssueWeightProfile, acceptance_threshold, issue_badness

INITIATOR = "init"
EVERYONE = "*"

MIN_ERROR = "MIN_ERROR"
MIN_UTILITY = "MIN_UTILITY"


class MessageKind(str, Enum):
    CFP = "CFP"
    PROPOSE = "PROPOSE"
    ACCEPT = "ACCEPT"
    REJECT = "REJECT"
    INFORM = "INFORM"


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
        if not 0.0 <= self.cost_time < math.inf:
            raise ValueError(f"cost_time must be finite and non-negative, got {self.cost_time}")
        if self.err_count < 0:
            raise ValueError("err_count must be non-negative")
        if self.instances < 0:
            raise ValueError("instances must be non-negative")
        if not 0.0 <= self.trust <= 1.0:
            raise ValueError(f"trust must lie in [0, 1], got {self.trust}")


@dataclass(frozen=True)
class ProtocolMessage:
    """One protocol step; ``detail`` is the vector digest or the CFP's stale flag."""

    round: int
    kind: MessageKind
    sender: str
    receiver: str
    detail: str = "-"


def _digest(w: SparseVector) -> str:
    """Support size and L2 norm: all the transcript keeps of a vector."""
    return f"{len(w)};{w.norm_l2():.6f}"


class NegotiationTranscript:
    """Append-only log of digests, never vectors; one round per CFP..INFORM."""

    def __init__(self):
        self.messages: list[ProtocolMessage] = []

    def append(self, message: ProtocolMessage) -> None:
        if self.messages and message.round < self.messages[-1].round:
            raise ValueError("transcript rounds must be non-decreasing")
        self.messages.append(message)

    def on_trial(self, round_index: int, stale: bool, offers: Sequence[Offer],
                 accepted: Sequence[Offer], merged: SparseVector) -> None:
        """Record one finished trial: CFP, PROPOSEs, ACCEPT/REJECTs, INFORM."""
        append = self.append
        append(ProtocolMessage(round_index, MessageKind.CFP, INITIATOR, EVERYONE,
                               "stale" if stale else "-"))
        for o in offers:
            append(ProtocolMessage(round_index, MessageKind.PROPOSE, str(o.participant_id),
                                   INITIATOR, _digest(o.w)))
        accepted_ids = {o.participant_id for o in accepted}
        for o in offers:
            kind = MessageKind.ACCEPT if o.participant_id in accepted_ids else MessageKind.REJECT
            append(ProtocolMessage(round_index, kind, INITIATOR, str(o.participant_id)))
        append(ProtocolMessage(round_index, MessageKind.INFORM, INITIATOR, EVERYONE,
                               _digest(merged)))

    def __len__(self) -> int:
        return len(self.messages)

    def serialize(self) -> str:
        lines = [
            "\t".join(
                (str(m.round), m.kind.value, m.sender, m.receiver, m.detail)
            )
            for m in self.messages
        ]
        return "\n".join(lines) + ("\n" if lines else "")


class TrialObserver(Protocol):
    """Watches a negotiation: on_trial runs after each trial's broadcast, accepted best first."""

    def on_trial(self, round_index: int, stale: bool, offers: Sequence[Offer],
                 accepted: Sequence[Offer], merged: SparseVector) -> None: ...


@dataclass(kw_only=True)
class TrialSettings:
    t_max: int = 10
    epsilon: Optional[float] = None       # None: 1 / number of negotiators
    conflict_rule: str = MIN_ERROR
    issue_weights: IssueWeightProfile = field(default_factory=IssueWeightProfile)
    trust_params: TrustParams = field(default_factory=TrustParams)
    measure_time: bool = True             # False: every offer's cost time stays 0.0

    def __post_init__(self):
        _check_field_types(self, ("t_max",), ("epsilon",))
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.conflict_rule not in (MIN_ERROR, MIN_UTILITY):
            raise ValueError(f"unknown conflict rule {self.conflict_rule!r}")


@dataclass(kw_only=True)
class NegotiationConfig(TrialSettings):
    merged_budget: int

    def __post_init__(self):
        _check_field_types(self, ("merged_budget",))
        super().__post_init__()
        if not self.merged_budget >= 1:
            raise ValueError(f"merged_budget must be an int >= 1, got {self.merged_budget!r}")


class FeatureTrust:
    """Per-feature trust layer: starts at 0.05, earns epsilon per selection, capped at 1.

    ``capped`` holds the features whose trust has reached 1.0. No award can
    change them again, so the merge neither awards nor ranks them one by one.
    """

    INITIAL = 0.05

    def __init__(self, epsilon: float):
        if not 0.0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        self.epsilon = epsilon
        self._tf: dict[int, float] = {}
        self.capped: set[int] = set()

    def value(self, index: int) -> float:
        return self._tf.get(index, self.INITIAL)

    def award(self, selections: Mapping[int, int]) -> None:
        """Add epsilon per selection to each selected feature's trust, capped at 1."""
        tf, capped, eps, initial = self._tf, self.capped, self.epsilon, self.INITIAL
        for i, count in selections.items():
            trust = tf.get(i, initial) + eps * count
            if trust < 1.0:
                tf[i] = trust
            else:
                tf[i] = 1.0
                capped.add(i)


class Participant:
    """A learner enrolled in the negotiation, with its trust and cost-time bookkeeping."""

    def __init__(self, participant_id: int, learner: Learner,
                 trust_state: TrustState | None = None):
        self.id = participant_id
        self.learner = learner
        self.trust_state = trust_state if trust_state is not None else TrustState()
        self.cost_time = 0.0

    def make_offer(self) -> Offer:
        return Offer(
            participant_id=self.id,
            w=self.learner.w,
            err_count=self.learner.mistakes,
            cost_time=self.cost_time,
            trust=self.trust_state.sat,
            instances=self.learner.instances,
        )


def _trial_chunks(
    stream: Sequence[tuple[SparseVector, int]], t_max: int
) -> Iterator[Sequence[tuple[SparseVector, int]]]:
    """The t_max contiguous chunks of size ceil(len(stream) / t_max); trailing ones may be empty."""
    size = math.ceil(len(stream) / t_max)
    for i in range(t_max):
        yield stream[i * size:(i + 1) * size]


def score_chunk(
    p: Participant,
    chunk: Sequence[tuple[SparseVector, int]],
    settings: TrialSettings,
    first_margin: float | None = None,
) -> None:
    """Step p's learner through one chunk and refresh p's trust with the chunk accuracy.

    first_margin, when given, must equal dot(p.learner.w, x) for the chunk's
    first instance x. When settings.measure_time is set, the seconds the
    chunk took are added to p.cost_time. An empty chunk leaves p untouched.
    """
    if not chunk:
        return
    start = time.perf_counter() if settings.measure_time else 0.0
    learner = p.learner
    before = learner.mistakes
    learner.step(*chunk[0], first_margin)
    for x, y in chunk[1:]:
        learner.step(x, y)
    correct = len(chunk) - (learner.mistakes - before)
    p.trust_state = update_trust(p.trust_state, correct / len(chunk), settings.trust_params)
    if settings.measure_time:
        p.cost_time += time.perf_counter() - start


@dataclass
class TrialMetrics:
    chunk_size: int       # 0: the stream ran out and the trial negotiated on stale offers
    system_mistakes: int
    merged_support: int


def call_for_proposals(participants: Sequence[Participant]) -> list[Offer]:
    """Open a round: CFP out, one PROPOSE per participant back."""
    return [p.make_offer() for p in participants]


def offer_costs(
    offers: Sequence[Offer], weights: IssueWeightProfile
) -> dict[int, float]:
    """Composite cost per offer in [0, 1]; the best offer minimizes it.

    Trust contributes (1 - trust). Error rate and cost time contribute their
    badness within this round's observed range, 0 at its low end and 1 at its
    high end. An issue on which every offer ties carries no information and
    contributes 0.
    """
    rates = [o.err_count / o.instances if o.instances > 0 else 0.0 for o in offers]
    w_trust, w_error, w_time = weights.as_tuple()
    return {
        o.participant_id: w_trust * (1.0 - o.trust) + w_error * err_bad + w_time * time_bad
        for o, err_bad, time_bad in zip(
            offers, issue_badness(rates), issue_badness([o.cost_time for o in offers]))
    }


def merge_multilateral(
    offers: Sequence[Offer],
    feature_trust: FeatureTrust,
    cfg: NegotiationConfig,
) -> tuple[SparseVector, FeatureTrust]:
    """Merge two or more offers of one dimension and distinct ids, and award feature trust.

    A feature several offers select (a conflict) takes the first one's
    value: the caller passes the offers best first. The feature trust of
    every selected feature grows by epsilon per selecting offer. If the
    union exceeds cfg.merged_budget, the one setting read here, features
    are kept by descending trust, then descending magnitude, then ascending
    index.

    Only features below the trust cap are counted and awarded. The cut
    ranks the uncapped features only when some of them stay. Capped
    features all tie on trust, so what is left of the excess falls on their
    smallest magnitudes: sparse._cut_excess deletes it in place, and
    sparse._cut rebuilds the merged vector when a tie straddles the cut.
    """
    if len(offers) < 2:
        raise ValueError(f"{len(offers)} offer(s) cannot be merged")
    dimension = offers[0].w.dimension
    for o in offers[1:]:
        if o.w.dimension != dimension:
            raise ValueError("offers must share a dimension")
    ids = [o.participant_id for o in offers]
    if len(set(ids)) != len(ids):
        raise ValueError(f"participant ids must be distinct, got {ids}")

    # Filled last first, so the first selecting offer's value is written last.
    merged, supports = _overlay([o.w for o in reversed(offers)])
    pending = merged.keys() - feature_trust.capped
    if pending:
        # support & pending iterates the smaller side; most merged features are capped.
        selections = dict.fromkeys(pending, 0)
        for support in supports:
            for i in support & pending:
                selections[i] += 1
        feature_trust.award(selections)

    excess = len(merged) - cfg.merged_budget
    if excess > 0:
        # Drop the excess lowest by (trust, |v|, -index), the reverse of the
        # keep order; capped features all tie at 1.0 above the rest.
        value = feature_trust.value
        order = [(t, abs(merged[i]), -i) for i in pending if (t := value(i)) < 1.0]
        if excess < len(order):
            order.sort()
            del order[excess:]
        for _, _, negated in order:
            del merged[-negated]
        excess -= len(order)
    # Only capped features are left: cut the excess smallest magnitudes as a
    # learner cuts its weights, rebuilt when a tie straddles the cut.
    if excess > 0 and _cut_excess(merged, [], excess, 0.0) is None:
        return _cut(dimension, merged, cfg.merged_budget), feature_trust

    # Every offered value already has |v| >= ZERO_EPS; readers sort the order on demand.
    return _from_unsorted(dimension, merged), feature_trust


def broadcast(merged: SparseVector, participants: Sequence[Participant]) -> None:
    """Replace every participant's weights with the merged vector.

    Second-order scales are left untouched; a participant whose own budget
    is tighter than the merged support re-truncates on its next update.
    """
    for p in participants:
        p.learner.w = merged


def _accept_offers(offers: list[Offer], weights: IssueWeightProfile,
                   threshold: float) -> list[Offer]:
    """The offers costing at most threshold, or else the two cheapest, cheapest first."""
    costs = offer_costs(offers, weights)
    ranked = sorted(offers, key=lambda o: (costs[o.participant_id], o.participant_id))
    accepted = [o for o in ranked if costs[o.participant_id] <= threshold]
    # Cooperative fallback: the negotiation must conclude, even under early-round pressure.
    return accepted if len(accepted) >= 2 else ranked[:2]


def run_negotiation(
    participants: Sequence[Participant],
    stream: Sequence[tuple[SparseVector, int]],
    cfg: NegotiationConfig,
    observer: TrialObserver | None = None,
) -> tuple[SparseVector, TrialObserver | None, list[TrialMetrics]]:
    """Drive t_max negotiation trials over a labelled stream.

    The stream is cut into t_max contiguous chunks. Each trial: every
    participant steps through the chunk (and its trust is refreshed with the
    chunk accuracy), then CFP -> merge -> broadcast. The initiator also
    predicts each instance with the current merged vector, which gives the
    system-level online mistake count. Trials past the end of a short stream
    negotiate on stale offers: their chunk_size is 0 and the observer sees
    stale=True.

    Under MIN_ERROR every offer is merged, ranked by (errors, id). Under
    MIN_UTILITY trial r scores each offer once, over all of its offers, and
    merges those costing at most acceptance_threshold(r, t_max), ranked by
    (cost, id). A contested feature takes the first selecting offer's value.

    After each trial's broadcast, the observer (returned as given) sees
    ``on_trial(trial, stale, offers, accepted, merged)``, accepted best
    first; with none, nothing is recorded.
    """
    if not stream:
        raise ValueError("stream must be non-empty")
    if len(participants) < 2:
        raise ValueError("a negotiation needs at least 2 participants")
    ids = [p.id for p in participants]
    if len(set(ids)) != len(ids):
        raise ValueError(f"participant ids must be distinct, got {ids}")
    dimension = participants[0].learner.dimension
    check_budget(cfg.merged_budget, dimension)

    epsilon = cfg.epsilon if cfg.epsilon is not None else 1.0 / len(participants)
    feature_trust = FeatureTrust(epsilon)
    merged = SparseVector(dimension)
    metrics: list[TrialMetrics] = []

    for trial, chunk in enumerate(_trial_chunks(stream, cfg.t_max), 1):
        margins = [dot(merged, x) for x, _ in chunk]
        system_mistakes = sum(sign_of(m) != y for m, (_, y) in zip(margins, chunk))

        # A participant that still holds the merged vector shares its first margin.
        first_margin = margins[0] if margins else None
        for p in participants:
            score_chunk(p, chunk, cfg, first_margin if p.learner.w is merged else None)

        offers = call_for_proposals(participants)
        if cfg.conflict_rule == MIN_UTILITY:
            accepted = _accept_offers(offers, cfg.issue_weights,
                                      acceptance_threshold(trial, cfg.t_max))
        else:
            accepted = sorted(offers, key=lambda o: (o.err_count, o.participant_id))
        merged, feature_trust = merge_multilateral(accepted, feature_trust, cfg)
        broadcast(merged, participants)
        if observer is not None:
            observer.on_trial(trial, not chunk, offers, accepted, merged)
        metrics.append(TrialMetrics(len(chunk), system_mistakes, len(merged)))

    return merged, observer, metrics
