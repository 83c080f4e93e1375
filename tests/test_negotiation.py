import math
import random

import pytest

from dense_oracle import merge_offers_reference
from negofs.learners import Learner, LearnerConfig
from negofs.negotiation import (
    EVERYONE,
    INITIATOR,
    MIN_ERROR,
    MIN_UTILITY,
    FeatureTrust,
    InsufficientOffersError,
    MessageKind,
    NegotiationConfig,
    NegotiationTranscript,
    Offer,
    Participant,
    ProtocolMessage,
    broadcast,
    call_for_proposals,
    merge_bilateral,
    merge_multilateral,
    offer_costs,
    run_negotiation,
    score_chunk,
)
from negofs.sparse import SparseVector, dot
from negofs.trust import TrustParams, TrustState, update_trust


def sv(d, entries=()):
    return SparseVector(d, entries)


def offer(pid, entries, err=0, d=6, cost_time=0.0, trust=0.0, instances=0):
    return Offer(pid, sv(d, entries), err, cost_time, trust, instances)


def petrun_participant(pid, d, B, seed=0):
    learner = Learner(LearnerConfig("PETRUN", B=B, seed=seed, measure_time=False), d)
    return Participant(pid, learner)


def ncfg(**kwargs):
    kwargs.setdefault("t_max", 3)
    kwargs.setdefault("merged_budget", 6)
    return NegotiationConfig(**kwargs)


# -- offers and feature trust ----------------------------------------------------

def test_offer_validation():
    with pytest.raises(ValueError):
        offer(0, {0: 1.0}, err=-1)
    with pytest.raises(ValueError):
        Offer(0, sv(3, {0: 1.0}), 0, 0.0, trust=1.5)


def test_feature_trust_starts_at_initial_and_clamps():
    ft = FeatureTrust(epsilon=1 / 3)
    assert ft.value(4) == 0.05
    assert ft.bump(4, 1) == pytest.approx(0.05 + 1 / 3)
    assert ft.bump(4, 3) == 1.0  # clamped


def test_feature_trust_never_decreases():
    ft = FeatureTrust(epsilon=0.25)
    last = 0.0
    for _ in range(10):
        value = ft.bump(0, 1)
        assert value >= last
        last = value


# -- call_for_proposals --------------------------------------------------------------

def test_cfp_three_healthy_participants():
    participants = [petrun_participant(i, 6, 2) for i in range(3)]
    transcript = NegotiationTranscript()
    offers = call_for_proposals(1, participants, transcript)
    assert len(offers) == 3
    assert len(transcript) == 4  # CFP + 3 PROPOSE
    kinds = [m.kind for m in transcript.messages]
    assert kinds == [MessageKind.CFP] + [MessageKind.PROPOSE] * 3


def test_cfp_one_responder_is_an_error():
    participants = [petrun_participant(i, 6, 2) for i in range(3)]
    participants[0].responsive = False
    participants[2].responsive = False
    with pytest.raises(InsufficientOffersError):
        call_for_proposals(1, participants, NegotiationTranscript())


def test_cfp_nonresponder_logged_as_reject():
    participants = [petrun_participant(i, 6, 2) for i in range(3)]
    participants[1].responsive = False
    transcript = NegotiationTranscript()
    offers = call_for_proposals(1, participants, transcript)
    assert [o.participant_id for o in offers] == [0, 2]
    rejects = [m for m in transcript.messages if m.kind == MessageKind.REJECT]
    assert len(rejects) == 1 and rejects[0].sender == "1"


# -- merge_bilateral --------------------------------------------------------------------

def test_bilateral_union_of_disjoint_selections():
    merged = merge_bilateral(offer(0, {0: 0.4}), offer(1, {1: -0.2}))
    assert merged == sv(6, {0: 0.4, 1: -0.2})


def test_bilateral_min_error_wins_conflict():
    merged = merge_bilateral(
        offer(0, {0: 0.4}, err=5), offer(1, {0: -0.6}, err=2)
    )
    assert merged == sv(6, {0: -0.6})


def test_bilateral_identical_offers():
    o = offer(0, {0: 0.4, 3: 1.0}, err=3)
    assert merge_bilateral(o, offer(1, {0: 0.4, 3: 1.0}, err=3)) == o.w


def test_bilateral_tie_breaks_on_lower_id():
    merged = merge_bilateral(
        offer(1, {0: -0.6}, err=2), offer(0, {0: 0.4}, err=2)
    )
    assert merged == sv(6, {0: 0.4})


def test_bilateral_dimension_mismatch():
    with pytest.raises(ValueError):
        merge_bilateral(offer(0, {0: 1.0}, d=3), offer(1, {0: 1.0}, d=4))


# -- merge_multilateral -------------------------------------------------------------------

def test_multilateral_unselected_feature_stays_zero():
    ft = FeatureTrust(1 / 3)
    merged, ft = merge_multilateral(
        [offer(0, {0: 1.0}), offer(1, {1: 1.0}), offer(2, {0: 0.5})],
        ft, ncfg(),
    )
    assert merged.get(5) == 0.0
    assert ft.value(5) == 0.05  # untouched


def test_multilateral_single_selector_keeps_weight_and_bumps_tf():
    ft = FeatureTrust(1 / 3)
    merged, ft = merge_multilateral(
        [offer(0, {0: 1.0}), offer(1, {1: 1.0}), offer(2, {2: 0.7})],
        ft, ncfg(),
    )
    assert merged.get(2) == 0.7
    assert ft.value(2) == pytest.approx(0.05 + 1 / 3)


def test_multilateral_conflict_and_tf_clamp():
    ft = FeatureTrust(1 / 3)
    merged, ft = merge_multilateral(
        [
            offer(0, {0: 0.4}, err=5),
            offer(1, {0: -0.6}, err=2),
            offer(2, {0: 0.1}, err=9),
        ],
        ft, ncfg(),
    )
    assert merged == sv(6, {0: -0.6})
    assert ft.value(0) == 1.0  # 0.05 + 3 * (1/3), clamped


def test_multilateral_budget_ranks_by_tf_then_weight_then_index():
    ft = FeatureTrust(0.1)
    ft.bump(3, 3)  # feature 3 pre-trusted
    merged, _ = merge_multilateral(
        [offer(0, {0: 0.9, 3: 0.1}), offer(1, {1: 0.5, 2: 0.5})],
        ft, ncfg(merged_budget=2),
    )
    # tf after bumps: f3 high, f0/f1/f2 equal; |w| breaks the tie, then index
    assert set(merged.indices()) == {3, 0}


def test_multilateral_requires_two_offers():
    with pytest.raises(InsufficientOffersError):
        merge_multilateral([offer(0, {0: 1.0})], FeatureTrust(0.5), ncfg())


def test_multilateral_min_utility_conflict_rule():
    # the offer with lower composite cost wins the shared feature
    cheap = offer(0, {0: 0.4}, err=8, instances=10, cost_time=5.0, trust=1.0)
    costly = offer(1, {0: -0.6}, err=0, instances=10, cost_time=0.1, trust=0.0)
    cfg = ncfg(conflict_rule=MIN_UTILITY)
    costs = offer_costs([cheap, costly], cfg.issue_weights)
    merged, _ = merge_multilateral([cheap, costly], FeatureTrust(0.5), cfg)
    winner = min(costs, key=lambda pid: (costs[pid], pid))
    assert merged.get(0) == (0.4 if winner == 0 else -0.6)


def test_bilateral_multilateral_consistency():
    rng = random.Random(77)
    for _ in range(200):
        d = rng.randint(2, 10)
        offers = []
        for pid in range(2):
            nnz = rng.randint(0, d)
            entries = {i: rng.uniform(-1, 1) for i in rng.sample(range(d), nnz)}
            offers.append(offer(pid, entries, err=rng.randint(0, 5), d=d))
        expected = merge_bilateral(offers[0], offers[1])
        merged, _ = merge_multilateral(
            offers, FeatureTrust(0.5), ncfg(merged_budget=d)
        )
        assert merged == expected


def test_merge_matches_per_feature_reference():
    rng = random.Random(4242)
    for _ in range(300):
        d = rng.randint(1, 10)
        n_offers = rng.randint(2, 4)
        offers = []
        for pid in range(n_offers):
            nnz = rng.randint(0, d)
            entries = {i: rng.uniform(-1, 1) for i in rng.sample(range(d), nnz)}
            offers.append(offer(pid, entries, err=rng.randint(0, 20), d=d))
        merged, _ = merge_multilateral(
            offers, FeatureTrust(1 / n_offers), ncfg(merged_budget=d)
        )
        errs = {o.participant_id: o.err_count for o in offers}
        dense = merge_offers_reference(
            [(o.participant_id, [o.w.get(i) for i in range(d)], o.err_count)
             for o in offers],
            conflict_key=lambda pid: errs[pid],
        )
        assert [merged.get(i) for i in range(d)] == dense


def test_merge_deterministic():
    offers = [offer(0, {0: 0.5, 2: 0.1}, err=3), offer(1, {0: -0.2, 4: 0.9}, err=3)]
    results = set()
    for _ in range(5):
        merged, _ = merge_multilateral(offers, FeatureTrust(0.5), ncfg())
        results.add(merged)
    assert len(results) == 1


# -- broadcast -------------------------------------------------------------------------------

def test_broadcast_replaces_weights_and_keeps_sigma():
    participants = [petrun_participant(i, 6, 3) for i in range(2)]
    arow = Participant(2, Learner(LearnerConfig("AROW", B=3, measure_time=False), 6))
    arow.learner.sigma[0] = 0.25
    participants.append(arow)
    merged = sv(6, {1: 0.7})
    transcript = NegotiationTranscript()
    broadcast(merged, participants, transcript, 1)
    for p in participants:
        assert p.learner.w is merged
    assert arow.learner.sigma == {0: 0.25}
    assert transcript.messages[-1].kind == MessageKind.INFORM


def test_broadcast_zero_vector_resets_models():
    participants = [petrun_participant(i, 6, 3) for i in range(2)]
    participants[0].learner.w = sv(6, {0: 1.0})
    broadcast(sv(6), participants, NegotiationTranscript(), 1)
    assert all(len(p.learner.w) == 0 for p in participants)


def test_over_budget_broadcast_retruncates_on_next_update():
    p = petrun_participant(0, 6, B=2)
    broadcast(sv(6, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}), [p], NegotiationTranscript(), 1)
    assert len(p.learner.w) == 4  # broadcast does not truncate
    p.learner.step(sv(6, {5: 1.0}), -1)  # mistake forces an update
    assert len(p.learner.w) <= 2


# -- transcript --------------------------------------------------------------------------------

def test_transcript_round_monotonicity_enforced():
    transcript = NegotiationTranscript()
    transcript.append(ProtocolMessage(2, MessageKind.CFP, INITIATOR, EVERYONE))
    with pytest.raises(ValueError):
        transcript.append(ProtocolMessage(1, MessageKind.CFP, INITIATOR, EVERYONE))


def test_transcript_serialization_format():
    transcript = NegotiationTranscript()
    transcript.append(ProtocolMessage(1, MessageKind.CFP, INITIATOR, EVERYONE))
    transcript.append(
        ProtocolMessage(1, MessageKind.INFORM, INITIATOR, EVERYONE,
                        payload=sv(6, {0: 3.0, 1: 4.0}))
    )
    lines = transcript.serialize().splitlines()
    assert lines[0] == "1\tCFP\tinit\t*\t-"
    assert lines[1] == "1\tINFORM\tinit\t*\t2;5.000000"


# -- run_negotiation ----------------------------------------------------------------------------

def build_stream(seed, d, n, max_nnz=3):
    rng = random.Random(seed)
    stream = []
    for _ in range(n):
        nnz = rng.randint(1, max_nnz)
        entries = {i: rng.uniform(-1, 1) for i in rng.sample(range(d), nnz)}
        stream.append((sv(d, entries), rng.choice((-1, 1))))
    return stream


def test_tmax_one_single_cycle():
    participants = [petrun_participant(i, 4, 2, seed=i) for i in range(2)]
    stream = build_stream(1, 4, 8)
    merged, transcript, metrics = run_negotiation(
        participants, stream, ncfg(t_max=1, merged_budget=2)
    )
    assert len(metrics) == 1
    kinds = [m.kind for m in transcript.messages]
    assert kinds.count(MessageKind.CFP) == 1
    assert kinds.count(MessageKind.INFORM) == 1


def test_rounds_start_with_cfp_and_end_with_inform_or_abort():
    participants = [petrun_participant(i, 5, 2, seed=i) for i in range(3)]
    stream = build_stream(2, 5, 30)
    _, transcript, _ = run_negotiation(participants, stream,
                                       ncfg(t_max=4, merged_budget=5))
    for round_messages in transcript.rounds().values():
        assert round_messages[0].kind == MessageKind.CFP
        assert round_messages[-1].kind in (MessageKind.INFORM, MessageKind.ABORT)


def test_n2_reduces_to_bilateral_merge_each_trial():
    d = 5
    participants = [petrun_participant(i, d, 2, seed=i) for i in range(2)]
    stream = build_stream(3, d, 20)
    merged, transcript, _ = run_negotiation(
        participants, stream, ncfg(t_max=4, merged_budget=d)
    )
    rounds = transcript.rounds()
    for idx, messages in rounds.items():
        proposals = [m.payload for m in messages if m.kind == MessageKind.PROPOSE]
        inform = [m for m in messages if m.kind == MessageKind.INFORM][-1]
        assert inform.payload == merge_bilateral(proposals[0], proposals[1])
    assert merged == rounds[4][-1].payload


def test_three_petrun_trace_matches_independent_simulation():
    # chunks of 3 over a 9-instance stream; heterogeneous budgets make the
    # three offers differ; the reference loop below re-derives every round
    # with dense arithmetic.
    d = 3
    stream = build_stream(9, d, 9, max_nnz=3)
    budgets = [1, 2, 3]
    participants = [petrun_participant(i, d, budgets[i]) for i in range(3)]
    merged, transcript, metrics = run_negotiation(
        participants, stream, ncfg(t_max=3, merged_budget=d)
    )
    assert len(transcript.rounds()) == 3

    # independent simulation
    def dense_truncate(w, B):
        nz = [i for i in range(d) if w[i] != 0.0]
        if len(nz) <= B:
            return list(w)
        keep = set(sorted(nz, key=lambda i: (-abs(w[i]), i))[:B])
        return [w[i] if i in keep else 0.0 for i in range(d)]

    weights = [[0.0] * d for _ in range(3)]
    errors = [0, 0, 0]
    merged_ref = [0.0] * d
    for trial in range(3):
        chunk = stream[trial * 3: (trial + 1) * 3]
        for li in range(3):
            for x, y in chunk:
                xs = [x.get(i) for i in range(d)]
                margin = sum(w * v for w, v in zip(weights[li], xs))
                if (1 if margin > 0 else -1) != y:
                    errors[li] += 1
                if y * margin <= 0 and any(xs):
                    w_hat = [w + y * v for w, v in zip(weights[li], xs)]
                    weights[li] = dense_truncate(w_hat, budgets[li])
        merged_ref = merge_offers_reference(
            [(li, weights[li], errors[li]) for li in range(3)],
            conflict_key=lambda pid: errors[pid],
        )
        weights = [list(merged_ref) for _ in range(3)]

    assert [merged.get(i) for i in range(d)] == pytest.approx(merged_ref, abs=1e-12)
    assert [p.learner.mistakes for p in participants] == errors


def test_short_stream_flags_stale_rounds():
    participants = [petrun_participant(i, 4, 2, seed=i) for i in range(2)]
    stream = build_stream(5, 4, 2)
    merged, transcript, metrics = run_negotiation(
        participants, stream, ncfg(t_max=5, merged_budget=4)
    )
    stale_rounds = [m for m in metrics if m.stale]
    assert len(stale_rounds) == 3  # ceil(2/5) = 1 per chunk, data gone after 2
    stale_cfps = [m for m in transcript.messages
                  if m.kind == MessageKind.CFP and m.note == "stale"]
    assert len(stale_cfps) == 3


def test_system_mistakes_counted_with_pre_merge_model():
    participants = [petrun_participant(i, 4, 2, seed=i) for i in range(2)]
    stream = build_stream(8, 4, 12)
    merged, _, metrics = run_negotiation(
        participants, stream, ncfg(t_max=3, merged_budget=4)
    )
    # first trial is predicted by the zero model: every +1 label is a mistake
    first_chunk = stream[:4]
    assert metrics[0].system_mistakes == sum(1 for _, y in first_chunk if y == 1)


def test_negotiation_determinism():
    stream = build_stream(10, 6, 24)
    outcomes = []
    for _ in range(2):
        participants = [petrun_participant(i, 6, 2, seed=i) for i in range(3)]
        merged, transcript, _ = run_negotiation(
            participants, stream, ncfg(t_max=4, merged_budget=3)
        )
        outcomes.append((merged, transcript.serialize(), transcript.messages))
    assert outcomes[0] == outcomes[1]


def test_score_chunk_counts_mistakes_and_refreshes_trust():
    learner = Learner(LearnerConfig("PETRUN", B=2, measure_time=False), 3)
    chunk = [(sv(3, {0: 1.0}), 1), (sv(3, {0: 1.0}), 1), (sv(3, {1: 1.0}), -1)]
    # zero model: first +1 is a mistake, the second is now right, -1 is right
    mistakes, state = score_chunk(learner, chunk, TrustState(), TrustParams())
    assert mistakes == 1
    assert state == update_trust(TrustState(), 2 / 3, TrustParams())
    assert learner.instances == 3
    assert score_chunk(learner, [], state, TrustParams()) == (0, state)


def test_min_utility_round_accepts_by_pressure_threshold():
    # under min-utility early rounds reject expensive offers but always keep
    # at least the two cheapest so every trial still concludes
    participants = [petrun_participant(i, 4, 2, seed=i) for i in range(3)]
    stream = build_stream(12, 4, 30)
    merged, transcript, metrics = run_negotiation(
        participants, stream,
        ncfg(t_max=3, merged_budget=4, conflict_rule=MIN_UTILITY),
    )
    assert all(not m.aborted for m in metrics)
    for round_messages in transcript.rounds().values():
        accepted = [m for m in round_messages
                    if m.kind == MessageKind.ACCEPT and m.sender == INITIATOR]
        assert len(accepted) >= 2


def test_empty_stream_rejected():
    participants = [petrun_participant(i, 4, 2) for i in range(2)]
    with pytest.raises(ValueError):
        run_negotiation(participants, [], ncfg())
