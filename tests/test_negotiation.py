import math
import random
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import concession_threshold_reference, merge_offers_reference
from negofs.learners import VARIANTS, Learner, LearnerConfig
from negofs.negotiation import (
    EVERYONE,
    INITIATOR,
    MIN_ERROR,
    MIN_UTILITY,
    FeatureTrust,
    MessageKind,
    NegotiationConfig,
    NegotiationTranscript,
    Offer,
    Participant,
    ProtocolMessage,
    TrialSettings,
    _accept_offers,
    _trial_chunks,
    broadcast,
    call_for_proposals,
    merge_multilateral,
    offer_costs,
    run_negotiation,
    score_chunk,
)
from negofs.sparse import SparseVector, dot
from negofs.system import SystemConfig
from negofs.trust import TrustParams, TrustState, update_trust
from negofs.utility import IssueWeightProfile, acceptance_threshold


def sv(d, entries=()):
    return SparseVector(d, entries)


def offer(pid, entries, err=0, d=6, cost_time=0.0, trust=0.0, instances=0):
    return Offer(pid, sv(d, entries), err, cost_time, trust, instances)


def petrun_participant(pid, d, B, seed=0):
    learner = Learner(LearnerConfig("PETRUN"), d, B, seed=seed)
    return Participant(pid, learner)


def ncfg(**kwargs):
    kwargs.setdefault("t_max", 3)
    kwargs.setdefault("merged_budget", 6)
    kwargs.setdefault("measure_time", False)
    return NegotiationConfig(**kwargs)


def reference_order(offers, key):
    """The offers best first, as merge_offers_reference ranks them: by (key[id], id)."""
    return sorted(offers, key=lambda o: (key[o.participant_id], o.participant_id))


def conflict_key(offers, cfg):
    """The reference's conflict key under cfg's rule: each offer's errors, or its round cost."""
    if cfg.conflict_rule == MIN_UTILITY:
        return offer_costs(offers, cfg.issue_weights)
    return {o.participant_id: o.err_count for o in offers}


def bilateral(o1, o2):
    """Two-offer merge, fewest errors first, with room for the whole union."""
    merged, _ = merge_multilateral(reference_order([o1, o2], conflict_key([o1, o2], ncfg())),
                                   FeatureTrust(0.5), ncfg(merged_budget=o1.w.dimension))
    return merged


def dense(w):
    return [dict(w.items()).get(i, 0.0) for i in range(w.dimension)]


class MergeSpy(NegotiationTranscript):
    """A transcript that also keeps (all offers, accepted offers, merged) per trial."""

    def __init__(self):
        super().__init__()
        self.merges = []

    def on_trial(self, round_index, stale, offers, accepted, merged):
        super().on_trial(round_index, stale, offers, accepted, merged)
        self.merges.append((list(offers), list(accepted), merged))


def by_round(transcript):
    return {r: list(ms) for r, ms in groupby(transcript.messages, key=lambda m: m.round)}


def negotiate_once(monkeypatch, offers, **settings):
    """One trial of run_negotiation whose participants propose offers: (accepted, merged)."""
    monkeypatch.setattr("negofs.negotiation.call_for_proposals", lambda participants: offers)
    d = offers[0].w.dimension
    participants = [petrun_participant(o.participant_id, d, d) for o in offers]
    settings.setdefault("merged_budget", d)
    _, spy, _ = run_negotiation(participants, build_stream(0, d, 1), ncfg(t_max=1, **settings),
                                MergeSpy())
    (proposed, accepted, merged), = spy.merges
    assert proposed == offers
    return accepted, merged


# -- offers and feature trust ----------------------------------------------------

def test_offer_validation():
    with pytest.raises(ValueError):
        offer(0, {0: 1.0}, err=-1)
    with pytest.raises(ValueError):
        Offer(0, sv(3, {0: 1.0}), 0, 0.0, trust=1.5)
    with pytest.raises(ValueError, match="instances"):
        offer(0, {0: 1.0}, instances=-1)
    for cost_time in (float("nan"), float("inf"), float("-inf"), -1e-9):
        with pytest.raises(ValueError, match="^cost_time must"):
            offer(0, {0: 1.0}, cost_time=cost_time)


@pytest.mark.parametrize("merged_budget", [0, -1, True])
def test_negotiation_config_rejects_bad_merged_budget(merged_budget):
    with pytest.raises(ValueError, match="^merged_budget must"):
        ncfg(merged_budget=merged_budget)


@pytest.mark.parametrize("setting, message", [
    ({"merged_budget": 2.5}, "merged_budget must be an int, got 2.5"),
], ids=["float-merged_budget"])
def test_negotiation_config_rejects_a_field_of_the_wrong_type(setting, message):
    with pytest.raises(ValueError) as err:
        ncfg(**setting)
    assert str(err.value) == message


@pytest.mark.parametrize("config", [
    ncfg,
    lambda **setting: SystemConfig(roster=[LearnerConfig("PETRUN"), LearnerConfig("OGD")],
                                   k=2, **setting),
], ids=["negotiation", "system"])
@pytest.mark.parametrize("setting, message", [
    ({"t_max": 0}, "t_max must be >= 1"),
    ({"t_max": 2.5}, "t_max must be an int, got 2.5"),
    ({"t_max": True}, "t_max must be an int, got True"),
    ({"epsilon": True}, "epsilon must be a real, got True"),
    ({"epsilon": 0.0}, "epsilon must be positive and finite, got 0.0"),
    ({"conflict_rule": "median"}, "unknown conflict rule 'median'"),
], ids=["t_max", "float-t_max", "bool-t_max", "bool-epsilon", "epsilon", "conflict_rule"])
def test_both_configs_reject_a_bad_trial_setting(config, setting, message):
    # Both extend TrialSettings, which checks these once.
    with pytest.raises(ValueError) as err:
        config(**setting)
    assert str(err.value) == message


def test_feature_trust_starts_at_initial_and_clamps():
    ft = FeatureTrust(epsilon=1 / 3)
    assert ft.value(4) == 0.05
    ft.award({4: 1})
    assert ft.value(4) == pytest.approx(0.05 + 1 / 3)
    ft.award({4: 3})
    assert ft.value(4) == 1.0  # clamped


def test_feature_trust_never_decreases():
    ft = FeatureTrust(epsilon=0.25)
    last = 0.0
    for _ in range(10):
        ft.award({0: 1})
        value = ft.value(0)
        assert value >= last
        last = value


@pytest.mark.parametrize("epsilon", [0.0, -0.5, float("nan"), float("inf")])
def test_feature_trust_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="^epsilon must"):
        FeatureTrust(epsilon)


# -- call_for_proposals --------------------------------------------------------------

def test_cfp_three_healthy_participants():
    participants = [petrun_participant(i, 6, 2) for i in range(3)]
    offers = call_for_proposals(participants)
    assert [o.participant_id for o in offers] == [0, 1, 2]
    assert all(o.w is p.learner.w for o, p in zip(offers, participants))
    assert call_for_proposals(participants) == offers
    transcript = NegotiationTranscript()
    transcript.on_trial(1, False, offers, offers[1:], sv(6))
    kinds = [m.kind for m in transcript.messages]
    assert kinds == ([MessageKind.CFP] + [MessageKind.PROPOSE] * 3
                     + [MessageKind.REJECT] + [MessageKind.ACCEPT] * 2 + [MessageKind.INFORM])


# -- two-offer merges ---------------------------------------------------------------------

def test_bilateral_union_of_disjoint_selections():
    merged = bilateral(offer(0, {0: 0.4}), offer(1, {1: -0.2}))
    assert merged == sv(6, {0: 0.4, 1: -0.2})


def test_bilateral_min_error_wins_conflict(monkeypatch):
    # The trial puts the fewest errors first, and the merge takes its value.
    worse, better = offer(0, {0: 0.4, 1: 1.0}, err=5), offer(1, {0: -0.6}, err=2)
    accepted, merged = negotiate_once(monkeypatch, [worse, better])
    assert accepted == [better, worse]
    assert merged == sv(6, {0: -0.6, 1: 1.0})


def test_bilateral_identical_offers():
    o = offer(0, {0: 0.4, 3: 1.0}, err=3)
    assert bilateral(o, offer(1, {0: 0.4, 3: 1.0}, err=3)) == o.w


def test_bilateral_tie_breaks_on_lower_id(monkeypatch):
    higher, lower = offer(1, {0: -0.6}, err=2), offer(0, {0: 0.4}, err=2)
    accepted, merged = negotiate_once(monkeypatch, [higher, lower])
    assert accepted == [lower, higher]
    assert merged == sv(6, {0: 0.4})


def test_bilateral_dimension_mismatch():
    with pytest.raises(ValueError, match="share a dimension"):
        bilateral(offer(0, {0: 1.0}, d=3), offer(1, {0: 1.0}, d=4))


@pytest.mark.parametrize("offers, message", [
    ([offer(0, {0: 1.0})], r"^1 offer\(s\) cannot be merged$"),
    # Ids break the trial's ranking ties and name each offer's decision.
    ([offer(0, {0: 1.0}), offer(0, {1: 1.0}), offer(1, {2: 1.0})],
     r"^participant ids must be distinct, got \[0, 0, 1\]$"),
], ids=["one-offer", "repeated-id"])
def test_merge_rejects_bad_offers(offers, message):
    with pytest.raises(ValueError, match=message):
        merge_multilateral(offers, FeatureTrust(0.5), ncfg())


# -- merge_multilateral -------------------------------------------------------------------

@given(st.data())
@settings(max_examples=150, deadline=None)
def test_the_first_offer_that_selects_a_feature_sets_its_value(data):
    # Whatever the offers' errors or costs, the merge takes them in the
    # order given. One vector may sit at several positions, as every
    # participant holds the merged vector after a broadcast, and values
    # drawn from a short list often agree across offers.
    d = data.draw(st.integers(1, 8), label="d")
    entries = st.dictionaries(st.integers(0, d - 1), st.sampled_from((-1.0, -0.5, 0.5, 1.0)))
    pool = [sv(d, e) for e in data.draw(st.lists(entries, min_size=1, max_size=3), label="pool")]
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=5),
                      label="positions")
    ids = data.draw(st.permutations(range(len(picks))), label="ids")
    offers = [Offer(pid, pool[k], data.draw(st.integers(0, 3)), 0.0, data.draw(st.floats(0, 1)))
              for pid, k in zip(ids, picks)]
    merged, _ = merge_multilateral(offers, FeatureTrust(0.5), ncfg(merged_budget=d))
    position = {o.participant_id: k for k, o in enumerate(offers)}
    assert dense(merged) == merge_offers_reference(
        [(o.participant_id, dense(o.w), o.err_count) for o in offers], position.__getitem__)

def test_multilateral_unselected_feature_stays_zero():
    ft = FeatureTrust(1 / 3)
    merged, ft = merge_multilateral(
        [offer(0, {0: 1.0}), offer(1, {1: 1.0}), offer(2, {0: 0.5})],
        ft, ncfg(),
    )
    assert dict(merged.items()).get(5, 0.0) == 0.0
    assert ft.value(5) == 0.05  # untouched


def test_multilateral_single_selector_keeps_weight_and_bumps_tf():
    ft = FeatureTrust(1 / 3)
    merged, ft = merge_multilateral(
        [offer(0, {0: 1.0}), offer(1, {1: 1.0}), offer(2, {2: 0.7})],
        ft, ncfg(),
    )
    assert dict(merged.items()).get(2, 0.0) == 0.7
    assert ft.value(2) == pytest.approx(0.05 + 1 / 3)


def test_multilateral_conflict_and_tf_clamp():
    ft = FeatureTrust(1 / 3)
    offers = [offer(0, {0: 0.4}, err=5), offer(1, {0: -0.6}, err=2), offer(2, {0: 0.1}, err=9)]
    merged, ft = merge_multilateral(reference_order(offers, conflict_key(offers, ncfg())),
                                    ft, ncfg())
    assert merged == sv(6, {0: -0.6})
    assert ft.value(0) == 1.0  # 0.05 + 3 * (1/3), clamped


def test_multilateral_budget_ranks_by_tf_then_weight_then_index():
    ft = FeatureTrust(0.1)
    ft.award({3: 3})  # feature 3 pre-trusted
    merged, _ = merge_multilateral(
        [offer(0, {0: 0.9, 3: 0.1}), offer(1, {1: 0.5, 2: 0.5})],
        ft, ncfg(merged_budget=2),
    )
    # tf after bumps: f3 high, f0/f1/f2 equal; |w| breaks the tie, then index
    assert set(merged.indices()) == {3, 0}


def test_multilateral_requires_two_offers():
    with pytest.raises(ValueError, match="1 offer"):
        merge_multilateral([offer(0, {0: 1.0})], FeatureTrust(0.5), ncfg())


def costed_offers():
    """Three offers whose costs in one round, under the default issue weights, are 0.5, 0.05, 1.0.

    With weights trust 0.2, error 0.5 and time 0.3, error rates 0, 0.1, 1
    and times 5, 0, 5 score the badness 0, 0.1, 1 and 1, 0, 1, and trusts
    0, 1, 0 score 1, 0, 1. So A costs 0.2 + 0.3, B 0.5 * 0.1 and C 1.0.
    A has the fewest errors; B is the cheapest.
    """
    a = offer(0, {0: 0.4, 1: 0.5}, err=0, instances=10, cost_time=5.0, trust=0.0)
    b = offer(1, {0: -0.6}, err=1, instances=10, cost_time=0.0, trust=1.0)
    c = offer(2, {1: -1.0, 2: 1.0}, err=10, instances=10, cost_time=5.0, trust=0.0)
    return a, b, c


def test_multilateral_min_utility_conflict_rule(monkeypatch):
    # At t_max = 1 every cost is within the threshold, and the trial merges
    # B, A, C: cheapest first, so B takes feature 0 and A feature 1.
    a, b, c = costed_offers()
    accepted, merged = negotiate_once(monkeypatch, [a, b, c], conflict_rule=MIN_UTILITY)
    assert accepted == [b, a, c]
    assert merged == sv(6, {0: -0.6, 1: 0.5, 2: 1.0})
    accepted, merged = negotiate_once(monkeypatch, [a, b, c])
    assert accepted == [a, b, c]
    assert merged == sv(6, {0: 0.4, 1: 0.5, 2: 1.0})


@pytest.mark.parametrize("threshold, expected", [
    (1.0, "BAC"), (0.6, "BA"), (0.1, "BA"), (0.0, "BA"),
], ids=["all", "prefix", "one-within", "none-within"])
def test_accepted_offers_are_a_prefix_of_the_cost_ranking_or_its_two_cheapest(threshold,
                                                                               expected):
    offers = dict(zip("ABC", costed_offers()))
    assert _accept_offers(list(offers.values()), IssueWeightProfile(), threshold) == [
        offers[name] for name in expected]


def test_merge_matches_per_feature_reference():
    # Few distinct error counts and cost times make ties common under both
    # rules; a budget below the union exercises the trust-ranked cut.
    rng = random.Random(4242)
    for rule in (MIN_ERROR, MIN_UTILITY):
        for _ in range(300):
            d = rng.randint(1, 10)
            n_offers = rng.randint(2, 4)
            offers = []
            for pid in range(n_offers):
                nnz = rng.randint(0, d)
                entries = {i: rng.uniform(-1, 1) for i in rng.sample(range(d), nnz)}
                offers.append(offer(pid, entries, err=rng.randint(0, 3), d=d,
                                    cost_time=rng.choice([0.0, 0.5]), trust=rng.random(),
                                    instances=rng.choice([0, 10])))
            merged_budget = rng.randint(1, d)
            cfg = ncfg(merged_budget=merged_budget, conflict_rule=rule)
            key = conflict_key(offers, cfg)
            merged, _ = merge_multilateral(reference_order(offers, key), FeatureTrust(1 / n_offers),
                                           cfg)
            dense = merge_offers_reference(
                [(o.participant_id, [dict(o.w.items()).get(i, 0.0) for i in range(d)], o.err_count)
                 for o in offers],
                conflict_key=key.__getitem__,
            )
            # Trust after this merge: the initial value plus epsilon per selection.
            trust = [min(1.0, FeatureTrust.INITIAL
                         + (1 / n_offers) * sum(i in dict(o.w.items()) for o in offers))
                     for i in range(d)]
            ranked = sorted((i for i in range(d) if dense[i] != 0.0),
                            key=lambda i: (-trust[i], -abs(dense[i]), i))
            kept = set(ranked[:merged_budget])
            assert [dict(merged.items()).get(i, 0.0) for i in range(d)] == [
                dense[i] if i in kept else 0.0 for i in range(d)]


def merge_with_carried_trust(offers, cfg, trust, epsilon):
    """The merged values over range(d) by the direct method, and the uncut union.

    Every offered index earns epsilon per selection in trust (updated in
    place, capped at 1.0), then the whole union is sorted by (-trust, -|v|,
    index) and cut to the merged budget.
    """
    d = offers[0].w.dimension
    dense = merge_offers_reference(
        [(o.participant_id, [dict(o.w.items()).get(i, 0.0) for i in range(d)], o.err_count)
         for o in offers],
        conflict_key=conflict_key(offers, cfg).__getitem__,
    )
    union = [i for i in range(d) if dense[i] != 0.0]
    for i, count in Counter(i for o in offers for i in o.w.indices()).items():
        trust[i] = min(1.0, trust.get(i, FeatureTrust.INITIAL) + epsilon * count)
    ranked = sorted(union, key=lambda i: (-trust[i], -abs(dense[i]), i))
    kept = set(ranked[:cfg.merged_budget])
    return [dense[i] if i in kept else 0.0 for i in range(d)], {i: dense[i] for i in union}


def test_merges_across_rounds_match_a_reference_that_carries_trust():
    # One FeatureTrust over many rounds, against the direct method: every
    # offered index counted, then the whole union sorted by (-trust, -|v|,
    # index). Magnitudes come from a short list so the cut often breaks ties
    # on index.
    rng = random.Random(8080)
    seen = dict.fromkeys(("capped before", "capped during", "cut past uncapped",
                          "cut within uncapped", "never capped"), 0)
    for rule in (MIN_ERROR, MIN_UTILITY):
        for epsilon in (0.45, 0.2, 1e-6):
            for _ in range(12):
                d = rng.randint(2, 14)
                feature_trust, trust = FeatureTrust(epsilon), {}
                for _ in range(rng.randint(1, 30)):
                    n_offers = rng.randint(2, 4)
                    offers = []
                    for pid in range(n_offers):
                        support = rng.sample(range(d), rng.randint(0, d))
                        entries = {i: rng.choice((-1.0, -0.5, 0.25, 0.5, 1.0)) for i in support}
                        offers.append(offer(pid, entries, err=rng.randint(0, 3), d=d,
                                            cost_time=rng.choice([0.0, 0.5]),
                                            trust=rng.random(), instances=rng.choice([0, 10])))
                    cfg = ncfg(merged_budget=rng.randint(1, d), conflict_rule=rule)
                    merged, feature_trust = merge_multilateral(
                        reference_order(offers, conflict_key(offers, cfg)), feature_trust, cfg)

                    before = dict(trust)
                    expected, union = merge_with_carried_trust(offers, cfg, trust, epsilon)
                    assert [dict(merged.items()).get(i, 0.0) for i in range(d)] == expected
                    assert [feature_trust.value(i) for i in range(d)] == [
                        trust.get(i, FeatureTrust.INITIAL) for i in range(d)]

                    seen["capped before"] += any(before.get(i) == 1.0 for i in union)
                    seen["capped during"] += any(before.get(i, 0.0) < 1.0 and trust[i] == 1.0
                                                 for i in union)
                    excess = len(union) - cfg.merged_budget
                    uncapped = sum(trust[i] < 1.0 for i in union)
                    seen["cut past uncapped"] += excess > uncapped
                    seen["cut within uncapped"] += 0 < excess <= uncapped
                    seen["never capped"] += epsilon == 1e-6 and excess > 0
                    assert epsilon > 1e-6 or max(trust.values(), default=0.0) < 1.0
    assert all(seen.values()), seen


def test_a_cut_into_capped_features_matches_the_reference_on_ties():
    # Capped features all have trust 1.0, so a cut that reaches them ranks
    # them by magnitude alone: at one threshold when no tie straddles it,
    # by (|v|, -index) when one does. Epsilon 0.5 caps a feature after two
    # selections, and magnitudes drawn from three values tie often.
    rng = random.Random(3030)
    seen = {"threshold": 0, "tie": 0}
    for rule in (MIN_ERROR, MIN_UTILITY):
        for _ in range(30):
            d = rng.randint(4, 16)
            feature_trust, trust = FeatureTrust(0.5), {}
            for _ in range(rng.randint(2, 10)):
                offers = []
                for pid in range(rng.randint(2, 4)):
                    support = rng.sample(range(d), rng.randint(d // 2, d))
                    entries = {i: rng.choice((-2.0, -0.5, 0.5, 1.0)) for i in support}
                    offers.append(offer(pid, entries, err=rng.randint(0, 3), d=d,
                                        cost_time=rng.choice([0.0, 0.5]),
                                        trust=rng.random(), instances=10))
                cfg = ncfg(merged_budget=rng.randint(1, d // 2), conflict_rule=rule)
                merged, feature_trust = merge_multilateral(
                    reference_order(offers, conflict_key(offers, cfg)), feature_trust, cfg)

                expected, union = merge_with_carried_trust(offers, cfg, trust, 0.5)
                assert [dict(merged.items()).get(i, 0.0) for i in range(d)] == expected
                capped = sorted(abs(v) for i, v in union.items() if trust[i] == 1.0)
                cut = len(capped) - cfg.merged_budget
                if cut > 0:
                    seen["tie" if capped[cut - 1] == capped[cut] else "threshold"] += 1
    assert all(seen.values()), seen


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
    arow = Participant(2, Learner(LearnerConfig("AROW"), 6, 3))
    arow.learner.sigma[0] = 0.25
    participants.append(arow)
    merged = sv(6, {1: 0.7})
    broadcast(merged, participants)
    for p in participants:
        assert p.learner.w is merged
    assert arow.learner.sigma == {0: 0.25}


def test_broadcast_zero_vector_resets_models():
    participants = [petrun_participant(i, 6, 3) for i in range(2)]
    participants[0].learner.w = sv(6, {0: 1.0})
    broadcast(sv(6), participants)
    assert all(len(p.learner.w) == 0 for p in participants)


def test_over_budget_broadcast_retruncates_on_next_update():
    p = petrun_participant(0, 6, B=2)
    broadcast(sv(6, {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}), [p])
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
    transcript.on_trial(1, False, [], [], sv(6, {0: 3.0, 1: 4.0}))
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
        participants, stream, ncfg(t_max=1, merged_budget=2), NegotiationTranscript()
    )
    assert len(metrics) == 1
    kinds = [m.kind for m in transcript.messages]
    assert kinds.count(MessageKind.CFP) == 1
    assert kinds.count(MessageKind.INFORM) == 1


def test_rounds_start_with_cfp_and_end_with_inform_or_abort():
    participants = [petrun_participant(i, 5, 2, seed=i) for i in range(3)]
    stream = build_stream(2, 5, 30)
    _, transcript, _ = run_negotiation(participants, stream,
                                       ncfg(t_max=4, merged_budget=5), NegotiationTranscript())
    for round_messages in by_round(transcript).values():
        assert round_messages[0].kind == MessageKind.CFP
        assert round_messages[-1].kind == MessageKind.INFORM


def test_n2_reduces_to_bilateral_merge_each_trial():
    d = 5
    participants = [petrun_participant(i, d, 2, seed=i) for i in range(2)]
    stream = build_stream(3, d, 20)
    merged, spy, _ = run_negotiation(
        participants, stream, ncfg(t_max=4, merged_budget=d), MergeSpy()
    )
    merges = spy.merges
    assert len(merges) == 4
    for offers, accepted, round_merged in merges:
        errors = {o.participant_id: o.err_count for o in offers}
        assert len(offers) == 2 and accepted == reference_order(offers, errors)
        expected = merge_offers_reference(
            [(o.participant_id, [dict(o.w.items()).get(i, 0.0) for i in range(d)], o.err_count) for o in offers],
            conflict_key=errors.__getitem__,
        )
        assert [dict(round_merged.items()).get(i, 0.0) for i in range(d)] == expected
    assert merged == merges[-1][2]


def test_three_petrun_trace_matches_independent_simulation():
    # chunks of 3 over a 9-instance stream; heterogeneous budgets make the
    # three offers differ; the reference loop below re-derives every round
    # with dense arithmetic.
    d = 3
    stream = build_stream(9, d, 9, max_nnz=3)
    budgets = [1, 2, 3]
    participants = [petrun_participant(i, d, budgets[i]) for i in range(3)]
    merged, transcript, metrics = run_negotiation(
        participants, stream, ncfg(t_max=3, merged_budget=d), NegotiationTranscript()
    )
    assert len(by_round(transcript)) == 3

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
                xs = [dict(x.items()).get(i, 0.0) for i in range(d)]
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

    assert [dict(merged.items()).get(i, 0.0) for i in range(d)] == pytest.approx(merged_ref, abs=1e-12)
    assert [p.learner.mistakes for p in participants] == errors


def test_short_stream_flags_stale_rounds():
    participants = [petrun_participant(i, 4, 2, seed=i) for i in range(2)]
    stream = build_stream(5, 4, 2)
    merged, transcript, metrics = run_negotiation(
        participants, stream, ncfg(t_max=5, merged_budget=4), NegotiationTranscript()
    )
    stale_rounds = [m for m in metrics if m.chunk_size == 0]
    assert len(stale_rounds) == 3  # ceil(2/5) = 1 per chunk, data gone after 2
    stale_cfps = [m for m in transcript.messages
                  if m.kind == MessageKind.CFP and m.detail == "stale"]
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
            participants, stream, ncfg(t_max=4, merged_budget=3), NegotiationTranscript()
        )
        outcomes.append((merged, transcript.serialize(), transcript.messages))
    assert outcomes[0] == outcomes[1]


def test_transcript_is_recorded_only_when_passed():
    stream = build_stream(11, 6, 24)
    runs = []
    for transcript in (None, NegotiationTranscript()):
        participants = [petrun_participant(i, 6, 2, seed=i) for i in range(3)]
        cfg = ncfg(t_max=4, merged_budget=3, conflict_rule=MIN_UTILITY)
        merged, returned, metrics = run_negotiation(participants, stream, cfg, transcript)
        assert returned is transcript
        runs.append((merged, metrics))
    assert runs[0] == runs[1]
    assert len(transcript) == 4 * (1 + 3 + 3 + 1)  # CFP, PROPOSEs, decisions, INFORM


def test_score_chunk_counts_mistakes_and_refreshes_trust():
    p = petrun_participant(0, 3, 2)
    chunk = [(sv(3, {0: 1.0}), 1), (sv(3, {0: 1.0}), 1), (sv(3, {1: 1.0}), -1)]
    params = TrustParams(c=0.4, threshold=0.3)
    settings = TrialSettings(trust_params=params, measure_time=False)
    # zero model: first +1 is a mistake, the second is now right, -1 is right
    score_chunk(p, chunk, settings)
    state = p.trust_state
    assert p.learner.mistakes == 1
    assert state == update_trust(TrustState(), 2 / 3, params)
    assert p.learner.instances == 3
    # An empty chunk leaves the participant untouched, timed or not.
    for measure_time in (False, True):
        score_chunk(p, [], TrialSettings(trust_params=params, measure_time=measure_time))
    assert (p.learner.mistakes, p.learner.instances, p.trust_state) == (1, 3, state)
    assert p.cost_time == 0.0


@given(n=st.integers(0, 60), data=st.data())
def test_trial_chunks_are_t_max_slices_that_rebuild_the_stream(n, data):
    t_max = data.draw(st.integers(1, max(1, 3 * n)), label="t_max")
    stream = list(range(n))
    chunks = list(_trial_chunks(stream, t_max))
    assert len(chunks) == t_max
    assert [i for chunk in chunks for i in chunk] == stream
    # The old calibration windows, then only empty chunks.
    window = max(1, math.ceil(n / t_max))
    windows = [stream[start:start + window] for start in range(0, n, window)]
    assert chunks[:len(windows)] == windows
    assert not any(chunks[len(windows):])


def test_min_utility_round_accepts_by_pressure_threshold():
    # under min-utility early rounds reject expensive offers but always keep
    # at least the two cheapest so every trial still concludes
    participants = [petrun_participant(i, 4, 2, seed=i) for i in range(3)]
    stream = build_stream(12, 4, 30)
    merged, transcript, metrics = run_negotiation(
        participants, stream,
        ncfg(t_max=3, merged_budget=4, conflict_rule=MIN_UTILITY), NegotiationTranscript(),
    )
    for round_messages in by_round(transcript).values():
        accepted = [m for m in round_messages
                    if m.kind == MessageKind.ACCEPT and m.sender == INITIATOR]
        assert len(accepted) >= 2


def test_each_min_utility_round_costs_its_offers_once(monkeypatch):
    # The trial ranks the offers it merges by the acceptance's costs, scored
    # over all of the round's offers, whether it merges every offer or only some.
    calls = []
    real = offer_costs
    monkeypatch.setattr("negofs.negotiation.offer_costs",
                        lambda offers, weights: calls.append(len(offers)) or real(offers, weights))
    participants = [Participant(i, Learner(LearnerConfig(v), 4, 2, seed=i))
                    for i, v in enumerate(("PETRUN", "OGD", "AROW"))]
    _, spy, _ = run_negotiation(participants, build_stream(0, 4, 30),
                                ncfg(t_max=4, merged_budget=4, conflict_rule=MIN_UTILITY),
                                MergeSpy())
    shapes = [(len(offers), len(accepted)) for offers, accepted, _ in spy.merges]
    assert shapes == [(3, 2), (3, 2), (3, 3), (3, 3)]  # both kinds of round
    assert calls == [3, 3, 3, 3]


def test_a_rejected_offer_still_sets_the_range_conflicts_rank_in(monkeypatch):
    # At threshold 0.5, over all three offers the costs are A 0.0825, B 0.1
    # and C 0.7: C is rejected and A wins feature 0. Scored again over {A, B}
    # alone, A would cost 0.52 and B would win.
    a = offer(0, {0: 1.0}, err=3, d=2, trust=0.9, instances=10)
    b = offer(1, {0: -2.0}, err=2, d=2, trust=0.5, instances=10)
    c = offer(2, {0: 3.0, 1: 1.0}, err=10, d=2, trust=0.0, instances=10)
    monkeypatch.setattr("negofs.negotiation.call_for_proposals", lambda participants: [a, b, c])
    participants = [petrun_participant(i, 2, 2) for i in range(3)]
    cfg = ncfg(t_max=2, merged_budget=2, conflict_rule=MIN_UTILITY)
    assert acceptance_threshold(1, 2) == 0.5
    _, spy, _ = run_negotiation(participants, build_stream(0, 2, 2), cfg, MergeSpy())
    offers, accepted, merged = spy.merges[0]
    assert offers == [a, b, c] and accepted == [a, b]
    assert merged == sv(2, {0: 1.0})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_min_utility_rounds_merge_exactly_the_accepted_offers(data):
    d = data.draw(st.integers(1, 8), label="d")
    n = data.draw(st.integers(1, 30), label="n")
    stream = build_stream(data.draw(st.integers(0, 2 ** 16), label="stream"), d, n,
                          max_nnz=min(3, d))
    variants = data.draw(st.lists(st.sampled_from(VARIANTS), min_size=2, max_size=5),
                         label="variants")
    participants = [
        Participant(i, Learner(LearnerConfig(v), d,
                               data.draw(st.integers(1, d), label=f"B{i}"), seed=i))
        for i, v in enumerate(variants)
    ]
    cfg = ncfg(t_max=data.draw(st.integers(1, 2 * n), label="t_max"),
               merged_budget=data.draw(st.integers(1, d), label="merged_budget"),
               conflict_rule=MIN_UTILITY)
    _, transcript, _ = run_negotiation(participants, stream, cfg, MergeSpy())
    merges = transcript.merges

    rounds = by_round(transcript)
    assert sorted(rounds) == list(range(1, cfg.t_max + 1)) and len(merges) == cfg.t_max
    feature_trust = FeatureTrust(1.0 / len(participants))  # the default epsilon
    for (r, messages), (offers, merge_set, merged) in zip(sorted(rounds.items()), merges):
        # The merged vector is the merge of the accepted offers in the order
        # the observer sees, with trust carried over.
        costs = offer_costs(offers, cfg.issue_weights)
        expected_merged, feature_trust = merge_multilateral(merge_set, feature_trust, cfg)
        assert merged == expected_merged
        decisions = [m for m in messages if m.kind in (MessageKind.ACCEPT, MessageKind.REJECT)]
        assert sorted(int(m.receiver) for m in decisions) == list(range(len(participants)))
        accepted = [int(m.receiver) for m in decisions if m.kind == MessageKind.ACCEPT]
        assert len(accepted) >= 2
        assert sorted(o.participant_id for o in merge_set) == sorted(accepted)
        assert all(o in offers for o in merge_set)
        # The accept rule, from the offers alone: every offer within the
        # threshold the concession tactic sets, or else the two cheapest,
        # merged cheapest first by the costs over all offers.
        threshold = concession_threshold_reference(float(r), float(cfg.t_max))
        expected = [o.participant_id for o in offers if costs[o.participant_id] <= threshold]
        if len(expected) < 2:
            expected = sorted(costs, key=lambda pid: (costs[pid], pid))[:2]
        assert [o.participant_id for o in merge_set] == sorted(
            expected, key=lambda pid: (costs[pid], pid))
        assert len(merged) <= cfg.merged_budget
        inform = messages[-1]
        assert inform.kind == MessageKind.INFORM
        assert inform.detail == f"{len(merged)};{merged.norm_l2():.6f}"


def test_empty_stream_rejected():
    participants = [petrun_participant(i, 4, 2) for i in range(2)]
    with pytest.raises(ValueError):
        run_negotiation(participants, [], ncfg())


def test_one_participant_rejected():
    stream = [(sv(4, {0: 1.0}), 1)] * 3
    with pytest.raises(ValueError, match="^a negotiation needs at least 2 participants$"):
        run_negotiation([petrun_participant(0, 4, 2)], stream, ncfg(merged_budget=4))


def test_repeated_participant_ids_rejected():
    # Mistakes and min-utility offer costs are keyed by id: a repeat would merge two participants.
    participants = [petrun_participant(pid, 4, 2) for pid in (0, 0, 2)]
    stream = [(sv(4, {0: 1.0}), 1)] * 3
    with pytest.raises(ValueError, match=r"participant ids must be distinct, got \[0, 0, 2\]"):
        run_negotiation(participants, stream, ncfg(merged_budget=4))
