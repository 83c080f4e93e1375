import math
import random

import pytest

from negofs.data import Dataset, SyntheticSpec, budget, generate_synthetic, permute, stream_of
from negofs.learners import Learner, LearnerConfig
from negofs.negotiation import MIN_UTILITY, NegotiationConfig, Participant, run_negotiation
from negofs.sparse import SparseVector
from negofs.system import (
    SystemConfig,
    build_learners,
    calibrate,
    elect_trustful,
    evaluate_holdout,
    run_moanofs,
)
from negofs.trust import TrustParams, TrustState


def sv(d, entries=()):
    return SparseVector(d, entries)


def states(*sats):
    return {i: TrustState(sat=s, n=1) for i, s in enumerate(sats)}


def small_dataset(seed=0, d=20, n=200, relevant=4, noise=0.02, density=0.3):
    spec = SyntheticSpec(d=d, n_samples=n, n_relevant=relevant, density=density,
                         label_noise=noise, seed=seed)
    return generate_synthetic(spec)


def roster(*variants, **kwargs):
    kwargs.setdefault("measure_time", False)
    return [LearnerConfig(v, **kwargs) for v in variants]


# -- elect_trustful ------------------------------------------------------------

def test_elect_top_two_by_trust():
    elected = elect_trustful(states(0.9, 0.3, 0.7), {0: 0, 1: 0, 2: 0},
                             {0: 0.0, 1: 0.0, 2: 0.0}, k=2)
    assert elected == [0, 2]


def test_elect_tie_break_chain():
    elected = elect_trustful(states(0.5, 0.5, 0.5), {0: 5, 1: 2, 2: 9},
                             {0: 0.0, 1: 0.0, 2: 0.0}, k=2)
    assert elected == [1, 0]


def test_elect_time_then_id_break_ties():
    elected = elect_trustful(states(0.5, 0.5, 0.5), {0: 1, 1: 1, 2: 1},
                             {0: 2.0, 1: 1.0, 2: 2.0}, k=2)
    assert elected == [1, 0]


def test_elect_all_when_k_equals_n():
    elected = elect_trustful(states(0.1, 0.9, 0.4), {0: 0, 1: 0, 2: 0},
                             {0: 0.0, 1: 0.0, 2: 0.0}, k=3)
    assert set(elected) == {0, 1, 2}


def test_elect_rejects_k_above_n():
    with pytest.raises(ValueError):
        elect_trustful(states(0.5), {0: 0}, {0: 0.0}, k=2)


# -- config validation -----------------------------------------------------------

def test_system_config_bounds():
    with pytest.raises(ValueError):
        SystemConfig(roster=roster("PETRUN"), k=2)
    with pytest.raises(ValueError):
        SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=1)
    with pytest.raises(ValueError):
        SystemConfig(roster=roster("PETRUN", "OGD"), k=2, budget_fraction=0.0)
    with pytest.raises(ValueError):
        SystemConfig(roster=roster("PETRUN", "OGD"), k=2, calibration_fraction=1.0)


def test_dataset_too_small_rejected():
    ds = Dataset("tiny", 4, [(sv(4, {0: 1.0}), 1)] * 5)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD"), k=2, budget_fraction=0.5)
    with pytest.raises(ValueError, match="at least 10"):
        run_moanofs(ds, cfg)


# -- calibration and election end to end ----------------------------------------------

def test_label_flipped_learner_gets_lowest_trust_and_loses_election():
    # the adversarial learner trains on flipped labels; satisfaction is still
    # scored against the truth, so its trust recurrence sinks
    ds, _ = small_dataset(seed=6, noise=0.0, d=16, relevant=3, density=0.4, n=200)
    stream = stream_of(ds, permute(ds, 1))[:160]
    params = TrustParams()
    window = 16

    clean = [Learner(LearnerConfig("PETRUN", B=6, measure_time=False), ds.dimension)
             for _ in range(2)]
    clean_states = calibrate(clean, stream, params, window=window)

    from negofs.trust import update_trust
    flipped = Learner(LearnerConfig("PETRUN", B=6, measure_time=False), ds.dimension)
    flipped_state = TrustState()
    correct = 0
    for i, (x, y) in enumerate(stream, 1):
        pred = flipped.predict(x)
        correct += pred.sign == y
        flipped.update(x, -y, margin=pred.margin)
        if i % window == 0:
            flipped_state = update_trust(flipped_state, correct / window, params)
            correct = 0

    trusts = {0: clean_states[0], 1: clean_states[1], 2: flipped_state}
    assert trusts[2].sat < min(trusts[0].sat, trusts[1].sat)
    mistakes = {0: clean[0].mistakes, 1: clean[1].mistakes, 2: flipped.mistakes}
    times = {i: 0.0 for i in range(3)}
    assert 2 not in elect_trustful(trusts, mistakes, times, k=2)


def test_noise_learner_never_displaces_clean_ones():
    # adding a pure-noise learner must not push a noise-free learner out of
    # the elected set, across 20 seeded repetitions
    for rep in range(20):
        ds, _ = small_dataset(seed=rep, noise=0.0, d=16, relevant=3,
                              density=0.4, n=320)
        stream = stream_of(ds, permute(ds, rep))[:160]
        rng = random.Random(rep * 13 + 1)
        noise_stream = [(x, rng.choice((-1, 1))) for x, _ in stream]
        params = TrustParams()

        clean = [Learner(LearnerConfig(v, B=6, measure_time=False), ds.dimension)
                 for v in ("PETRUN", "OGD", "PA")]
        noisy = Learner(LearnerConfig("PETRUN", B=6, measure_time=False), ds.dimension)
        clean_states = calibrate(clean, stream, params, window=16)
        noisy_states = calibrate([noisy], noise_stream, params, window=16)

        trusts = dict(enumerate(clean_states))
        trusts[3] = noisy_states[0]
        mistakes = {i: lrn.mistakes for i, lrn in enumerate(clean)}
        mistakes[3] = noisy.mistakes
        times = {i: 0.0 for i in range(4)}
        assert 3 not in elect_trustful(trusts, mistakes, times, k=3), f"rep {rep}"


# -- run_moanofs -------------------------------------------------------------------------

def test_k_equals_n_is_passthrough_to_manofs():
    ds, _ = small_dataset(seed=2)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=3, t_max=4, seed=9)
    moanofs = run_moanofs(ds, cfg)
    participants = [Participant(i, learner, TrustState())
                    for i, learner in enumerate(build_learners(cfg, ds.dimension))]
    merged, transcript, trials = run_negotiation(
        participants, stream_of(ds, permute(ds, cfg.seed)),
        NegotiationConfig(t_max=cfg.t_max,
                          merged_budget=budget(ds.dimension, cfg.budget_fraction)),
    )
    assert moanofs.merged == merged
    assert moanofs.system_mistakes == sum(t.system_mistakes for t in trials)
    assert moanofs.transcript.serialize() == transcript.serialize()
    assert moanofs.calibration_instances == 0
    assert moanofs.elected == [0, 1, 2]


def test_identical_petrun_roster_equals_single_learner():
    ds, _ = small_dataset(seed=3)
    cfg = SystemConfig(roster=roster("PETRUN", "PETRUN", "PETRUN"), k=3,
                       t_max=4, seed=5)
    report = run_moanofs(ds, cfg)
    single = Learner(LearnerConfig("PETRUN", B=report.B, measure_time=False),
                     ds.dimension)
    for x, y in stream_of(ds, permute(ds, 5)):
        single.step(x, y)
    assert report.merged == single.w
    assert all(lr.mistakes == single.mistakes for lr in report.per_learner)


def test_level_separation_and_instance_accounting():
    ds, _ = small_dataset(seed=4, n=300)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=2, t_max=5,
                       calibration_fraction=0.2, seed=7)
    report = run_moanofs(ds, cfg)
    assert report.calibration_instances == 60
    assert report.system_instances == 240
    assert report.calibration_instances + report.system_instances == len(ds)
    # non-elected learners stop after calibration
    for lr in report.per_learner:
        if not lr.elected:
            assert lr.instances == report.calibration_instances
        else:
            assert lr.instances == len(ds)


def test_final_merged_respects_budget():
    ds, _ = small_dataset(seed=8, d=30)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA", "AROW"), k=3,
                       t_max=5, seed=3)
    report = run_moanofs(ds, cfg)
    assert len(report.merged) <= report.B


def test_election_deterministic_across_runs():
    ds, _ = small_dataset(seed=9)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA", "AROW"), k=2,
                       t_max=4, seed=13)
    first = run_moanofs(ds, cfg)
    second = run_moanofs(ds, cfg)
    assert first.elected == second.elected
    assert first.merged == second.merged
    assert first.system_mistakes == second.system_mistakes


def test_min_utility_rule_is_recorded_and_runs():
    ds, _ = small_dataset(seed=10)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=2, t_max=4,
                       conflict_rule=MIN_UTILITY, seed=3)
    report = run_moanofs(ds, cfg)
    assert report.conflict_rule == MIN_UTILITY
    assert len(report.merged) <= report.B


def test_moanofs_trust_feeds_offers():
    ds, _ = small_dataset(seed=11)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=2, t_max=4, seed=2)
    report = run_moanofs(ds, cfg)
    elected_reports = [lr for lr in report.per_learner if lr.elected]
    assert all(0.0 <= lr.trust <= 1.0 for lr in report.per_learner)
    # elected learners kept accumulating trust during negotiation
    assert all(lr.trust > 0.0 for lr in elected_reports)


# -- evaluate_holdout -----------------------------------------------------------------------

def test_holdout_zero_error_for_planted_model():
    ds, planted = small_dataset(seed=12, noise=0.0)
    rng = random.Random(12)
    order = sorted(rng.sample(range(ds.dimension), 4))
    w_star = sv(ds.dimension, {i: float(rng.choice((-1, 1))) for i in order})
    assert evaluate_holdout(w_star, ds.instances) == 0.0


def test_holdout_zero_model_scores_positive_fraction():
    ds, _ = small_dataset(seed=13)
    rate = evaluate_holdout(sv(ds.dimension), ds.instances)
    positives = sum(1 for _, y in ds.instances if y == 1)
    assert rate == positives / len(ds)


def test_holdout_random_weights_near_half():
    rng = random.Random(123)
    d = 50
    w = sv(d, {i: rng.gauss(0, 1) for i in rng.sample(range(d), 10)})
    holdout = []
    for _ in range(10_000):
        idx = rng.sample(range(d), 5)
        x = sv(d, {i: rng.gauss(0, 1) for i in idx})
        holdout.append((x, rng.choice((-1, 1))))
    assert abs(evaluate_holdout(w, holdout) - 0.5) <= 0.05


def test_holdout_requires_instances():
    with pytest.raises(ValueError):
        evaluate_holdout(sv(3), [])
