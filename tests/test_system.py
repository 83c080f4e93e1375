import hashlib
import math
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_moanofs
from negofs import system
from negofs.data import Dataset, SyntheticSpec, budget, generate_synthetic, permute, stream_of
from negofs.learners import VARIANTS, Learner, LearnerConfig, sign_of
from negofs.negotiation import (
    MIN_ERROR,
    MIN_UTILITY,
    NegotiationConfig,
    NegotiationTranscript,
    Participant,
    TrialSettings,
    run_negotiation,
)
from negofs.sparse import SparseVector, dot
from negofs.system import (
    SystemConfig,
    build_learners,
    calibrate,
    elect_trustful,
    run_moanofs,
    run_single,
)
from negofs.trust import TrustParams, TrustState, update_trust
from negofs.utility import IssueWeightProfile


def sv(d, entries=()):
    return SparseVector(d, entries)


def candidates(*sats, mistakes=None, times=None):
    """Participants with the given trust values, mistake counts and cost times."""
    out = []
    for i, sat in enumerate(sats):
        learner = Learner(LearnerConfig("PETRUN"), 3, 1)
        learner.mistakes = mistakes[i] if mistakes else 0
        out.append(Participant(i, learner, TrustState(sat=sat, n=1)))
        out[-1].cost_time = times[i] if times else 0.0
    return out


def ids(participants):
    return [p.id for p in participants]


def participant(pid, d, variant="PETRUN"):
    return Participant(pid, Learner(LearnerConfig(variant), d, 6))


def small_dataset(seed=0, d=20, n=200, relevant=4, noise=0.02, density=0.3):
    spec = SyntheticSpec(d=d, n_samples=n, n_relevant=relevant, density=density,
                         label_noise=noise, seed=seed)
    return generate_synthetic(spec)


def roster(*variants, **kwargs):
    return [LearnerConfig(v, **kwargs) for v in variants]


# -- elect_trustful ------------------------------------------------------------

def test_elect_top_two_by_trust():
    assert ids(elect_trustful(candidates(0.9, 0.3, 0.7), k=2)) == [0, 2]


def test_elect_tie_break_chain():
    elected = elect_trustful(candidates(0.5, 0.5, 0.5, mistakes=(5, 2, 9)), k=2)
    assert ids(elected) == [1, 0]


def test_elect_unequal_times_leave_id_order():
    # Measured time never decides the election: equal trust and mistakes fall to the id.
    elected = elect_trustful(
        candidates(0.5, 0.5, 0.5, mistakes=(1, 1, 1), times=(2.0, 1.0, 2.0)), k=2)
    assert ids(elected) == [0, 1]


def test_elect_all_when_k_equals_n():
    assert set(ids(elect_trustful(candidates(0.1, 0.9, 0.4), k=3))) == {0, 1, 2}


def test_elect_rejects_k_above_n():
    with pytest.raises(ValueError):
        elect_trustful(candidates(0.5), k=2)


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


@pytest.mark.parametrize("setting, message", [
    ({"k": 2.0}, "k must be an int, got 2.0"),
    ({"seed": 1.0}, "seed must be an int, got 1.0"),
    ({"budget_fraction": True}, "budget_fraction must be a real, got True"),
    ({"calibration_fraction": False}, "calibration_fraction must be a real, got False"),
], ids=["float-k", "float-seed", "bool-budget_fraction", "bool-calibration_fraction"])
def test_system_config_rejects_a_field_of_the_wrong_type(setting, message):
    # k = 2.0 failed inside the election, and the bools were taken as 1 or 0.
    # The trial settings' cases are in test_negotiation.py, for both configs.
    with pytest.raises(ValueError) as err:
        SystemConfig(roster=roster("PETRUN", "OGD"), **{"k": 2, **setting})
    assert str(err.value) == message


def test_dataset_too_small_rejected():
    ds = Dataset("tiny", 4, [(sv(4, {0: 1.0}), 1)] * 5)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD"), k=2, budget_fraction=0.5)
    with pytest.raises(ValueError, match="at least 10"):
        run_moanofs(ds, cfg)


def test_run_moanofs_passes_every_trial_setting_through(monkeypatch):
    chosen = {"t_max": 4, "epsilon": 0.25, "conflict_rule": MIN_UTILITY,
              "issue_weights": IssueWeightProfile(0.5, 0.25, 0.25),
              "trust_params": TrustParams(c=0.4, threshold=0.3), "measure_time": False}
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=2, budget_fraction=0.3,
                       **chosen)
    seen = []

    def spy(participants, stream, ncfg, observer=None):
        seen.append(ncfg)
        return run_negotiation(participants, stream, ncfg, observer)

    monkeypatch.setattr(system, "run_negotiation", spy)
    ds, _ = small_dataset(seed=4)
    run_moanofs(ds, cfg)
    (ncfg,) = seen
    defaults = TrialSettings()
    for f in fields(TrialSettings):  # a new setting fails here until the test gives it a value
        assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name
        assert getattr(ncfg, f.name) == getattr(cfg, f.name), f.name
    assert ncfg.merged_budget == budget(ds.dimension, cfg.budget_fraction)


# -- calibration and election end to end ----------------------------------------------

def test_label_flipped_learner_gets_lowest_trust_and_loses_election():
    # the adversarial learner trains on flipped labels; satisfaction is still
    # scored against the truth, so its trust recurrence sinks
    ds, _ = small_dataset(seed=6, noise=0.0, d=16, relevant=3, density=0.4, n=200)
    stream = stream_of(ds, permute(ds, 1))[:160]
    params = TrustParams()
    window = 16  # 160 instances in 10 chunks

    clean = [participant(i, ds.dimension) for i in range(2)]
    calibrate(clean, stream, TrialSettings(t_max=10, trust_params=params))

    flipped = Learner(LearnerConfig("PETRUN"), ds.dimension, 6)
    flipped_state = TrustState()
    correct = 0
    for i, (x, y) in enumerate(stream, 1):
        correct += sign_of(dot(flipped.w, x)) == y
        flipped.step(x, -y)
        if i % window == 0:
            flipped_state = update_trust(flipped_state, correct / window, params)
            correct = 0

    assert flipped_state.sat < min(p.trust_state.sat for p in clean)
    everyone = clean + [Participant(2, flipped, flipped_state)]
    assert 2 not in ids(elect_trustful(everyone, k=2))


def test_noise_learner_never_displaces_clean_ones():
    # adding a pure-noise learner must not push a noise-free learner out of
    # the elected set, across 20 seeded repetitions
    for rep in range(20):
        ds, _ = small_dataset(seed=rep, noise=0.0, d=16, relevant=3,
                              density=0.4, n=320)
        stream = stream_of(ds, permute(ds, rep))[:160]
        rng = random.Random(rep * 13 + 1)
        noise_stream = [(x, rng.choice((-1, 1))) for x, _ in stream]
        cfg = TrialSettings(t_max=10)  # 160 instances in chunks of 16

        clean = [participant(i, ds.dimension, v) for i, v in enumerate(("PETRUN", "OGD", "PA"))]
        noisy = participant(3, ds.dimension)
        calibrate(clean, stream, cfg)
        calibrate([noisy], noise_stream, cfg)
        assert 3 not in ids(elect_trustful(clean + [noisy], k=3)), f"rep {rep}"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 60), data=st.data())
def test_calibrate_scores_the_old_windows(n, data):
    # Calibration used to step each learner in turn through windows of
    # max(1, ceil(n / t_max)); level 2's chunks are those windows, then empty ones.
    t_max = data.draw(st.integers(1, max(1, 3 * n)), label="t_max")
    variants = data.draw(st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=3),
                         label="variants")
    params = TrustParams(c=0.4, threshold=0.3)
    d, rng = 5, random.Random(data.draw(st.integers(0, 2 ** 16), label="seed"))
    stream = [(sv(d, {i: rng.choice((-1.0, 0.5, 2.0)) for i in rng.sample(range(d), 2)}),
               rng.choice((-1, 1))) for _ in range(n)]

    def fresh():
        return [Participant(i, Learner(LearnerConfig(v), d, 2, seed=i))
                for i, v in enumerate(variants)]

    calibrated, by_hand = fresh(), fresh()
    calibrate(calibrated, stream, TrialSettings(t_max=t_max, trust_params=params,
                                                measure_time=False))
    window = max(1, math.ceil(n / t_max))
    for p in by_hand:
        for start in range(0, n, window):
            chunk = stream[start:start + window]
            before = p.learner.mistakes
            for x, y in chunk:
                p.learner.step(x, y)
            correct = len(chunk) - (p.learner.mistakes - before)
            p.trust_state = update_trust(p.trust_state, correct / len(chunk), params)

    for p, q in zip(calibrated, by_hand):
        assert learner_state(p.learner) == learner_state(q.learner)
        assert p.trust_state == q.trust_state
        assert p.cost_time == q.cost_time == 0.0


# -- run_moanofs -------------------------------------------------------------------------

def test_k_equals_n_is_passthrough_to_manofs():
    ds, _ = small_dataset(seed=2)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=3, t_max=4, seed=9,
                       measure_time=False)
    recorded = NegotiationTranscript()
    moanofs = run_moanofs(ds, cfg, recorded)
    participants = [Participant(i, learner, TrustState())
                    for i, learner in enumerate(build_learners(cfg, ds.dimension))]
    merged, transcript, trials = run_negotiation(
        participants, stream_of(ds, permute(ds, cfg.seed)),
        NegotiationConfig(t_max=cfg.t_max,
                          merged_budget=budget(ds.dimension, cfg.budget_fraction),
                          measure_time=False),
        NegotiationTranscript(),
    )
    assert moanofs.merged == merged
    assert moanofs.system_mistakes == sum(t.system_mistakes for t in trials)
    assert recorded.serialize() == transcript.serialize()
    assert moanofs.calibration_instances == 0
    assert moanofs.elected == [0, 1, 2]


def learner_state(learner):
    """Everything a learner carries from one instance to the next."""
    return {k: v.getstate() if k == "rng" else v
            for k, v in vars(learner).items() if k != "_update_variant"}


@pytest.mark.parametrize("k, rule", [(2, MIN_UTILITY), (4, MIN_ERROR)])
def test_an_observer_changes_nothing(monkeypatch, k, rule):
    ds, _ = small_dataset(seed=12)
    cfg = SystemConfig(roster=roster("PETRUN", "RAND", "OGD", "AROW"), k=k, t_max=7,
                       conflict_rule=rule, seed=4, measure_time=False)
    built = []
    real_build = system.build_learners
    monkeypatch.setattr(system, "build_learners",
                        lambda *args: built.append(real_build(*args)) or built[-1])

    class Recorder:
        """An arbitrary observer: keeps its arguments and who holds the merged vector."""

        def __init__(self):
            self.trials, self.holders = [], []

        def on_trial(self, round_index, stale, offers, accepted, merged):
            self.trials.append((round_index, stale, list(offers), list(accepted), merged))
            self.holders.append([i for i, lr in enumerate(built[-1]) if lr.w is merged])

    recorder = Recorder()
    reports = [run_moanofs(ds, cfg, observer)
               for observer in (None, NegotiationTranscript(), recorder)]
    assert reports[0] == reports[1] == reports[2]
    states = [[learner_state(lr) for lr in learners] for learners in built]
    assert states[0] == states[1] == states[2]

    report = reports[0]
    assert [t[0] for t in recorder.trials] == list(range(1, cfg.t_max + 1))
    assert [t[1] for t in recorder.trials] == [t.chunk_size == 0 for t in report.trials]
    assert recorder.holders == [sorted(report.elected)] * cfg.t_max
    assert recorder.trials[-1][4] == report.merged
    # Each round's merged vector is what the next round predicts with.
    level2 = stream_of(ds, permute(ds, cfg.seed))[report.calibration_instances:]
    size = math.ceil(len(level2) / cfg.t_max)
    starts = [sv(ds.dimension)] + [t[4] for t in recorder.trials[:-1]]
    for r, (start, trial) in enumerate(zip(starts, report.trials)):
        chunk = level2[r * size:(r + 1) * size]
        assert trial.system_mistakes == sum((1 if dot(start, x) > 0 else -1) != y
                                            for x, y in chunk)
        assert trial.merged_support == len(recorder.trials[r][4])


def test_identical_petrun_roster_equals_single_learner():
    ds, _ = small_dataset(seed=3)
    cfg = SystemConfig(roster=roster("PETRUN", "PETRUN", "PETRUN"), k=3,
                       t_max=4, seed=5, measure_time=False)
    report = run_moanofs(ds, cfg)
    single = Learner(LearnerConfig("PETRUN"), ds.dimension, report.B)
    for x, y in stream_of(ds, permute(ds, 5)):
        single.step(x, y)
    assert report.merged == single.w
    assert all(lr.mistakes == single.mistakes for lr in report.per_learner)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_single_steps_as_the_plain_loop(variant):
    # The reference is the loop a single run once was: one learner, seeded
    # with the run seed, stepped over the whole permuted stream.
    ds, _ = small_dataset(seed=6, n=45)
    n, seed = len(ds), 9
    B = budget(ds.dimension, 0.3)
    for t_max in (1, 3, n, n + 7):
        cfg = SystemConfig(roster=roster("PETRUN", "OGD"), k=2, t_max=t_max, seed=seed,
                           budget_fraction=0.3, measure_time=False)
        report = run_single(ds, LearnerConfig(variant), cfg)
        learner = Learner(LearnerConfig(variant), ds.dimension, B, seed=seed)
        for x, y in stream_of(ds, permute(ds, seed)):
            learner.step(x, y)
        assert learner.mistakes > 0
        assert report.B == B
        assert (report.system_mistakes, report.system_instances) == (
            learner.mistakes, learner.instances)
        assert report.merged == learner.w
        assert [(lr.mistakes, lr.instances) for lr in report.per_learner] == [
            (learner.mistakes, n)]
        assert sum(t.chunk_size for t in report.trials) == n
        assert sum(t.system_mistakes for t in report.trials) == report.system_mistakes
        assert all(t.chunk_size > 0 for t in report.trials)
        assert len(report.trials) == math.ceil(n / math.ceil(n / t_max))
        assert report.trials[-1].merged_support == len(learner.w)


def test_level_separation_and_instance_accounting():
    ds, _ = small_dataset(seed=4, n=300)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=2, t_max=5,
                       calibration_fraction=0.2, seed=7, measure_time=False)
    report = run_moanofs(ds, cfg)
    assert report.calibration_instances == 60
    assert report.system_instances == 240
    assert report.calibration_instances + report.system_instances == len(ds)
    # non-elected learners stop after calibration
    for lr in report.per_learner:
        if lr.learner_id not in report.elected:
            assert lr.instances == report.calibration_instances
        else:
            assert lr.instances == len(ds)


def test_final_merged_respects_budget():
    ds, _ = small_dataset(seed=8, d=30)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA", "AROW"), k=3,
                       t_max=5, seed=3, measure_time=False)
    report = run_moanofs(ds, cfg)
    assert len(report.merged) <= report.B


def test_election_deterministic_across_runs():
    ds, _ = small_dataset(seed=9)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA", "AROW"), k=2,
                       t_max=4, seed=13, measure_time=False)
    first = run_moanofs(ds, cfg)
    second = run_moanofs(ds, cfg)
    assert first.elected == second.elected
    assert first.merged == second.merged
    assert first.system_mistakes == second.system_mistakes


def test_min_utility_rule_is_recorded_and_runs():
    ds, _ = small_dataset(seed=10)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=2, t_max=4,
                       conflict_rule=MIN_UTILITY, seed=3, measure_time=False)
    report = run_moanofs(ds, cfg)
    assert len(report.merged) <= report.B


def test_min_utility_transcript_bytes_are_pinned():
    # One min-utility run with an election and rejected offers. A different
    # hash means the negotiation itself, or its record, changed.
    ds, _ = small_dataset(seed=21, d=40, n=300, relevant=5, noise=0.05)
    cfg = SystemConfig(roster=roster("PETRUN", "ROMMA", "ALMA", "OGD", "PA",
                                     "SOP", "CW", "AROW", "SCW"),
                       k=4, t_max=30, conflict_rule=MIN_UTILITY, seed=8, measure_time=False)
    transcript = NegotiationTranscript()
    report = run_moanofs(ds, cfg, transcript)
    assert report.elected == [7, 2, 0, 6]
    assert len(transcript) == 300
    assert hashlib.sha256(transcript.serialize().encode()).hexdigest() == (
        "b0f7b7f73f5ec9c98e09c83bc7a53fa9b02c907065410dd4035666d2858c4082")


WIDE = dict(seed=5, d=60, n=400, relevant=8, noise=0.03)
NARROW = dict(seed=9, d=40, n=300, relevant=5, noise=0.05)
# t_max = n with k = n: one instance per trial, the negotiate-every-instance shape.
EVERY = dict(seed=21, d=200, n=300, relevant=10, density=0.05, noise=0.05)


@pytest.mark.parametrize("rule, k, t_max, data, epsilon, expected", [
    (MIN_ERROR, 4, 200, WIDE, None,
     "46ddab783f4fc28a765613ea504152f50268398c6344ed8dbe9bff6933aebda6"),
    (MIN_ERROR, 9, 100, NARROW, 0.02,
     "57cb68080f0884cb478800574a9716a42c73c5620ca5492edeac9850cd548d4a"),
    (MIN_UTILITY, 4, 100, NARROW, 0.02,
     "bc8a764581f7d7e0f12b30c24634ed830789e77e21ba94490b3ebc5e3bfb6a48"),
    (MIN_UTILITY, 9, 200, WIDE, None,
     "83860577915f3e26b8b53baacd11a8eb36d4a9624d56f6dc06821842e9869fe9"),
    (MIN_UTILITY, 9, 300, EVERY, None,
     "baa66b8567e4e1d4d395b2b4c82cb5d73650a532f4fd324e1e124168fd54c5e7"),
])
def test_run_bytes_are_pinned(rule, k, t_max, data, epsilon, expected):
    # Transcript, merged vector, mistakes and election of k < n and k = n runs
    # whose merges cut into features at full trust. A different hash means
    # the negotiation itself, or its record, changed.
    ds, _ = small_dataset(**data)
    cfg = SystemConfig(roster=roster("PETRUN", "ROMMA", "ALMA", "OGD", "PA",
                                     "SOP", "CW", "AROW", "SCW"),
                       k=k, t_max=t_max, conflict_rule=rule, seed=8, epsilon=epsilon,
                       measure_time=False)
    transcript = NegotiationTranscript()
    report = run_moanofs(ds, cfg, transcript)
    digest = hashlib.sha256(transcript.serialize().encode())
    digest.update(repr(sorted(report.merged.items())).encode())
    digest.update(repr((report.system_mistakes,
                        [(lr.learner_id, lr.mistakes) for lr in report.per_learner],
                        report.elected)).encode())
    assert digest.hexdigest() == expected


def test_rand_bytes_are_pinned():
    # RAND runs in no golden file and no other pin: a BANOFS report (PETRUN
    # against RAND) and one RAND learner's final weights, mistakes and updates.
    # A different hash means RAND's step, its mask or its draws changed.
    ds, _ = small_dataset(**WIDE)
    cfg = SystemConfig(roster=roster("PETRUN", "RAND"), k=2, t_max=50, budget_fraction=0.5,
                       seed=8, measure_time=False)
    report = run_moanofs(ds, cfg)
    banofs = repr((sorted(report.merged.items()), report.system_mistakes,
                   [(lr.learner_id, lr.mistakes) for lr in report.per_learner]))
    assert hashlib.sha256(banofs.encode()).hexdigest() == (
        "ae41d14a5f62465710c6590fbe532bdfa624cc8501d4b29b7245c75b05ca3756")

    ds, _ = small_dataset(**NARROW)
    learner = Learner(LearnerConfig("RAND"), ds.dimension, budget(ds.dimension, 0.5), seed=8)
    for x, y in stream_of(ds, permute(ds, 8)):
        learner.step(x, y)
    single = repr((list(learner.w.items()), learner.mistakes, learner.updates))
    assert hashlib.sha256(single.encode()).hexdigest() == (
        "624df17f9201fc21388d9528abd95710cf2fcc9812d014286a36b5619076c839")


def test_moanofs_trust_feeds_offers():
    ds, _ = small_dataset(seed=11)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA"), k=2, t_max=4, seed=2,
                       measure_time=False)
    report = run_moanofs(ds, cfg)
    elected_reports = [lr for lr in report.per_learner if lr.learner_id in report.elected]
    assert all(0.0 <= lr.trust <= 1.0 for lr in report.per_learner)
    # elected learners kept accumulating trust during negotiation
    assert all(lr.trust > 0.0 for lr in elected_reports)


def test_time_never_decides_anything_but_the_cost_issue():
    ds, _ = small_dataset(seed=14, n=300)
    reports = [
        run_moanofs(ds, SystemConfig(roster=roster("PETRUN", "OGD", "PA", "AROW"), k=3,
                                     t_max=12, seed=6, measure_time=timed))
        for timed in (True, False)
    ]
    # Elected ids, merged vector, trials and every learner's mistakes, trust
    # and instances agree; only the measured time may differ.
    timed, untimed = (
        replace(r, per_learner=[replace(lr, cumulative_time=0.0) for lr in r.per_learner])
        for r in reports
    )
    assert timed == untimed
    assert all(lr.cumulative_time > 0.0 for lr in reports[0].per_learner)


@pytest.mark.parametrize("timed", [True, False], ids=["timed", "untimed"])
def test_offered_cost_times(timed):
    # 160 negotiated instances over 200 trials: the last 40 trials are stale.
    ds, _ = small_dataset(seed=15, n=200)
    cfg = SystemConfig(roster=roster("PETRUN", "OGD", "PA", "AROW"), k=3, t_max=200,
                       conflict_rule=MIN_UTILITY, seed=2, measure_time=timed)

    class OfferLog:
        def __init__(self):
            self.rounds = []

        def on_trial(self, round_index, stale, offers, accepted, merged):
            self.rounds.append(list(offers))

    log = OfferLog()
    report = run_moanofs(ds, cfg, log)
    assert len(log.rounds) == cfg.t_max and report.calibration_instances > 0
    stepped = report.calibration_instances
    previous = {}
    for trial, offers in zip(report.trials, log.rounds):
        stepped += trial.chunk_size
        for o in offers:
            assert o.instances == stepped
            if timed:
                assert math.isfinite(o.cost_time)
                assert o.cost_time >= previous.get(o.participant_id, 0.0)
                assert o.cost_time > 0.0  # every elected learner stepped calibration chunks
            else:
                assert o.cost_time == 0.0
            previous[o.participant_id] = o.cost_time
    final = {lr.learner_id: lr.cumulative_time for lr in report.per_learner
             if lr.learner_id in report.elected}
    assert final == previous


def draw_tiny_pipeline(data):
    """A tiny synthetic dataset and an untimed config whose roster holds RAND."""
    n = data.draw(st.integers(10, 40), label="n")
    d = data.draw(st.integers(3, 12), label="d")
    others = data.draw(st.lists(st.sampled_from(VARIANTS), min_size=1, max_size=3))
    variants = data.draw(st.permutations(["RAND", *others]), label="roster")
    size = len(variants)
    cfg = SystemConfig(
        roster=roster(*variants),
        k=data.draw(st.integers(2, size), label="k"),
        t_max=data.draw(st.integers(1, 3 * n), label="t_max"),
        calibration_fraction=data.draw(st.floats(0.01, 0.9), label="calibration"),
        conflict_rule=data.draw(st.sampled_from((MIN_ERROR, MIN_UTILITY))),
        seed=data.draw(st.integers(), label="seed"),
        measure_time=False,
    )
    ds, _ = generate_synthetic(SyntheticSpec(d=d, n_samples=n, n_relevant=min(3, d),
                                             density=0.4, label_noise=0.1,
                                             seed=data.draw(st.integers(0, 2 ** 16))))
    return ds, cfg


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_tiny_pipeline_invariants(data):
    ds, cfg = draw_tiny_pipeline(data)
    n, size = len(ds), len(cfg.roster)
    report = run_moanofs(ds, cfg)

    assert len(report.merged) <= report.B
    assert all(0.0 <= lr.trust <= 1.0 for lr in report.per_learner)
    assert report.calibration_instances + report.system_instances == n
    assert len(set(report.elected)) == len(report.elected) == cfg.k
    assert set(report.elected) == {lr.learner_id for lr in report.per_learner
                                   if lr.learner_id in report.elected}
    for lr in report.per_learner:
        assert lr.instances == (n if lr.learner_id in report.elected else report.calibration_instances)
    if cfg.k == size:
        assert report.calibration_instances == 0
        assert report.elected == list(range(size))
    assert sum(t.chunk_size for t in report.trials) == report.system_instances
    first, second = NegotiationTranscript(), NegotiationTranscript()
    assert run_moanofs(ds, cfg, first).merged == report.merged
    run_moanofs(ds, cfg, second)
    assert first.serialize() == second.serialize()


def assert_matches_the_dense_oracle(ds, cfg):
    """run_moanofs and dense_moanofs agree: ids and counts exactly, the merged vector to 1e-10."""

    class Acceptances:
        def __init__(self):
            self.accepted = []

        def on_trial(self, round_index, stale, offers, accepted, merged):
            self.accepted.append([o.participant_id for o in accepted])

    observer = Acceptances()
    report = run_moanofs(ds, cfg, observer)
    expected = dense_moanofs(ds, cfg)

    assert report.elected == expected["elected"]
    assert [(t.system_mistakes, accepted) for t, accepted in zip(report.trials, observer.accepted)
            ] == expected["trials"]
    assert [(lr.mistakes, lr.instances, lr.trust) for lr in report.per_learner
            ] == expected["learners"]
    merged = dict(report.merged.items())
    assert all(abs(merged.get(i, 0.0) - v) <= 1e-10 for i, v in enumerate(expected["merged"]))
    return report


@pytest.mark.parametrize("rule", [MIN_ERROR, MIN_UTILITY])
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_run_moanofs_matches_the_dense_oracle(rule, data):
    ds, cfg = draw_tiny_pipeline(data)
    assert_matches_the_dense_oracle(ds, replace(cfg, conflict_rule=rule))


@pytest.mark.parametrize("variants, k, t_max, calibration, budget_fraction, seed, spec, mistakes", [
    ("SOP,PETRUN,ALMA,SOP,AROW,ROMMA,ALMA,RAND", 3, 85, 0.475, 0.3, 61010,
     SyntheticSpec(d=35, n_samples=87, n_relevant=3, density=0.8, label_noise=0.1, seed=47505), 15),
    ("FOFS,CW,SCW,OGD,SOP,SCW,RAND", 3, 76, 0.25, 0.1, 19421,
     SyntheticSpec(d=20, n_samples=116, n_relevant=3, density=0.4, label_noise=0.1, seed=28077), 37),
], ids=["A", "B"])
def test_min_utility_costs_each_offer_once_end_to_end(variants, k, t_max, calibration,
                                                       budget_fraction, seed, spec, mistakes):
    # Two of the few configurations where scoring the accepted offers again
    # among themselves changes a conflict's winner: that reading makes 18
    # and 42 system mistakes, where the one cost per offer per round makes
    # 15 and 37, as the oracle does.
    cfg = SystemConfig(roster=roster(*variants.split(",")), k=k, t_max=t_max,
                       calibration_fraction=calibration, budget_fraction=budget_fraction,
                       seed=seed, conflict_rule=MIN_UTILITY, measure_time=False)
    report = assert_matches_the_dense_oracle(generate_synthetic(spec)[0], cfg)
    assert report.system_mistakes == mistakes
