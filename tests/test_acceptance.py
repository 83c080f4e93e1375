"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdicts and timings. Budgeted criteria assert their own wall-clock limits.
"""

import math
import os
import random
import time
from pathlib import Path

import pytest

from dense_oracle import DenseLearner, merge_offers_reference
from negofs.cli import RunOptions, derive_run_seed, main, run_experiment
from negofs.data import SyntheticSpec, budget, generate_synthetic, load_sparse_text, permute, stream_of
from negofs.learners import VARIANTS, Learner, LearnerConfig
from negofs.negotiation import (
    MIN_ERROR,
    MIN_UTILITY,
    FeatureTrust,
    NegotiationConfig,
    Offer,
    Participant,
    MessageKind,
    merge_bilateral,
    merge_multilateral,
    run_negotiation,
)
from negofs.sparse import SparseVector
from negofs.system import SystemConfig, build_learners, run_moanofs
from negofs.trust import TrustParams, TrustState, update_trust
from negofs.utility import DeadlineParams, TimeStrategyParams, time_dependent_value, time_pressure

SCALE_MATCHED_ROSTER = ("ROMMA", "OGD", "PA", "SOP", "CW", "AROW", "SCW")


def verdict(number, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} {detail}")
    assert passed, f"criterion {number}: {detail}"


def random_instance(rng, d, max_nnz):
    nnz = rng.randint(0, max_nnz)
    entries = {i: rng.uniform(-2, 2) for i in rng.sample(range(d), nnz)}
    return SparseVector(d, entries), rng.choice((-1, 1))


def test_criterion_1_budget_invariant_suite():
    start = time.perf_counter()
    d, B = 25, 5
    violations = 0

    # 10^4 fuzzed steps per learner variant
    for variant in VARIANTS:
        rng = random.Random(hash(variant) % 2 ** 30)
        learner = Learner(LearnerConfig(variant, B=B, seed=3, measure_time=False), d)
        for _ in range(10_000):
            x, y = random_instance(rng, d, max_nnz=8)
            learner.step(x, y)
            if len(learner.w) > B:
                violations += 1

    # both negotiation modes, trial by trial
    rng = random.Random(99)
    for rule in (MIN_ERROR, MIN_UTILITY):
        stream = [random_instance(rng, d, max_nnz=8) for _ in range(2000)]
        participants = [
            Participant(i, Learner(LearnerConfig(v, B=B, seed=i, measure_time=False), d))
            for i, v in enumerate(("PETRUN", "OGD", "PA", "AROW"))
        ]
        merged, _, _ = run_negotiation(
            participants, stream,
            NegotiationConfig(t_max=20, merged_budget=B, conflict_rule=rule),
        )
        if len(merged) > B:
            violations += 1

    elapsed = time.perf_counter() - start
    verdict(1, violations == 0 and elapsed < 30,
            f"violations={violations} elapsed={elapsed:.1f}s (budget 30s)")


def test_criterion_2_merge_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240901)
    mismatches = 0
    for _ in range(1000):
        d = rng.randint(1, 10)
        n_offers = rng.randint(2, 4)
        offers = []
        for pid in range(n_offers):
            nnz = rng.randint(0, d)
            entries = {i: rng.uniform(-1, 1) for i in rng.sample(range(d), nnz)}
            offers.append(Offer(pid, SparseVector(d, entries),
                                err_count=rng.randint(0, 30), cost_time=0.0,
                                trust=0.0))
        cfg = NegotiationConfig(t_max=1, merged_budget=d)
        merged, _ = merge_multilateral(offers, FeatureTrust(1 / n_offers), cfg)
        errs = {o.participant_id: o.err_count for o in offers}
        reference = merge_offers_reference(
            [(o.participant_id, [o.w.get(i) for i in range(d)], o.err_count)
             for o in offers],
            conflict_key=lambda pid: errs[pid],
        )
        if [merged.get(i) for i in range(d)] != reference:
            mismatches += 1
    elapsed = time.perf_counter() - start
    verdict(2, mismatches == 0 and elapsed < 5,
            f"mismatches={mismatches}/1000 elapsed={elapsed:.2f}s (budget 5s)")


def test_criterion_3_trust_recurrence():
    params = TrustParams(c=0.5, threshold=0.25)
    rng = random.Random(5150)
    ok = True
    transactions = 0
    while transactions < 10_000:
        state = TrustState()
        for _ in range(rng.randint(1, 50)):
            sat_cur = rng.random()
            previous = state
            state = update_trust(state, sat_cur, params)
            transactions += 1
            if not 0.0 <= state.sat <= 1.0:
                ok = False
            if previous.n > 0 and sat_cur != previous.sat:
                alpha = (state.sat - previous.sat) / (sat_cur - previous.sat)
                if not 0.25 - 1e-9 <= alpha <= 0.75 + 1e-9:
                    ok = False

    state = update_trust(TrustState(), 1.0, params)
    trace_ok = state.sat == 1.0
    state = update_trust(state, 0.0, params)
    trace_ok = trace_ok and abs(state.sat - 13 / 28) < 1e-9
    verdict(3, ok and trace_ok,
            f"bounds_ok={ok} trace sat1=1 sat2={state.sat:.9f} (target {13 / 28:.9f})")


def test_criterion_4_analytic_endpoints():
    deadline = DeadlineParams(t_d=7.0, beta=2.0)
    strategy = TimeStrategyParams(f1=3.0, f2=-1.0, t_init=2.0, t_max=9.0, beta=0.7)
    checks = (
        time_pressure(0.0, deadline) == 1.0,
        time_pressure(7.0, deadline) == 0.0,
        time_dependent_value(2.0, strategy) == 3.0,
        time_dependent_value(9.0, strategy) == -1.0,
    )
    verdict(4, all(checks), f"endpoint checks {checks}")


def test_criterion_5_budget_formula():
    ok = budget(123, 0.1) == 12 and budget(54, 0.1) == 5
    verdict(5, ok, f"budget(123,0.1)={budget(123, 0.1)} budget(54,0.1)={budget(54, 0.1)}")


def test_criterion_6_learner_oracle_equivalence():
    start = time.perf_counter()
    d, B, steps = 8, 3, 50
    worst = 0.0
    failures = []
    for variant in VARIANTS:
        for trial in range(4):
            seed = 500 + trial
            stream_rng = random.Random(seed * 13 + 7)
            learner = Learner(LearnerConfig(variant, B=B, seed=seed,
                                            measure_time=False), d)
            oracle = DenseLearner(variant, d, B, seed=seed)
            for _ in range(steps):
                x, y = random_instance(stream_rng, d, max_nnz=5)
                learner.step(x, y)
                oracle.step([x.get(i) for i in range(d)], y)
            for i in range(d):
                gap = abs(learner.w.get(i) - oracle.w[i])
                worst = max(worst, gap)
                if gap > 1e-10:
                    failures.append((variant, trial, i, gap))
    elapsed = time.perf_counter() - start
    verdict(6, not failures and elapsed < 10,
            f"worst entry gap={worst:.2e} elapsed={elapsed:.2f}s (budget 10s)")


def spambase_like_dataset():
    """The real spambase file when supplied, else a surrogate of its shape.

    The environment has no dataset downloads, so by default the claim runs on
    a deterministic synthetic stream with spambase's dimensions (4601 x 57).
    Drop the real file at data/spambase.txt (sparse text format) or point
    NEGOFS_SPAMBASE at it to run on the genuine data.
    """
    candidates = [os.environ.get("NEGOFS_SPAMBASE", "")]
    candidates.append(str(Path(__file__).resolve().parents[1] / "data" / "spambase.txt"))
    for candidate in candidates:
        if candidate and Path(candidate).is_file():
            print(f"criterion 7 dataset: real file {candidate}")
            return load_sparse_text(candidate, name="spambase")
    spec = SyntheticSpec(d=57, n_samples=4601, n_relevant=8, density=0.35,
                         label_noise=0.03, seed=2025)
    dataset, _ = generate_synthetic(spec)
    print("criterion 7 dataset: spambase-shaped surrogate (no network in build env)")
    return dataset


def test_criterion_7_directional_ensemble_claim():
    start = time.perf_counter()
    dataset = spambase_like_dataset()
    singles = [f"single:{v}" for v in SCALE_MATCHED_ROSTER]
    opts = RunOptions(timing=False, t_max=16, k=3, roster=SCALE_MATCHED_ROSTER)
    rows, _ = run_experiment(singles + ["MANOFS", "MOANOFS"], dataset,
                             runs=10, base_seed=42, opts=opts)
    best_single = min(r.mean_error_rate for r in rows
                      if r.algorithm.startswith("single:"))
    manofs = next(r.mean_error_rate for r in rows if r.algorithm == "MANOFS")
    moanofs = next(r.mean_error_rate for r in rows if r.algorithm == "MOANOFS")
    elapsed = time.perf_counter() - start
    ok = manofs <= best_single + 0.02 and moanofs <= manofs + 0.01 and elapsed < 120
    verdict(7, ok,
            f"best_single={best_single:.4f} MANOFS={manofs:.4f} "
            f"MOANOFS={moanofs:.4f} elapsed={elapsed:.0f}s (budget 120s)")


def test_criterion_8_synthetic_recovery():
    start = time.perf_counter()
    hits = 0
    recalls = []
    for s in range(1, 6):
        spec = SyntheticSpec(d=200, n_samples=5000, n_relevant=10, density=0.1,
                             label_noise=0.05, seed=1000 + s)
        dataset, planted = generate_synthetic(spec)
        roster = [LearnerConfig(v, measure_time=False)
                  for v in ("PETRUN", "ROMMA", "ALMA", "OGD", "PA",
                            "SOP", "CW", "AROW", "SCW")]
        cfg = SystemConfig(roster=roster, k=3, t_max=10, seed=1000 + s)
        report = run_moanofs(dataset, cfg)
        selected = set(report.merged.indices())
        recall = len(selected & planted) / len(planted)
        recalls.append(recall)
        hits += recall >= 0.8
    elapsed = time.perf_counter() - start
    verdict(8, hits >= 4 and elapsed < 60,
            f"recalls={recalls} seeds_passing={hits}/5 elapsed={elapsed:.0f}s (budget 60s)")


def test_criterion_9_reduction_identities():
    # (a) two-participant negotiation reproduces bilateral merge semantics
    d = 12
    rng = random.Random(606)
    stream = [random_instance(rng, d, max_nnz=6) for _ in range(60)]
    participants = [
        Participant(i, Learner(LearnerConfig("PETRUN", B=4, seed=i,
                                             measure_time=False), d))
        for i in range(2)
    ]
    cfg = NegotiationConfig(t_max=5, merged_budget=d)
    merged, transcript, _ = run_negotiation(participants, stream, cfg)
    bilateral_ok = True
    for round_messages in transcript.rounds().values():
        proposals = [m.payload for m in round_messages
                     if m.kind == MessageKind.PROPOSE]
        inform = [m for m in round_messages if m.kind == MessageKind.INFORM][-1]
        if inform.payload != merge_bilateral(proposals[0], proposals[1]):
            bilateral_ok = False

    # (b) the two-level pipeline with k = n is bitwise the single-level system
    spec = SyntheticSpec(d=30, n_samples=400, n_relevant=5, density=0.3,
                         label_noise=0.05, seed=77)
    dataset, _ = generate_synthetic(spec)
    roster = [LearnerConfig(v, measure_time=False) for v in ("PETRUN", "OGD", "PA", "AROW")]
    cfg_sys = SystemConfig(roster=roster, k=4, t_max=6, conflict_rule=MIN_ERROR, seed=12)
    moanofs = run_moanofs(dataset, cfg_sys)
    B = budget(dataset.dimension, cfg_sys.budget_fraction)
    direct = [
        Participant(i, learner, TrustState())
        for i, learner in enumerate(build_learners(cfg_sys, dataset.dimension))
    ]
    ref_merged, ref_transcript, ref_trials = run_negotiation(
        direct, stream_of(dataset, permute(dataset, cfg_sys.seed)),
        NegotiationConfig(t_max=cfg_sys.t_max, merged_budget=B,
                          conflict_rule=cfg_sys.conflict_rule),
    )
    reduction_ok = (
        moanofs.merged == ref_merged
        and moanofs.system_mistakes == sum(t.system_mistakes for t in ref_trials)
        and moanofs.transcript.serialize() == ref_transcript.serialize()
    )
    verdict(9, bilateral_ok and reduction_ok,
            f"bilateral_rounds_ok={bilateral_ok} k_eq_n_bitwise={reduction_ok}")


def test_criterion_10_csv_determinism(tmp_path):
    argv = lambda out: [
        "run", "--synthetic", "d=40,relevant=6,n=500,density=0.25,noise=0.05",
        "--algorithms", "single:PETRUN,BANOFS,MANOFS,MOANOFS",
        "--runs", "2", "--seed", "31", "--tmax", "6", "--no-timing",
        "--output", str(out),
    ]
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(argv(first)) == 0
    assert main(argv(second)) == 0
    identical = first.read_bytes() == second.read_bytes()
    verdict(10, identical, f"byte_identical={identical} size={first.stat().st_size}B")
