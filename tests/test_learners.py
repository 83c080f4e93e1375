import math
import random

import pytest

from dense_oracle import DenseLearner
from negofs.learners import (
    FIRST_ORDER_VARIANTS,
    SECOND_ORDER_VARIANTS,
    VARIANTS,
    Learner,
    LearnerConfig,
    Prediction,
)
from negofs.sparse import SparseVector, dot


def make(variant, d=5, B=2, **kwargs):
    kwargs.setdefault("measure_time", False)
    return Learner(LearnerConfig(variant, B=B, **kwargs), d)


def sv(d, entries=()):
    return SparseVector(d, entries)


def random_instance(rng, d, max_nnz=None):
    nnz = rng.randint(0, max_nnz or d)
    entries = {i: rng.uniform(-2, 2) for i in rng.sample(range(d), nnz)}
    return sv(d, entries), rng.choice((-1, 1))


# -- config validation --------------------------------------------------------

def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        LearnerConfig("SGD", B=2)


def test_parameter_ranges_enforced():
    with pytest.raises(ValueError):
        LearnerConfig("OGD", B=2, eta=0.0)
    with pytest.raises(ValueError):
        LearnerConfig("CW", B=2, confidence=0.5)
    with pytest.raises(ValueError):
        LearnerConfig("ALMA", B=2, alpha_margin=0.0)


def test_budget_must_be_set_and_valid():
    with pytest.raises(ValueError, match="B must be set"):
        Learner(LearnerConfig("PETRUN"), 5)
    with pytest.raises(ValueError):
        Learner(LearnerConfig("PETRUN", B=9), 5)


# -- predict ----------------------------------------------------------------------

def test_zero_model_predicts_negative():
    learner = make("PETRUN")
    assert learner.predict(sv(5, {0: 3.0})) == Prediction(-1, 0.0)


def test_positive_margin_predicts_positive():
    learner = make("PETRUN")
    learner.w = sv(5, {0: 1.0})
    assert learner.predict(sv(5, {0: 2.0})) == Prediction(1, 2.0)


def test_predict_hand_dot():
    learner = make("PETRUN")
    learner.w = sv(5, {0: 0.5, 2: -0.9})
    pred = learner.predict(sv(5, {0: 2.0, 2: 1.0}))
    assert pred.sign == 1
    assert pred.margin == pytest.approx(0.1)


# -- PETRUN -----------------------------------------------------------------------

def test_petrun_mistake_on_zero_model():
    learner = make("PETRUN", B=5)
    learner.step(sv(5, {0: 1.0}), 1)
    assert learner.w == sv(5, {0: 1.0})
    assert learner.mistakes == 1


def test_petrun_correct_prediction_leaves_state():
    learner = make("PETRUN")
    learner.w = sv(5, {0: 1.0})
    learner.update(sv(5, {0: 1.0}), 1)
    assert learner.w == sv(5, {0: 1.0})
    assert learner.mistakes == 0


def test_petrun_update_then_tie_break():
    learner = make("PETRUN", d=3, B=1)
    learner.w = sv(3, {0: 0.2})
    learner.update(sv(3, {0: 1.0, 1: 1.0, 2: 1.0}), -1)
    assert learner.w == sv(3, {1: -1.0})
    assert learner.mistakes == 1


def test_petrun_zero_margin_negative_label_updates_without_mistake():
    # y*margin <= 0 fires the perceptron update, but sgn(0) = -1 matches y
    learner = make("PETRUN", B=5)
    learner.step(sv(5, {0: 1.0}), -1)
    assert learner.mistakes == 0
    assert learner.w == sv(5, {0: -1.0})


# -- RAND ---------------------------------------------------------------------------

def test_rand_single_index_dimension():
    learner = make("RAND", d=1, B=1, seed=123)
    learner.step(sv(1, {0: 1.0}), 1)
    assert learner.w == sv(1, {0: 1.0})


def test_rand_no_mistake_no_state_change():
    learner = make("RAND", seed=5)
    learner.w = sv(5, {0: 1.0})
    before = learner.w
    learner.step(sv(5, {0: 2.0}), 1)
    assert learner.w is before


def test_rand_masks_to_recorded_permutation():
    # random.Random(7).shuffle(range(3)) gives [2, 0, 1]; first 2 keep {0, 2}
    learner = make("RAND", d=3, B=2, seed=7)
    learner.step(sv(3, {0: 1.0, 1: 1.0, 2: 1.0}), 1)
    assert learner.w == sv(3, {0: 1.0, 2: 1.0})


# -- FOFS ---------------------------------------------------------------------------

def test_fofs_inside_ball_keeps_step():
    learner = make("FOFS", d=3, B=1, eta=0.5, lam=1.0)
    learner.step(sv(3, {0: 1.0}), 1)
    assert learner.w == sv(3, {0: 0.5})


def test_fofs_projection_factor():
    learner = make("FOFS", d=3, B=1, eta=1.0, lam=4.0)
    learner.step(sv(3, {0: 2.0}), 1)
    assert learner.w == sv(3, {0: 0.5})


def test_fofs_correct_prediction_unchanged():
    learner = make("FOFS")
    learner.w = sv(5, {0: 1.0})
    before = learner.w
    learner.step(sv(5, {0: 1.0}), 1)
    assert learner.w is before


def test_fofs_norm_bounded_throughout():
    learner = make("FOFS", d=20, B=6, eta=0.3, lam=0.5)
    rng = random.Random(8)
    bound = 1.0 / math.sqrt(0.5) + 1e-12
    for _ in range(500):
        x, y = random_instance(rng, 20, max_nnz=8)
        learner.step(x, y)
        assert learner.w.norm_l2() <= bound


# -- PA / OGD -----------------------------------------------------------------------

def test_pa_closed_form_unit_step():
    learner = make("PA", B=5, C=1.0)
    learner.step(sv(5, {0: 1.0}), 1)
    assert learner.w == sv(5, {0: 1.0})


def test_ogd_gradient_step():
    learner = make("OGD", B=5, eta=0.2)
    learner.step(sv(5, {0: 1.0}), 1)
    assert learner.w == sv(5, {0: 0.2})


def test_degenerate_empty_instance_never_updates():
    for variant in VARIANTS:
        learner = make(variant, seed=3)
        pred = learner.step(sv(5), 1)
        assert pred == Prediction(-1, 0.0)
        assert learner.w == sv(5)
        assert learner.mistakes == 1  # sgn(0) = -1 disagrees with +1
        assert learner.sigma == {}


# -- ROMMA / ALMA ----------------------------------------------------------------------

def test_romma_first_mistake_is_perceptron_step():
    learner = make("ROMMA", B=5)
    learner.step(sv(5, {0: 1.0, 1: 0.5}), 1)
    assert learner.w == sv(5, {0: 1.0, 1: 0.5})


def test_romma_keeps_self_consistency_on_second_mistake():
    learner = make("ROMMA", d=3, B=3)
    learner.step(sv(3, {0: 1.0}), 1)
    learner.step(sv(3, {1: 1.0}), -1)
    # x orthogonal to w: c = 1, d = -(1)/1 scaled by ||w||^2=1 -> w - x
    assert learner.w == sv(3, {0: 1.0, 1: -1.0})


def test_alma_stays_in_unit_ball():
    learner = make("ALMA", d=10, B=4)
    rng = random.Random(5)
    for _ in range(300):
        x, y = random_instance(rng, 10, max_nnz=5)
        learner.step(x, y)
        assert learner.w.norm_l2() <= 1.0 + 1e-9


# -- second order ----------------------------------------------------------------------

def test_arow_single_step_closed_form():
    learner = make("AROW", B=5, r=1.0)
    learner.step(sv(5, {0: 1.0}), 1)
    assert learner.w == sv(5, {0: 0.5})
    assert learner.sigma == {0: 0.5}


def test_arow_two_step_hand_trace():
    learner = make("AROW", B=5, r=1.0)
    x = sv(5, {0: 1.0})
    learner.step(x, 1)
    learner.step(x, 1)
    # second step: v=0.5, beta=2/3, loss=0.5, alpha=1/3, w=0.5+1/6, sigma=0.5-1/6
    assert learner.w.get(0) == pytest.approx(2 / 3, abs=1e-12)
    assert learner.sigma[0] == pytest.approx(1 / 3, abs=1e-12)


def test_arow_zero_loss_still_shrinks_sigma():
    learner = make("AROW", B=5, r=1.0)
    learner.w = sv(5, {0: 2.0})
    learner.step(sv(5, {0: 1.0}), 1)  # margin 2 -> loss 0
    assert learner.w == sv(5, {0: 2.0})
    assert learner.sigma == {0: 0.5}


def test_sigma_positive_and_non_increasing():
    for variant in SECOND_ORDER_VARIANTS:
        learner = make(variant, d=12, B=4)
        rng = random.Random(17)
        previous = {}
        for _ in range(400):
            x, y = random_instance(rng, 12, max_nnz=6)
            learner.step(x, y)
            for i, s in learner.sigma.items():
                assert 0.0 < s <= 1.0
                assert s <= previous.get(i, 1.0) + 1e-15
            previous = dict(learner.sigma)


def test_cw_updates_only_when_constraint_violated():
    learner = make("CW", B=5, confidence=0.7)
    learner.w = sv(5, {0: 10.0})
    learner.step(sv(5, {0: 1.0}), 1)  # huge margin, no update needed
    assert learner.w == sv(5, {0: 10.0})


# -- step / stream behaviour -----------------------------------------------------------

def test_separable_stream_single_mistake():
    learner = make("PETRUN", B=5)
    x = sv(5, {0: 1.0, 3: 0.5})
    for _ in range(40):
        learner.step(x, 1)
    assert learner.mistakes == 1


def test_empty_stream_state_unchanged():
    learner = make("PETRUN")
    assert learner.mistakes == 0 and learner.instances == 0


def test_flipped_labels_match_reference_simulation():
    # adversarial stream checked against the straight-line dense reference
    rng = random.Random(31)
    d, B = 6, 3
    learner = make("PETRUN", d=d, B=B)
    oracle = DenseLearner("PETRUN", d, B)
    planted = {0: 1.0, 2: -1.0}
    for _ in range(200):
        x, _ = random_instance(rng, d, max_nnz=4)
        margin = sum(planted.get(i, 0.0) * v for i, v in x.items())
        y = -1 if margin > 0 else 1  # flipped labels
        learner.step(x, y)
        oracle.step([x.get(i) for i in range(d)], y)
    assert learner.mistakes == oracle.mistakes
    assert learner.mistakes > 50


def test_step_counts_time_and_instances():
    learner = Learner(LearnerConfig("PETRUN", B=2, measure_time=True), 5)
    learner.step(sv(5, {0: 1.0}), 1)
    learner.step(sv(5, {1: 1.0}), -1)
    assert learner.instances == 2
    assert learner.cumulative_time > 0.0


def test_timing_disabled_keeps_zero_cost():
    learner = make("PETRUN")
    learner.step(sv(5, {0: 1.0}), 1)
    assert learner.cumulative_time == 0.0


# -- cross-variant invariants -------------------------------------------------------------

def test_budget_never_exceeded_fuzz():
    rng = random.Random(2024)
    for variant in VARIANTS:
        learner = make(variant, d=15, B=4, seed=7)
        for _ in range(600):
            x, y = random_instance(rng, 15, max_nnz=9)
            learner.step(x, y)
            assert len(learner.w) <= 4


def test_no_mistake_stability_perceptron_family():
    rng = random.Random(6)
    for variant in ("PETRUN", "RAND", "FOFS"):
        learner = make(variant, d=8, B=3, seed=11)
        for _ in range(300):
            x, y = random_instance(rng, 8, max_nnz=4)
            before_w = learner.w
            before_mistakes = learner.mistakes
            margin = dot(learner.w, x)
            learner.step(x, y)
            if y * margin > 0:
                assert learner.w is before_w
                assert learner.mistakes == before_mistakes


def test_determinism_same_config_same_stream():
    rng = random.Random(44)
    stream = [random_instance(rng, 10, max_nnz=5) for _ in range(150)]
    for variant in VARIANTS:
        runs = []
        for _ in range(2):
            learner = make(variant, d=10, B=3, seed=99)
            for x, y in stream:
                learner.step(x, y)
            runs.append((learner.w, learner.mistakes, dict(learner.sigma)))
        assert runs[0] == runs[1]


def test_dense_oracle_equivalence_all_variants():
    rng = random.Random(1234)
    d, B, steps = 8, 3, 50
    for variant in VARIANTS:
        for trial in range(3):
            seed = 100 + trial
            stream_rng = random.Random(seed * 7 + 1)
            learner = make(variant, d=d, B=B, seed=seed)
            oracle = DenseLearner(variant, d, B, seed=seed)
            for _ in range(steps):
                x, y = random_instance(stream_rng, d, max_nnz=5)
                learner.step(x, y)
                oracle.step([x.get(i) for i in range(d)], y)
            assert learner.mistakes == oracle.mistakes, variant
            for i in range(d):
                assert learner.w.get(i) == pytest.approx(oracle.w[i], abs=1e-10), (
                    variant, i)
