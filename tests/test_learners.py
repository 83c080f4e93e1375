import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import DenseLearner
from negofs.learners import (
    FIRST_ORDER_VARIANTS,
    SECOND_ORDER_VARIANTS,
    VARIANTS,
    Learner,
    LearnerConfig,
)
from negofs.sparse import SparseVector, dot


def make(variant, d=5, B=2, seed=0, **kwargs):
    return Learner(LearnerConfig(variant, **kwargs), d, B, seed=seed)


def sv(d, entries=()):
    return SparseVector(d, entries)


def random_instance(rng, d, max_nnz=None):
    nnz = rng.randint(0, max_nnz or d)
    entries = {i: rng.uniform(-2, 2) for i in rng.sample(range(d), nnz)}
    return sv(d, entries), rng.choice((-1, 1))


# -- config validation --------------------------------------------------------

def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        LearnerConfig("SGD")


def test_parameter_ranges_enforced():
    with pytest.raises(ValueError):
        LearnerConfig("OGD", eta=0.0)
    with pytest.raises(ValueError):
        LearnerConfig("CW", confidence=0.5)
    with pytest.raises(ValueError):
        LearnerConfig("ALMA", alpha_margin=0.0)


@pytest.mark.parametrize("field", ["eta", "lam", "r", "confidence", "C", "alpha_margin"])
def test_config_rejects_a_bool_real(field):
    # True passes as 1.0: alpha_margin = True was accepted as 1.
    with pytest.raises(ValueError) as err:
        LearnerConfig("PA", **{field: True})
    assert str(err.value) == f"{field} must be a real, got True"


def test_budget_must_be_set_and_valid():
    with pytest.raises(TypeError, match="'B'"):
        Learner(LearnerConfig("PETRUN"), 5)
    with pytest.raises(ValueError):
        Learner(LearnerConfig("PETRUN"), 5, 9)


def test_dimension_must_be_an_int():
    with pytest.raises(TypeError):
        Learner(LearnerConfig("PETRUN"), 2.5, 1)


def test_step_rejects_a_label_outside_plus_minus_one():
    learner = make("PETRUN")
    with pytest.raises(ValueError, match="^label must be -1 or \\+1, got 0$"):
        learner.step(sv(5, {0: 1.0}), 0)
    assert (learner.instances, learner.mistakes) == (0, 0)


# -- predict: step counts a mistake when sgn(dot(w, x)) before its update differs from y

def test_zero_model_predicts_negative():
    x = sv(5, {0: 3.0})
    for y, mistakes in ((1, 1), (-1, 0)):
        learner = make("PETRUN")
        assert dot(learner.w, x) == 0.0
        assert learner.step(x, y) is None
        assert learner.mistakes == mistakes


def test_positive_margin_predicts_positive():
    x = sv(5, {0: 2.0})
    for y, mistakes in ((1, 0), (-1, 1)):
        learner = make("PETRUN")
        learner.w = sv(5, {0: 1.0})
        assert dot(learner.w, x) == 2.0
        learner.step(x, y)
        assert learner.mistakes == mistakes


def test_predict_hand_dot():
    learner = make("PETRUN")
    learner.w = sv(5, {0: 0.5, 2: -0.9})
    x = sv(5, {0: 2.0, 2: 1.0})
    assert dot(learner.w, x) == pytest.approx(0.1)
    learner.step(x, 1)
    assert learner.mistakes == 0


# -- PETRUN -----------------------------------------------------------------------

def test_petrun_mistake_on_zero_model():
    learner = make("PETRUN", B=5)
    learner.step(sv(5, {0: 1.0}), 1)
    assert learner.w == sv(5, {0: 1.0})
    assert learner.mistakes == 1


def test_petrun_correct_prediction_leaves_state():
    learner = make("PETRUN")
    learner.w = sv(5, {0: 1.0})
    learner.step(sv(5, {0: 1.0}), 1)
    assert learner.w == sv(5, {0: 1.0})
    assert learner.mistakes == 0


def test_petrun_update_then_tie_break():
    learner = make("PETRUN", d=3, B=1)
    learner.w = sv(3, {0: 0.2})
    learner.step(sv(3, {0: 1.0, 1: 1.0, 2: 1.0}), -1)
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
        assert dot(learner.w, sv(5)) == 0.0
        learner.step(sv(5), 1)
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


@pytest.mark.parametrize("variant, expected", [("ALMA", 1.0), ("FOFS", 10.0)])
def test_an_overflowing_norm_keeps_the_largest_feature(variant, expected):
    # ||x||^2 overflows to inf: ALMA divides its step by ||x||, FOFS projects
    # w + eta*x into the ball of radius 1/sqrt(lam) = 10.
    learner = make(variant, d=2, B=2)
    learner.step(sv(2, {0: 1e200, 1: 1.0}), 1)
    assert learner.w == sv(2, {0: expected})


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
    assert dict(learner.w.items()).get(0, 0.0) == pytest.approx(2 / 3, abs=1e-12)
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


@pytest.mark.parametrize("variant", ["CW", "SCW"])
def test_cw_with_collapsed_sigma_takes_no_step(variant):
    # The shrink s - beta*s*s*v*v can cancel to exactly 0 on a short stream;
    # the closed form then divides by x'Sigma x = 0.
    learner = make(variant, B=5)
    learner.sigma[0] = 0.0
    learner.step(sv(5, {0: 1.0}), 1)
    assert learner.w == sv(5)
    assert learner.sigma == {0: 0.0}
    assert learner.mistakes == 1


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
        oracle.step([dict(x.items()).get(i, 0.0) for i in range(d)], y)
    assert learner.mistakes == oracle.mistakes
    assert learner.mistakes > 50


def _state(learner):
    return (list(learner.w.items()), list(learner.sigma.items()), learner.mistakes,
            learner.updates, learner.instances, learner.rng.getstate())


@given(st.sampled_from(VARIANTS), st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_a_given_margin_steps_like_a_computed_one(variant, B, data):
    # The negotiation passes each trial's shared dot(merged, x) to step.
    values = st.one_of(st.integers(-4, 4).map(lambda k: k / 2), st.floats(-3, 3))
    instances = st.tuples(st.dictionaries(st.integers(0, 7), values, max_size=8),
                          st.sampled_from((-1, 1)))
    given_margin, computed = make(variant, d=8, B=B, seed=5), make(variant, d=8, B=B, seed=5)
    for entries, y in data.draw(st.lists(instances, min_size=1, max_size=25)):
        x = sv(8, entries)
        given_margin.step(x, y, dot(given_margin.w, x))
        computed.step(x, y)
        assert _state(given_margin) == _state(computed)


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


def _separable_stream(rng, d, gamma, radius, n):
    """n instances of norm at most radius with margin y*<u, x> >= gamma for a unit-norm u.

    u is supported on a random subset of the dimensions. Each x is a part
    along u, at the margin for one instance in four, plus a sparse part
    orthogonal to u, which is what makes the stream hard to learn.
    """
    support = rng.sample(range(d), rng.randint(1, d))
    u = [0.0] * d
    for i in support:
        u[i] = rng.gauss(0.0, 1.0)
    u_norm = math.sqrt(sum(v * v for v in u))
    u = [v / u_norm for v in u]
    stream = []
    for _ in range(n):
        y = rng.choice((-1, 1))
        along = gamma if rng.random() < 0.25 else rng.uniform(gamma, radius)
        z = [0.0] * d
        for i in rng.sample(range(d), rng.randint(0, d)):
            z[i] = rng.gauss(0.0, 1.0)
        # Projected out twice: when z lies close to u, one pass leaves a
        # rounding residue along u that can push the margin below gamma.
        for _ in range(2):
            z_u = sum(a * b for a, b in zip(z, u))
            z = [a - z_u * b for a, b in zip(z, u)]
        z_norm = math.sqrt(sum(v * v for v in z))
        room = math.sqrt(max(0.0, radius * radius - along * along))
        z_scale = rng.uniform(0.0, room) / z_norm if z_norm > 0.0 else 0.0
        x = [y * along * b + z_scale * a for a, b in zip(z, u)]
        stream.append((sv(d, {i: v for i, v in enumerate(x) if v}), y))
    return stream, u


@given(st.sampled_from(["PETRUN", "ROMMA"]), st.sampled_from([0.05, 0.1, 0.3]),
       st.sampled_from([0.5, 1.0, 4.0]), st.integers(3, 30), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_mistakes_within_the_novikoff_bound(variant, gamma, radius, d, seed):
    """On a stream separable with margin gamma by a unit-norm vector, PETRUN
    (Novikoff 1962) and ROMMA (Li & Long 2002, "The relaxed online maximum
    margin algorithm") make at most (R/gamma)^2 mistakes, R the largest ||x||.
    With B = d nothing is truncated; the stream is replayed to let mistakes pile up."""
    stream, u = _separable_stream(random.Random(seed), d, gamma, radius, 150)
    R = max(x.norm_l2() for x, _ in stream)
    margin = min(y * sum(v * u[i] for i, v in x.items()) for x, y in stream)
    assert margin >= gamma * (1.0 - 1e-12)
    learner = make(variant, d=d, B=d)
    for _ in range(4):
        for x, y in stream:
            learner.step(x, y)
    assert learner.mistakes <= (R / gamma) ** 2


@given(st.sampled_from([0.5, 0.9, 1.0]), st.sampled_from([0.05, 0.1, 0.3]),
       st.sampled_from([0.5, 1.0, 4.0]), st.integers(3, 30), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_alma_updates_within_its_bound(alpha, gamma, radius, d, seed):
    """On a stream separable by a unit-norm u, ALMA_2 with approximation
    parameter alpha makes at most 2(2/alpha - 1)^2/g^2 + 8/alpha - 4
    updates, g the margin of the normalized instances, min y<u, x>/||x||
    (Gentile, "A New Approximate Maximal Margin Classification Algorithm",
    JMLR 2001, Theorem 3 with p = 2). An update is any step whose normalized
    margin falls below its target, a mistake or not. B = d cuts nothing; the
    stream is replayed."""
    stream, u = _separable_stream(random.Random(seed), d, gamma, radius, 150)
    g = min(y * sum(v * u[i] for i, v in x.items()) / x.norm_l2() for x, y in stream)
    assert g > 0.0
    learner = make("ALMA", d=d, B=d, alpha_margin=alpha)
    for _ in range(4):
        for x, y in stream:
            learner.step(x, y)
    assert learner.updates <= 2.0 * (2.0 / alpha - 1.0) ** 2 / g ** 2 + 8.0 / alpha - 4.0


@given(st.sampled_from([0.05, 0.1, 0.3]), st.sampled_from([0.5, 1.0, 4.0]),
       st.integers(3, 30), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_pa_squared_loss_within_its_bound(gamma, radius, d, seed):
    """On a stream separable with margin gamma by a unit-norm u, plain PA's
    cumulative squared hinge loss is at most (R/gamma)^2, R the largest ||x||
    (Crammer et al., "Online Passive-Aggressive Algorithms", JMLR 2006,
    Theorem 2, with u/gamma as the competitor of zero loss). B = d cuts
    nothing, and C = 1e300 never caps loss/||x||^2; the stream is replayed."""
    stream, _ = _separable_stream(random.Random(seed), d, gamma, radius, 150)
    R = max(x.norm_l2() for x, _ in stream)
    learner = make("PA", d=d, B=d, C=1e300)
    total = 0.0
    for _ in range(4):
        for x, y in stream:
            margin = dot(learner.w, x)
            total += max(0.0, 1.0 - y * margin) ** 2
            learner.step(x, y, margin)
    assert total <= (R / gamma) ** 2


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
                oracle.step([dict(x.items()).get(i, 0.0) for i in range(d)], y)
            assert learner.mistakes == oracle.mistakes, variant
            for i in range(d):
                assert dict(learner.w.items()).get(i, 0.0) == pytest.approx(oracle.w[i], abs=1e-10), (
                    variant, i)
    # ||x||^2 overflows to inf: both sides take the rescaled norm.
    for variant in ("ALMA", "FOFS"):
        learner = make(variant, d=2, B=2)
        oracle = DenseLearner(variant, 2, 2)
        learner.step(sv(2, {0: 1e200, 1: 1.0}), 1)
        oracle.step([1e200, 1.0], 1)
        assert [dict(learner.w.items()).get(i, 0.0) for i in range(2)] == oracle.w != [0.0, 0.0]


# -- pinned bytes ------------------------------------------------------------------------

def _pinned_stream(d, nnz, n, seed):
    """n instances of exactly nnz entries, labelled by a planted sparse model with 5% flips."""
    rng = random.Random(seed)
    planted = {i: rng.choice((-1.0, 1.0)) for i in rng.sample(range(d), 8)}
    stream = []
    for _ in range(n):
        entries = {i: rng.uniform(-1.0, 1.0) for i in rng.sample(range(d), nnz)}
        margin = 0.0
        for i, v in sorted(entries.items()):
            margin += planted.get(i, 0.0) * v
        y = 1 if margin > 0 else -1
        stream.append((sv(d, entries), -y if rng.random() < 0.05 else y))
    return stream


# (d, B, nnz, instances, seed): the ensemble benchmark's shape, where an update
# cuts most of its copy, and a wide one where an update cuts few entries.
_PIN_SHAPES = {"most-cut": (57, 6, 20, 400, 11), "few-cut": (2000, 200, 20, 300, 12)}

# At the default C = 1 SCW's cap never binds on these streams, so it would step as CW.
_PIN_CONFIG = {"SCW": {"C": 0.3}}

_VARIANT_PINS = {
    ("PETRUN", "most-cut"):  # 197 mistakes, 215 updates, 6 weights
        "e4e1c46ee822d02136ae3cfc0f3f1184f94c60349e599b91fa00f4a550b031fe",
    ("PETRUN", "few-cut"):  # 141 mistakes, 175 updates, 200 weights
        "a528e21095d3e6d2662f1843e51a2e5c1c853a80f122acee25e30302e0d7abcb",
    ("RAND", "most-cut"):  # 187 mistakes, 260 updates, 2 weights
        "5c5d0bf0b9f34c49f91f2e9cdca81975abed2b0a20f6db3a6263cea982b2f8d2",
    ("RAND", "few-cut"):  # 38 mistakes, 296 updates, 1 weights
        "af741cbfa3533f374d38e56ac37f378c99159d0967c5553cd6ab5a02b7bea882",
    ("FOFS", "most-cut"):  # 192 mistakes, 207 updates, 6 weights
        "b4b46728f328c4ece13fd852e6c8ca7d14330cc49817a020bd21c8fa87cadbf3",
    ("FOFS", "few-cut"):  # 142 mistakes, 177 updates, 200 weights
        "ce2fca5dd6d88485dc6921fc1600461ceb6eb28dbcc0ea0bb190305de43ebc03",
    ("OGD", "most-cut"):  # 150 mistakes, 323 updates, 6 weights
        "94cbe9d2ecf754c8bf6b02b8a7d1f02988003739ce9c4ba468c65b1de390d75e",
    ("OGD", "few-cut"):  # 143 mistakes, 300 updates, 200 weights
        "6af1afb78d5ed0d23ba033328c6b680b6a92f2b786f2c51f4a8e89b5c624f5ce",
    ("PA", "most-cut"):  # 145 mistakes, 377 updates, 6 weights
        "0468cacbe42831ce056d4c73d8059491d5d39ad39f9f186dba93434b6a9b8d39",
    ("PA", "few-cut"):  # 134 mistakes, 300 updates, 200 weights
        "c18f0ac06429345336acf267911407f2547bac02b7ff843615af96ef76c8163e",
    ("ROMMA", "most-cut"):  # 163 mistakes, 179 updates, 6 weights
        "6b6db7542ce18efd332a606a62b862006d4abef4d697fe27adbc8988f7fcc1b9",
    ("ROMMA", "few-cut"):  # 127 mistakes, 164 updates, 200 weights
        "b2d50efd1adb9d733f22db7e84f9caca4c3de16862cf569458a3b1290a7070d0",
    ("ALMA", "most-cut"):  # 159 mistakes, 225 updates, 6 weights
        "938e14e1870d12c6a6dcb2558c01c339c692edd2af7553bcebd1f35cedf9c2a1",
    ("ALMA", "few-cut"):  # 149 mistakes, 232 updates, 200 weights
        "22aa91a23c43d668d29769dfc9e4088882bc3423a0ec54cc764c16e8d605d731",
    ("SOP", "most-cut"):  # 168 mistakes, 179 updates, 6 weights
        "a699b2307c60702ba78516594ade5946c5d4481d8eb5276f05b44c6a0530dbd4",
    ("SOP", "few-cut"):  # 144 mistakes, 177 updates, 200 weights
        "1fe67941cc1792f1be97bc389c17b63c809cdb3c8fb8d817d89397925eda0b04",
    ("CW", "most-cut"):  # 128 mistakes, 354 updates, 6 weights
        "80fd7699ca46391baa693ce093ea9c99291e9d33326a49247ac1cff46bd40bac",
    ("CW", "few-cut"):  # 138 mistakes, 300 updates, 200 weights
        "2bb8ba071be5d06c6b6d69d3a799dad8a6d2c5a5c1bbe3da5636b18891768a56",
    ("AROW", "most-cut"):  # 131 mistakes, 388 updates, 6 weights
        "fa02c12ae31da53e59cf05c005ca8e166fa9e9367d5ca6e3ae8696e5394f21bf",
    ("AROW", "few-cut"):  # 136 mistakes, 300 updates, 200 weights
        "b14964c8b080fa3c59424a64bcf2489fe6b5d64d775c9f7ad3960ca31c30f580",
    ("SCW", "most-cut"):  # 135 mistakes, 358 updates, 6 weights
        "b6ac950ba4c0efcc7b6f2ff5d9dfb279e851e4918107bccf5472925a266af11f",
    ("SCW", "few-cut"):  # 138 mistakes, 300 updates, 200 weights
        "9ee729eb933dce0f2ba72ab73a722388469800654d5f35b2713328876b716667",
}


def _final_state_digest(learner):
    """sha256 of the exact weights and sigma (float.hex), the mistakes and the updates."""
    weights = ",".join(f"{i}:{v.hex()}" for i, v in learner.w.items())
    sigma = ",".join(f"{i}:{s.hex()}" for i, s in sorted(learner.sigma.items()))
    text = f"{weights}|{sigma}|{learner.mistakes}|{learner.updates}"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("variant, shape", [(v, s) for v in VARIANTS for s in _PIN_SHAPES],
                         ids=[f"{v}-{s}" for v in VARIANTS for s in _PIN_SHAPES])
def test_variant_bytes_are_pinned(variant, shape):
    # The reference mistake counts would miss a last-bit drift in the arithmetic.
    d, B, nnz, n, seed = _PIN_SHAPES[shape]
    learner = make(variant, d=d, B=B, seed=seed, **_PIN_CONFIG.get(variant, {}))
    for x, y in _pinned_stream(d, nnz, n, seed):
        learner.step(x, y)
    assert _final_state_digest(learner) == _VARIANT_PINS[variant, shape]
