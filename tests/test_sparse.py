import copy
import math
import pickle
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import negofs
from dense_oracle import project_l2_ball_reference, sparse_reference, truncate_reference
from negofs.learners import Learner, LearnerConfig
from negofs.sparse import (
    ZERO_EPS,
    DimensionMismatchError,
    SparseVector,
    _add_cut,
    _cut,
    _from_unsorted,
    _overlay,
    _restrict,
    check_budget,
    dot,
)


def sv(d, entries=()):
    return SparseVector(d, entries)


# -- construction and invariants ----------------------------------------------

def test_constructor_drops_zero_and_tiny_entries():
    v = sv(4, {0: 1.0, 1: 0.0, 2: 1e-16})
    assert dict(v.items()) == {0: 1.0}
    assert len(v) == 1


def test_constructor_sorts_indices():
    v = sv(5, [(3, 1.0), (0, 2.0), (4, -1.0)])
    assert list(v.indices()) == [0, 3, 4]


def test_constructor_rejects_out_of_range_indices():
    with pytest.raises(IndexError):
        sv(3, {3: 1.0})
    with pytest.raises(IndexError):
        sv(3, {-1: 1.0})
    with pytest.raises(ValueError):
        sv(0)


@pytest.mark.parametrize("entries", [
    [(1.5, 2.0)], {1.9: 4.0}, [(2.0, 1.0)], [(1.5, 0.0)], [("1", 1.0)], {True: 1.0},
], ids=["pair-float", "mapping-float", "integral-float", "float-dropped-value", "str", "bool"])
def test_constructor_rejects_non_integer_indices(entries):
    with pytest.raises(TypeError):
        sv(5, entries)


@pytest.mark.parametrize("dimension", [2.5, 2.0, "3", True],
                         ids=["float", "integral-float", "str", "bool"])
def test_constructor_rejects_non_integer_dimension(dimension):
    with pytest.raises(TypeError):
        sv(dimension, {0: 1.0})
    with pytest.raises(TypeError):
        sv(dimension)


@pytest.mark.parametrize("entries", [
    [(1, 2.0), (1, 3.0)], [(3, 1.0), (1, 2.0), (3, 1.0)], [(1, 0.0), (1, 3.0)], [(1, 0.0), (1, 0.0)],
], ids=["last-wins", "unsorted-equal", "one-dropped", "both-dropped"])
def test_constructor_rejects_duplicate_indices(entries):
    with pytest.raises(ValueError, match="duplicate index"):
        sv(5, entries)


def test_a_vector_never_equals_a_non_vector():
    v = sv(3)
    assert v.__eq__(0) is NotImplemented
    assert (v == 0) is False
    assert v != 0


def test_vector_is_immutable():
    v = sv(3, {0: 1.0})
    with pytest.raises(AttributeError):
        v.dimension = 5


def test_budget_validation():
    assert check_budget(3, 10) == 3
    with pytest.raises(ValueError):
        check_budget(0, 10)
    with pytest.raises(ValueError):
        check_budget(11, 10)
    with pytest.raises(TypeError):
        check_budget(2.0, 10)


# -- dot ------------------------------------------------------------------------

def test_dot_single_shared_index():
    assert dot(sv(2, {0: 1.0}), sv(2, {0: 2.0})) == 2.0


def test_dot_disjoint_support():
    assert dot(sv(2, {0: 1.0}), sv(2, {1: 2.0})) == 0.0


def test_dot_hand_sum():
    a = sv(3, {0: 0.5, 2: -0.9})
    b = sv(3, {0: 2.0, 2: 1.0})
    assert dot(a, b) == pytest.approx(0.1, rel=1e-12)


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        dot(sv(2, {0: 1.0}), sv(3, {0: 1.0}))


# 1 + 1e16 + 1 adds left to right to 1e16. The builtin sum() compensates from
# CPython 3.12 on and gives 1.0000000000000002e+16 here.
WIDE_RANGE = sv(3, {0: 1.0, 1: 1e8, 2: 1.0})


@pytest.mark.parametrize("total, expected", [
    pytest.param(lambda: dot(sv(3, {0: 1.0, 1: 1e16, 2: 1.0}), sv(3, {0: 1.0, 1: 1.0, 2: 1.0})),
                 1e16, id="dot"),
    pytest.param(WIDE_RANGE.norm_l2_sq, 1e16, id="norm_l2_sq"),
    pytest.param(lambda: Learner(LearnerConfig("AROW"), 3, 3)._confidence(WIDE_RANGE),
                 1e16, id="confidence"),
    pytest.param(lambda: dot(sv(3), sv(3, {0: 1.0})), 0.0, id="dot-empty"),
    pytest.param(sv(3).norm_l2_sq, 0.0, id="norm_l2_sq-empty"),
])
def test_float_sums_add_left_to_right(total, expected):
    result = total()
    assert type(result) is float and result == expected


@given(st.integers(1, 30), st.data())
@settings(max_examples=200)
def test_dot_symmetric_and_linear(d, data):
    entries = st.dictionaries(st.integers(0, d - 1),
                              st.floats(-5, 5, allow_nan=False), max_size=d)
    a = sv(d, data.draw(entries))
    b = sv(d, data.draw(entries))
    c = sv(d, data.draw(entries))
    alpha = data.draw(st.floats(-3, 3, allow_nan=False))
    assert dot(a, b) == pytest.approx(dot(b, a), abs=1e-9)
    lhs = dot(_add_cut(a, alpha, c, d, {}), b)
    rhs = dot(a, b) + alpha * dot(c, b)
    assert lhs == pytest.approx(rhs, abs=1e-7)


# -- the step with no cut: _add_cut with B = d, as RAND calls it ------------------------

def test_add_cut_to_zero_vector():
    assert _add_cut(sv(3), 1.0, sv(3, {0: 1.0}), 3, {}) == sv(3, {0: 1.0})


def test_add_cut_exact_cancellation_drops_entry():
    out = _add_cut(sv(3, {0: 1.0}), -1.0, sv(3, {0: 1.0}), 3, {})
    assert out == sv(3)
    assert len(out) == 0


def test_add_cut_hand_arithmetic():
    out = _add_cut(sv(3, {0: 1.0}), 0.5, sv(3, {0: 1.0, 1: 2.0}), 3, {})
    assert out == sv(3, {0: 1.5, 1: 1.0})


def test_add_cut_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        _add_cut(sv(2), 1.0, sv(3, {0: 1.0}), 2, {})


# -- the budget cut: _cut against the oracle's truncation ------------------------------

def cut(w, B):
    """_cut of a vector's entries to B, asserted equal to the oracle's truncation."""
    got = _cut(w.dimension, dict(w.items()), B)
    assert list(got.items()) == list(truncate_reference(dict(w.items()), B).items())
    return got


def test_truncate_two_largest_magnitudes():
    out = cut(sv(3, {0: 0.5, 1: -0.9, 2: 0.1}), 2)
    assert out == sv(3, {0: 0.5, 1: -0.9})


def test_truncate_within_budget_unchanged():
    v = sv(3, {0: 0.5})
    assert cut(v, 3) == v
    assert cut(v, 1) == v


def test_truncate_tie_break_keeps_lower_index():
    out = cut(sv(3, {0: 0.3, 1: -0.3, 2: 0.3}), 2)
    assert out == sv(3, {0: 0.3, 1: -0.3})
    # brute force: stable sort on (-|v|, index) must agree
    entries = {0: 0.3, 1: -0.3, 2: 0.3}
    expected = dict(sorted(entries.items(), key=lambda iv: (-abs(iv[1]), iv[0]))[:2])
    assert dict(out.items()) == expected


@given(st.integers(1, 12), st.data())
@settings(max_examples=300)
def test_truncate_is_optimal_and_idempotent(d, data):
    entries = data.draw(
        st.dictionaries(st.integers(0, d - 1),
                        st.floats(-10, 10, allow_nan=False).filter(lambda v: abs(v) > 1e-12),
                        max_size=d)
    )
    B = data.draw(st.integers(1, d))
    w = sv(d, entries)
    out = cut(w, B)
    assert len(out) <= B
    assert cut(out, B) == out
    # kept mass is maximal over all B-subsets (brute force for small d)
    kept_mass = sum(abs(v) for _, v in out.items())
    best = sorted((abs(v) for v in dict(w.items()).values()), reverse=True)[:B]
    assert kept_mass == pytest.approx(sum(best), rel=1e-12, abs=1e-12)
    # kept entries keep their original values
    for i, v in out.items():
        assert dict(w.items()).get(i, 0.0) == v


# -- the L2-ball projection: _add_cut with a lam, no step and no cut ----------------

def project(w, lam):
    """w scaled into the L2 ball of radius 1/sqrt(lam), asserted equal to the oracle's."""
    got = _add_cut(w, 1.0, sv(w.dimension), w.dimension, {}, lam=lam)
    assert list(got.items()) == list(project_l2_ball_reference(dict(w.items()), lam).items())
    return got


def test_project_inside_ball_unchanged():
    v = sv(3, {0: 0.5})
    assert project(v, 1.0) == v


def test_project_hand_factor():
    out = project(sv(3, {0: 2.0}), 4.0)
    assert out == sv(3, {0: 0.5})


def test_project_zero_vector_fixed_point():
    z = sv(3)
    assert project(z, 1.0) == z


def test_project_rejects_nonpositive_lambda():
    # The projection's lam is checked where a run sets it: in FOFS's LearnerConfig.
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam must be"):
            LearnerConfig("FOFS", lam=bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_vector_arithmetic_rejects_non_finite_scalars(bad):
    with pytest.raises(ValueError, match="^s must be finite"):
        _add_cut(sv(3, {0: 1.0, 1: 2.0}), 1.0, sv(3, {2: 1.0}), 3, {}, s=bad)


def test_project_norm_bound_randomized():
    rng = random.Random(99)
    for _ in range(10_000):
        d = rng.randint(1, 20)
        nnz = rng.randint(0, d)
        entries = {i: rng.uniform(-10, 10) for i in rng.sample(range(d), nnz)}
        lam = rng.uniform(0.1, 5.0)
        out = project(sv(d, entries), lam)
        assert out.norm_l2() <= 1.0 / math.sqrt(lam) + 1e-12


def test_add_cut_scales_its_base():
    # s*base keeps the products at or above ZERO_EPS, then takes x's writes.
    v, x = sv(4, {0: 2.0, 1: -3.0, 3: 1e-10}), sv(4, {1: 0.5, 2: 1.0})
    for s in (1.0, 0.0, -0.0, -0.5, 1e-6, 5e-324, -1e-310):
        alone = _add_cut(v, 0.5, sv(4), 4, {}, s=s)
        assert list(alone.items()) == list(sparse_reference(dict(v.items()), s).items())
        stepped = _add_cut(v, 0.5, x, 4, {}, s=s)
        assert list(stepped.items()) == list(sparse_reference(_updated(v, 0.5, x, {}, s)).items())
        assert_caches_hold(alone)
        assert_caches_hold(stepped)
    assert dict(_add_cut(v, 0.5, sv(4), 4, {}, s=-0.5).items()) == {0: -1.0, 1: 1.5, 3: -5e-11}
    assert len(_add_cut(v, 0.5, sv(4), 4, {}, s=0.0)) == 0


# -- the validating boundary and the trusted path --------------------------------------

@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -10**400])
def test_constructor_rejects_non_finite_values_by_index(value):
    with pytest.raises(ValueError, match="at index 2"):
        sv(4, {0: 1.0, 2: value})
    with pytest.raises(ValueError, match="at index 1"):
        sv(4, [(1, value)])


@pytest.mark.parametrize("value", [True, False])
def test_constructor_rejects_bool_values_by_index(value):
    with pytest.raises(TypeError, match=f"^value must be a real, got {value} at index 2$"):
        sv(4, {0: 1.0, 2: value})
    with pytest.raises(TypeError, match="at index 1$"):
        sv(4, [(1, value)])


def test_constructor_keeps_the_largest_finite_value():
    assert dict(sv(2, {1: -1.7976931348623157e308}).items()) == {1: -1.7976931348623157e308}


def rebuilt(v):
    """The same entries passed through the validating public constructor."""
    return SparseVector(v.dimension, dict(v.items()))


def assert_same_vector(v):
    reference = rebuilt(v)
    assert v == reference
    assert list(v.items()) == list(reference.items())


# Small integers and their halves make cancellations and magnitude ties common;
# the tiny values fall below ZERO_EPS once scaled.
_VALUES = st.one_of(
    st.integers(-3, 3).map(lambda k: k / 2),
    st.floats(-5, 5, allow_nan=False),
    st.sampled_from([1e-15, -1e-15, 2e-15, 1e-300]),
)


@given(st.integers(1, 16), st.data())
@settings(max_examples=400)
def test_trusted_results_equal_the_public_constructor(d, data):
    entries = st.dictionaries(st.integers(0, d - 1), _VALUES, max_size=d)
    w = sv(d, data.draw(entries))
    x = sv(d, data.draw(entries))
    s = data.draw(st.one_of(st.sampled_from([-1.0, 0.5, 1e-15, 0.0]),
                            st.floats(-3, 3, allow_nan=False)))
    assert_same_vector(_add_cut(w, s, x, d, {}))
    assert_same_vector(_add_cut(w, 1.0, x, d, {}, s=s))
    assert_same_vector(cut(w, data.draw(st.integers(1, d))))
    assert_same_vector(project(w, data.draw(st.floats(0.01, 100))))


@given(st.integers(2, 12), st.data())
@settings(max_examples=300)
def test_truncate_ties_keep_the_lower_indices(d, data):
    magnitudes = st.sampled_from([0.5, 1.0, 2.0])
    entries = data.draw(st.dictionaries(
        st.integers(0, d - 1), st.tuples(magnitudes, st.booleans()), max_size=d))
    w = sv(d, {i: -m if neg else m for i, (m, neg) in entries.items()})
    B = data.draw(st.integers(1, d))
    expected = dict(sorted(w.items(), key=lambda iv: (-abs(iv[1]), iv[0]))[:B])
    out = cut(w, B)
    assert dict(out.items()) == expected
    assert_same_vector(out)


# The raw dicts a learner update builds: keys in any order, halves whose
# magnitudes tie across the cut, exact zeros and values either side of ZERO_EPS.
_RAW_VALUES = st.one_of(
    st.integers(-4, 4).map(lambda k: k / 2),
    st.floats(-5, 5, allow_nan=False),
    st.sampled_from([ZERO_EPS, -ZERO_EPS, 0.5 * ZERO_EPS, -1e-300]),
)


# Two distinct magnitudes that tie once scaled by 0.7.
_TIE_A, _TIE_B = 1.8700101551766397, 1.8700101551766395
assert _TIE_A != _TIE_B and 0.7 * _TIE_A == 0.7 * _TIE_B

# Two adjacent floats that tie once {1: _MOST_CUT_B, 2: _MOST_CUT_A, 3: 0.5}
# is scaled into the unit ball, found by search as the two above were.
_MOST_CUT_A, _MOST_CUT_B = 1.8880000000000072, 1.888000000000007
_most_cut = project_l2_ball_reference({1: _MOST_CUT_B, 2: _MOST_CUT_A, 3: 0.5}, 1.0)
assert _MOST_CUT_A != _MOST_CUT_B and _most_cut[1] == _most_cut[2]

# A projected step hands _cut its copy scaled by c <= 1: 1.0 is the plain
# truncation, the tiny factor pushes the B-th magnitude below ZERO_EPS.
_CUT_FACTORS = st.one_of(
    st.sampled_from([1.0, 0.7, 1e-16]),
    st.floats(0.0, 1.0, exclude_min=True),
)


@given(st.dictionaries(st.integers(0, 11), _RAW_VALUES, max_size=12), st.integers(1, 12),
       _CUT_FACTORS)
@example({5: 1.0, 0: 0.5, 2: 1e-16}, 2, 1.0)     # exactly B survive the ZERO_EPS drop
@example({0: 1.0, 1: 1e-16, 2: 1e-17}, 2, 1.0)   # fewer than B survive it
@example({3: 0.5, 1: -0.5, 0: 0.5, 7: 2.0}, 2, 1.0)  # a tie straddles the cut
@example({0: 3.0, 2: -_TIE_B, 1: _TIE_A, 5: 0.5}, 2, 0.7)  # a tie appears once scaled
@example({4: 1.0, 2: -1.5}, 3, 0.5)              # already within budget
@example({0: 1.0, 1: -0.5, 2: 0.5, 3: 0.25, 5: 0.5}, 2, 1.0)  # most is cut, a tie straddles it
@example({0: 30.0, 1: -20.0, 2: 1.0, 3: 0.5, 4: 0.25}, 2, 1e-16)  # most is cut, scaled tiny
@example({0: 30.0, 1: -2.0, 2: 1.0, 3: 0.5, 4: 0.25}, 2, 1e-16)  # and the B-th below ZERO_EPS
@example({7: 0.25, 0: 1.0, 5: 0.5, 3: -2.0}, 3, 1.0)  # few are cut, no tie
@example({7: 0.25, 0: 1.0, 5: 0.5, 3: -2.0}, 3, 0.7)  # the same, scaled
@example({9: 2.0, 1: -1.0, 4: 3.0, 2: 0.5}, 2, 1.0)  # half is cut, no tie
@example({9: 2.0, 1: -1.0, 4: 3.0, 2: 0.5}, 2, 0.7)  # the same, scaled
@settings(max_examples=500)
def test_cut_equals_truncate_of_the_scaled_rebuild(out, B, c):
    expected = truncate_reference(sparse_reference(sparse_reference(out), c), B)
    got = _cut(12, {i: c * v for i, v in out.items()}, B)
    assert dict(got.items()) == expected
    assert list(got.items()) == list(expected.items())
    assert_caches_hold(got)


def _updated(w, s, x, sigma, decay=1.0):
    """decay*w's entries at or above ZERO_EPS, with x's indices rewritten to
    decay*w_i + s*sigma_i*x_i, sigma_i 1.0 where unstored."""
    out = sparse_reference(dict(w.items()), decay)
    for i, v in x.items():
        out[i] = out.get(i, 0.0) + s * sigma.get(i, 1.0) * v
    return out


def assert_caches_hold(w):
    """A cached floor bounds every magnitude, and a dict marked index-sorted is."""
    assert not w._sorted or list(w._data) == sorted(w._data)
    assert w._floor is None or all(w._floor <= abs(v) for v in w._data.values())


# Halves make magnitude ties across the cut and exact cancellations common; the
# tiny values and the small steps land x's writes below ZERO_EPS.
_STEP_VALUES = st.one_of(
    st.integers(-4, 4).filter(bool).map(lambda k: k / 2),
    st.floats(-5, 5, allow_nan=False).filter(lambda v: abs(v) >= ZERO_EPS),
    st.sampled_from([ZERO_EPS, -2 * ZERO_EPS]),
)
_STEP_SCALES = st.one_of(st.sampled_from([1.0, -1.0, 0.5, 1e-16]),
                         st.floats(-3, 3, allow_nan=False))


# Second-order scales are positive; tiny ones land x's writes below ZERO_EPS.
_SIGMAS = st.dictionaries(
    st.integers(0, 11),
    st.one_of(st.floats(0.0, 2.0, exclude_min=True), st.sampled_from([1e-16, 0.5, 1.0])),
    max_size=12,
)


def check_chained_add_cuts(data, sigmas):
    """_add_cut against the truncated rebuild, over a chain of updates.

    Chained updates carry each result's floor and order into the next; the
    first base may exceed the budget and be unsorted, as the merged vector is
    right after a broadcast.
    """
    d = 12
    entries = st.dictionaries(st.integers(0, d - 1), _STEP_VALUES, max_size=d)
    B = data.draw(st.integers(1, d))
    w = sv(d, data.draw(entries))
    if data.draw(st.booleans()):  # as the merge wraps it: the dict in any order
        w = _from_unsorted(d, dict(data.draw(st.permutations(list(w.items())))))
    for _ in range(data.draw(st.integers(1, 6))):
        x = sv(d, data.draw(entries))
        s, sigma = data.draw(_STEP_SCALES), data.draw(sigmas)
        expected = truncate_reference(sparse_reference(_updated(w, s, x, sigma)), B)
        got = _add_cut(w, s, x, B, sigma)
        assert dict(got.items()) == expected
        assert list(got.items()) == list(expected.items())
        assert_caches_hold(got)
        w = got


@given(st.data())
@settings(max_examples=500)
def test_in_place_cut_equals_the_rebuild(data):
    check_chained_add_cuts(data, st.just({}))


@given(st.data())
@settings(max_examples=500)
def test_second_order_add_cut_equals_the_rebuild(data):
    check_chained_add_cuts(data, _SIGMAS)


@given(st.data())
@settings(max_examples=300)
def test_one_loop_shrink_equals_the_add_cut_then_the_shrink(data):
    # CW, SCW and AROW pass beta to shrink sigma in the loop that writes the
    # weights; the two-pass form is an add-cut that reads sigma, then _shrink_sigma.
    d = 12
    entries = st.dictionaries(st.integers(0, d - 1), _STEP_VALUES, max_size=d)
    B = data.draw(st.integers(1, d))
    w, sigma = sv(d, data.draw(entries)), data.draw(_SIGMAS)
    two_pass = Learner(LearnerConfig("AROW"), d, B)
    two_pass.w, two_pass.sigma = w, dict(sigma)
    for _ in range(data.draw(st.integers(1, 6))):
        x = sv(d, data.draw(entries))
        s, beta = data.draw(_STEP_SCALES), data.draw(st.floats(0.0, 4.0))
        w = _add_cut(w, s, x, B, sigma, beta)
        two_pass.w = _add_cut(two_pass.w, s, x, B, two_pass.sigma)
        two_pass._shrink_sigma(x, beta)
        assert [(i, v.hex()) for i, v in w.items()] == [
            (i, v.hex()) for i, v in two_pass.w.items()]
        assert [(i, v.hex()) for i, v in sigma.items()] == [
            (i, v.hex()) for i, v in two_pass.sigma.items()]
        assert_caches_hold(w)


@pytest.mark.parametrize("w, x, B, expected, in_place", [
    # The excess falls on x's writes only, below the floor: deleted from the copy.
    ({0: 3.0, 1: 2.0, 5: 1.0}, {5: -0.875, 7: 1e-16}, 2, {0: 3.0, 1: 2.0}, True),
    # x's write ties the floor at a lower index, so the base entry goes: rebuilt.
    ({3: 2.0, 5: 1.0}, {0: 1.0}, 2, {0: 1.0, 3: 2.0}, False),
    # PETRUN's shape: the writes land above the floor, so the excess reaches
    # past them; no tie straddles the cut, so base's smallest is deleted.
    ({0: 3.0, 1: 2.0, 5: 1.0}, {1: 1.5, 7: -2.5}, 3, {0: 3.0, 1: 3.5, 7: -2.5}, True),
    # Two writes below the floor tie exactly across the cut: ranked by index in place.
    ({0: 3.0, 1: 2.0, 5: 1.0}, {7: 0.5, 8: -0.5, 9: 0.25}, 4, {0: 3.0, 1: 2.0, 5: 1.0, 7: 0.5},
     True),
])
def test_in_place_cut_only_when_it_is_exact(w, x, B, expected, in_place, monkeypatch):
    # The copy is internal to _add_cut; an in-place cut is one that never calls _cut.
    rebuilds = []
    monkeypatch.setattr("negofs.sparse._cut", lambda *args: rebuilds.append(args) or _cut(*args))
    got = _add_cut(sv(10, w), 1.0, sv(10, x), B, {})
    assert list(got.items()) == sorted(expected.items())
    assert (rebuilds == []) == in_place
    assert_caches_hold(got)


def test_a_cached_floor_is_invisible():
    w = sv(10, {0: 3.0, 1: 2.0, 5: 1.0, 8: -0.5})
    x = sv(10, {5: 0.25, 6: 1.5})
    got = _add_cut(w, 1.0, x, 3, {})
    assert got._floor is not None
    fresh = sv(10, dict(got.items()))
    assert fresh._floor is None
    assert got == fresh and hash(got) == hash(fresh) and repr(got) == repr(fresh)
    assert pickle.dumps(got) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(got)) == got
    assert copy.copy(got) == got and copy.deepcopy(got) == got


_FACTORS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e-15, 1e300, -1e300]),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@given(st.dictionaries(st.integers(0, 11), st.floats(-1e3, 1e3, allow_nan=False), max_size=12),
       _FACTORS, st.booleans())
@example({}, 2.0, False)    # empty: the source floor is inf
@example({}, 0.0, False)    # and 0 * inf would be NaN
@example({3: 1e-3, 5: 2.0}, 1e-13, True)   # a tiny factor drops the smallest entry
@settings(max_examples=500)
def test_add_cut_scales_a_floor_that_bounds_every_magnitude(entries, s, known):
    w = sv(12, entries)
    if known:  # a source whose floor is already set
        w = _add_cut(w, 1.0, sv(12), 12, {}, s=1.0 + 2 ** -52)
    got = _add_cut(w, 1.0, sv(12), 12, {}, s=s)
    assert list(got.items()) == list(sparse_reference(dict(w.items()), s).items())
    assert got._floor is None or not math.isnan(got._floor)
    assert_caches_hold(got)
    fresh = sv(12, dict(got.items()))
    assert got == fresh and hash(got) == hash(fresh) and repr(got) == repr(fresh)
    assert pickle.dumps(got) == pickle.dumps(fresh)


def _three_steps(w, s, x, B, lam, decay=1.0):
    """An ALMA or FOFS update: add s*x to decay*w, then project into the L2 ball, then truncate."""
    summed = sparse_reference(_updated(w, s, x, {}, decay))
    return truncate_reference(project_l2_ball_reference(summed, lam), B)


_LAMS = st.one_of(st.just(1.0), st.floats(0.0, 1e3, exclude_min=True))

# Values up to ±1e200, whose squares overflow to inf: the norm is then taken
# relative to the largest magnitude.
_WIDE_VALUES = st.one_of(
    _STEP_VALUES,
    st.floats(-1e200, 1e200).filter(lambda v: abs(v) >= ZERO_EPS),
    st.sampled_from([1e200, -1e200]),
)


# The factors of the base in ALMA's and FOFS's updates: FOFS decays its
# weights in the same _add_cut, which scales their floor by the decay.
_DECAYS = st.sampled_from([1.0, 1.0, 0.998, 0.5, 1e-16])


@given(st.data())
@settings(max_examples=500)
def test_add_project_cut_equals_the_three_steps(data):
    # Chained updates carry each result's floor and order into the next; the
    # first base may be unsorted, as the merged vector is after a broadcast.
    d = 12
    entries = st.dictionaries(st.integers(0, d - 1), _WIDE_VALUES, max_size=d)
    w = sv(d, data.draw(entries))
    if data.draw(st.booleans()):
        w = _from_unsorted(d, dict(data.draw(st.permutations(list(w.items())))))
    B = data.draw(st.integers(1, d))
    lam = data.draw(_LAMS)
    for _ in range(data.draw(st.integers(1, 4))):
        decay = data.draw(_DECAYS)
        x = sv(d, data.draw(entries))
        s = data.draw(st.one_of(_STEP_SCALES, st.sampled_from([8.0, -20.0])))
        expected = _three_steps(w, s, x, B, lam, decay)
        got = _add_cut(w, s, x, B, {}, lam=lam, s=decay)
        assert dict(got.items()) == expected
        assert list(got.items()) == list(expected.items())
        assert_caches_hold(got)
        w = got


@pytest.mark.parametrize("w, x, B, lam, in_place", [
    # x's writes are the excess, all below w's floor: deleted from the copy.
    ({0: 3.0, 1: 2.0, 5: 1.0}, {7: 0.5, 8: -0.25}, 3, 1.0, True),
    # One of them stays and is the new floor; only the other is deleted.
    ({0: 3.0, 1: 2.0, 5: 1.0}, {7: 0.5, 8: -0.25}, 4, 1.0, True),
    # The excess reaches past the writes: w's smallest entry is deleted.
    ({0: 3.0, 1: 2.0, 5: 1.0}, {1: 1.5, 7: -2.5}, 3, 1.0, True),
    # Two distinct writes below the floor tie once scaled, the smaller at the
    # lower index, which the scaled cut keeps: rebuilt.
    ({0: 3.0}, {1: 2.1562499999999996, 2: 2.15625}, 2, 1.0, False),
    # The same past the writes, between two of w's entries.
    ({0: 3.0, 1: 1.4296874999999998, 2: 1.4296875}, {3: 2.5}, 3, 1.0, False),
    # A kept entry falls below ZERO_EPS once scaled: rebuilt.
    ({0: 4.0, 1: 0.002}, {2: 0.001}, 2, 1e28, False),
], ids=["writes-dropped", "a-write-stays", "past-the-writes", "scaled-tie", "scaled-tie-past",
        "scaled-below-eps"])
def test_in_place_projection_only_when_it_is_exact(w, x, B, lam, in_place, monkeypatch):
    # Every case scales by a factor below 1; the rebuilt ones keep other
    # entries than the unscaled cut. An in-place cut never calls _cut.
    rebuilds = []
    monkeypatch.setattr("negofs.sparse._cut", lambda *args: rebuilds.append(args) or _cut(*args))
    w, x = sv(12, w), sv(12, x)
    got = _add_cut(w, 1.0, x, B, {}, lam=lam)
    expected = _three_steps(w, 1.0, x, B, lam)
    assert list(got.items()) == list(expected.items())
    summed = sparse_reference(_updated(w, 1.0, x, {}))
    assert math.sqrt(lam) * math.sqrt(sum(v * v for v in summed.values())) > 1.0
    assert (truncate_reference(summed, B).keys() == expected.keys()) == in_place
    assert (rebuilds == []) == in_place
    assert_caches_hold(got)


@pytest.mark.parametrize("w, B, lam", [
    # Distinct magnitudes that tie once scaled into the unit ball.
    ({0: 3.0, 1: _TIE_A, 2: _TIE_B}, 2, 1.0),
    # The B-th scaled magnitude falls below ZERO_EPS.
    ({0: 4.0, 1: 2 * ZERO_EPS, 2: ZERO_EPS}, 2, 1.0),
    # Already within the ball and the budget.
    ({0: 0.25, 4: -0.5}, 3, 1.0),
    # Within the unit ball but not within the ball of radius 1/sqrt(lam).
    ({0: 0.25, 4: -0.5}, 3, 100.0),
    # The sum of squares overflows to inf; the largest entry keeps the direction.
    ({0: 1e200, 1: 1.0}, 2, 1.0),
    # Most of the copy is cut, and its two largest tie only once scaled: _cut
    # gets the scaled copy and keeps the lower index, not the larger value.
    ({1: _MOST_CUT_B, 2: _MOST_CUT_A}, 1, 1.0),
], ids=["scaled-tie", "below-eps", "within-ball", "outside-lam-ball", "overflowing-norm",
        "most-cut-scaled-tie"])
def test_add_project_cut_edge_cases(w, B, lam):
    w, x = sv(12, w), sv(12, {3: 0.5})
    got = _add_cut(w, 1.0, x, B, {}, lam=lam)
    expected = _three_steps(w, 1.0, x, B, lam)
    assert list(got.items()) == list(expected.items())


# Sums over these depend on their order: 1 + 1e16 + 1 adds left to right to
# 1e16. 1e200 squared overflows, so norm_l2 is then taken relative to the
# largest magnitude, where 1 + 1e-16 + 1e-16 likewise differs from 1e-16 + 1e-16 + 1.
_ORDER_SENSITIVE = st.one_of(
    st.floats(-5, 5, allow_nan=False).filter(lambda v: abs(v) >= ZERO_EPS),
    st.sampled_from([1.0, 1e8, 1e16, -1e16, 1e192, 1e200]),
)


@given(st.dictionaries(st.integers(0, 11), _ORDER_SENSITIVE, max_size=12),
       st.dictionaries(st.integers(0, 11), _ORDER_SENSITIVE, max_size=12),
       st.integers(0, 2 ** 16))
@example({0: 1.0, 2: 1e8, 5: 1.0}, {0: 1.0, 2: 1e8, 5: 1.0}, 0)  # order 0, 5, 2
@example({0: 1.0, 2: 1e16, 5: 1.0, 7: 1e192, 9: 1e200, 11: 1e192},
         {0: 1.0, 2: 1.0, 5: 1.0, 7: 1e-190, 9: 1e-190, 11: 1e-190}, 1)  # order 5, 7, 11, 0, 9, 2
@settings(max_examples=300)
def test_an_unsorted_dict_cannot_be_told_from_its_sorted_twin(entries, other_entries, seed):
    twin, other = sv(12, entries), sv(12, other_entries)
    values = dict(twin.items())
    order = list(values)
    random.Random(seed).shuffle(order)

    def unsorted():  # a new vector for each reader: the first ordered read sorts the dict
        return _from_unsorted(12, {i: values[i] for i in order})

    readers = {
        "items": lambda v: list(v.items()),
        "indices": lambda v: list(v.indices()),
        "repr": repr,
        "hash": hash,
        "pickle": lambda v: pickle.dumps(pickle.loads(pickle.dumps(v))),
        "dot": lambda v: dot(v, other).hex(),
        "dot, swapped": lambda v: dot(other, v).hex(),
        "norm_l2_sq": lambda v: v.norm_l2_sq().hex(),
        "norm_l2": lambda v: v.norm_l2().hex(),
    }
    for name, read in readers.items():
        assert read(unsorted()) == read(twin), name
    assert unsorted() == twin and twin == unsorted()
    # What is derived from it keeps its order, and says so truthfully.
    for derive in (lambda v: _add_cut(v, 1.0, other, 6, {}, s=-0.5),
                   lambda v: _restrict(v, set(order[::2])),
                   lambda v: _add_cut(v, 1.0, other, 6, {})):
        got = derive(unsorted())
        assert_caches_hold(got)
        assert list(got.items()) == list(derive(twin).items())


@given(st.lists(st.integers(0, 2), min_size=1, max_size=9), st.data())
@settings(max_examples=300)
def test_overlay_writes_each_vector_once_with_the_same_result(picks, data):
    # Offers often share one vector object: the broadcast a participant kept.
    entries = st.dictionaries(st.integers(0, 9), _STEP_VALUES, max_size=10)
    pool = [sv(10, data.draw(entries)) for _ in range(3)]
    vectors = [pool[k] for k in picks]
    expected = {}
    for w in vectors:
        expected.update(dict(w.items()))
    merged, supports = _overlay(vectors)
    assert merged == expected
    assert [set(s) for s in supports] == [set(w.indices()) for w in vectors]


def test_only_sparse_calls_the_trusted_constructor():
    package = Path(negofs.__file__).parent
    callers = sorted(p.name for p in package.glob("*.py") if "_trusted" in p.read_text())
    assert callers == ["sparse.py"]


def test_only_sparse_reads_vector_internals():
    # The floor is a cache that only sparse.py keeps right: a read elsewhere
    # could cut the wrong entries without any error.
    package = Path(negofs.__file__).parent
    readers = sorted(p.name for p in package.glob("*.py")
                     if re.search(r"\._(data|floor)\b", p.read_text()))
    assert readers == ["sparse.py"]
