import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negofs.trust import TrustParams, TrustState, direct_trust, satisfaction_of_window, update_trust


def test_params_validation():
    with pytest.raises(ValueError):
        TrustParams(c=0.0)
    with pytest.raises(ValueError):
        TrustParams(c=1.0)
    with pytest.raises(ValueError):
        TrustParams(c=0.5, threshold=0.6)  # threshold must stay <= 1 - c
    with pytest.raises(ValueError):
        TrustParams(threshold=0.0)


def test_satisfaction_of_window():
    assert satisfaction_of_window(10, 10) == 1.0
    assert satisfaction_of_window(0, 10) == 0.0
    assert satisfaction_of_window(7, 10) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        satisfaction_of_window(1, 0)
    with pytest.raises(ValueError):
        satisfaction_of_window(11, 10)


def test_fresh_state_has_zero_trust():
    assert direct_trust(TrustState()) == 0.0


def test_first_transaction_forces_alpha_one():
    state = update_trust(TrustState(), 1.0, TrustParams())
    assert state.sat == 1.0
    assert direct_trust(state) == 1.0
    assert state.n == 1
    # the deviation accumulator is updated even on the first transaction
    assert state.xi == pytest.approx(0.5)


def test_two_step_hand_trace():
    params = TrustParams(c=0.5, threshold=0.25)
    state = update_trust(TrustState(), 1.0, params)
    state = update_trust(state, 0.0, params)
    # delta=1, xi=0.5*1+0.5*0.5=0.75, alpha=0.25+0.5/1.75, sat=1-alpha=13/28
    assert state.xi == pytest.approx(0.75, abs=1e-12)
    assert state.sat == pytest.approx(13 / 28, abs=1e-9)


def test_matching_satisfaction_is_fixed_point():
    params = TrustParams()
    state = update_trust(TrustState(), 0.6, params)
    before = state.sat
    state = update_trust(state, before, params)
    assert state.sat == pytest.approx(before)


def test_direct_trust_equals_sat_always():
    params = TrustParams()
    state = TrustState()
    rng = random.Random(0)
    for _ in range(50):
        state = update_trust(state, rng.random(), params)
        assert direct_trust(state) == state.sat


def test_out_of_range_sat_cur_rejected():
    with pytest.raises(ValueError):
        update_trust(TrustState(), 1.5, TrustParams())
    with pytest.raises(ValueError):
        update_trust(TrustState(), -0.1, TrustParams())


def test_bounds_over_random_sequences():
    # 10^4 random transactions across many independent chains: sat stays in
    # [0,1], alpha (recovered from the recurrence) in [threshold, threshold+c],
    # xi below the running max deviation.
    params = TrustParams()
    rng = random.Random(7)
    total = 0
    while total < 10_000:
        state = TrustState()
        max_delta = 0.0
        for _ in range(rng.randint(1, 40)):
            sat_cur = rng.random()
            delta = abs(state.sat - sat_cur)
            max_delta = max(max_delta, delta)
            previous = state
            state = update_trust(state, sat_cur, params)
            total += 1
            assert 0.0 <= state.sat <= 1.0
            assert state.xi >= 0.0
            assert state.xi <= max_delta + 1e-12
            if previous.n > 0:
                if sat_cur != previous.sat:
                    alpha = (state.sat - previous.sat) / (sat_cur - previous.sat)
                    assert params.threshold - 1e-9 <= alpha <= params.threshold + params.c + 1e-9


def test_constant_input_converges_monotonically():
    params = TrustParams()
    state = update_trust(TrustState(), 0.2, params)
    target = 0.9
    gaps = []
    for _ in range(60):
        state = update_trust(state, target, params)
        gaps.append(abs(target - state.sat))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


@given(st.lists(st.floats(0, 1), min_size=1, max_size=30))
@settings(max_examples=200)
def test_sat_always_within_unit_interval(sequence):
    params = TrustParams()
    state = TrustState()
    for sat_cur in sequence:
        state = update_trust(state, sat_cur, params)
        assert 0.0 <= state.sat <= 1.0


def test_alpha_xi_switch_changes_second_step_only():
    # alpha reads the accumulator already updated with the current transaction
    params = TrustParams()
    state = update_trust(TrustState(), 1.0, params)
    assert state.sat == 1.0  # first transaction pinned by alpha = 1
    state = update_trust(state, 0.0, params)
    # xi = 0.75 after the update, so alpha = 0.25 + 0.5/1.75 (not 0.5/1.5)
    assert state.sat == pytest.approx(13 / 28, abs=1e-12)
