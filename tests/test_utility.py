import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    aggregate_utility_reference,
    concession_threshold_reference,
    issue_domain_reference,
    linear_score_reference,
    offer_cost_reference,
    time_dependent_value_reference,
)
from negofs.negotiation import Offer, offer_costs
from negofs.sparse import SparseVector
from negofs.utility import IssueWeightProfile, acceptance_threshold, issue_badness


def make_offer(pid=0, trust=0.5, err=5, instances=10, cost_time=1.0):
    return Offer(pid, SparseVector(4, {0: 1.0}), err, cost_time, trust, instances)


# -- the oracle's linear score and domain ------------------------------------------

def test_linear_score_minimize_best_at_lower():
    dom = issue_domain_reference(2.0, 6.0)
    assert linear_score_reference(2.0, dom) == 1.0
    assert linear_score_reference(6.0, dom) == 0.0


def test_linear_score_midpoint():
    assert linear_score_reference(4.0, issue_domain_reference(2.0, 6.0)) == 0.5


def test_linear_score_clamps_out_of_range():
    dom = issue_domain_reference(0.0, 1.0)
    assert linear_score_reference(-5.0, dom) == 1.0
    assert linear_score_reference(7.0, dom) == 0.0


def test_degenerate_domain_rejected():
    with pytest.raises(ValueError):
        issue_domain_reference(1.0, 1.0)


# -- weights and the oracle's aggregation ------------------------------------------

def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        IssueWeightProfile(0.2, 0.5, 0.4)
    with pytest.raises(ValueError):
        IssueWeightProfile(-0.1, 0.6, 0.5)


def test_aggregate_worked_example():
    weights = IssueWeightProfile(0.2, 0.5, 0.3).as_tuple()
    assert aggregate_utility_reference(weights, (1.0, 0.8, 0.5)) == pytest.approx(0.75)


def test_aggregate_extremes():
    weights = IssueWeightProfile(0.2, 0.5, 0.3).as_tuple()
    assert aggregate_utility_reference(weights, (1.0, 1.0, 1.0)) == pytest.approx(1.0)
    assert aggregate_utility_reference(weights, (0.0, 0.0, 0.0)) == 0.0


def test_aggregate_count_mismatch():
    with pytest.raises(ValueError):
        aggregate_utility_reference(IssueWeightProfile().as_tuple(), (1.0, 0.5))


def test_aggregate_monotone_in_each_score():
    rng = random.Random(3)
    weights = IssueWeightProfile(0.2, 0.5, 0.3).as_tuple()
    for _ in range(200):
        scores = [rng.random() for _ in range(3)]
        base = aggregate_utility_reference(weights, scores)
        for j in range(3):
            bumped = list(scores)
            bumped[j] = min(1.0, bumped[j] + rng.random() * (1 - bumped[j]))
            assert aggregate_utility_reference(weights, bumped) >= base - 1e-12


# -- offer_costs: each round's domains span its own offers -----------------------------

def test_perfect_offer_costs_zero():
    profile = IssueWeightProfile(0.2, 0.5, 0.3)
    perfect = make_offer(pid=0, trust=1.0, err=0, instances=10, cost_time=0.1)
    other = make_offer(pid=1, trust=0.3, err=5, instances=10, cost_time=2.0)
    assert offer_costs([perfect, other], profile)[0] == 0.0


def test_worst_offer_costs_one():
    profile = IssueWeightProfile(0.2, 0.5, 0.3)
    worst = make_offer(pid=0, trust=0.0, err=5, instances=10, cost_time=2.0)
    other = make_offer(pid=1, trust=0.6, err=0, instances=10, cost_time=0.1)
    assert offer_costs([worst, other], profile)[0] == pytest.approx(1.0)


def test_offer_cost_hand_sum():
    # trust 0.5, error rate 0.4 in [0, 1] (badness 0.4), cost time 2.0 in [0, 2] (badness 1.0)
    profile = IssueWeightProfile(0.2, 0.5, 0.3)
    offer = make_offer(pid=0, trust=0.5, err=4, instances=10, cost_time=2.0)
    best = make_offer(pid=1, trust=1.0, err=0, instances=10, cost_time=0.0)
    worst = make_offer(pid=2, trust=0.0, err=10, instances=10, cost_time=1.0)
    cost = offer_costs([offer, best, worst], profile)[0]
    assert cost == pytest.approx(0.2 * 0.5 + 0.5 * 0.4 + 0.3 * 1.0)


def test_offer_cost_in_unit_interval_fuzz():
    rng = random.Random(11)
    for _ in range(10_000):
        w = [rng.random() for _ in range(3)]
        total = sum(w) or 1.0
        profile = IssueWeightProfile(w[0] / total, w[1] / total,
                                     1.0 - w[0] / total - w[1] / total)
        offers = []
        for pid in range(rng.randint(2, 5)):
            instances = rng.randint(1, 100)
            offers.append(make_offer(
                pid=pid,
                trust=rng.random(),
                err=rng.randint(0, instances),
                instances=instances,
                cost_time=rng.uniform(0, 5),
            ))
        for cost in offer_costs(offers, profile).values():
            assert 0.0 <= cost <= 1.0 + 1e-12


def test_issue_badness_is_zero_on_ties():
    assert issue_badness([1.0, 1.0, 1.0]) == [0.0, 0.0, 0.0]
    assert issue_badness([1.0, 3.0, 2.0]) == [0.0, 1.0, 0.5]


def test_argmin_invariant_under_time_rescaling():
    # rescaling every cost_time by a positive constant cannot change which
    # offer minimizes the composite cost
    rng = random.Random(21)
    profile = IssueWeightProfile(0.2, 0.5, 0.3)
    for _ in range(300):
        offers = [
            make_offer(pid=i, trust=rng.random(), err=rng.randint(0, 10),
                       instances=10, cost_time=rng.uniform(0.1, 5))
            for i in range(4)
        ]
        scale_factor = rng.uniform(0.01, 100)

        def argmin(offer_list):
            costs = offer_costs(offer_list, profile)
            return min(offer_list, key=lambda o: (costs[o.participant_id], o.participant_id)).participant_id

        rescaled = [
            Offer(o.participant_id, o.w, o.err_count, o.cost_time * scale_factor,
                  o.trust, o.instances)
            for o in offers
        ]
        assert argmin(offers) == argmin(rescaled)


_PROFILES = [IssueWeightProfile(), IssueWeightProfile(1.0, 0.0, 0.0),
             IssueWeightProfile(0.0, 1.0, 0.0), IssueWeightProfile(0.0, 0.0, 1.0),
             IssueWeightProfile(0.1, 0.6, 0.3), IssueWeightProfile(0.7, 0.2, 0.1),
             IssueWeightProfile(1 / 3, 1 / 3, 1 / 3)]


@st.composite
def _offer_rounds(draw):
    """2-9 offers; each issue may tie across all of them (its domain is then None)."""
    n = draw(st.integers(2, 9))
    trusts = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    times = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1e3))
    tied_error, tied_time = draw(st.booleans()), draw(st.booleans())
    shared = (draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(times))
    offers = []
    for pid in range(n):
        instances = shared[1] if tied_error else draw(st.integers(0, 40))
        err = shared[0] if tied_error else draw(st.integers(0, max(instances, 3)))
        cost_time = shared[2] if tied_time else draw(times)
        offers.append(Offer(pid, SparseVector(4, {0: 1.0}), err, cost_time,
                            draw(trusts), instances))
    return offers


def _spanned(values):
    """The oracle domain of one round's values, None when they all tie."""
    lo, hi = min(values), max(values)
    return issue_domain_reference(lo, hi) if lo < hi else None


@given(_offer_rounds(), st.sampled_from(_PROFILES))
@settings(max_examples=400)
def test_offer_costs_equal_offer_cost_bit_for_bit(offers, profile):
    rates = [o.err_count / o.instances if o.instances > 0 else 0.0 for o in offers]
    err_dom = _spanned(rates)
    time_dom = _spanned([o.cost_time for o in offers])
    reference = {
        o.participant_id: offer_cost_reference(
            profile.as_tuple(), o.trust, rate, o.cost_time, err_dom, time_dom)
        for o, rate in zip(offers, rates)
    }
    table = offer_costs(offers, profile)
    assert list(table) == [o.participant_id for o in offers]
    hexed = {pid: cost.hex() for pid, cost in reference.items()}
    assert {pid: cost.hex() for pid, cost in table.items()} == hexed


# -- the time-dependent tactic --------------------------------------------------------
# The package runs one member of the family, the acceptance threshold; the
# general form is the oracle's, and these tests pin it.

tdv = time_dependent_value_reference


def test_time_dependent_value_endpoints():
    assert tdv(1.0, 2.0, 8.0, 1.0, 5.0, beta=2.0) == 2.0
    assert tdv(5.0, 2.0, 8.0, 1.0, 5.0, beta=2.0) == 8.0


def test_time_dependent_value_linear_midpoint():
    assert tdv(2.0, 2.0, 8.0, 0.0, 4.0) == pytest.approx(5.0)
    # The concession from 1 to 0 the initiator makes is halfway at half time.
    assert tdv(5.0, 1.0, 0.0, 0.0, 10.0) == pytest.approx(0.5)
    assert acceptance_threshold(5, 10) == 0.5


def test_time_dependent_value_clamps():
    assert tdv(0.0, 2.0, 8.0, 1.0, 5.0) == 2.0
    assert tdv(9.0, 2.0, 8.0, 1.0, 5.0) == 8.0
    assert tdv(25.0, 1.0, 0.0, 0.0, 10.0, beta=2.0) == 0.0  # past the deadline


def test_time_dependent_value_monotone_between_endpoints():
    values = [tdv(t / 10, -1.0, 3.0, 0.0, 10.0, beta=0.5) for t in range(101)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert min(values) >= -1.0 and max(values) <= 3.0
    # A decreasing curve (f1 > f2) at beta = 3 is non-increasing, also past t_max.
    values = [tdv(t / 4, 1.0, 0.0, 0.0, 7.0, beta=3.0) for t in range(60)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("t_maxes", [range(1, 301), (1000, 3681, 4601)],
                         ids=["every-t_max-to-300", "long-runs"])
def test_acceptance_threshold_is_the_linear_tactic_bit_for_bit(t_maxes):
    # Trial r of a run of t_max trials accepts costs up to 1 - value(r) of
    # the tactic conceding linearly from 1 at trial 0 to 0 at t_max.
    for t_max in t_maxes:
        thresholds = [acceptance_threshold(r, t_max) for r in range(t_max + 1)]
        expected = [concession_threshold_reference(float(r), float(t_max))
                    for r in range(t_max + 1)]
        assert [t.hex() for t in thresholds] == [t.hex() for t in expected], t_max
        assert thresholds[0] == 0.0 and thresholds[-1] == 1.0


@pytest.mark.parametrize("field", ["trust", "error", "cost_time"])
def test_issue_weights_reject_a_bool(field):
    # IssueWeightProfile(True, False, False) sums to 1 and was accepted.
    weights = dict(trust=0.0, error=0.0, cost_time=0.0) | {field: True}
    with pytest.raises(ValueError) as err:
        IssueWeightProfile(**weights)
    assert str(err.value) == f"{field} must be a real, got True"
