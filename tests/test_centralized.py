import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoisim.aging import AgingKind
from aoisim.centralized import (RachConfig, TypeLearner, UplinkRequest, Variant,
                                expected_future_aoi, identify_aging, learn_type,
                                marginal_expected_future_aoi, priority_key,
                                rach_collision_probability, rach_phase, schedule)
from aoisim.devices import TypeId


# --- request channel ---------------------------------------------------------

def test_collision_probability_closed_form():
    assert rach_collision_probability(1, 64) == 0.0
    assert rach_collision_probability(2, 64) == pytest.approx(1 / 64)
    expected = 1.0 - (63 / 64) ** 199
    assert rach_collision_probability(200, 64) == pytest.approx(expected)


def test_rach_thinning_is_per_device():
    config = RachConfig(preambles=64)
    ids = [0, 2, 5]
    survive_p = 1.0 - rach_collision_probability(3, 64)
    u = np.zeros(6)
    u[2] = survive_p + 1e-9   # only device 2 is unlucky
    assert rach_phase(ids, config, u) == [0, 5]
    assert rach_phase([], config, u) == []


def test_rach_exact_mode_keeps_unique_preambles():
    config = RachConfig(preambles=4, exact_draws=True)
    # picks are floor(u * 4): devices 0 and 1 collide on preamble 2
    u = np.array([0.55, 0.6, 0.1])
    assert rach_phase([0, 1, 2], config, u) == [2]


def test_rach_config_validation():
    with pytest.raises(ValueError):
        RachConfig(preambles=0)


# --- aging identification ----------------------------------------------------

def test_non_power_of_two_age_identifies_linear_instantly():
    assert identify_aging(3, None, 10) is AgingKind.LINEAR
    assert identify_aging(6, None, 10) is AgingKind.LINEAR


def test_power_of_two_age_without_history_is_unknown():
    for age in (1, 2, 4, 8, 1 << 40):
        assert identify_aging(age, None, 10) is None


def test_history_separates_additive_from_doubling():
    # age 2 then 4 one slot later fits doubling only
    assert identify_aging(4, (9, 2), 10) is AgingKind.EXPONENTIAL
    # age 2 then 4 two slots later fits addition only
    assert identify_aging(4, (8, 2), 10) is AgingKind.LINEAR


def test_age_one_then_two_is_still_ambiguous():
    assert identify_aging(2, (9, 1), 10) is None


def test_stale_history_is_ignored():
    assert identify_aging(4, (10, 4), 10) is None


# --- type learning -----------------------------------------------------------

def test_learner_counts_and_ml_estimate():
    learner = TypeLearner(m1=0.75, m2=0.75, p_type1=0.6)
    assert learn_type(learner, 1) is None
    learner.observe(1, AgingKind.LINEAR)
    assert learn_type(learner, 1) is TypeId.TYPE1
    learner.observe(1, AgingKind.EXPONENTIAL)
    learner.observe(1, AgingKind.EXPONENTIAL)
    assert learn_type(learner, 1) is TypeId.TYPE2
    assert learner.observation_count(1) == 3
    assert learner.observation_count(2) == 0


def test_ml_tie_breaks_to_faster_aging_type():
    learner = TypeLearner(m1=0.75, m2=0.75)
    learner.observe(1, AgingKind.LINEAR)
    learner.observe(1, AgingKind.EXPONENTIAL)
    assert learn_type(learner, 1) is TypeId.TYPE2


def test_expected_future_age_formulas():
    # type-1 hypothesis: mostly linear
    assert expected_future_aoi(4, TypeId.TYPE1, 0.75, 0.75) == \
        pytest.approx(0.75 * 5 + 0.25 * 8)
    assert expected_future_aoi(4, TypeId.TYPE2, 0.75, 0.75) == \
        pytest.approx(0.25 * 5 + 0.75 * 8)
    mixed = marginal_expected_future_aoi(4, 0.75, 0.75, 0.6)
    assert mixed == pytest.approx(0.6 * 5.75 + 0.4 * 7.25)


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=4))
def test_marginal_priority_is_monotone_in_current_age(age, beta):
    lo = marginal_expected_future_aoi(age, 0.75, 0.75, 0.6, beta)
    hi = marginal_expected_future_aoi(age + 1, 0.75, 0.75, 0.6, beta)
    assert hi > lo


# --- priority scheduling -----------------------------------------------------

def req(device_id, aoi, rbs=1, **kw):
    return UplinkRequest(device_id=device_id, current_aoi=aoi, rbs_needed=rbs, **kw)


def test_full_info_priority_is_exact_future_age():
    learner = TypeLearner()
    r = req(0, 6, true_kind=AgingKind.EXPONENTIAL)
    assert priority_key(r, learner, Variant.FULL_INFO) == 12
    r = req(0, 6, true_kind=AgingKind.LINEAR)
    assert priority_key(r, learner, Variant.FULL_INFO, beta=2) == 8


def test_learning_priority_prefers_identified_kind():
    learner = TypeLearner()
    r = req(0, 4, known_kind=AgingKind.EXPONENTIAL)
    assert priority_key(r, learner, Variant.LEARNING) == 8
    r = req(0, 4)                       # nothing identified, no observations
    assert priority_key(r, learner, Variant.LEARNING) == \
        pytest.approx(marginal_expected_future_aoi(4, 0.75, 0.75, 0.6))


def test_learning_priority_uses_the_estimated_type():
    # an unresolved message is priced under the request's learned type
    learner = TypeLearner()
    for est in (TypeId.TYPE1, TypeId.TYPE2):
        r = req(0, 4, est_type=est)
        assert priority_key(r, learner, Variant.LEARNING, beta=2) == \
            pytest.approx(expected_future_aoi(4, est, 0.75, 0.75, 2))


def test_schedule_orders_by_descending_future_age():
    learner = TypeLearner()
    requests = [req(0, 2, true_kind=AgingKind.LINEAR, est_type=TypeId.TYPE1),
                req(1, 2, true_kind=AgingKind.EXPONENTIAL, est_type=TypeId.TYPE2),
                req(2, 9, true_kind=AgingKind.LINEAR, est_type=TypeId.TYPE1)]
    allocation = schedule(requests, learner, 2, Variant.FULL_INFO)
    assert [d for d, _ in allocation] == [2, 1]
    assert allocation[0][1] == (0,) and allocation[1][1] == (1,)


def test_schedule_tie_breaks_faster_type_then_id():
    learner = TypeLearner()
    # linear age 3 and exponential age 2 share future age 4
    requests = [req(0, 3, true_kind=AgingKind.LINEAR, est_type=TypeId.TYPE1),
                req(7, 2, true_kind=AgingKind.EXPONENTIAL, est_type=TypeId.TYPE2),
                req(4, 3, true_kind=AgingKind.LINEAR, est_type=TypeId.TYPE1)]
    allocation = schedule(requests, learner, 3, Variant.FULL_INFO)
    assert [d for d, _ in allocation] == [7, 0, 4]


def test_schedule_grants_partial_demand_at_the_boundary():
    learner = TypeLearner()
    requests = [req(0, 9, rbs=3, true_kind=AgingKind.LINEAR),
                req(1, 5, rbs=3, true_kind=AgingKind.LINEAR)]
    allocation = schedule(requests, learner, 4, Variant.FULL_INFO)
    assert allocation == [(0, (0, 1, 2)), (1, (3,))]


def test_schedule_stops_when_rbs_run_out():
    learner = TypeLearner()
    requests = [req(i, 10 - i, rbs=2, true_kind=AgingKind.LINEAR) for i in range(5)]
    allocation = schedule(requests, learner, 4, Variant.FULL_INFO)
    assert [d for d, _ in allocation] == [0, 1]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 64), st.integers(1, 4),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=12),
       st.sampled_from(list(Variant)), st.integers(1, 3))
def test_schedule_never_double_books_an_rb(entries, variant, beta):
    learner = TypeLearner()
    requests = []
    for i, (aoi, rbs, exp_kind, t2) in enumerate(entries):
        kind = AgingKind.EXPONENTIAL if exp_kind else AgingKind.LINEAR
        requests.append(req(i, aoi, rbs=rbs, true_kind=kind,
                            known_kind=kind if variant is Variant.LEARNING else None,
                            est_type=TypeId.TYPE2 if t2 else TypeId.TYPE1))
    R = 6
    allocation = schedule(requests, learner, R, variant, beta)
    used = [rb for _, rbs in allocation for rb in rbs]
    assert len(used) == len(set(used))
    assert len(used) <= R
    assert all(0 <= rb < R for rb in used)
    granted = {d: rbs for d, rbs in allocation}
    for i, (_, rbs_needed, _, _) in enumerate(entries):
        if i in granted:
            assert len(granted[i]) <= rbs_needed
