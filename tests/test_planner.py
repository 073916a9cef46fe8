import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from aoisim.aging import AgingKind
from aoisim.channel import ChannelModel, outage_probability
from aoisim.engine import Mode, ScenarioConfig, run
from aoisim.planner import TransmissionPlan, _best_split, plan_message


def compositions(n: int, max_part: int):
    """All ordered sequences of parts in 1..max_part summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in compositions(n - first, max_part):
            yield (first,) + rest


def brute_force_split(n, snr, epsilon, max_part):
    """Every composition, costed part by part; ties to fewer slots, then the
    lexicographically largest split."""
    model = ChannelModel(mean_snr=snr, epsilon=epsilon)
    best = best_key = None
    for splits in compositions(n, max_part):
        expected = 0.0
        for r in splits:
            p = outage_probability(model, -1, r)
            if p >= 1.0:
                expected = math.inf
                break
            expected += 1.0 / (1.0 - p)
        key = (expected, len(splits), tuple(-r for r in splits))
        if best_key is None or key < best_key:
            best_key, best = key, (splits, expected)
    return best


def expected_slots_of(splits, model):
    return sum(1.0 / (1.0 - outage_probability(model, 0, r)) for r in splits)


def test_compositions_enumerate_ordered_splits():
    got = sorted(compositions(3, 3))
    assert got == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert list(compositions(0, 5)) == [()]
    assert sorted(compositions(4, 2)) == [(1, 1, 1, 1), (1, 1, 2), (1, 2, 1),
                                          (2, 1, 1), (2, 2)]


def test_single_rb_plan_is_trivial():
    model = ChannelModel(mean_snr=100.0, epsilon=1.0)
    plan = plan_message(1, AgingKind.LINEAR, model, 0, 50, 10, 4)
    assert plan.splits == (1,)
    assert plan.expected_slots == pytest.approx(1.0 / (1.0 - 0.00995), abs=1e-6)
    assert plan.expected_aoi == pytest.approx(10 + plan.expected_slots - 4)


def test_low_outage_plans_send_everything_at_once():
    model = ChannelModel(mean_snr=100.0, epsilon=1.0)
    for n in range(1, 7):
        assert plan_message(n, AgingKind.LINEAR, model, 0, 50, 1, 0).splits == (n,)


def test_high_outage_plans_spread_out():
    # with epsilon comparable to the SNR, bundling RBs is expensive
    model = ChannelModel(mean_snr=2.0, epsilon=1.0)
    plan = plan_message(6, AgingKind.LINEAR, model, 0, 50, 1, 0)
    assert len(plan.splits) > 1
    assert sum(plan.splits) == 6


def test_split_is_kind_independent():
    model = ChannelModel(mean_snr=10.0, epsilon=2.0)
    for n in range(1, 7):
        lin = plan_message(n, AgingKind.LINEAR, model, 0, 50, 5, 0)
        exp = plan_message(n, AgingKind.EXPONENTIAL, model, 0, 50, 5, 0)
        assert lin.splits == exp.splits
        assert lin.expected_slots == exp.expected_slots


def test_exponential_expected_aoi_saturates():
    model = ChannelModel(mean_snr=100.0, epsilon=1.0)
    plan = plan_message(1, AgingKind.EXPONENTIAL, model, 0, 50, 2000, 0)
    assert plan.expected_aoi == math.inf


def test_demand_out_of_range_rejected():
    model = ChannelModel(mean_snr=100.0, epsilon=1.0)
    with pytest.raises(ValueError):
        plan_message(0, AgingKind.LINEAR, model, 0, 50, 1, 0)
    with pytest.raises(ValueError):
        plan_message(51, AgingKind.LINEAR, model, 0, 50, 1, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.sampled_from([0.1, 1.0, 5.0, 20.0]),
       st.sampled_from([10.0, 100.0]))
def test_plan_beats_every_other_composition(n, epsilon, snr):
    """The chosen split must minimize expected completion over the full space."""
    model = ChannelModel(mean_snr=snr, epsilon=epsilon)
    plan = plan_message(n, AgingKind.LINEAR, model, 0, 50, 1, 0)
    assert sum(plan.splits) == n
    best = min(expected_slots_of(s, model) for s in compositions(n, 50))
    assert plan.expected_slots == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
def test_split_equals_the_brute_force_optimum(epsilon):
    # same split and same float cost, ties included, for n <= 12
    for snr, n in itertools.product((2.0, 10.0, 100.0, 1000.0), range(1, 13)):
        for max_part in sorted({n, 3}):
            assert _best_split.__wrapped__(n, snr, epsilon, max_part) == \
                brute_force_split(n, snr, epsilon, max_part), (snr, n, max_part)


def test_unusable_parts_fall_back_to_the_fewest_slots():
    # every part is certain to fail: the cost is inf whatever the split
    assert _best_split.__wrapped__(5, 1.0, 1e6, 3) == brute_force_split(5, 1.0, 1e6, 3)


def test_wide_messages_plan_in_bounded_time():
    # 50-RB messages have 2**49 compositions; the planner must not enumerate them
    config = ScenarioConfig(mode=Mode.CENTRALIZED_LEARNING, n_devices=20,
                            n_rbs=50, n_rbs_min=50, n_rbs_max=50, slots=3,
                            v_a=1.0, epsilon=5.0, seed=4)
    start = time.perf_counter()
    result = run(config)
    assert time.perf_counter() - start < 2.0
    assert len(result.records) == 3
