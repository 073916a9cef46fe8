import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoisim import engine
from aoisim.channel import outage_probability
from aoisim.devices import PendingMessages
from aoisim.engine import Mode, ScenarioConfig, run, run_many
from aoisim.planner import _best_split, first_parts

EPSILONS = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
SNRS = (2.0, 10.0, 100.0, 1000.0)


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
    best = best_key = None
    for splits in compositions(n, max_part):
        expected = 0.0
        for r in splits:
            p = outage_probability(snr, epsilon, r)
            if p >= 1.0:
                expected = math.inf
                break
            expected += 1.0 / (1.0 - p)
        key = (expected, len(splits), tuple(-r for r in splits))
        if best_key is None or key < best_key:
            best_key, best = key, (splits, expected)
    return best


def best_split(n, snr, epsilon, max_part):
    """The best split of n and its cost, as one uncached DP finds them."""
    splits, costs = _best_split.__wrapped__(n, snr, epsilon, max_part)
    return splits[n], costs[n]


def expected_slots_of(splits, snr, epsilon):
    return sum(1.0 / (1.0 - outage_probability(snr, epsilon, r)) for r in splits)


def test_compositions_enumerate_ordered_splits():
    got = sorted(compositions(3, 3))
    assert got == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert list(compositions(0, 5)) == [()]
    assert sorted(compositions(4, 2)) == [(1, 1, 1, 1), (1, 1, 2), (1, 2, 1),
                                          (2, 1, 1), (2, 2)]


def test_single_rb_plan_is_trivial():
    splits, expected_slots = best_split(1, 100.0, 1.0, 50)
    assert splits == (1,)
    assert expected_slots == pytest.approx(1.0 / (1.0 - 0.00995), abs=1e-6)


def test_low_outage_plans_send_everything_at_once():
    splits, _ = _best_split(6, 100.0, 1.0, 50)
    for n in range(1, 7):
        assert splits[n] == (n,)


def test_high_outage_plans_spread_out():
    # with epsilon comparable to the SNR, bundling RBs is expensive
    splits, _ = best_split(6, 2.0, 1.0, 50)
    assert len(splits) > 1
    assert sum(splits) == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.sampled_from([0.1, 1.0, 5.0, 20.0]),
       st.sampled_from([10.0, 100.0]))
def test_plan_beats_every_other_composition(n, epsilon, snr):
    """The chosen split must minimize expected completion over the full space."""
    splits, expected_slots = best_split(n, snr, epsilon, 50)
    assert sum(splits) == n
    best = min(expected_slots_of(s, snr, epsilon) for s in compositions(n, 50))
    assert expected_slots == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_split_equals_the_brute_force_optimum(epsilon):
    # same split and same float cost, ties included, for n <= 12
    for snr, n in itertools.product(SNRS, range(1, 13)):
        for max_part in sorted({n, 3}):
            assert best_split(n, snr, epsilon, max_part) == \
                brute_force_split(n, snr, epsilon, max_part), (snr, n, max_part)


def test_one_dp_settles_every_smaller_demand():
    # the DP for n = 12 holds the best split of each m < 12, as its own DP does
    for snr, epsilon in itertools.product(SNRS, EPSILONS):
        splits, costs = _best_split.__wrapped__(12, snr, epsilon, 5)
        assert (splits[0], costs[0]) == ((), 0.0)
        for m in range(1, 12):
            assert (splits[m], costs[m]) == best_split(m, snr, epsilon, 5)


def _first_part_mismatches(table, snr, epsilon, max_part):
    """The (snr, m) whose first part in table differs from the brute force's.

    Row i of table must hold, for every m, the first part of the split that a
    DP for m alone finds at SNR snr[i], and that split must cost what the
    brute-force optimum costs. The two splits may still differ where splits
    tie in cost but their float sums differ part by part (see CHANGES.md).
    """
    mismatches = []
    for i, value in enumerate(snr.tolist()):
        assert table[i, 0] == 0
        for m in range(1, table.shape[1]):
            splits, cost = best_split(m, value, epsilon, max_part)
            brute_splits, brute_cost = brute_force_split(m, value, epsilon, max_part)
            assert table[i, m] == splits[0], (value, m)
            assert cost == brute_cost, (value, m)
            if splits[0] != brute_splits[0]:
                mismatches.append((value, m))
    return mismatches


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_first_split_table_equals_the_brute_force_first_part(epsilon, monkeypatch):
    # one stack whose devices hold every SNR of the brute-force test, and a
    # heterogeneous-power run of three lanes
    config = ScenarioConfig(mode=Mode.CENTRALIZED_FULL_INFO, n_devices=len(SNRS),
                            n_rbs=12, n_rbs_max=12, epsilon=epsilon)
    snr = np.array(SNRS)
    stack = engine._CentralizedStack(config, np.ones(len(SNRS), dtype=np.int8), snr,
                                     PendingMessages(len(SNRS)))
    assert _first_part_mismatches(stack.first_split, snr, epsilon, 12) == []
    assert _first_part_mismatches(first_parts(snr, epsilon, 12, 3), snr,
                                  epsilon, 3) == []

    built = []

    class Recorded(engine._CentralizedStack):
        def __init__(self, config, types, snr, messages):
            super().__init__(config, types, snr, messages)
            built.append((self, snr))

    monkeypatch.setattr(engine, "_CentralizedStack", Recorded)
    hetero = dataclasses.replace(config, mode=Mode.CENTRALIZED_LEARNING, n_devices=3,
                                 heterogeneous_power=True, hetero_snr_low_db=0.0,
                                 hetero_snr_high_db=30.0, slots=1)
    run_many([dataclasses.replace(hetero, seed=seed) for seed in (1, 2, 3)])
    (stack, snr), = built
    assert len(snr) == 9 and len(set(snr.tolist())) == 9
    # at random SNRs a tie may start differently (the test below)
    _first_part_mismatches(stack.first_split, snr, epsilon, 12)


def test_tied_splits_may_start_differently_from_the_brute_force():
    # (2, 2, 3, 2) and (3, 2, 2, 2) cost the same; the brute force takes the
    # lexicographically larger, but the DP only extends the best split of 7,
    # (2, 2, 3), because (3, 2, 2) sums to a larger float
    snr, epsilon = 48.61798869900239, 20.0
    assert best_split(7, snr, epsilon, 12) == brute_force_split(7, snr, epsilon, 12)
    assert best_split(9, snr, epsilon, 12)[0] == (2, 2, 3, 2)
    assert brute_force_split(9, snr, epsilon, 12)[0] == (3, 2, 2, 2)
    assert best_split(9, snr, epsilon, 12)[1] == brute_force_split(9, snr, epsilon, 12)[1]


def test_unusable_parts_fall_back_to_the_fewest_slots():
    # every part is certain to fail: the cost is inf whatever the split
    assert best_split(5, 1.0, 1e6, 3) == brute_force_split(5, 1.0, 1e6, 3)


def test_wide_messages_plan_in_bounded_time():
    # 50-RB messages have 2**49 compositions; the planner must not enumerate them
    config = ScenarioConfig(mode=Mode.CENTRALIZED_LEARNING, n_devices=20,
                            n_rbs=50, n_rbs_min=50, n_rbs_max=50, slots=3,
                            v_a=1.0, epsilon=5.0, seed=4)
    start = time.perf_counter()
    result = run(config)
    assert time.perf_counter() - start < 2.0
    assert len(result.records) == 3


def test_heterogeneous_wide_messages_plan_in_bounded_time():
    # every device has its own SNR, so setup runs one 50-RB DP per device
    config = ScenarioConfig(mode=Mode.CENTRALIZED_LEARNING, n_devices=400,
                            n_rbs=50, n_rbs_min=50, n_rbs_max=50, slots=3,
                            v_a=1.0, epsilon=5.0, heterogeneous_power=True, seed=4)
    start = time.perf_counter()
    result = run(config)
    assert time.perf_counter() - start < 2.0
    assert len(result.records) == 3
