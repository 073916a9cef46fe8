import dataclasses
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoisim import engine
from aoisim.channel import outage_probability, outage_table
from aoisim.devices import PendingMessages
from aoisim.engine import Mode, ScenarioConfig, run, run_many
from aoisim.planner import first_parts

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


def outage_row(snr, epsilon, n):
    """p[r] for r in 1..n at one SNR; p[0] is nan, as in ``outage_table``."""
    return [math.nan] + [outage_probability(snr, epsilon, r) for r in range(1, n + 1)]


def split_cost(splits, p):
    """Expected slots of a split, summed part by part from the first."""
    expected = 0.0
    for r in splits:
        if p[r] >= 1.0:
            return math.inf
        expected += 1.0 / (1.0 - p[r])
    return expected


def brute_force_split(n, p, max_part):
    """Every composition, costed part by part; ties to fewer slots, then the
    lexicographically largest split. p[r] is the outage probability of a part
    of r RBs."""
    best = best_key = None
    for splits in compositions(n, max_part):
        expected = split_cost(splits, p)
        key = (expected, len(splits), tuple(-r for r in splits))
        if best_key is None or key < best_key:
            best_key, best = key, (splits, expected)
    return best


def reference_splits(n, p, max_part):
    """Best split of every m <= n, and its cost, by an uncached rod-cutting DP.

    The whole splits that ``first_parts`` keeps only the first part of: the
    best split of m is the best split of m - r and a last part r; ties go to
    fewer slots, then to the lexicographically largest split.
    """
    cost, slots, splits = [0.0] * (n + 1), [0] * (n + 1), [()] * (n + 1)
    for m in range(1, n + 1):
        best = None
        for r in range(1, min(m, max_part) + 1):
            part = math.inf if p[r] >= 1.0 else 1.0 / (1.0 - p[r])
            key = (cost[m - r] + part, slots[m - r] + 1, splits[m - r] + (r,))
            if best is None or key[:2] < best[:2] or (key[:2] == best[:2]
                                                      and key[2] > best[2]):
                best = key
        cost[m], slots[m], splits[m] = best
    return splits, cost


def best_split(n, snr, epsilon, max_part):
    """The best split of n and its cost at one SNR, as the reference DP finds them."""
    splits, costs = reference_splits(n, outage_row(snr, epsilon, n), max_part)
    return splits[n], costs[n]


def brute_force_at(n, snr, epsilon, max_part):
    return brute_force_split(n, outage_row(snr, epsilon, n), max_part)


def table_of(snr, epsilon, n, max_part=None):
    """first_parts over the outage table of the SNRs, parts above max_part unusable."""
    p = outage_table(np.asarray(snr, dtype=np.float64), epsilon, n)
    if max_part is not None:
        p[:, max_part + 1:] = 1.0
    return first_parts(p)


def walk(table, i, m):
    """The split row i of the table sends for m RBs, one first part at a time."""
    splits = []
    while m > 0:
        splits.append(int(table[i, m]))
        assert 1 <= splits[-1] <= m
        m -= splits[-1]
    return tuple(splits)


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
    assert table_of([100.0], 1.0, 1).tolist() == [[0, 1]]


def test_low_outage_plans_send_everything_at_once():
    table = table_of([100.0], 1.0, 6)
    for n in range(1, 7):
        assert table[0, n] == n


def test_high_outage_plans_spread_out():
    # with epsilon comparable to the SNR, bundling RBs is expensive
    splits, _ = best_split(6, 2.0, 1.0, 50)
    assert len(splits) > 1
    assert sum(splits) == 6
    assert walk(table_of([2.0], 1.0, 6), 0, 6) == splits


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.sampled_from([0.1, 1.0, 5.0, 20.0]),
       st.sampled_from([10.0, 100.0]))
def test_plan_beats_every_other_composition(n, epsilon, snr):
    """The chosen split must minimize expected completion over the full space."""
    p = outage_row(snr, epsilon, n)
    splits, expected_slots = best_split(n, snr, epsilon, 50)
    assert sum(splits) == n
    best = min(split_cost(s, p) for s in compositions(n, 50))
    assert expected_slots == pytest.approx(best, rel=1e-12)
    # the split the engine sends, first part by first part, is as good
    assert split_cost(walk(table_of([snr], epsilon, n), 0, n), p) == \
        pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_split_equals_the_brute_force_optimum(epsilon):
    # same split and same float cost, ties included, for n <= 12; the table
    # sends its first part, parts above max_part made unusable in the table
    for snr, n in itertools.product(SNRS, range(1, 13)):
        for max_part in sorted({n, 3}):
            best = best_split(n, snr, epsilon, max_part)
            assert best == brute_force_at(n, snr, epsilon, max_part), (snr, n, max_part)
            assert table_of([snr], epsilon, n, max_part)[0, n] == best[0][0]


def test_one_dp_settles_every_smaller_demand():
    # the table for n = 12 holds the plan of each m < 12, as its own table
    # does, and so does the reference DP
    for snr, epsilon in itertools.product(SNRS, EPSILONS):
        table = table_of([snr], epsilon, 12, 5)
        splits, costs = reference_splits(12, outage_row(snr, epsilon, 12), 5)
        assert (table[0, 0], splits[0], costs[0]) == (0, (), 0.0)
        for m in range(1, 12):
            assert (table_of([snr], epsilon, m, 5) == table[:, :m + 1]).all()
            assert (splits[m], costs[m]) == best_split(m, snr, epsilon, 5)


def _first_part_mismatches(table, snr, epsilon, max_part):
    """The (snr, m) whose first part in table differs from the brute force's.

    Row i of table must hold, for every m, the first part of the split that
    the reference DP for m alone finds at SNR snr[i], and that split must
    cost what the brute-force optimum costs. The two splits may still differ
    where splits tie in cost but their float sums differ part by part (see
    CHANGES.md).
    """
    mismatches = []
    for i, value in enumerate(snr.tolist()):
        assert table[i, 0] == 0
        for m in range(1, table.shape[1]):
            splits, cost = best_split(m, value, epsilon, max_part)
            brute_splits, brute_cost = brute_force_at(m, value, epsilon, max_part)
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
    stack = engine._CentralizedStack(config, engine._Lanes(1, len(SNRS), config.n_rbs),
                                     np.ones(len(SNRS), dtype=np.int8),
                                     outage_table(snr, epsilon, 12),
                                     PendingMessages(len(SNRS)), [config.mode])
    assert _first_part_mismatches(stack.first_split, snr, epsilon, 12) == []
    assert _first_part_mismatches(table_of(snr, epsilon, 12, 3), snr,
                                  epsilon, 3) == []

    built, tables = [], []
    outage_table_of_run = engine.outage_table

    def recorded_table(snr, epsilon, max_rbs):
        tables.append((snr, outage_table_of_run(snr, epsilon, max_rbs)))
        return tables[-1][1]

    class Recorded(engine._CentralizedStack):
        def __init__(self, config, lanes, types, p_outage, messages, modes):
            super().__init__(config, lanes, types, p_outage, messages, modes)
            built.append((self, p_outage))

    monkeypatch.setattr(engine, "outage_table", recorded_table)
    monkeypatch.setattr(engine, "_CentralizedStack", Recorded)
    hetero = dataclasses.replace(config, mode=Mode.CENTRALIZED_LEARNING, n_devices=3,
                                 heterogeneous_power=True, hetero_snr_low_db=0.0,
                                 hetero_snr_high_db=30.0, slots=1)
    run_many([dataclasses.replace(hetero, seed=seed) for seed in (1, 2, 3)])
    (stack, p_outage), = built
    (snr, table), = tables
    # the stack plans from the table the channel resolves with
    assert p_outage is table
    assert len(snr) == 9 and len(set(snr.tolist())) == 9
    # at random SNRs a tie may start differently (the test below)
    _first_part_mismatches(stack.first_split, snr, epsilon, 12)


def test_tied_splits_may_start_differently_from_the_brute_force():
    # (2, 2, 3, 2) and (3, 2, 2, 2) cost the same; the brute force takes the
    # lexicographically larger, but the DP only extends the best split of 7,
    # (2, 2, 3), because (3, 2, 2) sums to a larger float
    snr, epsilon = 48.61798869900239, 20.0
    assert best_split(7, snr, epsilon, 12) == brute_force_at(7, snr, epsilon, 12)
    assert best_split(9, snr, epsilon, 12)[0] == (2, 2, 3, 2)
    assert brute_force_at(9, snr, epsilon, 12)[0] == (3, 2, 2, 2)
    assert best_split(9, snr, epsilon, 12)[1] == brute_force_at(9, snr, epsilon, 12)[1]
    # the table sends 2 RBs first where the brute force sends 3, at the same cost
    table = table_of([snr], epsilon, 12)
    assert walk(table, 0, 9) == (2, 2, 3, 2)
    assert split_cost(walk(table, 0, 9), outage_row(snr, epsilon, 12)) == \
        brute_force_at(9, snr, epsilon, 12)[1]


def test_unusable_parts_fall_back_to_the_fewest_slots():
    # every part is certain to fail: the cost is inf whatever the split
    for max_part in (3, 5):
        assert best_split(5, 1.0, 1e6, max_part) == brute_force_at(5, 1.0, 1e6, max_part)
    assert table_of([1.0], 1e6, 5).tolist() == [
        [0] + [brute_force_at(m, 1.0, 1e6, m)[0][0] for m in range(1, 6)]]


def test_first_parts_skip_unusable_rb_counts():
    # two devices, each with some RB counts certain to fail (p = 1) and the
    # others usable; device 1 cannot send a single RB at all
    p = np.array([[np.nan, 0.5, 1.0, 0.75, 0.0, 0.0, 1.0, 1.0, 1.0],
                  [np.nan, 1.0, 0.3, 0.9, 1.0, 1.0, 0.05, 1.0, 1.0]])
    table = first_parts(p)
    assert table.shape == (2, 9) and (table[:, 0] == 0).all()
    for i, m in itertools.product(range(2), range(1, 9)):
        splits, cost = brute_force_split(m, p[i], m)
        assert table[i, m] == splits[0], (i, m)
        assert split_cost(walk(table, i, m), p[i]) == pytest.approx(cost, rel=1e-12)
    # device 0 cannot send 2 RBs at once, and sends 7 as (4, 3) rather than
    # as the equally costly (5, 1, 1), which takes a slot more; device 1
    # sends 3 RBs at once rather than as 2 + 1, with its single RB unusable
    assert table[0, 2] == 1 and table[0, 7] == 4
    assert table[1, 2] == 2 and table[1, 3] == 3


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
    # every device has its own SNR, so setup plans 400 distinct 50-RB rows
    config = ScenarioConfig(mode=Mode.CENTRALIZED_LEARNING, n_devices=400,
                            n_rbs=50, n_rbs_min=50, n_rbs_max=50, slots=3,
                            v_a=1.0, epsilon=5.0, heterogeneous_power=True, seed=4)
    start = time.perf_counter()
    result = run(config)
    assert time.perf_counter() - start < 2.0
    assert len(result.records) == 3
