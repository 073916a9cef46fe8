import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoisim.aging import aoi_value
from aoisim.centralized import KINDS
from aoisim.devices import PendingMessages, make_devices
from aoisim.distributed import (FullInfoGame, GameParams, delegate_target,
                                kappa, kth_largest, random_selection,
                                reaches_threshold, sca_step,
                                service_rate_closed_form)
from aoisim.engine import Mode, ScenarioConfig, SlotDraws, _DistributedStack, _Lanes


# --- scalar references ---------------------------------------------------------
# the rules one device at a time, in Python arithmetic on exact integer ages;
# the array forms the engine runs must agree with them entry by entry

def kappa_ref(n_known, n_active, R, N, v_a, zeta):
    if n_known < 1:
        raise ValueError("the known ages must include the deciding device itself")
    if n_known == n_active:
        k = R
    else:
        k = math.ceil(R * n_known / (N * v_a * zeta))
    return max(1, min(n_known, k))


def sca_step_ref(prev_action, prev_failed, crowd_seen, unused_sorted, keep_u,
                 pick_u, R):
    if prev_action >= 1:
        if not prev_failed:
            return prev_action
        if keep_u < 1.0 / max(2, crowd_seen):
            return prev_action
    if unused_sorted:
        return unused_sorted[int(pick_u * len(unused_sorted))]
    return 1 + int(pick_u * R)


def delegate_target_ref(active_neighbor_ids, neighbor_f_values, u):
    if not active_neighbor_ids:
        return None
    top = max(neighbor_f_values)
    if top <= 0:
        return active_neighbor_ids[int(u * len(active_neighbor_ids))]
    weights = [f / top for f in neighbor_f_values]
    total = 0.0
    for w in weights:           # a sequential sum, as the accumulation below
        total += w
    threshold = u * total
    acc = 0.0
    for device_id, w in zip(active_neighbor_ids, weights):
        acc += w
        if threshold < acc:
            return device_id
    return active_neighbor_ids[-1]


def float_ages(exact):
    """Exact integer ages as the engine holds them: float64 (inf past 2**1024)
    and the log2 of each, exact for the powers of two that saturate."""
    ages = np.array([math.inf if f >= 2**1024 else float(f) for f in exact])
    exponents = np.array([max(f, 1).bit_length() - 1 for f in exact], dtype=np.int64)
    return ages, exponents


def sca(prev, failed, crowd, unused_sorted, keep_u, pick_u, R):
    """sca_step on one device, checked against the scalar reference."""
    unused = np.zeros((1, R), dtype=bool)
    unused[0, np.array(unused_sorted, dtype=int) - 1] = True
    got = sca_step(np.array([prev]), np.array([failed]), np.array([crowd]), unused,
                   np.array([keep_u]), np.array([pick_u]), R)
    expected = sca_step_ref(prev, failed, crowd, unused_sorted, keep_u, pick_u, R)
    assert got.tolist() == [expected]
    return expected


def delegate(ids, f_values, u):
    """delegate_target on one delegator, checked against the scalar reference."""
    ages, exponents = float_ages(f_values)
    column = delegate_target(np.ones((1, len(ids)), dtype=bool), ages, exponents,
                             np.array([u]))[0]
    expected = delegate_target_ref(ids, f_values, u)
    assert (None if column < 0 else ids[column]) == expected
    return expected


# --- transmit rule -----------------------------------------------------------
# a device transmits when its age reaches kth_largest(known ages, kappa(...)):
# the engine counts the known ages above its own instead; ties transmit

def test_kth_largest_basics():
    assert kth_largest([5, 1, 9, 3], 1) == 9
    assert kth_largest([5, 1, 9, 3], 3) == 3
    assert kth_largest([5, 1, 9, 3], 99) == 1
    assert kth_largest([7], 1) == 7
    assert kth_largest([1 << 1200, 1 << 1100, 3], 2) == 1 << 1100


def test_threshold_count_basics():
    # partial range: row r marks the ages device r knows, itself included
    ages = np.array([5.0, 1.0, 9.0, 8.0, np.inf, 8.0])
    known = np.array([[1, 1, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 1, 1, 1, 1, 0],
                      [0, 0, 1, 1, 0, 1], [0, 0, 1, 1, 1, 1], [0, 0, 0, 1, 0, 1]],
                     dtype=bool)
    got = reaches_threshold(ages, np.array([2, 1, 2, 1, 1, 1]), known)
    assert got.tolist() == [True, False, True, False, True, True]
    # k beyond the known count admits everyone
    assert reaches_threshold(ages, np.full(6, 99), known).all()
    # full range: one k for all, ties at the threshold transmit
    assert reaches_threshold([4.0, 4.0, 2.0], 1).tolist() == [True, True, False]
    assert reaches_threshold([4.0, 4.0, 2.0], 3).tolist() == [True, True, True]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from([1.0, 2.0, 3.0, 4.0, 2.0**60, np.inf]),
                min_size=1, max_size=12), st.data())
def test_threshold_count_equals_sorting_each_row(values, data):
    # ties, inf ages and k beyond the known count; every device knows itself
    n = len(values)
    known = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                        min_size=n, max_size=n)), dtype=bool)
    np.fill_diagonal(known, True)
    ks = data.draw(st.lists(st.integers(1, n + 2), min_size=n, max_size=n))
    got = reaches_threshold(np.array(values), np.array(ks), known)
    assert got.tolist() == [
        values[r] >= kth_largest([v for v, m in zip(values, known[r]) if m], k)
        for r, k in enumerate(ks)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2),
                          st.sampled_from([1.0, 2.0, 3.0, 4.0, 2.0**60, np.inf])),
                min_size=1, max_size=14), st.data())
def test_unheard_pairs_count_as_the_known_matrix(devices, data):
    # lanes in ascending order, each device knowing its lane but the pairs
    # drawn out of range; ties, inf ages (which tie) and k beyond the count
    devices.sort(key=lambda device: device[0])
    lanes = np.array([lane for lane, _ in devices])
    ages = np.array([age for _, age in devices])
    n = len(devices)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if lanes[i] == lanes[j]]
    unheard = [pair for pair in pairs if data.draw(st.booleans())]
    known = lanes[:, None] == lanes[None, :]
    for i, j in unheard:
        known[i, j] = known[j, i] = False
    ks = np.array(data.draw(st.lists(st.integers(1, n + 2), min_size=n, max_size=n)))
    a, b = np.array(unheard, dtype=np.intp).reshape(-1, 2).T
    expected = reaches_threshold(ages, ks, known)
    got = reaches_threshold(ages, ks, lanes=lanes, unheard=(a, b))
    assert got.tolist() == expected.tolist()
    if (lanes == lanes[0]).all():
        assert reaches_threshold(ages, ks, unheard=(a, b)).tolist() == expected.tolist()


def test_unheard_pairs_tie_saturated_ages():
    # three ages past float range: the full-range rule tells them apart by
    # exponent, while a device that misses a pair ranks them as equal infs
    ages = np.array([np.inf, np.inf, np.inf, 5.0])
    exponents = np.array([1100, 1200, 1300, 2])
    assert reaches_threshold(ages, 1, exponents=exponents).tolist() == [
        False, False, True, False]
    # device 3 does not hear device 0; the infs tie, so all three transmit
    unheard = np.array([[0], [3]])
    assert reaches_threshold(ages, np.array([1, 1, 1, 1]), unheard=unheard).tolist() == [
        True, True, True, False]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(
    [1, 2, 3, 2**60, 2**1100, 2**1101, 2**1200])), min_size=1, max_size=14), st.data())
def test_unheard_pairs_rank_saturated_ages_by_exponent_when_given(devices, data):
    # with exponents the lanes form ranks ages past 2**1024 exactly, unheard
    # pairs or not: each device against its lane's exact ages but its
    # unheard partners'
    devices.sort(key=lambda device: device[0])
    lanes = np.array([lane for lane, _ in devices])
    exact = [age for _, age in devices]
    ages = np.array([math.inf if age >= 2**1024 else float(age) for age in exact])
    exponents = np.array([age.bit_length() - 1 for age in exact])
    n = len(devices)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if lanes[i] == lanes[j]]
    unheard = [pair for pair in pairs if data.draw(st.booleans())]
    ks = data.draw(st.lists(st.integers(1, n + 2), min_size=n, max_size=n))
    a, b = np.array(unheard, dtype=np.intp).reshape(-1, 2).T
    got = reaches_threshold(ages, np.array(ks), exponents=exponents, lanes=lanes,
                            unheard=(a, b))
    expected = [exact[r] >= kth_largest(
        [exact[c] for c in range(n) if lanes[c] == lanes[r]
         and (min(r, c), max(r, c)) not in unheard], k) for r, k in enumerate(ks)]
    assert got.tolist() == expected


def test_full_range_count_orders_exact_ages_past_float_range():
    # exact ages mix linear values, powers of two and powers of two past
    # 2**1024, which all read inf as floats; their exponents keep them apart
    rng = np.random.default_rng(23)
    for trial in range(300):
        n = int(rng.integers(1, 15))
        exact = [_exact_age(rng) for _ in range(n)]
        if trial % 4 == 0:          # exact ties past float range
            exact[:n // 2] = [1 << 1500] * (n // 2)
        ages, exponents = float_ages(exact)
        for k in range(1, n + 2):
            threshold = kth_largest(exact, k)
            assert reaches_threshold(ages, k, exponents=exponents).tolist() == [
                f >= threshold for f in exact], (trial, k)


def test_kappa_full_information_admits_R():
    # a device that knows every active device admits R, clamped to what it knows
    assert kappa([10, 3], [10, 3], 5, 50, 1.0, 1.2).tolist() == [5, 3]
    assert kappa_ref(10, 10, 5, 50, 1.0, 1.2) == 5
    assert kappa_ref(3, 3, 5, 50, 1.0, 1.2) == 3


def test_kappa_scales_with_known_share():
    # R=50, N=200, v_a=0.35, zeta=1.2: estimated active count is 84
    ks = kappa([10, 1, 2000], 2001, 50, 200, 0.35, 1.2).tolist()
    assert ks == [math.ceil(50 * 10 / (200 * 0.35 * 1.2)), 1,
                  math.ceil(50 * 2000 / (200 * 0.35 * 1.2))]
    assert ks == [kappa_ref(n, 2001, 50, 200, 0.35, 1.2) for n in (10, 1, 2000)]


def test_kappa_requires_own_entry():
    with pytest.raises(ValueError):
        kappa([0], 5, 5, 50, 1.0, 1.2)
    with pytest.raises(ValueError):
        kappa([3, 0, 4], 5, 5, 50, 1.0, 1.2)
    with pytest.raises(ValueError):
        kappa_ref(0, 5, 5, 50, 1.0, 1.2)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=30),
       st.integers(1, 300), st.integers(1, 80), st.integers(1, 300),
       st.sampled_from([0.05, 0.35, 1.0]), st.sampled_from([0.5, 1.2, 3.0]))
def test_kappa_array_equals_the_scalar_rule(n_known, n_active, R, N, v_a, zeta):
    n_known = n_known + [n_active]          # one device that knows everyone
    assert kappa(n_known, n_active, R, N, v_a, zeta).tolist() == [
        kappa_ref(n, n_active, R, N, v_a, zeta) for n in n_known]


def test_transmit_on_threshold_ties():
    ages = [4, 4, 2]
    k, = kappa([len(ages)], 3, 2, 50, 1.0, 1.2)
    threshold = kth_largest(ages, k)
    assert 4 >= threshold
    assert not 2 >= threshold
    assert reaches_threshold(np.array(ages), k).tolist() == [True, True, False]


@pytest.mark.parametrize("R, N, v_a", [(3, 6, 0.4), (1, 5, 1.0), (9, 4, 0.7),
                                       (2, 5, 0.0), (4, 1, 0.3)])
def test_per_run_kappa_tables_equal_kappa(R, N, v_a):
    # R > N, R = 1 and v_a = 0 (the estimated active count is 0) included
    config = ScenarioConfig(n_devices=N, n_rbs=R, v_a=v_a, zeta=1.2, r_c=2.0)
    positions, _, _ = make_devices(N, 0.6, 0.75, 0.75, 10.0, 10.0,
                                   np.random.default_rng(1))
    stack = _DistributedStack(config, _Lanes(1, N, R), positions, PendingMessages(N),
                              [config.mode])
    for n_active in range(1, N + 1):
        n_known = np.arange(1, n_active + 1)
        expected = kappa(n_known, n_active, R, N, v_a, 1.2)
        assert stack.kappa(n_known, n_active).tolist() == expected.tolist()
        # at v_a = 0 the scalar rule divides by zero; kappa admits every
        # known device unless it knows them all
        assert expected.tolist() == [kappa_ref(n, n_active, R, N, v_a, 1.2)
                                     if v_a else min(n, R if n == n_active else n)
                                     for n in n_known.tolist()]


def test_silent_payoff_sides():
    # device 0 sits at the R=1 threshold, device 1 below it, device 2 is idle
    params = GameParams()
    game = FullInfoGame((9, 5, 0), (True, True, False), 1, params)
    silent = [0, 0, 0]
    assert game.payoff(silent, 1) == params.rho + params.eta
    assert game.payoff(silent, 0) == -(params.gamma + params.eta)
    assert game.payoff(silent, 2) == params.rho + params.eta


# --- crowd avoidance ---------------------------------------------------------

def test_sca_repeats_a_winning_rb():
    assert sca(7, False, 1, [], keep_u=0.99, pick_u=0.99, R=50) == 7


def test_sca_failure_keep_coin():
    assert sca(7, True, 3, [], keep_u=0.33, pick_u=0.0, R=50) == 7
    # keep probability is 1/3: a uniform at it or above abandons the RB
    assert sca(7, True, 3, [], keep_u=0.34, pick_u=0.0, R=50) == 1


def test_sca_failure_implies_crowd_of_two():
    # nobody else visible on the RB still counts as one unseen contender
    for crowd_seen in (0, 1):
        assert sca(7, True, crowd_seen, [], keep_u=0.49, pick_u=0.0, R=50) == 7
        assert sca(7, True, crowd_seen, [], keep_u=0.51, pick_u=0.0, R=50) != 7


def test_sca_fresh_pick_prefers_sensed_unused():
    unused = [2, 4, 9]
    assert sca(0, False, 0, unused, keep_u=0.0, pick_u=0.0, R=50) == 2
    assert sca(0, False, 0, unused, keep_u=0.0, pick_u=0.99, R=50) == 9


def test_sca_fresh_pick_falls_back_to_all_rbs():
    assert sca(0, False, 0, [], keep_u=0.0, pick_u=0.0, R=50) == 1
    assert sca(0, False, 0, [], keep_u=0.0, pick_u=0.999, R=50) == 50


@pytest.mark.parametrize("shared", [False, True])
def test_sca_array_equals_the_scalar_rule(shared):
    # many devices at once: random histories, crowds and sensed sets (some
    # rows sense every RB busy); one shared row serves every device at full
    # range
    rng = np.random.default_rng(3 + shared)
    top = np.nextafter(1.0, 0.0)
    for R in (1, 2, 7, 50):
        n = 40
        prev = rng.integers(0, R + 1, n)
        failed = rng.random(n) < 0.6
        crowd = rng.integers(0, 6, n)
        unused = rng.random((1 if shared else n, R)) < rng.random((1 if shared else n, 1))
        keep_u, pick_u = rng.random(n), rng.random(n)
        keep_u[:3], pick_u[:3] = top, top
        got = sca_step(prev, failed, crowd, unused, keep_u, pick_u, R)
        rows = np.broadcast_to(unused, (n, R))
        expected = [sca_step_ref(int(prev[i]), bool(failed[i]), int(crowd[i]),
                                 (np.flatnonzero(rows[i]) + 1).tolist(),
                                 keep_u[i], pick_u[i], R) for i in range(n)]
        assert got.tolist() == expected


def test_delegation_weights_by_future_age():
    ids = [3, 8]
    assert delegate(ids, [1, 9], 0.05) == 3
    assert delegate(ids, [1, 9], 0.2) == 8
    assert delegate([], [], 0.5) is None
    assert delegate(ids, [0, 0], 0.6) == 8


def test_delegation_weights_past_float_range():
    # candidate ages 2**1100 and 2**1101 tie as floats (inf) but weigh 1:2,
    # and a linear age far below them weighs a subnormal float, or nothing
    ids = [1, 4, 6]
    ages = [1200, 2**1100, 2**1101]
    assert delegate(ids, ages, 0.30) == 4
    assert delegate(ids, ages, 0.34) == 6
    assert delegate([1, 4], [3, 2**1030], 0.0) == 1
    assert delegate([1, 4], [3, 2**1100], 0.0) == 4


def _exact_age(rng):
    """A future age as the engine sees one: linear, a power of two, or a power
    of two past float range (deep enough that quotients underflow)."""
    draw = rng.random()
    if draw < 0.3:
        return int(rng.integers(1, 3000))
    if draw < 0.55:
        return 1 << int(rng.integers(0, 1023))
    return 1 << int(rng.integers(1024, 2300))


def test_delegation_array_equals_the_scalar_rule():
    # rows of candidate sets over shared columns, with ages mixing linear
    # values, powers of two and powers of two past 2**1024 (no golden run
    # delegates to an age that large); some rows hold no candidate, and one
    # uniform sits at the top of [0, 1)
    rng = np.random.default_rng(17)
    top = np.nextafter(1.0, 0.0)
    for trial in range(300):
        n_cols = int(rng.integers(1, 12))
        exact = [_exact_age(rng) for _ in range(n_cols)]
        if trial % 3 == 0:          # every candidate past float range
            exact = [1 << int(rng.integers(1024, 1100)) for _ in range(n_cols)]
        if trial % 7 == 0:          # exact ties past float range
            exact = [1 << 1500] * n_cols
        candidates = rng.random((6, n_cols)) < rng.random()
        u = rng.random(6)
        u[0] = top
        ages, exponents = float_ages(exact)
        got = delegate_target(candidates, ages, exponents, u)
        for r in range(6):
            cols = np.flatnonzero(candidates[r]).tolist()
            expected = delegate_target_ref(cols, [exact[c] for c in cols], u[r])
            assert got[r] == (-1 if expected is None else expected), (trial, r)


def test_random_selection_quantiles():
    assert random_selection(50, 0.0) == 1
    assert random_selection(50, 0.999) == 50
    assert random_selection(2, 0.49) == 1
    assert random_selection(2, 0.51) == 2
    u = np.array([0.0, 0.49, 0.51, np.nextafter(1.0, 0.0)])
    assert random_selection(2, u).tolist() == [1, 1, 2, 2]


# --- baselines and closed forms ----------------------------------------------

def predetermined_ref(f_values, active, R):
    """Rank-to-RB map on exact ages: the k-th highest future age transmits on
    RB k, ties by device id, ranks beyond R silent."""
    actions = [0] * len(f_values)
    order = sorted((i for i in range(len(f_values)) if active[i]),
                   key=lambda i: (-f_values[i], i))
    for rank, i in enumerate(order[:R], start=1):
        actions[i] = rank
    return actions


def predetermined(gen, exponential, active, R, t=1500):
    """The engine's rank-to-RB baseline at slot t, against the reference."""
    n = len(gen)
    config = ScenarioConfig(n_devices=n, n_rbs=R, r_c=0.0,
                            mode=Mode.DISTRIBUTED_PREDETERMINED)
    messages = PendingMessages(n)
    messages.gen_slot[:] = gen
    messages.exponential[:] = exponential
    messages.rbs_left[:] = active
    positions, _, _ = make_devices(n, 0.6, 0.75, 0.75, 10.0, 10.0,
                                   np.random.default_rng(0))
    stack = _DistributedStack(config, _Lanes(1, n, R), positions, messages, [config.mode])
    # the baseline needs every device to know the full ranking, whatever r_c:
    # a predetermined lane builds no block
    assert not stack.dense and stack.full_range
    active_ids = np.flatnonzero(active)
    tx, rbs, _, _ = stack.allocate(t, active_ids, [len(active_ids)],
                                   SlotDraws([0], n, config.slots))
    f_values = [aoi_value(KINDS[e], t + config.beta, g) if a else 0
                for g, e, a in zip(gen, exponential, active)]
    expected = predetermined_ref(f_values, active, R)
    assert stack.actions.tolist() == expected
    # the actions are RB labels 1..R; allocate hands on lane-local RBs 0..R-1
    assert rbs.tolist() == [expected[i] - 1 for i in tx.tolist()]
    return expected


def test_predetermined_maps_rank_to_rb():
    # linear future ages 5, 9, 1, 7 at slot 10
    assert predetermined([6, 2, 10, 4], [False] * 4, [True] * 4, 3,
                         t=10) == [3, 1, 0, 2]


def test_predetermined_skips_inactive():
    assert predetermined([6, 2, 10], [False] * 3, [True, False, True], 2,
                         t=10) == [1, 0, 2]


def test_predetermined_equals_the_rank_rule_on_random_cells():
    # more active devices than RBs, exact ties, and exponential ages past
    # 2**1024 (generated more than 1,024 slots ago), which read inf as floats
    rng = np.random.default_rng(29)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        R = int(rng.integers(1, 12))
        gen = rng.choice([1, 2, 3, 300, 470, 1490, 1499, 1500], n) if trial % 2 \
            else rng.integers(1, 1501, n)
        exponential = rng.random(n) < 0.5
        active = rng.random(n) < 0.8
        predetermined(gen.tolist(), exponential.tolist(), active.tolist(), R)


def test_service_rate_closed_form_values():
    assert service_rate_closed_form(2, 2) == pytest.approx(0.5)
    assert service_rate_closed_form(50, 50) == pytest.approx(0.3716017144, abs=1e-9)
    assert service_rate_closed_form(200, 50) == pytest.approx(0.0717875372, abs=1e-9)
    assert service_rate_closed_form(0, 10) == 0.0
    with pytest.raises(ValueError):
        service_rate_closed_form(-1, 10)


# --- full-information game ---------------------------------------------------

def test_two_device_equilibria():
    game = FullInfoGame((2, 2), (True, True), 2, GameParams())
    assert set(game.enumerate_equilibria()) == {(1, 2), (2, 1)}


def test_payoff_cells_match_symbols():
    params = GameParams(rho=2.0, gamma=1.0, eta=0.5)
    game = FullInfoGame((2, 2), (True, True), 2, params)
    assert game.payoff([0, 0], 0) == -(1.0 + 0.5)
    assert game.payoff([0, 1], 1) == 2.0
    assert game.payoff([1, 1], 0) == -1.0
    assert game.payoff([1, 2], 0) == 2.0


def test_deviation_ne_that_is_not_structural():
    """A collision profile can be an equilibrium without the sorted shape.

    With ages 9,8,8,8 on R=2 the threshold age is 8, so all four devices must
    transmit (silence at or above the threshold pays -(gamma+eta), worse than
    any transmission). Two devices per RB then has no profitable unilateral
    move: switching RBs keeps the collision and silence pays less.
    """
    game = FullInfoGame((9, 8, 8, 8), (True,) * 4, 2, GameParams())
    result = game.is_nash_equilibrium([1, 1, 2, 2])
    assert result.is_equilibrium
    assert not result.structural


def test_inactive_devices_cannot_transmit():
    game = FullInfoGame((5, 5), (True, False), 2, GameParams())
    with pytest.raises(ValueError):
        game.is_nash_equilibrium([1, 2])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_structural_shape_is_sufficient_for_equilibrium(n, R, data):
    # distinct ages: a silent device tied with the lowest transmitter would
    # profitably deviate into a collision, so ties void the shape guarantee
    ages = data.draw(st.lists(st.integers(1, 30), min_size=n, max_size=n,
                              unique=True))
    game = FullInfoGame(tuple(ages), (True,) * n, R, GameParams())
    order = sorted(range(n), key=lambda i: (-ages[i], i))
    actions = [0] * n
    for rb, i in enumerate(order[:min(R, n)], start=1):
        actions[i] = rb
    result = game.is_nash_equilibrium(actions)
    # the shape check inside asserts implication; verify both verdicts here
    assert result.structural
    assert result.is_equilibrium


def test_boundary_tie_breaks_the_shape_guarantee():
    # ages (5,5) on one RB: the silent device earns -(gamma+eta) and improves
    # to -gamma by colliding, so top-age-transmits is not an equilibrium here
    game = FullInfoGame((5, 5), (True, True), 1, GameParams())
    result = game.is_nash_equilibrium([1, 0])
    assert not result.is_equilibrium
    assert not result.structural
    assert result.witness == (1, 1)


def test_payoff_scale_invariance_of_equilibria():
    base = FullInfoGame((4, 3, 2), (True,) * 3, 2, GameParams())
    scaled = FullInfoGame((4, 3, 2), (True,) * 3, 2,
                          GameParams(rho=6.0, gamma=3.0, eta=0.9))
    assert set(base.enumerate_equilibria()) == set(scaled.enumerate_equilibria())


def test_game_params_validation():
    with pytest.raises(ValueError):
        GameParams(rho=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        GameParams(eta=0.0)
