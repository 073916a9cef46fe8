import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoisim.aging import AgingKind, aoi_array, aoi_value
from aoisim.centralized import (KIND_EXPONENTIAL, KIND_LINEAR, KIND_UNKNOWN,
                                NO_TYPE, TypeLearner, identify_aging, learn_type,
                                priority_key, rach_collision_probability,
                                rach_phase, schedule, tie_class)
from aoisim.devices import TypeId
from aoisim.engine import Mode, ScenarioConfig, run

LIN, EXP, UNKNOWN = KIND_LINEAR, KIND_EXPONENTIAL, KIND_UNKNOWN
T1, T2 = TypeId.TYPE1.value, TypeId.TYPE2.value


# --- request channel ---------------------------------------------------------

def test_collision_probability_closed_form():
    assert rach_collision_probability(1, 64) == 0.0
    assert rach_collision_probability(2, 64) == pytest.approx(1 / 64)
    expected = 1.0 - (63 / 64) ** 199
    assert rach_collision_probability(200, 64) == pytest.approx(expected)


def test_rach_thinning_is_per_device():
    ids = np.array([0, 2, 5])
    survive_p = 1.0 - rach_collision_probability(3, 64)
    u = np.zeros(3)
    u[1] = survive_p + 1e-9   # u[1] is device 2's: only it is unlucky
    assert rach_phase(ids, u, 64).tolist() == [0, 5]
    assert rach_phase(ids, u, 64, lanes=np.zeros(3, dtype=np.intp)).tolist() == [0, 5]
    assert rach_phase(np.zeros(0, dtype=np.intp), np.zeros(0), 64).tolist() == []


def test_rach_exact_mode_keeps_unique_preambles():
    # picks are floor(u * 4): devices 0 and 1 collide on preamble 2
    u = np.array([0.55, 0.6, 0.1])
    assert rach_phase(np.arange(3), u, 4, exact=True).tolist() == [2]
    # u is aligned with the ids, in whatever order they come; each lane has
    # its own preambles, so equal picks in two lanes do not collide
    ids, u = np.array([9, 4, 1, 7]), np.array([0.1, 0.55, 0.1, 0.6])
    assert rach_phase(ids, u, 4, exact=True,
                      lanes=np.array([1, 0, 0, 0])).tolist() == [9, 1]
    assert rach_phase(ids, u, 4, exact=True,
                      lanes=np.array([1, 0, 1, 0])).tolist() == []


@pytest.mark.parametrize("preambles", [2**62, 2**70])
def test_rach_exact_memory_follows_the_requests(preambles):
    # memory follows the requests: a counter per preamble would not fit,
    # and 2**70 picks do not fit an int64
    u = np.array([0.25, 0.5, 0.25 + 2.0**-50, 0.5, 0.75])
    ids = np.arange(5)
    assert rach_phase(ids, u, preambles, exact=True).tolist() == [0, 2, 4]
    assert rach_phase(ids, u, preambles, exact=True,
                      lanes=np.array([0, 0, 1, 1, 1])).tolist() == [0, 1, 2, 3, 4]
    config = ScenarioConfig(mode=Mode.CENTRALIZED_LEARNING, rach_exact=True,
                            preambles=preambles, n_devices=10, n_rbs=5, slots=5)
    result = run(config)
    assert len(result.records) == 5 and result.summary.rach_failures == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30),
       st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 1.0, exclude_max=True)),
                max_size=30),
       st.integers(1, 40), st.booleans(), st.integers(0, 3), st.data())
def test_one_cell_rach_equals_its_lane_form(u, others, preambles, exact, lane, data):
    # a lone cell (lanes=None) keeps the survivors of its lane form: as lane 0
    # alone, and as lane `lane` of a batch whose other cells hold other
    # requests, in any interleaving
    ids, u = np.arange(len(u)) * 3 + 1, np.array(u)
    alone = rach_phase(ids, u, preambles, exact).tolist()
    zeros = np.zeros(len(ids), dtype=np.intp)
    assert rach_phase(ids, u, preambles, exact, lanes=zeros).tolist() == alone
    # the other requests sit in the other cells, on ids ours never take
    others = [(cell + (cell >= lane), draw) for cell, draw in others]
    mine = data.draw(st.permutations([True] * len(ids) + [False] * len(others)))
    ours = iter(zip(ids.tolist(), u.tolist(), [lane] * len(ids)))
    theirs = iter([(3 * j, draw, cell) for j, (cell, draw) in enumerate(others)])
    batch = [next(ours) if own else next(theirs) for own in mine]
    survivors = rach_phase(np.array([i for i, _, _ in batch], dtype=np.intp),
                           np.array([d for _, d, _ in batch], dtype=np.float64),
                           preambles, exact,
                           lanes=np.array([c for _, _, c in batch], dtype=np.intp))
    assert [i for i in survivors.tolist() if i % 3 == 1] == alone


def test_rach_config_validation():
    for ids in (np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp)):
        for exact in (False, True):
            with pytest.raises(ValueError):
                rach_phase(ids, np.zeros(len(ids)), 0, exact)


# --- aging identification ----------------------------------------------------

def ident(age, history, slot):
    """identify_aging on one report; history is (slot, age) or None."""
    prev_slot, prev_age = history if history is not None else (-1, 0)
    code = identify_aging(np.array([age], dtype=np.float64), np.array([prev_slot]),
                          np.array([prev_age], dtype=np.float64), slot)[0]
    return None if code == UNKNOWN else (AgingKind.LINEAR, AgingKind.EXPONENTIAL)[code]


def test_non_power_of_two_age_identifies_linear_instantly():
    assert ident(3, None, 10) is AgingKind.LINEAR
    assert ident(6, None, 10) is AgingKind.LINEAR


def test_power_of_two_age_without_history_is_unknown():
    for age in (1, 2, 4, 8, 1 << 40):
        assert ident(age, None, 10) is None


def test_history_separates_additive_from_doubling():
    # age 2 then 4 one slot later fits doubling only
    assert ident(4, (9, 2), 10) is AgingKind.EXPONENTIAL
    # age 2 then 4 two slots later fits addition only
    assert ident(4, (8, 2), 10) is AgingKind.LINEAR


def test_age_one_then_two_is_still_ambiguous():
    assert ident(2, (9, 1), 10) is None


def test_stale_history_is_ignored():
    assert ident(4, (10, 4), 10) is None


def _exact_identify(current_aoi, history, slot):
    """The identification rule on exact integer ages (reference)."""
    if current_aoi >= 1 and current_aoi & (current_aoi - 1):
        return AgingKind.LINEAR
    if history is None:
        return None
    prev_slot, prev_aoi = history
    gap = slot - prev_slot
    if gap <= 0:
        return None
    linear_fits = current_aoi == prev_aoi + gap
    exponential_fits = current_aoi == prev_aoi * (1 << gap)
    if linear_fits != exponential_fits:
        return AgingKind.LINEAR if linear_fits else AgingKind.EXPONENTIAL
    return None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(AgingKind)),
                          st.integers(1, 1200), st.integers(0, 1100)),
                min_size=1, max_size=25))
def test_identification_matches_the_exact_integer_rule(reports):
    # each message reports at slot t, k slots after generation, and earlier
    # after k - gap slots (gap 0: no earlier report); ages reach past
    # 2**1024, where the float64 reports read inf
    t = 3000
    exponential = np.array([kind is AgingKind.EXPONENTIAL for kind, _, _ in reports])
    gen = np.array([t - k for _, k, _ in reports])
    gaps = np.array([min(gap, k - 1) for _, k, gap in reports])
    prev_slots = np.where(gaps > 0, t - gaps, -1)
    prev_ages = np.where(gaps > 0, aoi_array(exponential, t - gaps, gen), 0.0)
    kinds = identify_aging(aoi_array(exponential, t, gen), prev_slots, prev_ages, t)
    for i, (kind, k, _) in enumerate(reports):
        gap = int(gaps[i])
        history = (t - gap, aoi_value(kind, t - gap, t - k)) if gap else None
        want = _exact_identify(aoi_value(kind, t, t - k), history, t)
        assert kinds[i] == (UNKNOWN if want is None else (LIN, EXP)[want is AgingKind.EXPONENTIAL])


# --- type learning -----------------------------------------------------------

def _learned(learner, i):
    """The learned type code of device i."""
    return learn_type(learner, np.array([i]))[0]


def test_learner_counts_and_ml_estimate():
    learner = TypeLearner(m1=0.75, m2=0.75, p_type1=0.6, n_devices=3)
    assert _learned(learner, 1) == NO_TYPE
    learner.observe(np.array([1]), np.array([LIN]))
    assert _learned(learner, 1) == TypeId.TYPE1.value
    learner.observe(np.array([1]), np.array([EXP]))
    learner.observe(np.array([1]), np.array([EXP]))
    assert _learned(learner, 1) == TypeId.TYPE2.value
    assert learner.counts.tolist() == [[0, 0], [1, 2], [0, 0]]
    # one id and KIND_* code per identification, repeats counted
    learner.observe(np.array([0, 2, 2]), np.array([LIN, EXP, EXP]))
    assert learner.counts.tolist() == [[1, 0], [1, 2], [0, 2]]
    assert learn_type(learner, np.array([2, 1, 0])).tolist() == [
        TypeId.TYPE2.value, TypeId.TYPE2.value, TypeId.TYPE1.value]
    assert learn_type(TypeLearner(n_devices=2), np.arange(2)).tolist() == [
        NO_TYPE, NO_TYPE]


def test_ml_tie_breaks_to_faster_aging_type():
    learner = TypeLearner(m1=0.75, m2=0.75, n_devices=2)
    learner.observe(np.array([1, 1]), np.array([LIN, EXP]))
    assert _learned(learner, 1) == TypeId.TYPE2.value


# --- priority scheduling -----------------------------------------------------

def key(age, kind=UNKNOWN, est=NO_TYPE, beta=1, learner=None):
    keys = priority_key(np.array([age], dtype=np.float64), np.array([kind]),
                        np.array([est]), learner or TypeLearner(), beta)
    return keys[0]


def _scalar_key(age, kind, est, learner, beta):
    """The pricing rule on one exact (big) integer age, in Python arithmetic.

    Keyed by what the scheduler knows: a known kind (KIND_* code), else the
    device's type (TypeId value), else the population type mix.
    """
    linear, exponential = age + beta, age * (1 << beta)
    if kind != UNKNOWN:
        return (linear, exponential)[kind]

    def expected(p_linear):
        return p_linear * linear + (1.0 - p_linear) * exponential

    type1, type2 = expected(learner.m1), expected(1.0 - learner.m2)
    if est != NO_TYPE:
        return type1 if est == T1 else type2
    # the population mix leaves a type with zero share out
    p1 = learner.p_type1
    if p1 == 0.0:
        return type2
    if p1 == 1.0:
        return type1
    return p1 * type1 + (1.0 - p1) * type2


def test_expected_future_age_formulas():
    # type-1 hypothesis: mostly linear
    assert key(4, UNKNOWN, T1) == pytest.approx(0.75 * 5 + 0.25 * 8)
    assert key(4, UNKNOWN, T2) == pytest.approx(0.25 * 5 + 0.75 * 8)
    # no type known: the population mix of the two
    assert key(4) == pytest.approx(0.6 * 5.75 + 0.4 * 7.25)


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=4))
def test_marginal_priority_is_monotone_in_current_age(age, beta):
    assert key(age + 1, beta=beta) > key(age, beta=beta)


def serve(rows, R, beta=1, learner=None):
    """Schedule rows of (device id, current age, RB demand, kind, type)."""
    learner = learner or TypeLearner()
    ids, ages, rbs, kinds, types = (np.array(col) for col in zip(*rows))
    keys = priority_key(ages.astype(np.float64), kinds, types, learner, beta)
    return grants(schedule(ids, keys, np.zeros(len(ids), dtype=np.int64),
                           tie_class(types, learner), rbs, R))


def grants(scheduled):
    """schedule's arrays as (device id, RB indices) pairs in service order."""
    served, first, end = scheduled
    return [(i, tuple(range(a, b)))
            for i, a, b in zip(served.tolist(), first.tolist(), end.tolist())]


def test_full_info_priority_is_exact_future_age():
    # a known kind is priced exactly, whatever the type
    for est in (NO_TYPE, T1, T2):
        assert key(6, EXP, est) == 12
        assert key(6, LIN, est, beta=2) == 8


def test_learning_priority_prefers_identified_kind():
    assert key(4, EXP) == 8
    # nothing identified, no observations: the population mix
    assert key(4) == _scalar_key(4, UNKNOWN, NO_TYPE, TypeLearner(), 1)


def test_learning_priority_uses_the_estimated_type():
    # an unresolved message is priced under the device's learned type
    for est in (T1, T2):
        assert key(4, UNKNOWN, est, beta=2) == \
            _scalar_key(4, UNKNOWN, est, TypeLearner(), 2)
    assert key(4, UNKNOWN, T1) < key(4) < key(4, UNKNOWN, T2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 1015), st.booleans(),
                          st.sampled_from([UNKNOWN, LIN, EXP]),
                          st.sampled_from([NO_TYPE, T1, T2])),
                min_size=1, max_size=20),
       st.integers(1, 4), st.sampled_from([0.0, 0.3, 0.6, 1.0]))
def test_array_keys_equal_exact_scalar_keys(rows, beta, p_type1):
    # ages up to 2**1014 and future ages below 2**1024: every float64 key
    # is bit for bit the Python value of the same rule on exact integers
    learner = TypeLearner(m1=0.8, m2=0.7, p_type1=p_type1)
    t = 2000
    gen = np.array([t - k for k, _, _, _ in rows])
    exponential = np.array([exp for _, exp, _, _ in rows])
    kinds = np.array([kind for _, _, kind, _ in rows])
    types = np.array([est for _, _, _, est in rows])
    keys = priority_key(aoi_array(exponential, t, gen), kinds, types, learner, beta)
    for i, (k, exp, _, _) in enumerate(rows):
        age = aoi_value(AgingKind.EXPONENTIAL if exp else AgingKind.LINEAR, t, t - k)
        want = _scalar_key(age, kinds[i], types[i], learner, beta)
        assert keys[i] == want and float(keys[i]) == float(want)


@pytest.mark.parametrize("p_type1", [0.0, 1.0])
def test_keys_are_never_nan_at_a_pure_type_mix(p_type1):
    # a saturated age under a zero-share type once gave 0.0 * inf; checked
    # with what each mode knows: some kinds and types, nothing, everything
    learner = TypeLearner(m1=0.75, m2=0.9, p_type1=p_type1)
    ages = np.array([np.inf, 1e300, 3.0, np.inf, np.inf, 2.0 ** 1023])
    knowledge = [
        (np.array([UNKNOWN, UNKNOWN, UNKNOWN, EXP, LIN, UNKNOWN]),
         np.array([NO_TYPE, T1, T2, T2, T1, T2])),
        (np.full(6, UNKNOWN), np.full(6, NO_TYPE)),
        (np.array([EXP, LIN, LIN, EXP, LIN, EXP]), np.array([T2, T1, T1, T2, T1, T2])),
    ]
    for kinds, types in knowledge:
        keys = priority_key(ages, kinds, types, learner, beta=2)
        assert not np.isnan(keys).any(), (kinds, types)
        assert keys[0] == np.inf and keys[2] > 3.0


def test_saturated_keys_rank_by_exponent():
    # two keys past 2**1024 both read inf; the exponent keeps their order,
    # and a finite key never borrows it
    allocation = grants(schedule(np.array([0, 1, 2, 3]),
                                 np.array([np.inf, np.inf, 5.0, 5.0]),
                                 np.array([1100, 1300, 99, 1]),
                                 np.array([0, 1, 1, 0]), np.ones(4, dtype=np.int64), 4))
    assert [d for d, _ in allocation] == [1, 0, 3, 2]


def test_schedule_orders_by_descending_future_age():
    allocation = serve([(0, 2, 1, LIN, T1), (1, 2, 1, EXP, T2),
                        (2, 9, 1, LIN, T1)], 2)
    assert [d for d, _ in allocation] == [2, 1]
    assert allocation[0][1] == (0,) and allocation[1][1] == (1,)


def test_schedule_tie_breaks_faster_type_then_id():
    # linear age 3 and exponential age 2 share future age 4
    allocation = serve([(0, 3, 1, LIN, T1), (7, 2, 1, EXP, T2),
                        (4, 3, 1, LIN, T1)], 3)
    assert [d for d, _ in allocation] == [7, 0, 4]


@pytest.mark.parametrize("p_type1, order", [(0.3, [1, 5, 2]), (0.5, [1, 2, 5]),
                                            (0.7, [1, 2, 5])])
def test_unknown_type_ties_as_the_more_common_type(p_type1, order):
    # equal keys (linear age 3): device 1 is type 2, device 2 type 1 and
    # device 5 has no type yet, so it ties as the type of the larger share
    rows = [(2, 3, 1, LIN, T1), (5, 3, 1, LIN, NO_TYPE), (1, 3, 1, LIN, T2)]
    allocation = serve(rows, 3, learner=TypeLearner(p_type1=p_type1))
    assert [d for d, _ in allocation] == order


def test_schedule_grants_partial_demand_at_the_boundary():
    allocation = serve([(0, 9, 3, LIN, T1), (1, 5, 3, LIN, T1)], 4)
    assert allocation == [(0, (0, 1, 2)), (1, (3,))]


def test_schedule_stops_when_rbs_run_out():
    allocation = serve([(i, 10 - i, 2, LIN, T1) for i in range(5)], 4)
    assert [d for d, _ in allocation] == [0, 1]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 64), st.integers(1, 4),
                          st.sampled_from([UNKNOWN, LIN, EXP]),
                          st.sampled_from([NO_TYPE, T1, T2])),
                min_size=1, max_size=12),
       st.integers(1, 3))
def test_schedule_never_double_books_an_rb(entries, beta):
    rows = [(i, aoi, rbs, kind, est) for i, (aoi, rbs, kind, est) in enumerate(entries)]
    R = 6
    allocation = serve(rows, R, beta)
    used = [rb for _, rbs in allocation for rb in rbs]
    assert len(used) == len(set(used))
    assert len(used) <= R
    assert all(0 <= rb < R for rb in used)
    granted = {d: rbs for d, rbs in allocation}
    for i, (_, rbs_needed, _, _) in enumerate(entries):
        if i in granted:
            assert len(granted[i]) <= rbs_needed
