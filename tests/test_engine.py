import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from aoisim import engine
from aoisim.aging import AgingKind, aoi_value
from aoisim.centralized import KIND_UNKNOWN, KINDS
from aoisim.devices import PendingMessages, activate, deliver_success, make_devices
from aoisim.distributed import kappa, kth_largest
from aoisim.engine import (_PH_ACTIVATE, _PH_KIND, _PH_SIZE, ConfigError, Mode,
                           ScenarioConfig, SlotDraws, _DistributedStack,
                           _MetricAccumulator, _transmitters, replicate_seed, run,
                           run_many, sweep_iter, sweep_lanes)
from test_distributed import delegate_target_ref, kappa_ref, sca_step_ref
from test_goldens import CASES, case_config


def small(**kw):
    base = dict(n_devices=10, n_rbs=10, slots=80, seed=7, v_a=0.4,
                mode=Mode.DISTRIBUTED_SCA)
    base.update(kw)
    return ScenarioConfig(**base)


# --- config validation ---------------------------------------------------------

def test_validate_rejects_bad_fields():
    for kw in (dict(n_devices=0), dict(v_a=1.5), dict(seed=-1),
               dict(m1=0.5), dict(beta=0), dict(warmup_fraction=1.0),
               dict(n_rbs_max=11), dict(n_rbs_min=0),
               dict(n_rbs_max=2, n_rbs_min=3)):
        with pytest.raises(ConfigError):
            small(**kw).validate()


def test_multi_rb_is_centralized_only():
    with pytest.raises(ConfigError):
        small(mode=Mode.DISTRIBUTED_SCA, n_rbs_max=2).validate()
    small(mode=Mode.CENTRALIZED_LEARNING, n_rbs_max=2).validate()


def test_fixed_demand_window_conserves_rbs():
    # epsilon=0 removes outages, so every delivered message consumed exactly
    # its fixed 3-RB demand and in-flight remainders account for the rest
    cfg = small(mode=Mode.CENTRALIZED_LEARNING, n_devices=20, v_a=0.8,
                n_rbs_min=3, n_rbs_max=3, epsilon=0.0)
    result = run(cfg)
    assert result.summary.deliveries > 0
    granted = sum(round(rec.service_rate * cfg.n_rbs) for rec in result.records)
    assert granted >= 3 * result.summary.deliveries
    assert granted < 3 * (result.summary.deliveries + cfg.n_devices)
    assert all(rec.service_rate <= 1.0 for rec in result.records)


# --- determinism and common random numbers --------------------------------------

def test_same_config_same_output():
    a = run(small())
    b = run(small())
    assert a.summary == b.summary
    assert a.records == b.records


def test_slot_draws_are_pure():
    d = SlotDraws(3, 5)
    assert (d.vec(10, 1) == d.vec(10, 1)).all()
    assert (d.vec(10, 1) != d.vec(10, 2)).any()
    assert (d.vec(10, 1) != d.vec(11, 1)).any()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
def test_bulk_seed_words_equal_the_seed_sequence(seed):
    # blocks of 10 slots here: slots 9/10 and 19/20 straddle a boundary, and
    # slot 3 after 21 refills an earlier block; 2**32 - 1 and 2**32 differ
    # in word count, so they never share a block
    draws = SlotDraws(seed, 7, slots=9)
    for slot in (0, 1, 9, 10, 11, 19, 20, 21, 3, 2**32 - 1, 2**32):
        for phase in range(8):
            ss = np.random.SeedSequence([seed, slot, phase])
            assert (draws.state(slot, phase)
                    == ss.generate_state(4, np.uint64)).all(), (slot, phase)
            assert (draws.vec(slot, phase)
                    == np.random.default_rng(ss).random(7)).all(), (slot, phase)


def test_seed_words_come_in_bounded_blocks():
    assert SlotDraws(5, 3, slots=1)._block == 2
    assert SlotDraws(5, 3, slots=10_000)._block == 256
    draws = SlotDraws(5, 3, slots=10_000)
    draws.vec(700, 0)
    assert draws._states.shape == (256 * 8, 4)


class _DeviceReplay:
    """A run's pending messages stepped one device at a time.

    Activation follows the per-device rule on the run's own draws; delivery
    credits the RBs the engine reports as received and records the age of
    each completed message through aoi_value.
    """

    def __init__(self, config):
        self.config = config
        self.devices = make_devices(config.n_devices, config.type1_fraction,
                                    config.m1, config.m2, config.width,
                                    config.length,
                                    np.random.default_rng(config.seed))
        self.draws = SlotDraws(config.seed, config.n_devices)
        n = config.n_devices
        self.kind = [None] * n          # None: idle
        self.gen = [0] * n
        self.left = [0] * n

    def activate(self, t):
        config = self.config
        u_act, u_kind, u_size = (self.draws.vec(t, phase)
                                 for phase in (_PH_ACTIVATE, _PH_KIND, _PH_SIZE))
        span = config.n_rbs_max - config.n_rbs_min + 1
        for d in self.devices:
            i = d.id
            if self.kind[i] is None and u_act[i] < config.v_a:
                self.kind[i] = (AgingKind.LINEAR if u_kind[i] < d.dtype.p_linear
                                else AgingKind.EXPONENTIAL)
                self.gen[i] = t
                self.left[i] = (config.n_rbs_min if span == 1
                                else config.n_rbs_min + int(u_size[i] * span))

    def deliver(self, ids, n_rbs, t):
        delivered, total = [], 0
        for i, n in zip(ids, n_rbs):
            assert self.kind[i] is not None, i
            self.left[i] -= n
            if self.left[i] <= 0:
                delivered.append(i)
                total += aoi_value(self.kind[i], t, self.gen[i])
                self.kind[i], self.left[i] = None, 0
        return delivered, total

    def active_ids(self):
        return [i for i, kind in enumerate(self.kind) if kind is not None]

    def check(self, messages):
        active = self.active_ids()
        assert messages.rbs_left.tolist() == self.left
        assert messages.gen_slot[active].tolist() == [self.gen[i] for i in active]
        assert messages.exponential[active].tolist() == [
            self.kind[i] is AgingKind.EXPONENTIAL for i in active]


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("central")))
def test_centralized_arrays_match_the_devices_every_slot(name, monkeypatch):
    # the shared message arrays equal a per-device replay of every activation
    # and delivery, checked before each slot and after each delivery
    config = case_config(name)
    replay = _DeviceReplay(config)
    stack_cls = engine._CentralizedStack
    allocate, feedback = stack_cls.allocate, stack_cls.feedback
    deliver = engine.deliver_success
    slots = []

    def checked_allocate(self, t, active_ids, draws):
        replay.activate(t - 1)               # the sweep at the end of slot t - 1
        replay.check(self.messages)
        assert active_ids.tolist() == replay.active_ids()
        assert self.true_type.tolist() == [d.dtype.type_id.value
                                           for d in replay.devices]
        slots.append(t)
        return allocate(self, t, active_ids, draws)

    def checked_deliver(messages, ids, n_rbs, t, lanes):
        expected = replay.deliver(ids.tolist(), n_rbs.tolist(), t)
        delivered, totals = deliver(messages, ids, n_rbs, t, lanes)
        assert (delivered.tolist(), totals) == (expected[0], [expected[1]])
        assert type(totals[0]) is int
        replay.check(messages)
        return delivered, totals

    def checked_feedback(self, ids, outcomes, delivered, claims):
        feedback(self, ids, outcomes, delivered, claims)
        # what the scheduler learned about a message goes with its delivery
        idle = self.messages.rbs_left == 0
        assert (self.known_kind[idle] == KIND_UNKNOWN).all()
        assert (self.last_slot[idle] == -1).all()

    monkeypatch.setattr(stack_cls, "allocate", checked_allocate)
    monkeypatch.setattr(stack_cls, "feedback", checked_feedback)
    monkeypatch.setattr(engine, "deliver_success", checked_deliver)
    run(config)
    assert slots == list(range(1, config.slots + 1))


def test_delivery_accounting_is_exact_past_float_range():
    # one slot delivers linear ages and exponential ones below and past
    # 2**1024; the total is the exact integer sum
    t = 1500
    m = PendingMessages(6)
    for i, (gen, exponential) in enumerate([(1000, False), (1497, False), (1490, True),
                                            (3, True), (200, True), (1, True)]):
        activate(m, [i], gen, kind_u=float(exponential), p_linear=0.5)
    ids = np.arange(6)
    expected = sum(aoi_value(KINDS[int(m.exponential[i])], t, int(m.gen_slot[i]))
                   for i in ids)
    delivered, (total,) = deliver_success(m, ids, np.ones(6, dtype=np.int64), t)
    assert delivered.tolist() == ids.tolist()
    assert total == expected and type(total) is int
    assert total > 2**1496
    metrics = _MetricAccumulator(t, 0.1)
    slot_mean, cum_mean = metrics.slot(t, total, len(delivered), 0.5, 0, 0, 0)
    assert slot_mean == cum_mean == math.inf
    assert metrics.cum_aoi_total == expected
    # below float range the mean is the exact total over the count
    m = PendingMessages(3)
    for i, (gen, exponential) in enumerate([(10, False), (8, True), (2, True)]):
        activate(m, [i], gen, kind_u=float(exponential), p_linear=0.5)
    _, (total,) = deliver_success(m, np.arange(3), np.ones(3, dtype=np.int64), 70)
    assert total == 60 + 2**61 + 2**67
    assert _MetricAccumulator(70, 0.1).slot(70, total, 3, 0.5, 0, 0, 0)[0] == total / 3


def _plain(value) -> bool:
    return value is None or type(value) in (int, float)


@pytest.mark.parametrize("name", ["central_full_info_beyond_float", "central_hetero_window",
                                  "sca_trace", "predetermined",
                                  "starvation_staggered_full"])
def test_records_hold_plain_python_numbers(name):
    result = run(case_config(name))
    for record in result.records:
        assert all(_plain(getattr(record, f.name))
                   for f in dataclasses.fields(record)), record
    assert all(_plain(getattr(result.summary, f.name))
               for f in dataclasses.fields(result.summary))


_CONFIGS = st.fixed_dictionaries({
    "mode": st.sampled_from(list(Mode)),
    "n_devices": st.integers(1, 30),
    "n_rbs": st.integers(1, 12),
    "slots": st.integers(1, 40),
    "seed": st.integers(0, 2**40),
    "v_a": st.sampled_from([0.0, 0.05, 0.5, 1.0]) | st.floats(0.0, 1.0),
    "beta": st.integers(1, 3),
    "epsilon": st.sampled_from([0.0, 1.0, 30.0]),
    "preambles": st.integers(1, 64),
    "rach_exact": st.booleans(),
    "heterogeneous_power": st.booleans(),
    "r_c": st.sampled_from([0.0, 2.0, 5.0, 15.0]),
    "type1_fraction": st.floats(0.0, 1.0),
    "demand": st.tuples(st.integers(1, 4), st.integers(0, 3)),
    "trace": st.booleans(),
})


def _valid_config(draw) -> ScenarioConfig:
    """A ScenarioConfig from a _CONFIGS draw; demand windows for centralized modes."""
    draw = dict(draw)
    n_min, extra = draw.pop("demand")
    if draw["mode"].centralized:
        n_min = min(n_min, draw["n_rbs"])
        draw.update(n_rbs_min=n_min, n_rbs_max=min(n_min + extra, draw["n_rbs"]))
    return ScenarioConfig(**draw)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_CONFIGS)
def test_every_valid_config_runs(draw):
    config = _valid_config(draw)
    config.validate()
    result = run(config)
    assert len(result.records) == config.slots
    assert 0.0 <= result.summary.mean_service_rate <= 1.0
    for record in result.records:
        assert 0.0 <= record.service_rate <= 1.0
        assert record.n_transmitting <= record.n_active
        assert record.avg_inst_aoi_slot is None or record.avg_inst_aoi_slot >= 1
        if config.mode.centralized:
            # RBs are handed out once each: no collision, at least one RB per
            # transmitter, at most R in all and n_rbs_max per transmitter
            granted = round(record.service_rate * config.n_rbs)
            assert record.duplicate_failures == 0
            assert record.n_transmitting <= granted <= config.n_rbs
            assert granted <= record.n_transmitting * config.n_rbs_max
            assert record.rach_failures + record.n_transmitting <= record.n_active


def _assert_lanes_equal_runs(configs):
    """run_many gives every config the records, summary and trace of its own run."""
    for config, lane in zip(configs, run_many(configs), strict=True):
        alone = run(config)
        assert lane.config == config
        assert lane.records == alone.records
        assert lane.summary == alone.summary
        assert lane.trace == alone.trace


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_CONFIGS, st.lists(st.integers(0, 2**40), min_size=0, max_size=4, unique=True))
def test_run_many_equals_one_run_per_config(draw, more_seeds):
    # lanes of every mode: partial range, multi-RB demand, exact RACH draws,
    # traces, and cells small enough that some lanes hear their whole cell
    # while others do not
    config = _valid_config(draw)
    seeds = [config.seed] + [s for s in more_seeds if s != config.seed]
    _assert_lanes_equal_runs([dataclasses.replace(config, seed=s) for s in seeds])


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_many_equals_one_run_per_config_on_every_golden_case(name):
    # each golden config shares its slot loop with two other seeds; the
    # beyond-float and starvation cases hold in-flight ages past 2**1024
    base = case_config(name)
    _assert_lanes_equal_runs([dataclasses.replace(base, seed=s)
                              for s in (4, base.seed, 5)])


@pytest.mark.parametrize("mode", [Mode.DISTRIBUTED_SCA, Mode.DISTRIBUTED_RANDOM])
def test_run_many_mixes_full_and_partial_range_lanes(mode):
    # at r_c = 6 on a 10 x 10 cell, three devices sometimes all hear each
    # other and sometimes not: such lanes keep their own threshold rule
    base = small(n_devices=3, n_rbs=2, r_c=6.0, v_a=0.6, slots=60, mode=mode,
                 trace=True)
    configs = [dataclasses.replace(base, seed=s) for s in range(8)]
    blocks = _DistributedStack(base, [d for c in configs for d in make_devices(
        3, c.type1_fraction, c.m1, c.m2, c.width, c.length,
        np.random.default_rng(c.seed))], PendingMessages(24)).neighbors
    assert any(b is None for b in blocks) and any(b is not None for b in blocks)
    _assert_lanes_equal_runs(configs)


def test_run_many_rejects_empty_and_mixed_batches():
    with pytest.raises(ConfigError, match="at least one config"):
        run_many([])
    base = small()
    for change in (dict(v_a=0.5), dict(mode=Mode.DISTRIBUTED_RANDOM),
                   dict(slots=81), dict(trace=True)):
        with pytest.raises(ConfigError, match="differ only in seed"):
            run_many([base, dataclasses.replace(base, seed=8, **change)])
    with pytest.raises(ConfigError):
        run_many([base, dataclasses.replace(base, seed=-1)])


@pytest.mark.parametrize("mode", [Mode.CENTRALIZED_LEARNING,
                                  Mode.CENTRALIZED_NO_LEARNING])
def test_centralized_runs_past_float_range(mode):
    # 400 devices on one RB and 64 preambles: requests rarely survive, so
    # in-flight ages pass 2**1024 (this once raised OverflowError)
    config = ScenarioConfig(mode=mode, n_devices=400, n_rbs=1, v_a=1.0,
                            preambles=64, type1_fraction=0.0, m2=0.9,
                            slots=1500, seed=11)
    result = run(config)
    assert len(result.records) == 1500
    assert result.summary.deliveries > 0
    assert all(0.0 <= r.service_rate <= 1.0 for r in result.records)


def test_modes_coincide_when_the_scheduler_never_binds():
    # 8 single-RB devices on 8 RBs: every request is granted in full, so the
    # priority order is irrelevant and matched seeds must give equal records
    results = {}
    for mode in (Mode.CENTRALIZED_FULL_INFO, Mode.CENTRALIZED_LEARNING,
                 Mode.CENTRALIZED_NO_LEARNING):
        results[mode] = run(small(n_devices=8, n_rbs=8, mode=mode,
                                  preambles=4096, slots=120))
    full, learn, none = results.values()
    assert full.records == learn.records == none.records
    assert full.summary == learn.summary == none.summary


def test_heterogeneous_snr_path_is_deterministic():
    cfg = small(heterogeneous_power=True, mode=Mode.DISTRIBUTED_RANDOM)
    assert run(cfg).summary == run(cfg).summary


# --- activation edge cases -------------------------------------------------------

def test_zero_activation_probability_is_a_dead_cell():
    result = run(small(v_a=0.0))
    assert result.summary.deliveries == 0
    assert result.summary.mean_delivery_aoi is None
    assert all(r.n_active == 0 for r in result.records)


def test_predetermined_full_load_no_outage_delivers_every_slot():
    cfg = small(n_devices=10, n_rbs=10, v_a=1.0, epsilon=0.0,
                mode=Mode.DISTRIBUTED_PREDETERMINED, slots=50)
    result = run(cfg)
    assert result.summary.mean_service_rate == 1.0
    assert result.summary.deliveries == 10 * 50
    assert result.summary.mean_delivery_aoi == 1.0
    assert result.summary.duplicate_failures == 0


def test_sca_full_info_converges_to_full_service():
    cfg = small(n_devices=10, n_rbs=10, v_a=1.0, epsilon=0.0,
                mode=Mode.DISTRIBUTED_SCA, slots=200, r_c=15.0)
    result = run(cfg)
    assert result.records[-1].service_rate == 1.0


# --- metric bookkeeping ----------------------------------------------------------

def test_warmup_slot_count():
    result = run(small(slots=100, warmup_fraction=0.25))
    assert result.summary.warmup_slots == 25
    assert result.summary.deliveries_postwarmup <= result.summary.deliveries


def test_distributed_outcome_conservation():
    result = run(small(n_devices=20, n_rbs=5, v_a=0.8, slots=150,
                       mode=Mode.DISTRIBUTED_RANDOM, seed=3))
    s = result.summary
    transmissions = sum(r.n_transmitting for r in result.records)
    assert transmissions == s.deliveries + s.duplicate_failures + s.outage_failures
    assert all(0.0 <= r.service_rate <= 1.0 for r in result.records)


def _saturated(age) -> float:
    """An exact age as a float; past float range it saturates to inf."""
    return math.inf if age >= 2**1024 else float(age)


def _pend(messages, device, gen, kind_u):
    """Give one device a message generated at gen, its kind by kind_u."""
    activate(messages, [device.id], gen, kind_u, device.dtype.p_linear)


def _future(messages, i, t, beta):
    """Exact future age of device i's pending message."""
    return aoi_value(KINDS[int(messages.exponential[i])], t + beta,
                     int(messages.gen_slot[i]))


def _stack_at(config, devices, messages, t):
    """A distributed stack that has just allocated slot t for these devices."""
    stack = _DistributedStack(config, devices, messages)
    stack.allocate(t, np.flatnonzero(messages.rbs_left),
                   SlotDraws(config.seed, config.n_devices))
    return stack


def test_partial_range_thresholds_match_the_per_device_rule():
    # reference: each active device ranks the in-range active ages itself;
    # the ages mix ties, linear values and exponential ones past float range
    config = small(n_devices=40, n_rbs=6, r_c=3.0, v_a=0.5)
    rng = np.random.default_rng(11)
    devices = make_devices(40, 0.6, 0.75, 0.75, 10.0, 10.0, rng)
    messages = PendingMessages(40)
    t = 1200
    for d in devices[::3] + devices[1::3]:
        gen = 1 if rng.random() < 0.2 else int(rng.integers(1150, 1200))
        _pend(messages, d, gen, rng.random())
    stack = _stack_at(config, devices, messages, t)
    active_ids = stack.ids.tolist()
    f_value = {i: _future(messages, i, t, config.beta) for i in active_ids}
    expected = set()
    for i in active_ids:
        known = [_saturated(f_value[j]) for j in active_ids
                 if stack.neighbors[0][i, j]]
        k = kappa(len(known), len(active_ids), config.n_rbs, config.n_devices,
                  config.v_a, config.zeta)
        if _saturated(f_value[i]) >= kth_largest(known, k):
            expected.add(i)
    got = set(stack.ids[_transmitters(stack)].tolist())
    assert got == expected
    assert 0 < len(got) < len(active_ids)


@pytest.mark.parametrize("n_rbs, transmitters", [(1, {0}), (2, {0, 1}),
                                                 (3, {0, 1, 2, 3}), (5, {0, 1, 2, 3, 4})])
def test_full_range_thresholds_compare_exact_ages_past_float_range(n_rbs, transmitters):
    # every exponential age here is past 2**1024, so all of them are inf as
    # floats; the threshold still splits them by their exact values and lets
    # exact ties (devices 2 and 3) transmit together
    config = small(n_devices=7, n_rbs=n_rbs, r_c=15.0, v_a=1.0)
    devices = make_devices(7, 0.6, 0.75, 0.75, 10.0, 10.0, np.random.default_rng(2))
    messages = PendingMessages(7)
    t = 1200
    exponential = 0.9999                    # above every type's linear share
    for d, gen in zip(devices, (1, 2, 3, 3, 60, 100)):
        _pend(messages, d, gen, exponential)
    _pend(messages, devices[6], 1, 0.0)     # linear: age 1200
    stack = _stack_at(config, devices, messages, t)
    assert stack.neighbors is None
    assert np.isinf(stack._float_ages()[0][:6]).all()
    exact = [_future(messages, i, t, config.beta) for i in range(7)]
    k = kappa(7, 7, n_rbs, 7, config.v_a, config.zeta)
    threshold = kth_largest(exact, k)
    assert {i for i in range(7) if exact[i] >= threshold} == transmitters
    assert set(stack.ids[_transmitters(stack)].tolist()) == transmitters


@pytest.mark.parametrize("r_c", [15.0, 3.0])
def test_two_delegators_on_one_neighbor_the_lower_id_wins(r_c):
    # devices 1 and 3 delivered on RBs 4 and 2 last slot and went idle; the
    # only active device is the sole candidate of both (device 0 is out of
    # range at r_c=3) and inherits the RB of the lower delegator id
    config = small(n_devices=4, n_rbs=6, r_c=r_c, v_a=0.4)
    devices = make_devices(4, 0.6, 0.75, 0.75, 10.0, 10.0, np.random.default_rng(5))
    for d, xy in zip(devices, [(0.0, 0.0), (5.0, 5.0), (5.5, 5.5), (6.0, 5.0)]):
        d.position = xy
    messages = PendingMessages(4)
    _pend(messages, devices[2], 10, 0.0)
    stack = _DistributedStack(config, devices, messages)
    assert (stack.neighbors is None) == (r_c == 15.0)
    stack.last_action[[1, 3]] = [4, 2]
    stack.allocate(11, np.flatnonzero(messages.rbs_left),
                   SlotDraws(config.seed, config.n_devices))
    assert stack.actions.tolist() == [0, 0, 4, 0]


def _reference_actions(stack, t, draws):
    """One slot of the distributed game, one device at a time on exact ages."""
    config, messages = stack.config, stack.messages
    # the one lane's adjacency matrix, None at full range
    nb = stack.neighbors and stack.neighbors[0]
    N, R = config.n_devices, config.n_rbs
    active_ids = [i for i in range(N) if messages.rbs_left[i] > 0]
    f = {i: _future(messages, i, t, config.beta) for i in active_ids}
    n = len(active_ids)
    if nb is None:
        threshold = kth_largest([f[i] for i in active_ids],
                                kappa_ref(n, n, R, N, config.v_a, config.zeta))
        passing = [i for i in active_ids if f[i] >= threshold]
    else:
        passing = []
        for i in active_ids:
            known = [_saturated(f[j]) for j in active_ids if nb[i, j]]
            k = kappa_ref(len(known), n, R, N, config.v_a, config.zeta)
            if _saturated(f[i]) >= kth_largest(known, k):
                passing.append(i)
    actions = [0] * N
    if config.mode is Mode.DISTRIBUTED_RANDOM:
        for i in passing:
            actions[i] = 1 + int(draws.vec(t, 5)[i] * R)
        return actions
    last_action, last_failed = stack.last_action.tolist(), stack.last_failed.tolist()
    delegated = {}
    for i in range(N):
        if last_action[i] >= 1 and not last_failed[i] and i not in f:
            candidates = [j for j in active_ids if nb is None or nb[i, j]]
            target = delegate_target_ref(candidates, [f[j] for j in candidates],
                                         draws.vec(t, 7)[i])
            if target is not None and target not in delegated:
                delegated[target] = last_action[i]
    for i in active_ids:
        prev = last_action[i]
        if i in delegated:
            actions[i] = delegated[i]
        elif i not in passing:
            continue
        elif prev >= 1 and not last_failed[i]:
            actions[i] = prev
        else:
            seen = [last_action[j] for j in range(N) if nb is None or nb[i, j]]
            unused = [rb for rb in range(1, R + 1) if rb not in seen]
            actions[i] = sca_step_ref(prev, last_failed[i],
                                      seen.count(prev) if prev else 0, unused,
                                      draws.vec(t, 5)[i], draws.vec(t, 6)[i], R)
    return actions


@pytest.mark.parametrize("mode", [Mode.DISTRIBUTED_SCA, Mode.DISTRIBUTED_RANDOM])
@pytest.mark.parametrize("r_c", [2.5, 6.0, 15.0])
def test_game_slot_equals_the_per_device_rules(mode, r_c):
    # random slot states: active sets, last RBs and failures, and ages that
    # tie, stay linear or pass 2**1024 (some apart by a factor of two only)
    t = 1300
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n, R = int(rng.integers(2, 30)), int(rng.integers(1, 9))
        config = small(n_devices=n, n_rbs=R, r_c=r_c, mode=mode, seed=seed,
                       v_a=float(rng.uniform(0.2, 1.0)))
        devices = make_devices(n, 0.6, 0.75, 0.75, 10.0, 10.0, rng)
        messages = PendingMessages(n)
        for d in devices:
            if rng.random() < 0.7:
                gen = int(rng.choice([1, 2, 3, 200, 1290, rng.integers(1, t)]))
                _pend(messages, d, gen, rng.random())
        stack = _DistributedStack(config, devices, messages)
        stack.last_action[:] = rng.integers(0, R + 1, n)
        stack.last_failed[:] = rng.random(n) < 0.4
        draws = SlotDraws(seed, n)
        expected = _reference_actions(stack, t, draws)
        stack.allocate(t, np.flatnonzero(messages.rbs_left), draws)
        assert stack.actions.tolist() == expected, seed


def test_centralized_outcome_conservation_single_rb():
    result = run(small(n_devices=20, n_rbs=5, v_a=0.8, slots=150,
                       mode=Mode.CENTRALIZED_LEARNING, preambles=16, seed=3))
    s = result.summary
    transmissions = sum(r.n_transmitting for r in result.records)
    assert transmissions == s.deliveries + s.outage_failures
    assert s.rach_failures == sum(r.rach_failures for r in result.records)
    assert all(r.rach_failures + r.n_transmitting <= r.n_active
               for r in result.records)


def test_trace_payloads():
    learn = run(small(mode=Mode.CENTRALIZED_LEARNING, trace=True, slots=60))
    assert set(learn.trace) == {"learner_counts", "latent_types"}
    assert len(learn.trace["latent_types"]) == 10
    sca = run(small(trace=True, slots=60))
    assert len(sca.trace["unused_rbs"]) == 60
    assert set(sca.trace["final"]) == {"actions", "future_aoi", "active"}


# --- sweeps ----------------------------------------------------------------------

def test_replicate_seed_identity_and_spread():
    assert replicate_seed(42, 0) == 42
    assert replicate_seed(42, 1) != 42
    assert replicate_seed(42, 1) != replicate_seed(42, 2)
    assert replicate_seed(42, 1) == replicate_seed(42, 1)


def test_single_point_sweep_equals_plain_run():
    cfg = small()
    points = list(sweep_iter(cfg, "v_a", [cfg.v_a], replicates=1))
    assert len(points) == 1
    value, rep, result = points[0]
    assert (value, rep) == (cfg.v_a, 0)
    assert result.summary == run(cfg).summary
    assert result.config.seed == cfg.seed


def test_sweep_matches_seeds_across_values():
    points = list(sweep_iter(small(slots=30), "v_a", [0.2, 0.6], replicates=2))
    assert [value for value, _, _ in points] == [0.2, 0.2, 0.6, 0.6]
    seeds = [result.config.seed for _, _, result in points]
    assert seeds[0] == seeds[2]
    assert seeds[1] == seeds[3]
    assert seeds[0] != seeds[1]


def test_sweep_over_seed_derives_replicates_from_each_value():
    base = small(slots=20)
    points = list(sweep_iter(base, "seed", [3, 4], replicates=2))
    assert [result.config.seed for _, _, result in points] == [
        3, replicate_seed(3, 1), 4, replicate_seed(4, 1)]
    alone = run(dataclasses.replace(base, seed=replicate_seed(4, 1)))
    assert points[3][2].summary == alone.summary


def test_sweep_batches_replicates_without_changing_results(monkeypatch):
    # 5 replicates in lanes of 2: batches of 2, 2 and 1 per value
    monkeypatch.setattr(engine, "SWEEP_LANES", 2)
    base = small(slots=30)
    points = list(sweep_iter(base, "v_a", [0.3, 0.9], replicates=5))
    assert [(value, rep) for value, rep, _ in points] == [
        (value, rep) for value in (0.3, 0.9) for rep in range(5)]
    for value, rep, result in points:
        alone = run(dataclasses.replace(base, v_a=value,
                                        seed=replicate_seed(base.seed, rep)))
        assert result.config == alone.config
        assert (result.records, result.summary) == (alone.records, alone.summary)


def test_sweep_lanes_cap_neighbor_matrices_at_partial_range():
    full = ScenarioConfig(mode=Mode.DISTRIBUTED_SCA, r_c=15.0)    # 10 x 10 cell
    assert sweep_lanes(full) == engine.SWEEP_LANES
    partial = dataclasses.replace(full, r_c=10.0)
    assert sweep_lanes(partial) == engine.SWEEP_LANES
    assert sweep_lanes(dataclasses.replace(partial, n_devices=512)) == 4
    assert sweep_lanes(dataclasses.replace(partial, n_devices=1000)) == 1
    # these modes never build a neighbor matrix
    for mode in (Mode.DISTRIBUTED_PREDETERMINED, Mode.CENTRALIZED_LEARNING):
        assert sweep_lanes(dataclasses.replace(partial, n_devices=1000,
                                               mode=mode)) == engine.SWEEP_LANES


def test_sweep_rejects_unknown_parameter_and_bad_replicates():
    with pytest.raises(ConfigError):
        list(sweep_iter(small(), "does_not_exist", [1]))
    with pytest.raises(ConfigError):
        list(sweep_iter(small(), "v_a", [0.1], replicates=0))


def test_sweep_leaves_base_config_untouched():
    cfg = small(slots=20)
    list(sweep_iter(cfg, "n_rbs", [4, 6], replicates=1))
    assert cfg == small(slots=20)
    assert dataclasses.asdict(cfg)["n_rbs"] == 10
