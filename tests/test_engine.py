import dataclasses
import math

import numpy as np
import pytest

from aoisim import engine
from aoisim.aging import AgingKind
from aoisim.centralized import KIND_UNKNOWN
from aoisim.devices import activate, future_aoi, make_devices
from aoisim.distributed import kappa, kth_largest
from aoisim.engine import (ConfigError, Mode, ScenarioConfig, SlotDraws,
                           _DistributedStack, _transmitters, replicate_seed, run,
                           sweep_iter)
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


def _check_stack_arrays(stack):
    """The centralized stack's arrays agree with the Device objects."""
    devices = stack.devices
    pending = [d for d in devices if d.active]
    active = np.array([d.active for d in devices])
    assert stack.rbs_left.tolist() == [d.n_remaining for d in devices]
    assert stack.true_type.tolist() == [d.dtype.type_id.value for d in devices]
    assert stack.gen_slot[active].tolist() == [d.gen_slot for d in pending]
    assert stack.exponential[active].tolist() == [
        d.aging is AgingKind.EXPONENTIAL for d in pending]
    # what the scheduler learned about a message goes with its delivery
    assert (stack.known_kind[~active] == KIND_UNKNOWN).all()
    assert (stack.last_slot[~active] == -1).all()


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("central")))
def test_centralized_arrays_match_the_devices_every_slot(name, monkeypatch):
    stack_cls = engine._CentralizedStack
    allocate, feedback = stack_cls.allocate, stack_cls.feedback
    slots = []

    def checked_allocate(self, t, active_ids, draws):
        _check_stack_arrays(self)            # after the activation sweep
        assert active_ids.tolist() == [d.id for d in self.devices if d.active]
        slots.append(t)
        return allocate(self, t, active_ids, draws)

    def checked_feedback(self, claimants, outcomes):
        feedback(self, claimants, outcomes)
        _check_stack_arrays(self)            # after the slot's outcomes

    monkeypatch.setattr(stack_cls, "allocate", checked_allocate)
    monkeypatch.setattr(stack_cls, "feedback", checked_feedback)
    config = case_config(name)
    run(config)
    assert slots == list(range(1, config.slots + 1))


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


def _stack_at(config, devices, t):
    """A distributed stack that has just allocated slot t for these devices."""
    stack = _DistributedStack(config, devices)
    stack.allocate(t, stack.active_ids(), SlotDraws(config.seed, config.n_devices))
    return stack


def test_partial_range_thresholds_match_the_per_device_rule():
    # reference: each active device ranks the in-range active ages itself;
    # the ages mix ties, linear values and exponential ones past float range
    config = small(n_devices=40, n_rbs=6, r_c=3.0, v_a=0.5)
    rng = np.random.default_rng(11)
    devices = make_devices(40, 0.6, 0.75, 0.75, 10.0, 10.0, rng)
    t = 1200
    for d in devices[::3] + devices[1::3]:
        gen = 1 if rng.random() < 0.2 else int(rng.integers(1150, 1200))
        activate(d, gen, rng.random())
    stack = _stack_at(config, devices, t)
    active_ids = stack.ids.tolist()
    f_value = {i: future_aoi(devices[i], t, config.beta) for i in active_ids}
    expected = set()
    for i in active_ids:
        known = [_saturated(f_value[j]) for j in active_ids if stack.neighbors[i, j]]
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
    t = 1200
    exponential = 0.9999                    # above every type's linear share
    for d, gen in zip(devices, (1, 2, 3, 3, 60, 100)):
        activate(d, gen, exponential)
    activate(devices[6], 1, 0.0)            # linear: age 1200
    stack = _stack_at(config, devices, t)
    assert stack.neighbors is None
    assert np.isinf(stack._float_ages()[0][:6]).all()
    exact = [future_aoi(d, t, config.beta) for d in devices]
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
    activate(devices[2], 10, 0.0)
    stack = _DistributedStack(config, devices)
    assert (stack.neighbors is None) == (r_c == 15.0)
    stack.last_action[[1, 3]] = [4, 2]
    stack.allocate(11, stack.active_ids(), SlotDraws(config.seed, config.n_devices))
    assert stack.actions.tolist() == [0, 0, 4, 0]


def _reference_actions(stack, t, draws):
    """One slot of the distributed game, one device at a time on exact ages."""
    config, devices, nb = stack.config, stack.devices, stack.neighbors
    N, R = config.n_devices, config.n_rbs
    active_ids = [d.id for d in devices if d.active]
    f = {i: future_aoi(devices[i], t, config.beta) for i in active_ids}
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
        if last_action[i] >= 1 and not last_failed[i] and not devices[i].active:
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
        for d in devices:
            if rng.random() < 0.7:
                gen = int(rng.choice([1, 2, 3, 200, 1290, rng.integers(1, t)]))
                activate(d, gen, rng.random())
        stack = _DistributedStack(config, devices)
        stack.last_action[:] = rng.integers(0, R + 1, n)
        stack.last_failed[:] = rng.random(n) < 0.4
        draws = SlotDraws(seed, n)
        expected = _reference_actions(stack, t, draws)
        stack.allocate(t, stack.active_ids(), draws)
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
