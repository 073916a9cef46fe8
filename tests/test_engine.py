import dataclasses

import numpy as np
import pytest

from aoisim import engine
from aoisim.aging import AgingKind
from aoisim.centralized import KIND_UNKNOWN
from aoisim.devices import activate, make_devices
from aoisim.distributed import kappa, kth_largest
from aoisim.engine import (ConfigError, Mode, ScenarioConfig, SlotDraws,
                           _clipped_float, _DistributedStack, _transmitters,
                           replicate_seed, run, sweep_iter)
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
    active_ids = [d.id for d in devices if d.active]
    stack = _DistributedStack(config, devices)
    stack.allocate(t, active_ids, SlotDraws(config.seed, config.n_devices))
    expected = set()
    for i in active_ids:
        known = [_clipped_float(stack.f_value[j]) for j in active_ids
                 if stack.neighbors[i, j]]
        k = kappa(len(known), len(active_ids), config.n_rbs, config.n_devices,
                  config.v_a, config.zeta)
        if _clipped_float(stack.f_value[i]) >= kth_largest(known, k):
            expected.add(i)
    got = _transmitters(stack, active_ids)
    assert got == expected
    assert 0 < len(got) < len(active_ids)


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
