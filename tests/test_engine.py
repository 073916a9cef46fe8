import copy
import dataclasses
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings, strategies as st

from aoisim import centralized, engine
from aoisim.aging import AgingKind, aoi_value, is_power_of_two
from aoisim.centralized import KIND_UNKNOWN, KINDS, NO_TYPE
from aoisim.cli import main
from aoisim.devices import PendingMessages, activate, make_devices
from aoisim.distributed import kappa, kth_largest
from aoisim.engine import (_PH_ACTIVATE, _PH_DECIDE, _PH_DELEGATE, _PH_FRESH,
                           _PH_KIND, _PH_OUTAGE, _PH_SIZE, ConfigError, Mode,
                           ScenarioConfig, SlotDraws, SlotRecord, _DistributedStack,
                           _Lanes, _N_TALLIES, _safe_mean, _slot_records, _summary,
                           _reaching, loop_batches, replicate_seed, run,
                           run_many, sweep_iter, sweep_lanes)
from test_devices import deliver_at
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
               dict(n_rbs_max=2, n_rbs_min=3),
               # an infinite cell puts devices at inf, where none hears itself
               dict(width=math.inf), dict(length=math.inf),
               dict(width=math.nan)):
        with pytest.raises(ConfigError):
            small(**kw).validate()
    # an infinite sensing range is full range
    small(r_c=math.inf).validate()


@pytest.mark.parametrize("mode", list(Mode))
def test_beta_runs_up_to_its_bound(mode):
    # float ages saturate from beta ~ 1,100 on; the bound keeps the exact
    # trace ages small and ldexp and int64 conversions in range, and one
    # past it is rejected
    config = small(n_devices=8, n_rbs=2, slots=40, v_a=0.5, mode=mode, r_c=3.0,
                   beta=engine.MAX_BETA)
    result = run(config)
    assert result.summary.deliveries and math.isfinite(result.summary.mean_delivery_aoi)
    with pytest.raises(ConfigError, match="beta"):
        dataclasses.replace(config, beta=engine.MAX_BETA + 1).validate()


def test_validate_rejects_a_cell_whose_squared_diagonal_overflows():
    # at 1e300 every squared distance, and r_c**2, overflows to inf, and
    # inf <= inf would put every pair in range
    with pytest.raises(ConfigError, match="squared diagonal"):
        small(width=1e300, length=1e300, r_c=1e200).validate()
    config = small(width=1e150, length=1e150, r_c=5e149, n_devices=12)
    config.validate()
    xy, _, _ = make_devices(config.n_devices, 0.6, 0.75, 0.75, config.width,
                            config.length, np.random.default_rng(3))
    near = engine._neighbor_matrix(xy, config.r_c)
    reference = [[math.hypot(a[0] - b[0], a[1] - b[1]) <= config.r_c for b in xy]
                 for a in xy]
    assert near.tolist() == reference
    assert 0 < near.sum() < near.size    # partial range: some pairs out of it


def test_validate_rejects_an_inverted_heterogeneous_snr_range():
    # numpy's uniform draw of the devices' SNRs raises on low > high, so
    # every mode once crashed on such a config; equal bounds run
    inverted = small(heterogeneous_power=True, hetero_snr_low_db=22.0,
                     hetero_snr_high_db=17.0)
    with pytest.raises(ConfigError, match="hetero_snr_low_db cannot exceed"):
        inverted.validate()
    # the bounds are not read without heterogeneous power
    dataclasses.replace(inverted, heterogeneous_power=False).validate()
    for mode in Mode:
        result = run(small(mode=mode, heterogeneous_power=True, hetero_snr_low_db=19.0,
                           hetero_snr_high_db=19.0, slots=10))
        assert len(result.records) == 10


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
    d, ids = SlotDraws([3], 5, slots=20), np.arange(5)
    assert (d.vec(10, 1, ids) == d.vec(10, 1, ids)).all()
    assert (d.vec(10, 1, ids) != d.vec(10, 2, ids)).any()
    assert (d.vec(10, 1, ids) != d.vec(11, 1, ids)).any()
    assert d.vec(10, 1, np.array([4, 0, 4])).tolist() == \
        d.vec(10, 1, ids)[[4, 0, 4]].tolist()


def _stream(seed, slot, phase, n):
    return np.random.default_rng(np.random.SeedSequence([seed, slot, phase])).random(n)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
def test_bulk_seed_words_equal_the_seed_sequence(seed):
    # blocks of 10 slots here: slots 9/10 and 19/20 straddle a boundary, and
    # slot 3 after 21 refills an earlier block; 2**32 - 1 and 2**32 differ
    # in word count, so they never share a block. The seed runs alone and
    # as lane 1 of 17, beside seeds of one, two and three words; the 14 or
    # more one-word seeds fill in several lane groups.
    n, seeds = 7, [0, seed, 2**32, 2**64 + 5, *range(3, 16)]
    assert len(seeds) > 4 * engine._FILL_LANES
    alone, lanes = SlotDraws([seed], n, slots=9), SlotDraws(seeds, n, slots=9)
    rng = np.random.default_rng(seed % 97)
    for slot in (0, 1, 9, 10, 11, 19, 20, 21, 3, 2**32 - 1, 2**32):
        for phase in range(8):
            assert (alone.vec(slot, phase, np.arange(n))
                    == _stream(seed, slot, phase, n)).all(), (slot, phase)
            # unsorted ids, repeats included, spanning the lanes
            ids = rng.integers(0, len(seeds) * n, 24)
            expected = [_stream(seeds[i // n], slot, phase, n)[i % n]
                        for i in ids.tolist()]
            assert lanes.vec(slot, phase, ids).tolist() == expected, (slot, phase)


def test_seed_words_come_in_bounded_blocks():
    assert SlotDraws([5], 3, slots=1)._block == 2
    assert SlotDraws([5], 3, slots=10_000)._block == 256
    draws = SlotDraws([5, 2**40], 3, slots=10_000)
    draws.vec(700, 0, np.arange(6))
    assert draws._states.shape == (256 * 8, 2, 4)


def test_a_block_fill_keeps_its_temporaries_to_a_lane_group():
    # lanes fill a few at a time, so at 30 lanes a fill holds the 1.875 MiB
    # block of seed words and one group's temporaries, not every lane's
    draws = SlotDraws(range(30), 200, slots=1000)
    tracemalloc.start()
    try:
        draws.vec(0, 0, np.arange(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws._states.nbytes == 256 * 8 * 30 * 4 * 8
    assert peak <= 2.5 * 2**20


def test_neighbor_matrix_holds_no_n_by_n_float_array():
    # at N = 2,000 one float64 N x N temporary alone is 30.5 MiB; row blocks
    # keep the peak to the 3.8 MiB bool output and a few 1 MiB blocks
    n, r_c = 2000, 5.0
    xy = np.random.default_rng(4).uniform(0.0, 10.0, size=(n, 2))
    tracemalloc.start()
    try:
        near = engine._neighbor_matrix(xy, r_c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * n + 4 * 2**20
    # each entry is the plain formula's, rows at block edges included
    x, y = xy.T
    step = engine._NEIGHBOR_BLOCK // n
    for row in (0, step - 1, step, 2 * step + 7, n - 1):
        assert near[row].tolist() == ((x[row] - x) ** 2 + (y[row] - y) ** 2
                                      <= r_c * r_c).tolist()
    assert 0 < near.sum() < near.size


class _DeviceReplay:
    """A run's pending messages stepped one device at a time.

    Activation follows the per-device rule on the run's own draws; delivery
    credits the RBs the engine reports as received and records the age of
    each completed message through aoi_value.
    """

    def __init__(self, config):
        self.config = config
        _, self.types, self.p_linear = make_devices(
            config.n_devices, config.type1_fraction, config.m1, config.m2,
            config.width, config.length, np.random.default_rng(config.seed))
        self.draws = SlotDraws([config.seed], config.n_devices, config.slots)
        n = config.n_devices
        self.kind = [None] * n          # None: idle
        self.gen = [0] * n
        self.left = [0] * n

    def activate(self, t):
        config = self.config
        u_act, u_kind, u_size = (self.draws.vec(t, phase, np.arange(config.n_devices))
                                 for phase in (_PH_ACTIVATE, _PH_KIND, _PH_SIZE))
        span = config.n_rbs_max - config.n_rbs_min + 1
        for i, p_linear in enumerate(self.p_linear.tolist()):
            if self.kind[i] is None and u_act[i] < config.v_a:
                self.kind[i] = (AgingKind.LINEAR if u_kind[i] < p_linear
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
    slots, expected_totals = [], []

    def checked_allocate(self, t, active_ids, n_active, draws):
        replay.activate(t - 1)               # the sweep at the end of slot t - 1
        replay.check(self.messages)
        assert active_ids.tolist() == replay.active_ids()
        assert n_active == [len(active_ids)]
        assert self.true_type.tolist() == replay.types.tolist()
        slots.append(t)
        return allocate(self, t, active_ids, n_active, draws)

    def checked_deliver(messages, ids, n_rbs):
        expected, total = replay.deliver(ids.tolist(), n_rbs.tolist(), slots[-1])
        delivered = deliver(messages, ids, n_rbs)
        assert delivered.tolist() == expected
        expected_totals.append(total)
        replay.check(messages)
        return delivered

    def checked_feedback(self, ids, outcomes, delivered):
        feedback(self, ids, outcomes, delivered)
        # what the scheduler learned about a message goes with its delivery
        idle = self.messages.rbs_left == 0
        assert (self.known_kind[idle] == KIND_UNKNOWN).all()
        assert (self.last_slot[idle] == -1).all()

    monkeypatch.setattr(stack_cls, "allocate", checked_allocate)
    monkeypatch.setattr(stack_cls, "feedback", checked_feedback)
    monkeypatch.setattr(engine, "deliver_success", checked_deliver)
    result = run(config)
    assert slots == list(range(1, config.slots + 1))
    # every slot's exact age total is the replay's
    _, totals, _ = result._tallies
    assert totals == expected_totals
    assert all(type(total) is int for total in totals)


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
    delivered, total = deliver_at(m, ids, np.ones(6, dtype=np.int64), t)
    assert delivered.tolist() == ids.tolist()
    assert total == expected and type(total) is int
    assert total > 2**1496
    tallies = _lane_tallies([len(delivered)])
    (record,) = _slot_records(tallies, [total], 2)
    assert record.avg_inst_aoi_slot == record.avg_inst_aoi_cum == math.inf
    assert _summary(tallies, [total], 2, 0).mean_delivery_aoi == math.inf
    # the summary keeps the exact total: past float range a mean within it
    # reads the exact quotient, a slot's and the run's alike
    huge = [2**1030, 2**1029]
    tallies = _lane_tallies([2**7, 2**7])
    summary = _summary(tallies, huge, 2, 1)
    assert summary.mean_delivery_aoi == 1.5 * 2**1022
    assert summary.mean_delivery_aoi_postwarmup == 2**1022
    assert [r.avg_inst_aoi_cum for r in _slot_records(tallies, huge, 2)] == \
        [2.0**1023, 1.5 * 2**1022]
    # below float range the mean is the exact total over the count
    m = PendingMessages(3)
    for i, (gen, exponential) in enumerate([(10, False), (8, True), (2, True)]):
        activate(m, [i], gen, kind_u=float(exponential), p_linear=0.5)
    _, total = deliver_at(m, np.arange(3), np.ones(3, dtype=np.int64), 70)
    assert total == 60 + 2**61 + 2**67
    (record,) = _slot_records(_lane_tallies([3]), [total], 2)
    assert record.avg_inst_aoi_slot == total / 3


def _lane_tallies(deliveries: list[int]) -> np.ndarray:
    """The (slots, _N_TALLIES) tallies of a lane whose slots delivered these counts."""
    tallies = np.zeros((len(deliveries), _N_TALLIES), dtype=np.int64)
    tallies[:, engine._DELIVERED] = deliveries
    return tallies


class _ReferenceAccumulator:
    """The run metrics added up one slot at a time, as a slot loop would."""

    def __init__(self, warmup_slots: int):
        self.warmup_slots = warmup_slots
        self.total = self.deliveries = self.post_total = self.post_deliveries = 0
        self.rate = self.post_rate = 0.0
        self.slots = self.post_slots = self.rach = self.dup = self.outage = 0
        self.records = []

    def slot(self, t, row, age_total, R):
        n_active, n_success, dup, outage, rach, n_delivered, n_single, _ = row
        self.total += age_total
        self.deliveries += n_delivered
        self.rate += n_single / R
        self.slots += 1
        self.rach, self.dup, self.outage = (self.rach + rach, self.dup + dup,
                                            self.outage + outage)
        if t > self.warmup_slots:
            self.post_total += age_total
            self.post_deliveries += n_delivered
            self.post_rate += n_single / R
            self.post_slots += 1
        self.records.append(SlotRecord(
            slot=t, avg_inst_aoi_slot=_safe_mean(age_total, n_delivered),
            avg_inst_aoi_cum=_safe_mean(self.total, self.deliveries),
            service_rate=n_single / R, n_active=n_active,
            n_transmitting=n_success + dup + outage, rach_failures=rach,
            duplicate_failures=dup, outage_failures=outage))

    def summary(self) -> engine.RunSummary:
        return engine.RunSummary(
            slots=self.slots, warmup_slots=self.warmup_slots,
            deliveries=self.deliveries, deliveries_postwarmup=self.post_deliveries,
            mean_delivery_aoi=_safe_mean(self.total, self.deliveries),
            mean_delivery_aoi_postwarmup=_safe_mean(self.post_total,
                                                    self.post_deliveries),
            mean_service_rate=self.rate / max(1, self.slots),
            mean_service_rate_postwarmup=self.post_rate / max(1, self.post_slots),
            rach_failures=self.rach, duplicate_failures=self.dup,
            outage_failures=self.outage)


@st.composite
def _run_tallies(draw):
    """Random tallies and age totals of a run: (tallies, totals, warmup, R)."""
    slots, R = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    lanes = draw(st.integers(1, 4))
    counts = st.integers(0, 5) | st.integers(0, 2**40)

    def row():
        # the counts, then the RBs with one claimant and with more
        single = draw(st.integers(0, R))
        return ([draw(counts) for _ in range(engine._SINGLE)]
                + [single, draw(st.integers(0, R - single))])

    tallies = np.array([[row() for _ in range(lanes)] for _ in range(slots)],
                       dtype=np.int64)
    # a slot with no delivery has a total of 0; others reach past 2**1024
    totals = [draw(st.integers(1, 2**40) | st.integers(2**1000, 2**1100))
              if delivered else 0
              for delivered in tallies[:, :, engine._DELIVERED].ravel().tolist()]
    warmup = draw(st.sampled_from([0, slots]) | st.integers(0, slots))
    return tallies, totals, warmup, R


@settings(max_examples=100, deadline=None)
@given(_run_tallies())
def test_summaries_and_records_equal_a_slot_by_slot_reference(case):
    tallies, totals, warmup, R = case
    slots, lanes = tallies.shape[:2]
    for lane in range(lanes):
        reference = _ReferenceAccumulator(warmup)
        for t in range(1, slots + 1):
            reference.slot(t, tallies[t - 1, lane].tolist(),
                           totals[(t - 1) * lanes + lane], R)
        # a lane's slice of the slot-major tallies, as run_many hands it on
        own = (tallies[:, lane], totals[lane::lanes], R)
        # repr tells an int from an equal float, as the golden digests do
        assert repr(_summary(*own, warmup)) == repr(reference.summary())
        assert repr(_slot_records(*own)) == repr(reference.records)


def test_service_rates_add_up_in_slot_order():
    # ten slots of one singly claimed RB of ten: a running total from 0.0
    # reads 0.9999999999999999, where pairwise or compensated sums read 1.0
    tallies = np.zeros((10, _N_TALLIES), dtype=np.int64)
    tallies[:, engine._SINGLE] = 1
    summary = _summary(tallies, [0] * 10, 10, 0)
    assert summary.mean_service_rate == 0.09999999999999999
    assert summary.mean_service_rate_postwarmup == 0.09999999999999999


def test_summary_readers_build_no_records(monkeypatch, tmp_path):
    built = []

    class CountedRecord(SlotRecord):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine, "SlotRecord", CountedRecord)
    base = small(slots=30)
    summaries = [result.summary for _, _, result in
                 sweep_iter(base, "seed", [1, 2, 3, 4])]
    assert len(summaries) == 4 and not built
    assert main(["sweep", "--parameter", "v_a", "--values", "0.2,0.4",
                 "--replicates", "2", "--slots", "20", "--quiet",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert not built
    # a run's records are built when first read, once
    config = small(slots=30, seed=2)
    result = run(config)
    records = result.records
    assert len(built) == config.slots
    assert result.records is records and len(built) == config.slots
    mixed = run_many([small(slots=30, seed=5, mode=Mode.DISTRIBUTED_RANDOM), config,
                      small(slots=30, seed=2, mode=Mode.DISTRIBUTED_PREDETERMINED)])
    assert mixed[1].records == records


@pytest.mark.parametrize("make_copy", [copy.copy,
                                       lambda r: dataclasses.replace(r, trace={})])
def test_a_copied_result_and_its_original_both_read_every_record(make_copy):
    # a copy made before or after the first read builds the same records as
    # the original, whichever of the two reads first
    results = run_many([small(slots=20, seed=s) for s in (1, 2)])
    for result in results:
        copied = make_copy(result)
        assert len(copied.records) == 20
        assert result.records == copied.records
        assert make_copy(result).records == copied.records


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


def _probabilities(*extremes):
    """Floats in [0, 1], often one of extremes."""
    return st.sampled_from(extremes) | st.floats(0.0, 1.0)


# every config field, each often at an extreme; a few draws fall out of
# range (m1 = 0.5, an inverted SNR range), and the configs validate()
# refuses are rejected
_SNR_DB = st.sampled_from([-3000.0, -30.0, 17.0, 21.8, 3000.0]) | st.floats(-50.0, 60.0)
_LENGTH = st.sampled_from([1e-300, 1.0, 10.0, 1e150]) | st.floats(0.1, 100.0)
_M = (st.sampled_from([0.5, math.nextafter(0.5, 1.0), 0.75, math.nextafter(1.0, 0.0)])
      | st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))
_FIELDS = {
    "mode": st.sampled_from(list(Mode)),
    "n_devices": st.integers(1, 30),
    "n_rbs": st.integers(1, 12),
    "slots": st.integers(1, 40),
    "seed": st.integers(0, 2**40) | st.sampled_from([2**32 - 1, 2**32, 2**70]),
    "v_a": _probabilities(0.0, 0.05, 0.5, 1.0),
    "m1": _M,
    "m2": _M,
    "type1_fraction": _probabilities(0.0, 1.0),
    "mean_snr_db": _SNR_DB,
    "heterogeneous_power": st.booleans(),
    "hetero_snr_low_db": _SNR_DB,
    "hetero_snr_high_db": _SNR_DB,
    "epsilon": st.sampled_from([0.0, 1.0, 30.0, 1e300]),
    "beta": st.integers(1, 3) | st.just(engine.MAX_BETA),
    "preambles": st.integers(1, 64),
    "rach_exact": st.booleans(),
    # (n_rbs_min, RBs above it): n_rbs_min and n_rbs_max of a centralized mode
    "demand": st.tuples(st.integers(1, 4), st.integers(0, 3)),
    "zeta": st.sampled_from([1e-300, 0.5, 1.2, 1e300]) | st.floats(0.01, 10.0),
    "r_c": st.sampled_from([0.0, 2.0, 5.0, 15.0, math.inf]),
    "width": _LENGTH,
    "length": _LENGTH,
    "warmup_fraction": _probabilities(0.0, 0.5, math.nextafter(1.0, 0.0)),
}
_CONFIGS = st.fixed_dictionaries(_FIELDS)


def test_the_config_strategy_draws_every_field():
    drawn = set(_FIELDS) - {"demand"} | {"n_rbs_min", "n_rbs_max"}
    assert drawn == {f.name for f in dataclasses.fields(ScenarioConfig)}


def _valid_config(draw) -> ScenarioConfig:
    """A ScenarioConfig from a _CONFIGS draw, demand windows for centralized
    modes; a draw that validate() refuses is rejected."""
    draw = dict(draw)
    n_min, extra = draw.pop("demand")
    if draw["mode"].centralized:
        n_min = min(n_min, draw["n_rbs"])
        draw.update(n_rbs_min=n_min, n_rbs_max=min(n_min + extra, draw["n_rbs"]))
    config = ScenarioConfig(**draw)
    try:
        config.validate()
    except ConfigError:
        reject()
    return config


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_CONFIGS)
def test_every_valid_config_runs(draw):
    config = _valid_config(draw)
    config.validate()
    result = run(config)
    assert len(result.records) == config.slots
    assert 0.0 <= result.summary.mean_service_rate <= 1.0
    if not config.mode.centralized:
        assert len(result.trace["unused_rbs"]) == config.slots
    for t, record in enumerate(result.records):
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
        else:
            # an RB is unused, singly claimed or crowded, and every crowded
            # RB fails its two or more claimants
            unused = result.trace["unused_rbs"][t]
            singles = round(record.service_rate * config.n_rbs)
            assert unused >= 0 and unused + singles <= config.n_rbs
            assert 2 * (config.n_rbs - unused - singles) <= record.duplicate_failures


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


def _positions(config):
    """The positions run_many draws for config's devices."""
    return make_devices(config.n_devices, config.type1_fraction, config.m1, config.m2,
                        config.width, config.length, np.random.default_rng(config.seed))[0]


def _stack_of(configs):
    """The distributed stack run_many sets up for a batch of configs."""
    positions = np.concatenate([_positions(c) for c in configs])
    return _DistributedStack(configs[0], _lanes_of(configs), positions,
                             PendingMessages(len(positions)), [c.mode for c in configs])


def _lanes_of(configs):
    """The lane layout run_many sets up for a batch of configs."""
    return _Lanes(len(configs), configs[0].n_devices, configs[0].n_rbs)


@st.composite
def _lane_case(draw):
    """A layout's N and R, a lane count and lane, sorted ids of one lane with
    a value in 0..width - 1 each, and a hit flag per lane."""
    N, R = draw(st.integers(1, 30)), draw(st.integers(1, 12))
    count = draw(st.integers(2, 4))
    ids = np.array(sorted(draw(st.sets(st.integers(0, N - 1)))), dtype=np.int64)
    width = draw(st.integers(1, 5))
    values = np.array(draw(st.lists(st.integers(0, width - 1), min_size=len(ids),
                                    max_size=len(ids))), dtype=np.int64)
    hits = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return N, R, count, draw(st.integers(0, count - 1)), ids, width, values, hits


@settings(max_examples=200, deadline=None)
@given(_lane_case())
def test_one_lane_fast_paths_equal_the_general_form(case):
    # each method of a one-lane layout answers for its ids what the general
    # multi-lane form answers for the same ids moved into lane l
    N, R, count, lane, ids, width, values, hits = case
    one, many = _Lanes(1, N, R), _Lanes(count, N, R)
    moved = ids + lane * N
    assert one.of(ids) is None and (many.of(moved) == lane).all()
    counts = [0] * count
    counts[lane] = len(ids)
    assert one.counts(ids) == [len(ids)]
    assert many.counts(moved) == many.counts(moved, many.of(moved)) == counts
    assert many.bounds(moved)[lane:lane + 2] == one.bounds(ids) == [0, len(ids)]
    assert (np.arange(count * N)[many.devices(lane)] - lane * N
            == np.arange(N)[one.devices(0)]).all()

    def chosen(mask, ids):
        rows = engine._rows(mask, ids)
        return [] if rows is None else ids[rows].tolist()

    assert [i - lane * N for i in chosen(many.mask(hits), moved)] == \
        chosen(one.mask([hits[lane]]), ids)
    histogram = np.zeros((count, width), dtype=np.int64)
    histogram[lane] = np.bincount(values, minlength=width)
    assert (one.histogram(values, width, N, ids) == histogram[lane]).all()
    assert (many.histogram(values, width, N, moved) == histogram).all()
    # values laid out lane by lane, keyed by channel RB (shorter than every
    # lane's RBs) and by device; a layout keeps the keys of such a histogram
    by_rb = values[:R]
    placed = np.concatenate([np.zeros(lane * R, dtype=np.int64), by_rb])
    assert (many.histogram(placed, width, R)[lane]
            == one.histogram(by_rb, width, R)[0]).all()
    by_device = np.zeros(N, dtype=np.int64)
    by_device[ids] = values
    every = np.zeros(count * N, dtype=np.int64)
    every[moved] = values
    for _ in range(2):
        got = many.histogram(every, width, N)
        assert (got[lane] == one.histogram(by_device, width, N)[0]).all()
        assert (np.delete(got, lane, axis=0)[:, 0] == N).all()
    rbs = values % R
    assert (many.on_channel(moved, rbs) == one.on_channel(ids, rbs) + lane * R).all()
    # exact age sums, exponential ones past 2**1024: lane l's, and 0 elsewhere
    ages, exponential = values * 700 + 1, values % 2 == 1
    sums = [0] * count
    sums[lane] = sum(2 ** (k - 1) if e else k
                     for k, e in zip(ages.tolist(), exponential.tolist()))
    assert one.age_sums(ids, ages, exponential) == [sums[lane]]
    assert many.age_sums(moved, ages, exponential) == sums
    assert all(type(total) is int for total in many.age_sums(moved, ages, exponential))


@pytest.mark.parametrize("mode", [Mode.DISTRIBUTED_SCA, Mode.DISTRIBUTED_RANDOM])
def test_run_many_mixes_full_and_partial_range_lanes(mode):
    # at r_c = 6 on a 10 x 10 cell, three devices sometimes all hear each
    # other and sometimes not; a lane that hears its whole cell lists the
    # batch, and only such a lane ranks saturated ages exactly
    base = small(n_devices=3, n_rbs=2, r_c=6.0, v_a=0.6, slots=60, mode=mode)
    configs = [dataclasses.replace(base, seed=s) for s in range(8)]
    blocks = [engine._neighbor_matrix(_positions(c), c.r_c) for c in configs]
    assert any(b is None for b in blocks) and any(b is not None for b in blocks)
    assert not _stack_of(configs).dense
    _assert_lanes_equal_runs(configs)


@pytest.mark.parametrize("mode", [Mode.DISTRIBUTED_SCA, Mode.DISTRIBUTED_RANDOM])
def test_run_many_mixes_full_and_partial_range_lanes_past_float_range(mode):
    # one RB at v_a = 1 keeps messages in flight past 2**1024 for 1,500
    # slots; the listed lanes mix a span within r_c (saturated ages rank
    # exactly), every pair in range though the span is not (they tie as
    # inf) and pairs out of range
    base = small(n_devices=3, n_rbs=1, r_c=6.0, v_a=1.0, slots=1500, mode=mode)
    configs = [dataclasses.replace(base, seed=s) for s in range(8)]
    blocks = [engine._neighbor_matrix(_positions(c), c.r_c) for c in configs]
    assert {"exact" if b is None else "pairs" if b.all() else "dense"
            for b in blocks} == {"exact", "pairs", "dense"}
    assert not _stack_of(configs).dense
    _assert_lanes_equal_runs(configs)


def _stack_modes(mode: Mode) -> list[Mode]:
    return [m for m in Mode if m.centralized == mode.centralized]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_CONFIGS, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**40)),
                          min_size=1, max_size=5))
def test_run_many_mixes_modes_within_a_stack(draw, lanes):
    # lanes of every mode of one stack in one loop: partial range, multi-RB
    # demand, exact RACH draws and traces
    config = _valid_config(draw)
    modes = _stack_modes(config.mode)
    _assert_lanes_equal_runs([config] + [
        dataclasses.replace(config, mode=modes[m], seed=seed) for m, seed in lanes])


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_many_mixes_modes_on_every_golden_case(name):
    # the golden config shares its loop with the other modes of its stack
    base = case_config(name)
    others = [m for m in _stack_modes(base.mode) if m is not base.mode]
    _assert_lanes_equal_runs([dataclasses.replace(base, mode=others[0], seed=4), base,
                              dataclasses.replace(base, mode=others[1])])


# --- partial range as a list of unheard pairs ----------------------------------

_DISTRIBUTED = [m for m in Mode if not m.centralized]

_PARTIAL = st.fixed_dictionaries({
    "mode": st.sampled_from(_DISTRIBUTED),
    "n_devices": st.integers(2, 30),
    "n_rbs": st.integers(1, 8),
    "slots": st.integers(1, 40),
    "seed": st.integers(0, 2**40),
    "v_a": st.sampled_from([0.05, 0.5, 1.0]) | st.floats(0.0, 1.0),
    "beta": st.integers(1, 3),
    "epsilon": st.sampled_from([0.0, 1.0, 30.0]),
    "r_c": st.floats(1.0, 15.0),
})


def _results_in_each_form(configs, shares=(1.0, -1.0)):
    """run_many of configs for each crossover share: 1 lists every batch,
    -1 keeps a batch dense only where no game lane is exact (its range
    covers its devices' span), and a share in between picks one form per
    batch, by whether a game lane misses at most that share of its pairs."""
    results = []
    for share in shares:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_PAIR_SHARE", share)
            results.append([(r.config, r.records, r.summary, r.trace)
                            for r in run_many(configs)])
    return results


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_PARTIAL, st.lists(st.tuples(st.sampled_from(_DISTRIBUTED), st.integers(0, 2**40)),
                          max_size=5), st.floats(0.0, 1.0))
def test_unheard_pairs_equal_the_dense_blocks(draw, lanes, share):
    # random partial-range configs, alone and in mixed batches whose lanes
    # range from hearing their whole cell to hearing few devices
    config = ScenarioConfig(**draw)
    configs = [config] + [dataclasses.replace(config, mode=mode, seed=seed)
                          for mode, seed in lanes]
    pairs, dense, split = _results_in_each_form(configs, (1.0, -1.0, share))
    assert pairs == dense == split


@pytest.mark.parametrize("name", ["starvation_partial", "starvation_staggered_partial"])
def test_unheard_pairs_tie_saturated_ages_as_the_dense_blocks(name):
    # in-flight exponential ages pass 2**1024 and tie as inf at partial range
    base = case_config(name)
    configs = [base, dataclasses.replace(base, seed=4),
               dataclasses.replace(base, mode=Mode.DISTRIBUTED_RANDOM)]
    pairs, dense = _results_in_each_form(configs)
    assert pairs == dense


def test_a_batch_is_listed_once_a_game_lane_misses_few_pairs():
    # at r_c = 10 on a 10 x 10 cell a few pairs are out of range, at r_c = 3
    # most are, and at r_c = 15 none; a listed batch holds exactly the
    # out-of-range pairs (i < j) of its lanes, in global ids, and no block,
    # and a dense batch keeps every game lane's block
    base = small(n_devices=40, r_c=10.0)
    configs = [dataclasses.replace(base, seed=s) for s in (1, 2)]
    positions = [_positions(c) for c in configs]
    blocks = [engine._neighbor_matrix(xy, base.r_c) for xy in positions]
    stack = _stack_of(configs)
    assert stack.dense == []
    expected = [(i + 40 * lane, j + 40 * lane) for lane, block in enumerate(blocks)
                for i in range(40) for j in range(i + 1, 40) if not block[i, j]]
    assert expected and sorted(map(tuple, stack.unheard.T.tolist())) == expected
    assert not stack.full_range and stack.exact is None
    short = _stack_of([dataclasses.replace(c, r_c=3.0) for c in configs])
    assert [lane for lane, _ in short.dense] == [0, 1]
    assert not short.unheard.size and not short.full_range
    for lane, block in short.dense:
        assert (block == engine._neighbor_matrix(positions[lane], 3.0)).all()
    full = _stack_of([dataclasses.replace(c, r_c=15.0) for c in configs])
    assert full.dense == [] and full.full_range and full.exact is engine._ALL


def test_a_batch_straddling_the_share_is_listed_whole():
    # at N = 200 and r_c = 8, half of these lanes miss more than
    # _PAIR_SHARE of their pairs; one lane that misses fewer lists them all
    configs = [small(n_devices=200, r_c=8.0, seed=s) for s in range(16)]
    blocks = [engine._neighbor_matrix(_positions(c), c.r_c) for c in configs]
    assert sum(not engine._misses_few(block) for block in blocks) == 8
    stack = _stack_of(configs)
    assert stack.dense == [] and not stack.full_range
    assert stack.unheard.shape[1] == sum(
        (block.size - block.sum()) // 2 for block in blocks)


@pytest.mark.parametrize("r_c, modes", [
    (10.0, [Mode.DISTRIBUTED_SCA] * 3),
    # lane 0 is kept as a block until lane 1 lists the batch; lane 2 builds none
    (8.0, [Mode.DISTRIBUTED_RANDOM, Mode.DISTRIBUTED_SCA, Mode.DISTRIBUTED_PREDETERMINED])])
def test_each_device_lists_exactly_its_out_of_range_partners(r_c, modes):
    configs = [small(n_devices=60, r_c=r_c, seed=s, mode=mode)
               for s, mode in zip((5, 1, 2), modes)]
    stack = _stack_of(configs)
    assert stack.dense == [] and stack.unheard.size
    for lane, config in enumerate(configs):
        block = (np.ones((60, 60), dtype=bool)
                 if config.mode is Mode.DISTRIBUTED_PREDETERMINED
                 else engine._neighbor_matrix(_positions(config), r_c))
        for i in range(60):
            d = lane * 60 + i
            got = stack.partners[stack.partner_start[d]:stack.partner_end[d]]
            assert sorted(got.tolist()) == (np.flatnonzero(~block[i]) + lane * 60).tolist()


def test_listing_a_batch_holds_its_pairs_about_once_at_its_peak():
    # a listed pair is held twice after set-up: in unheard and as two partner
    # entries. The partner lists come from the blocks' rows and unheard from
    # them, a lane at a time, with no sort of all endpoints and no reversed
    # copy of the pairs, which once took the peak to 1.96x what is held
    configs = [small(n_devices=500, r_c=8.0, seed=s) for s in range(16)]
    positions = np.concatenate([_positions(c) for c in configs])
    messages = PendingMessages(len(positions))
    tracemalloc.start()
    try:
        stack = _DistributedStack(configs[0], _lanes_of(configs), positions, messages,
                                  [c.mode for c in configs])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.unheard.shape[1] > 250_000 and held > 8 * 2**20
    assert peak <= 1.2 * held


def test_predetermined_lanes_leave_a_batch_dense():
    # a predetermined lane builds no block, but ranks every age: it does
    # not list a batch whose game lanes miss many pairs
    base = small(n_devices=40, r_c=3.0)
    stack = _stack_of([dataclasses.replace(base, mode=Mode.DISTRIBUTED_PREDETERMINED),
                       dataclasses.replace(base, seed=1),
                       dataclasses.replace(base, mode=Mode.DISTRIBUTED_RANDOM, seed=2)])
    assert [lane for lane, _ in stack.dense] == [1, 2] and not stack.unheard.size


@pytest.mark.parametrize("r_c, listed", [(10.0, True), (8.0, True), (3.0, False)])
def test_set_up_holds_one_block_at_a_time_unless_the_batch_is_dense(
        monkeypatch, r_c, listed):
    # at each block build, count the earlier blocks still alive: a listed
    # batch drops each block once its pairs are listed, a dense one keeps all
    build, built, alive = engine._neighbor_matrix, [], []

    def counted(xy, r):
        alive.append(sum(ref() is not None for ref in built))
        block = build(xy, r)
        built.append(weakref.ref(block))
        return block

    monkeypatch.setattr(engine, "_neighbor_matrix", counted)
    stack = _stack_of([small(n_devices=200, r_c=r_c, seed=s) for s in range(16)])
    assert len(alive) == 16
    if listed:
        assert stack.dense == [] and max(alive) <= 1
    else:
        assert alive == list(range(16)) and len(stack.dense) == 16
        assert all(ref() is not None for ref in built)


def _generator_words(seed, slot, phase):
    """The seed words of the generator of (seed, slot, phase)."""
    return tuple(np.random.SeedSequence([seed, slot, phase])
                 .generate_state(4, np.uint64).tolist())


def _record_generators(monkeypatch, seeds=None, slots=()):
    """Record every generator SlotDraws builds.

    Returns the list the records go to. A record is the generator's seed
    words when seeds is None, and otherwise the (seed, slot, phase) of the
    given seeds and slots those words were made from. SeedSequence pads its
    entropy with zero words, so [0, 1, 0] and [2**32, 0, 0] make one
    generator: seeds and slots that hold such a pair are refused rather
    than recorded under the wrong triple.
    """
    key_of = None
    if seeds is not None:
        key_of = {}
        for triple in itertools.product(set(seeds), slots, range(8)):
            other = key_of.setdefault(_generator_words(*triple), triple)
            assert other == triple, f"{other} and {triple} make one generator"
    built = []

    class Recorded(engine._SeedWords):
        def __init__(self, words):
            super().__init__(words)
            words = tuple(words.tolist())
            built.append(words if key_of is None else key_of[words])

    monkeypatch.setattr(engine, "_SeedWords", Recorded)
    return built


def test_lane_draws_fill_exactly_the_lanes_holding_the_ids(monkeypatch):
    # one generator per lane holding an id, none for any other lane, and
    # each id gets its own lane's draw
    n, seeds = 7, [3, 9, 2**40, 0]
    built = _record_generators(monkeypatch, seeds, [12])
    for draws, lanes in ((SlotDraws(seeds, n, 50), 4), (SlotDraws(seeds[:1], n, 50), 1)):
        for ids in ([], [0], [8, 9, 13], [27, 3, 22, 4, 27], list(range(28)), [6, 0, 6]):
            ids = [i for i in ids if i < lanes * n]
            built.clear()
            u = draws.vec(12, _PH_KIND, np.array(ids, dtype=np.int64))
            assert sorted(built) == sorted({(seeds[i // n], 12, _PH_KIND) for i in ids})
            assert u.tolist() == [_stream(seeds[i // n], 12, _PH_KIND, n)[i % n]
                                  for i in ids]


# seeds of one, two and three uint32 words
_WORD_SEEDS = [0, 5, 2**32 - 1, 2**32, 2**40 + 9, 2**64 + 5]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(_WORD_SEEDS), min_size=1, max_size=6),
       st.integers(1, 6),
       st.lists(st.sampled_from([0, 1, 9, 10, 11, 19, 20, 3, 2**32 - 1, 2**32]),
                min_size=1, max_size=4),
       st.lists(st.lists(st.integers(0, 10**6), max_size=12), min_size=1, max_size=3))
@example(seeds=[7, 7, 7], n=3, slots=[5], picks=[[8, 0, 4, 8, 6]])
@example(seeds=[2**64 + 5, 1, 2**32, 1, 2**64 + 5], n=4, slots=[9, 10],
         picks=[[19, 3, 3, 0, 12], [], [7]])
# (0, 1, 0) and (2**32, 0, 0) make one generator
@example(seeds=[0, 2**32], n=1, slots=[0, 1], picks=[[0]])
def test_lanes_that_share_a_seed_read_its_stream(seeds, n, slots, picks):
    # blocks of 10 slots: 9 and 10, 19 and 20 straddle a boundary, 3 refills
    # an earlier block, and 2**32 - 1 and 2**32 differ in word count. Each
    # id, in any order and repeated, reads its own seed's stream, and a
    # call builds one generator per distinct seed of its ids' lanes
    draws = SlotDraws(seeds, n, slots=9)
    with pytest.MonkeyPatch.context() as patch:
        built = _record_generators(patch)
        for slot in slots:
            for phase in (_PH_ACTIVATE, _PH_DELEGATE):
                for pick in picks:
                    ids = np.array(pick, dtype=np.int64) % (len(seeds) * n)
                    built.clear()
                    u = draws.vec(slot, phase, ids)
                    assert u.tolist() == [_stream(seeds[i // n], slot, phase, n)[i % n]
                                          for i in ids.tolist()]
                    assert sorted(built) == sorted(
                        {_generator_words(seeds[i // n], slot, phase) for i in ids.tolist()})


@pytest.mark.parametrize("base, seeds", [
    (small(n_devices=12, n_rbs=4, v_a=0.5, r_c=6.0, slots=40), [3, 3, 3, 8, 8, 8]),
    (small(n_devices=12, n_rbs=4, v_a=0.5, slots=40, mode=Mode.CENTRALIZED_LEARNING),
     [3, 3, 3])])
def test_a_batch_builds_one_generator_per_distinct_seed(monkeypatch, base, seeds):
    # each mode of the stack runs every seed; every vec call builds exactly
    # one generator per distinct seed among its ids' lanes, and every lane
    # still equals its lone run
    modes = _stack_modes(base.mode)
    configs = [dataclasses.replace(base, mode=modes[lane % 3], seed=seed)
               for lane, seed in enumerate(seeds)]
    built = _record_generators(monkeypatch, seeds, range(41))
    real_vec, one_per_seed = SlotDraws.vec, []

    def counted(self, slot, phase, ids):
        before = len(built)
        u = real_vec(self, slot, phase, ids)
        one_per_seed.append(sorted(built[before:]) == sorted(
            {(seeds[lane], slot, phase) for lane in (ids // base.n_devices).tolist()}))
        return u

    monkeypatch.setattr(SlotDraws, "vec", counted)
    lanes = run_many(configs)
    assert len(one_per_seed) > 40 and all(one_per_seed)
    monkeypatch.setattr(SlotDraws, "vec", real_vec)
    for config, lane in zip(configs, lanes):
        alone = run(config)
        assert (lane.summary, lane.records, lane.trace) == \
            (alone.summary, alone.records, alone.trace)


def test_mixed_lanes_draw_only_the_phases_their_modes_use(monkeypatch):
    # a lane draws exactly the (slot, phase) pairs its devices read, each
    # once: a predetermined lane draws no game phase, and no lane draws a
    # phase twice in a slot, though random and SCA lanes both decide
    base = small(n_devices=12, n_rbs=4, v_a=0.5, r_c=6.0, slots=60)
    modes = (Mode.DISTRIBUTED_PREDETERMINED, Mode.DISTRIBUTED_RANDOM,
             Mode.DISTRIBUTED_SCA)
    built = _record_generators(monkeypatch, range(3), range(61))
    read, real_vec = set(), SlotDraws.vec

    def recorded(self, slot, phase, ids):
        read.update((lane, slot, phase) for lane in (ids // 12).tolist())
        return real_vec(self, slot, phase, ids)

    monkeypatch.setattr(SlotDraws, "vec", recorded)
    run_many([dataclasses.replace(base, mode=mode, seed=seed)
              for seed, mode in enumerate(modes)])
    assert len(built) == len(set(built)) and set(built) == read
    by_lane = {lane: {phase for s, _, phase in built if s == lane} for lane in range(3)}
    assert not by_lane[0] & {_PH_DECIDE, _PH_FRESH, _PH_DELEGATE}
    assert _PH_DECIDE in by_lane[1] and not by_lane[1] & {_PH_FRESH, _PH_DELEGATE}
    assert {_PH_DECIDE, _PH_FRESH, _PH_DELEGATE} <= by_lane[2]


@pytest.mark.parametrize("seeds", [[5], [0, 1, 2]])
def test_no_activation_coin_is_drawn_where_v_a_decides_it(monkeypatch, seeds):
    # at v_a = 1 every idle device activates, so the coin is not drawn; the
    # reference draws it first, as the rule did before, and every other
    # generator and the results stay the same. At v_a = 0 nothing ever
    # activates, so no generator is built at all.
    base = small(n_devices=12, n_rbs=4, v_a=1.0, r_c=6.0, slots=40)
    modes = (Mode.DISTRIBUTED_SCA, Mode.DISTRIBUTED_RANDOM,
             Mode.DISTRIBUTED_PREDETERMINED)
    configs = [dataclasses.replace(base, mode=mode, seed=seed)
               for seed, mode in zip(seeds, modes)]
    built = _record_generators(monkeypatch, seeds, range(41))
    skipped = run_many(configs)
    without_coin = list(built)
    real_sweep = engine._activation_sweep

    def coin_drawn(messages, p_linear, t, config, draws):
        idle = (messages.rbs_left == 0).nonzero()[0]
        if len(idle):
            assert (draws.vec(t, _PH_ACTIVATE, idle) < config.v_a).all()
        return real_sweep(messages, p_linear, t, config, draws)

    built.clear()
    monkeypatch.setattr(engine, "_activation_sweep", coin_drawn)
    drawn = run_many(configs)
    assert [(r.summary, r.records) for r in skipped] == \
        [(r.summary, r.records) for r in drawn]
    assert not any(phase == _PH_ACTIVATE for _, _, phase in without_coin)
    assert any(phase == _PH_ACTIVATE for _, _, phase in built)
    assert sorted(without_coin) == sorted(k for k in built if k[2] != _PH_ACTIVATE)
    assert {phase for _, _, phase in without_coin} >= \
        {_PH_KIND, _PH_OUTAGE, _PH_DECIDE, _PH_FRESH}

    built.clear()
    monkeypatch.setattr(engine, "_activation_sweep", real_sweep)
    run_many([dataclasses.replace(config, v_a=0.0) for config in configs])
    assert built == []


@pytest.mark.parametrize("mode, seeds", [(Mode.DISTRIBUTED_SCA, [5]),
                                         (Mode.DISTRIBUTED_SCA, [0, 1, 2]),
                                         (Mode.CENTRALIZED_LEARNING, [0, 1, 2])])
def test_no_outage_uniforms_are_drawn_where_no_transmission_can_fail(
        monkeypatch, mode, seeds):
    # at epsilon = 0 every outage probability is 0 and u < 0 never holds, so
    # no lane draws the outage uniforms. The reference's table holds the
    # smallest positive probability, which no uniform of these runs falls
    # below: it draws them, and every other generator and the results stay
    # the same.
    base = small(n_devices=12, n_rbs=4, v_a=0.5, r_c=6.0, slots=40, epsilon=0.0,
                 mode=mode)
    configs = [dataclasses.replace(base, mode=other, seed=seed)
               for seed, other in zip(seeds, _stack_modes(mode))]
    built = _record_generators(monkeypatch, seeds, range(41))
    skipped = run_many(configs)
    without_outage = list(built)
    real_table = engine.outage_table

    def smallest_positive(snr, epsilon, max_rbs):
        table = real_table(snr, epsilon, max_rbs)
        table[:, 1:] = np.nextafter(0.0, 1.0)
        return table

    built.clear()
    monkeypatch.setattr(engine, "outage_table", smallest_positive)
    drawn = run_many(configs)
    assert [(r.summary, r.records) for r in skipped] == \
        [(r.summary, r.records) for r in drawn]
    assert not any(phase == _PH_OUTAGE for _, _, phase in without_outage)
    assert any(phase == _PH_OUTAGE for _, _, phase in built)
    assert sorted(without_outage) == sorted(k for k in built if k[2] != _PH_OUTAGE)


def test_run_many_rejects_empty_and_mixed_batches():
    with pytest.raises(ConfigError, match="at least one config"):
        run_many([])
    base = small()
    # a mode of the same stack shares the loop; one of the other stack, or
    # any other field, does not
    run_many([base, dataclasses.replace(base, seed=8, mode=Mode.DISTRIBUTED_RANDOM),
              dataclasses.replace(base, mode=Mode.DISTRIBUTED_PREDETERMINED)])
    central = small(mode=Mode.CENTRALIZED_LEARNING)
    run_many([central, dataclasses.replace(central, mode=Mode.CENTRALIZED_FULL_INFO)])
    for change in (dict(v_a=0.5), dict(mode=Mode.CENTRALIZED_LEARNING),
                   dict(slots=81)):
        with pytest.raises(ConfigError, match="differ only in seed and in mode"):
            run_many([base, dataclasses.replace(base, seed=8, **change)])
    with pytest.raises(ConfigError, match="within one stack"):
        run_many([central, dataclasses.replace(central, mode=Mode.DISTRIBUTED_SCA)])
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


@pytest.mark.parametrize("mode", [m for m in Mode if m.centralized])
def test_priority_key_is_told_what_the_mode_knows(mode, monkeypatch):
    # the mode only changes the kinds and types the one pricing rule sees
    stacks, survivors, calls = [], [], []
    real_rach, real_key = engine.rach_phase, centralized.priority_key

    class Recorded(engine._CentralizedStack):
        def __init__(self, *args):
            super().__init__(*args)
            stacks.append(self)

    def recorded_rach(*args):
        survivors.append(real_rach(*args))
        return survivors[-1]

    def recorded_key(ages, kinds, types, learner, beta):
        ids, messages = survivors[-1], stacks[0].messages
        calls.append((ids, np.array(ages), np.array(kinds), np.array(types),
                      messages.exponential[ids].astype(np.int8),
                      messages.gen_slot[ids].copy()))
        return real_key(ages, kinds, types, learner, beta)

    monkeypatch.setattr(engine, "_CentralizedStack", Recorded)
    monkeypatch.setattr(engine, "rach_phase", recorded_rach)
    monkeypatch.setattr(centralized, "priority_key", recorded_key)
    result = run(small(mode=mode, n_devices=20, n_rbs=4, v_a=0.5))
    latent = result.trace["latent_types"]
    assert len(calls) == 80
    reported, identified, typed = set(), set(), set()   # messages as (device,
    # generation slot) first reported and identified so far; devices typed
    n_known = n_unknown = 0
    for ids, ages, kinds, types, exponential, gen in calls:
        if mode is Mode.CENTRALIZED_NO_LEARNING:
            assert (kinds == KIND_UNKNOWN).all() and (types == NO_TYPE).all()
        elif mode is Mode.CENTRALIZED_FULL_INFO:
            assert kinds.tolist() == exponential.tolist()
            assert types.tolist() == [latent[i].value for i in ids.tolist()]
        else:
            known = kinds != KIND_UNKNOWN
            assert (kinds[known] == exponential[known]).all()
            pending = list(zip(ids.tolist(), gen.tolist()))
            first = np.array([m not in reported for m in pending], dtype=bool)
            # a message's first report identifies it only by a linear-only age,
            # and an identified message stays identified until delivered
            assert (known[first] == ~is_power_of_two(ages[first])).all()
            assert all(known[j] for j, m in enumerate(pending) if m in identified)
            identified |= {m for m, k in zip(pending, known.tolist()) if k}
            typed |= set(ids[known].tolist())
            assert [t != NO_TYPE for t in types.tolist()] == \
                [i in typed for i in ids.tolist()]
            reported |= set(pending)
            n_known, n_unknown = n_known + known.sum(), n_unknown + (~known).sum()
    if mode is Mode.CENTRALIZED_LEARNING:
        assert n_known > 0 and n_unknown > 0


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


def _pend(messages, p_linear, i, gen, kind_u):
    """Give device i a message generated at gen, its kind by kind_u."""
    activate(messages, [i], gen, kind_u, p_linear[i])


def _future(messages, i, t, beta):
    """Exact future age of device i's pending message."""
    return aoi_value(KINDS[int(messages.exponential[i])], t + beta,
                     int(messages.gen_slot[i]))


def _stack_at(config, positions, messages, t):
    """A distributed stack that has just allocated slot t for these devices."""
    stack = _DistributedStack(config, _lanes_of([config]), positions, messages,
                              [config.mode])
    _allocate(stack, t, SlotDraws([config.seed], config.n_devices, config.slots))
    return stack


def _allocate(stack, t, draws):
    """Allocate slot t to the stack's active devices, as the slot loop does."""
    active_ids = np.flatnonzero(stack.messages.rbs_left)
    return stack.allocate(t, active_ids, stack.lanes.counts(active_ids), draws)


def test_partial_range_thresholds_match_the_per_device_rule():
    # reference: each active device ranks the in-range active ages itself;
    # the ages mix ties, linear values and exponential ones past float range
    config = small(n_devices=40, n_rbs=6, r_c=3.0, v_a=0.5)
    rng = np.random.default_rng(11)
    positions, _, p_linear = make_devices(40, 0.6, 0.75, 0.75, 10.0, 10.0, rng)
    messages = PendingMessages(40)
    t = 1200
    for i in list(range(0, 40, 3)) + list(range(1, 40, 3)):
        gen = 1 if rng.random() < 0.2 else int(rng.integers(1150, 1200))
        _pend(messages, p_linear, i, gen, rng.random())
    stack = _stack_at(config, positions, messages, t)
    near = engine._neighbor_matrix(positions, config.r_c)
    active_ids = stack.ids.tolist()
    f_value = {i: _future(messages, i, t, config.beta) for i in active_ids}
    expected = set()
    for i in active_ids:
        known = [_saturated(f_value[j]) for j in active_ids if near[i, j]]
        k = kappa(len(known), len(active_ids), config.n_rbs, config.n_devices,
                  config.v_a, config.zeta)
        if _saturated(f_value[i]) >= kth_largest(known, k):
            expected.add(i)
    got = set(stack.ids[_reaching(stack, engine._ALL)].tolist())
    assert got == expected
    assert 0 < len(got) < len(active_ids)


@pytest.mark.parametrize("n_rbs, transmitters", [(1, {0}), (2, {0, 1}),
                                                 (3, {0, 1, 2, 3}), (5, {0, 1, 2, 3, 4})])
def test_full_range_thresholds_compare_exact_ages_past_float_range(n_rbs, transmitters):
    # every exponential age here is past 2**1024, so all of them are inf as
    # floats; the threshold still splits them by their exact values and lets
    # exact ties (devices 2 and 3) transmit together
    config = small(n_devices=7, n_rbs=n_rbs, r_c=15.0, v_a=1.0)
    positions, _, p_linear = make_devices(7, 0.6, 0.75, 0.75, 10.0, 10.0,
                                          np.random.default_rng(2))
    messages = PendingMessages(7)
    t = 1200
    exponential = 0.9999                    # above every type's linear share
    for i, gen in enumerate((1, 2, 3, 3, 60, 100)):
        _pend(messages, p_linear, i, gen, exponential)
    _pend(messages, p_linear, 6, 1, 0.0)    # linear: age 1200
    stack = _stack_at(config, positions, messages, t)
    assert engine._neighbor_matrix(positions, config.r_c) is None
    assert np.isinf(stack._float_ages()[0][:6]).all()
    exact = [_future(messages, i, t, config.beta) for i in range(7)]
    k = kappa(7, 7, n_rbs, 7, config.v_a, config.zeta)
    threshold = kth_largest(exact, k)
    assert {i for i in range(7) if exact[i] >= threshold} == transmitters
    assert set(stack.ids[_reaching(stack, engine._ALL)].tolist()) == transmitters


@pytest.mark.parametrize("r_c", [15.0, 3.0])
def test_two_delegators_on_one_neighbor_the_lower_id_wins(r_c):
    # devices 1 and 3 delivered on RBs 4 and 2 last slot and went idle; the
    # only active device is the sole candidate of both (device 0 is out of
    # range at r_c=3) and inherits the RB of the lower delegator id
    config = small(n_devices=4, n_rbs=6, r_c=r_c, v_a=0.4)
    _, _, p_linear = make_devices(4, 0.6, 0.75, 0.75, 10.0, 10.0,
                                  np.random.default_rng(5))
    positions = np.array([(0.0, 0.0), (5.0, 5.0), (5.5, 5.5), (6.0, 5.0)])
    messages = PendingMessages(4)
    _pend(messages, p_linear, 2, 10, 0.0)
    stack = _DistributedStack(config, _lanes_of([config]), positions, messages,
                              [config.mode])
    assert (engine._neighbor_matrix(positions, r_c) is None) == (r_c == 15.0)
    stack.last_action[[1, 3]] = [4, 2]
    _allocate(stack, 11, SlotDraws([config.seed], config.n_devices, config.slots))
    assert stack.actions.tolist() == [0, 0, 4, 0]


def _reference_actions(stack, positions, t, draws):
    """One slot of the distributed game, one device at a time on exact ages."""
    config, messages = stack.config, stack.messages
    # the adjacency matrix, None where the range covers the devices' span
    nb = engine._neighbor_matrix(positions, config.r_c)
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
    u = {phase: draws.vec(t, phase, np.arange(N))
         for phase in (_PH_DECIDE, _PH_FRESH, _PH_DELEGATE)}
    if config.mode is Mode.DISTRIBUTED_RANDOM:
        for i in passing:
            actions[i] = 1 + int(u[_PH_DECIDE][i] * R)
        return actions
    last_action, last_failed = stack.last_action.tolist(), stack.last_failed.tolist()
    delegated = {}
    for i in range(N):
        if last_action[i] >= 1 and not last_failed[i] and i not in f:
            candidates = [j for j in active_ids if nb is None or nb[i, j]]
            target = delegate_target_ref(candidates, [f[j] for j in candidates],
                                         u[_PH_DELEGATE][i])
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
                                      u[_PH_DECIDE][i], u[_PH_FRESH][i], R)
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
        positions, _, p_linear = make_devices(n, 0.6, 0.75, 0.75, 10.0, 10.0, rng)
        messages = PendingMessages(n)
        for i in range(n):
            if rng.random() < 0.7:
                gen = int(rng.choice([1, 2, 3, 200, 1290, rng.integers(1, t)]))
                _pend(messages, p_linear, i, gen, rng.random())
        stack = _DistributedStack(config, _lanes_of([config]), positions, messages,
                                  [mode])
        stack.last_action[:] = rng.integers(0, R + 1, n)
        stack.last_failed[:] = rng.random(n) < 0.4
        draws = SlotDraws([seed], n, config.slots)
        expected = _reference_actions(stack, positions, t, draws)
        _allocate(stack, t, draws)
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
    # every run of every mode carries its stack's trace
    for mode in Mode:
        trace = run(small(mode=mode, slots=60)).trace
        if mode.centralized:
            assert set(trace) == {"learner_counts", "latent_types"}
            assert len(trace["latent_types"]) == 10
        else:
            assert len(trace["unused_rbs"]) == 60
            assert set(trace["final"]) == {"actions", "future_aoi", "active"}


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


def test_loop_batches_split_where_configs_cannot_share_a_loop(monkeypatch):
    monkeypatch.setattr(engine, "SWEEP_LANES", 3)
    sca = small()
    rnd = dataclasses.replace(sca, mode=Mode.DISTRIBUTED_RANDOM, seed=1)
    central = small(mode=Mode.CENTRALIZED_LEARNING)
    # at partial range, 600-device game lanes share a batch 2 at a time
    wide = dataclasses.replace(sca, n_devices=600, r_c=5.0)
    assert sweep_lanes(wide) == 2
    configs = [sca, rnd, sca, rnd, central, central, dataclasses.replace(sca, v_a=0.5),
               wide, dataclasses.replace(wide, mode=Mode.DISTRIBUTED_PREDETERMINED),
               dataclasses.replace(wide, seed=3)]
    batches = list(loop_batches(enumerate(configs), lambda job: job[1]))
    assert [[i for i, _ in batch] for batch in batches] == [
        [0, 1, 2], [3], [4, 5], [6], [7, 8], [9]]
    assert list(loop_batches([])) == []


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
