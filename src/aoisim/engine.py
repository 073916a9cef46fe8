"""Time-slotted simulation loop binding devices, channel, and an allocation stack.

Slot structure: devices active at the start of a slot contend for RBs, the
channel resolves, completed messages are delivered and recorded, and only
then do idle devices draw fresh activations (generation slot = current
slot). A new message is therefore first transmitted one slot after its
generation and every delivery age is at least 1. Activation draws also run
once before the first slot (generation slot 0), so with v_a = 1 the cell is
busy from slot 1 on.

Static draws (positions, latent types, per-device SNR) come from one
generator seeded with the scenario seed. Every in-loop draw instead comes
from a uniform vector keyed by (seed, slot, phase) and indexed by device id,
so equal configs give byte-identical results and runs that share a seed but
differ in mode see identical device-level randomness (common random
numbers); mode comparisons on matched seeds then differ only where the
allocation decisions actually differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import centralized
from .aging import AgingKind, aoi_array, aoi_value
from .centralized import (KIND_UNKNOWN, KINDS, NO_TYPE, RachConfig,
                          TypeLearner, Variant, identify_aging, learn_type,
                          rach_phase, schedule, tie_class)
from .channel import (ChannelModel, Outcome, RbAssignment, resolve_slot,
                      sample_heterogeneous_snr, snr_db_to_linear)
# current_aoi and future_aoi are not called here; they stay bound for
# perfbench/tracer.py, which hooks them among the device-layer names of this
# module
from .devices import (Device, TypeId, activate, current_aoi,  # noqa: F401
                      deliver_success, future_aoi, make_devices)
from .distributed import (delegate_target, kappa, kth_largest,
                          predetermined_actions, random_selection, sca_step)
from .planner import plan_message


# draw phases within a slot; the (seed, slot, phase) triple seeds one vector
_PH_ACTIVATE = 0
_PH_KIND = 1
_PH_SIZE = 2
_PH_RACH = 3
_PH_OUTAGE = 4
_PH_DECIDE = 5
_PH_FRESH = 6
_PH_DELEGATE = 7

# bound once, as in aging.py (Enum.value is a descriptor call too)
_LINEAR, _TYPE1 = AgingKind.LINEAR, TypeId.TYPE1
_TYPE1_CODE, _TYPE2_CODE = TypeId.TYPE1.value, TypeId.TYPE2.value


# numpy's SeedSequence constants (pool of four uint32 words, 32-bit hashes)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_POOL_SIZE = 4
_N_PHASES = 8
_STATE_BLOCK = 256


def _uint32_words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, as SeedSequence splits it."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def seed_states(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words of many seed sequences in one pass.

    Row r of the (m, w) uint32 matrix entropy holds the words of one
    SeedSequence entropy; row r of the (m, 4) uint64 result equals that
    sequence's ``generate_state(4, np.uint64)``. This is numpy's pool mixing
    and state generation, run on columns: the hash constants advance the
    same way for every row, so they stay Python ints.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    m, width = entropy.shape
    shift = np.uint32(16)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> shift)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> shift)

    zero = np.zeros(m, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < width else zero)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, width):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    state = np.empty((m, 8), dtype=np.uint32)
    hash_const = _INIT_B
    for i_dst in range(8):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i_dst] = value ^ (value >> shift)
    return state.astype("<u4").view("<u8").astype(np.uint64)


_Generator, _PCG64 = np.random.Generator, np.random.PCG64


class _SeedWords(ISeedSequence):
    """Seed sequence whose PCG64 state words were computed ahead."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("precomputed seed words serve PCG64 only")
        return self._words


class SlotDraws:
    """Per-slot uniform vectors, one entry per device.

    vec(slot, phase) is a pure function of (seed, slot, phase), so a device
    keeps its draw across modes run with the same seed even when the modes
    consume different phases or diverge in state. It is the stream of
    ``default_rng(SeedSequence([seed, slot, phase]))``; the seed words of a
    block of up to min(256, slots + 1) slots are computed at once
    (``seed_states``) when a slot outside the current block is asked for.
    """

    __slots__ = ("_seed_words", "_n", "_block", "_first", "_end", "_states")

    def __init__(self, seed: int, n_devices: int, slots: int = _STATE_BLOCK - 1):
        self._seed_words = _uint32_words(seed)
        self._n = n_devices
        self._block = min(_STATE_BLOCK, slots + 1)
        self._first = self._end = 0
        self._states = None

    def state(self, slot: int, phase: int) -> np.ndarray:
        """The four uint64 PCG64 seed words of (seed, slot, phase)."""
        if not self._first <= slot < self._end:
            self._fill(slot)
        return self._states[(slot - self._first) * _N_PHASES + phase]

    def _fill(self, first: int) -> None:
        # a block never mixes slots of different word counts
        n_words = len(_uint32_words(first))
        end = min(first + self._block, 1 << (32 * n_words))
        slots = np.arange(first, end, dtype=np.uint64)
        rows = len(slots) * _N_PHASES
        columns = [np.full(rows, word, dtype=np.uint32) for word in self._seed_words]
        columns += [np.repeat((slots >> np.uint64(32 * j)) & np.uint64(_MASK32),
                              _N_PHASES).astype(np.uint32) for j in range(n_words)]
        columns.append(np.tile(np.arange(_N_PHASES, dtype=np.uint32), len(slots)))
        self._states = seed_states(np.column_stack(columns))
        self._first, self._end = first, end

    def vec(self, slot: int, phase: int) -> np.ndarray:
        words = _SeedWords(self.state(slot, phase))
        return _Generator(_PCG64(words)).random(self._n)


class Mode(Enum):
    CENTRALIZED_NO_LEARNING = "centralized_no_learning"
    CENTRALIZED_LEARNING = "centralized_learning"
    CENTRALIZED_FULL_INFO = "centralized_full_info"
    DISTRIBUTED_SCA = "distributed_sca"
    DISTRIBUTED_RANDOM = "distributed_random"
    DISTRIBUTED_PREDETERMINED = "distributed_predetermined"

    @property
    def centralized(self) -> bool:
        return self.value.startswith("centralized_")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    n_devices: int = 50
    n_rbs: int = 50
    slots: int = 1000
    mode: Mode = Mode.DISTRIBUTED_SCA
    seed: int = 0
    v_a: float = 0.35
    m1: float = 0.75
    m2: float = 0.75
    type1_fraction: float = 0.6
    mean_snr_db: float = 20.0
    heterogeneous_power: bool = False
    hetero_snr_low_db: float = 17.0
    hetero_snr_high_db: float = 21.8
    epsilon: float = 1.0
    beta: int = 1
    preambles: int = 64
    rach_exact: bool = False
    n_rbs_max: int = 1            # per-message RB demand uniform on {n_rbs_min..n_rbs_max}
    n_rbs_min: int = 1
    rho: float = 2.0
    gamma: float = 1.0
    eta: float = 0.5
    zeta: float = 1.2
    r_c: float = 15.0
    width: float = 10.0
    length: float = 10.0
    warmup_fraction: float = 0.1
    trace: bool = False

    def validate(self) -> None:
        checks = [
            (self.n_devices >= 1, "n_devices must be >= 1"),
            (self.n_rbs >= 1, "n_rbs must be >= 1"),
            (self.slots >= 1, "slots must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (0.0 <= self.v_a <= 1.0, "v_a must be in [0,1]"),
            (0.5 < self.m1 < 1.0, "m1 must be in (0.5, 1)"),
            (0.5 < self.m2 < 1.0, "m2 must be in (0.5, 1)"),
            (0.0 <= self.type1_fraction <= 1.0, "type1_fraction must be in [0,1]"),
            (self.epsilon >= 0.0, "epsilon must be >= 0"),
            (self.beta >= 1, "beta must be >= 1"),
            (self.preambles >= 1, "preambles must be >= 1"),
            (self.n_rbs_max >= 1, "n_rbs_max must be >= 1"),
            (self.n_rbs_max <= self.n_rbs, "n_rbs_max cannot exceed n_rbs"),
            (1 <= self.n_rbs_min <= self.n_rbs_max,
             "need 1 <= n_rbs_min <= n_rbs_max"),
            (self.rho > self.gamma > 0, "need rho > gamma > 0"),
            (0.0 < self.eta < 1.0, "eta must be in (0,1)"),
            (self.zeta > 0, "zeta must be positive"),
            (self.r_c >= 0, "r_c must be >= 0"),
            (self.width > 0 and self.length > 0, "cell dimensions must be positive"),
            (0.0 <= self.warmup_fraction < 1.0, "warmup_fraction must be in [0,1)"),
            (isinstance(self.mode, Mode), "mode must be a Mode"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if not self.mode.centralized and self.n_rbs_max != 1:
            raise ConfigError("multi-RB messages are a centralized-only feature")


@dataclass(frozen=True)
class SlotRecord:
    slot: int
    avg_inst_aoi_slot: float | None
    avg_inst_aoi_cum: float | None
    service_rate: float
    n_active: int
    n_transmitting: int
    rach_failures: int
    duplicate_failures: int
    outage_failures: int


@dataclass(frozen=True)
class RunSummary:
    slots: int
    warmup_slots: int
    deliveries: int
    deliveries_postwarmup: int
    mean_delivery_aoi: float | None
    mean_delivery_aoi_postwarmup: float | None
    mean_service_rate: float
    mean_service_rate_postwarmup: float
    rach_failures: int
    duplicate_failures: int
    outage_failures: int


@dataclass
class RunResult:
    config: ScenarioConfig
    records: list[SlotRecord]
    summary: RunSummary
    trace: dict | None = None


def _safe_mean(total, count) -> float | None:
    """Mean of exact integer/float ages; huge exponential sums degrade to inf."""
    if count == 0:
        return None
    try:
        return total / count
    except OverflowError:
        return math.inf


def _build_channel(config: ScenarioConfig, rng: np.random.Generator) -> ChannelModel:
    per_device = None
    if config.heterogeneous_power:
        per_device = sample_heterogeneous_snr(
            list(range(config.n_devices)),
            config.hetero_snr_low_db, config.hetero_snr_high_db, rng)
    return ChannelModel(mean_snr=snr_db_to_linear(config.mean_snr_db),
                        epsilon=config.epsilon, per_device_mean_snr=per_device)


def _activation_sweep(devices: list[Device], t: int, config: ScenarioConfig,
                      draws: SlotDraws) -> list[Device]:
    """Activate idle devices whose draw falls below v_a; returns them."""
    idle = [d for d in devices if not d.active]
    if not idle or config.v_a == 0.0:
        return []
    u_act = draws.vec(t, _PH_ACTIVATE).tolist()    # list indexing is cheaper
    hits = [d for d in idle if u_act[d.id] < config.v_a]
    if not hits:
        return hits
    u_kind = draws.vec(t, _PH_KIND)
    sized = config.n_rbs_max > config.n_rbs_min
    u_size = draws.vec(t, _PH_SIZE) if sized else None
    for device in hits:
        size_u = 0.0 if u_size is None else u_size[device.id]
        activate(device, t, u_kind[device.id], config.n_rbs_max, size_u,
                 config.n_rbs_min)
    return hits


class _MetricAccumulator:
    def __init__(self, slots: int, warmup_fraction: float):
        self.warmup_slots = int(slots * warmup_fraction)
        self.cum_aoi_total = 0
        self.cum_deliveries = 0
        self.post_aoi_total = 0
        self.post_deliveries = 0
        self.sr_total = 0.0
        self.sr_post = 0.0
        self.sr_slots = 0
        self.sr_post_slots = 0
        self.rach = 0
        self.dup = 0
        self.outage = 0

    def slot(self, t: int, delivered, service_rate: float,
             rach: int, dup: int, outage: int):
        slot_total = sum(delivered) if delivered else 0
        self.cum_aoi_total += slot_total
        self.cum_deliveries += len(delivered)
        self.sr_total += service_rate
        self.sr_slots += 1
        self.rach += rach
        self.dup += dup
        self.outage += outage
        if t > self.warmup_slots:
            self.post_aoi_total += slot_total
            self.post_deliveries += len(delivered)
            self.sr_post += service_rate
            self.sr_post_slots += 1
        return (_safe_mean(slot_total, len(delivered)),
                _safe_mean(self.cum_aoi_total, self.cum_deliveries))

    def summary(self, slots: int) -> RunSummary:
        return RunSummary(
            slots=slots,
            warmup_slots=self.warmup_slots,
            deliveries=self.cum_deliveries,
            deliveries_postwarmup=self.post_deliveries,
            mean_delivery_aoi=_safe_mean(self.cum_aoi_total, self.cum_deliveries),
            mean_delivery_aoi_postwarmup=_safe_mean(self.post_aoi_total,
                                                    self.post_deliveries),
            mean_service_rate=self.sr_total / max(1, self.sr_slots),
            mean_service_rate_postwarmup=self.sr_post / max(1, self.sr_post_slots),
            rach_failures=self.rach,
            duplicate_failures=self.dup,
            outage_failures=self.outage,
        )


def run(config: ScenarioConfig) -> RunResult:
    """Simulate one scenario; deterministic in (config, seed).

    One slot loop serves both stacks. The stack names the devices with a
    pending message (active_ids) and picks who transmits on which RBs
    (allocate), the channel resolves the slot, the loop delivers and counts,
    and the stack learns the outcome (feedback) before idle devices draw
    fresh activations (which the stack also learns: activated).
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    devices = make_devices(config.n_devices, config.type1_fraction, config.m1,
                           config.m2, config.width, config.length, rng)
    channel = _build_channel(config, rng)
    draws = SlotDraws(config.seed, config.n_devices, config.slots)
    stack = (_CentralizedStack(config, devices, channel) if config.mode.centralized
             else _DistributedStack(config, devices))
    metrics = _MetricAccumulator(config.slots, config.warmup_fraction)
    records: list[SlotRecord] = []

    success, duplicate = Outcome.SUCCESS, Outcome.DUPLICATE_FAILURE  # see aging.py
    stack.activated(_activation_sweep(devices, 0, config, draws))
    for t in range(1, config.slots + 1):
        active_ids = stack.active_ids()
        entries, rach_failures = stack.allocate(t, active_ids, draws)
        outcomes = resolve_slot(RbAssignment(t, entries), channel,
                                draws.vec(t, _PH_OUTAGE))

        claimants: dict[int, list[int]] = {}
        delivered = []
        duplicate_failures = 0
        outage_failures = 0
        for device_id, rbs in entries:
            for rb in rbs:
                claimants.setdefault(rb, []).append(device_id)
            outcome = outcomes[device_id]
            if outcome is success:
                device = devices[device_id]
                device.n_remaining -= len(rbs)
                if device.n_remaining <= 0:
                    delivered.append(deliver_success(device, t))
            elif outcome is duplicate:
                duplicate_failures += 1
            else:
                outage_failures += 1
        stack.feedback(claimants, outcomes)

        # an RB with two claimants fails them all, so with no duplicate
        # failure every claimed RB has exactly one claimant
        single = (sum(1 for ids in claimants.values() if len(ids) == 1)
                  if duplicate_failures else len(claimants))
        service_rate = single / config.n_rbs
        slot_mean, cum_mean = metrics.slot(t, delivered, service_rate,
                                           rach_failures, duplicate_failures,
                                           outage_failures)
        records.append(SlotRecord(
            slot=t, avg_inst_aoi_slot=slot_mean, avg_inst_aoi_cum=cum_mean,
            service_rate=service_rate, n_active=len(active_ids),
            n_transmitting=len(entries), rach_failures=rach_failures,
            duplicate_failures=duplicate_failures,
            outage_failures=outage_failures))
        stack.activated(_activation_sweep(devices, t, config, draws))

    return RunResult(config=config, records=records,
                     summary=metrics.summary(config.slots),
                     trace=stack.trace() if config.trace else None)


# ---------------------------------------------------------------------------
# Centralized stack
# ---------------------------------------------------------------------------

class _CentralizedStack:
    """Request phase, per-request split plan and type learning, priority schedule.

    The stack keeps what it reads per slot in per-device arrays and updates
    them where they change: on activation (activated) and on the slot's
    outcomes (feedback). A slot then ranks its RACH survivors with a few
    array operations.
    """

    def __init__(self, config: ScenarioConfig, devices: list[Device],
                 channel: ChannelModel):
        self.config = config
        self.devices = devices
        self.channel = channel
        self.variant = Variant(config.mode.value.removeprefix("centralized_"))
        self.rach = RachConfig(config.preambles, config.rach_exact)
        self.learner = TypeLearner(m1=config.m1, m2=config.m2,
                                   p_type1=config.type1_fraction)
        n = config.n_devices
        # the pending message of each device (rbs_left 0 when idle)
        self.gen_slot = np.zeros(n, dtype=np.int64)
        self.exponential = np.zeros(n, dtype=bool)
        self.rbs_left = np.zeros(n, dtype=np.int64)
        self.true_type = np.array([d.dtype.type_id.value for d in devices],
                                  dtype=np.int8)
        # scheduler-side knowledge: the identified kind of the pending message
        # (learning; reset on delivery) and the device type, which is the ML
        # estimate under learning (it moves only on observe) and the true type
        # under full information
        self.known_kind = np.full(n, KIND_UNKNOWN, dtype=np.int8)
        self.est_type = (self.true_type.copy() if self.variant is Variant.FULL_INFO
                         else np.full(n, NO_TYPE, dtype=np.int8))
        # slot (-1: none) and age of the last report of each unresolved message
        self.last_slot = np.full(n, -1, dtype=np.int64)
        self.last_age = np.zeros(n)
        # first split of the plan per (device, RBs left), 0 until planned:
        # nothing else the plan reads varies
        self.first_split = np.zeros((n, config.n_rbs_max + 1), dtype=np.int64)
        # this slot's grants: served ids in service order and their RB counts
        self.served = self.taken = np.zeros(0, dtype=np.int64)

    def activated(self, hits: list[Device]) -> None:
        ids = [d.id for d in hits]
        self.gen_slot[ids] = [d.gen_slot for d in hits]
        self.exponential[ids] = [d.aging is not _LINEAR for d in hits]
        self.rbs_left[ids] = [d.n_remaining for d in hits]

    def active_ids(self) -> np.ndarray:
        """Ids of the devices with a pending message, ascending."""
        return np.flatnonzero(self.rbs_left)

    def allocate(self, t: int, active_ids: np.ndarray, draws: SlotDraws):
        config, variant = self.config, self.variant
        survivors = rach_phase(active_ids, self.rach, draws.vec(t, _PH_RACH))
        gen, exponential = self.gen_slot[survivors], self.exponential[survivors]
        ages = aoi_array(exponential, t, gen)           # the reported ages
        if variant is Variant.LEARNING:
            kinds = self._identify(t, survivors, ages)
        else:
            kinds = exponential.astype(np.int8)     # true kinds (KINDS codes)
        types = self.est_type[survivors]
        # called through the module, where perfbench/tracer.py times it
        keys = centralized.priority_key(ages, kinds, types, self.learner, variant,
                                        config.beta)
        served, first, end = schedule(survivors, keys, t + config.beta - 1 - gen,
                                      tie_class(types, self.learner, variant),
                                      self._rbs_needed(t, survivors), config.n_rbs)
        self.served, self.taken = served, end - first
        entries = tuple((i, frozenset(range(a, b))) for i, a, b
                        in zip(served.tolist(), first.tolist(), end.tolist()))
        return entries, len(active_ids) - len(survivors)

    def _identify(self, t: int, survivors: np.ndarray, ages: np.ndarray) -> np.ndarray:
        """Identify unresolved messages from their reports; the survivors' kinds."""
        kinds = self.known_kind[survivors]
        unresolved = kinds == KIND_UNKNOWN
        if not unresolved.any():
            return kinds
        ids, reported = survivors[unresolved], ages[unresolved]
        found = identify_aging(reported, self.last_slot[ids], self.last_age[ids], t)
        kinds[unresolved] = found
        self.last_slot[ids], self.last_age[ids] = t, reported
        self.known_kind[ids] = found
        new = found != KIND_UNKNOWN
        found_ids = ids[new].tolist()
        for i, code in zip(found_ids, found[new].tolist()):
            self.learner.observe(i, KINDS[code])
        self.est_type[found_ids] = [_TYPE1_CODE if learn_type(self.learner, i) is _TYPE1
                                    else _TYPE2_CODE for i in found_ids]
        return kinds

    def _rbs_needed(self, t: int, survivors: np.ndarray) -> np.ndarray:
        left = self.rbs_left[survivors]
        needed = self.first_split[survivors, left]
        if needed.all():
            return needed
        for j in np.flatnonzero(needed == 0).tolist():
            i, n = int(survivors[j]), int(left[j])
            plan = plan_message(n, KINDS[int(self.exponential[i])], self.channel, i,
                                self.config.n_rbs, t, int(self.gen_slot[i]))
            needed[j] = self.first_split[i, n] = plan.splits[0]
        return needed

    def feedback(self, claimants, outcomes) -> None:
        success = Outcome.SUCCESS
        ok = np.array([outcomes[i] is success for i in self.served.tolist()],
                      dtype=bool)
        ids = self.served[ok]
        left = self.rbs_left[ids] - self.taken[ok]
        self.rbs_left[ids] = np.maximum(left, 0)
        delivered = ids[left <= 0]
        self.known_kind[delivered] = KIND_UNKNOWN
        self.last_slot[delivered] = -1

    def trace(self) -> dict:
        return {"learner_counts": {k: tuple(v)
                                   for k, v in self.learner.counts.items()},
                "latent_types": {d.id: d.dtype.type_id for d in self.devices}}


# ---------------------------------------------------------------------------
# Distributed stack
# ---------------------------------------------------------------------------

def _neighbor_matrix(devices: list[Device], r_c: float) -> np.ndarray | None:
    """Boolean adjacency (self included) or None when the range covers the cell."""
    xy = np.array([d.position for d in devices])
    span = xy.max(axis=0) - xy.min(axis=0)
    if r_c >= math.hypot(span[0], span[1]):
        return None
    d2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
    return d2 <= r_c * r_c


class _DistributedStack:
    """Minority-game transmit rule with SCA or random RB picks, or the rank map.

    Each slot reads the active devices' pending messages from the Device
    objects; their future ages become float64 arrays when a decision needs
    them, and each device's last RB and whether it failed are arrays that
    feedback writes. A slot's decisions are then a few array operations
    over the active devices.
    """

    def __init__(self, config: ScenarioConfig, devices: list[Device]):
        self.config = config
        self.devices = devices
        # the rank-to-RB baseline is defined only under full information
        self.neighbors = None if config.mode is Mode.DISTRIBUTED_PREDETERMINED \
            else _neighbor_matrix(devices, config.r_c)
        n = config.n_devices
        # full information: the threshold rank for every possible number of
        # active devices, each of which knows them all
        counts = np.arange(1, n + 1)
        self.shared_kappa = (kappa(counts, counts, config.n_rbs, n, config.v_a,
                                   config.zeta) if self.neighbors is None else None)
        self.last_action = np.zeros(n, dtype=np.int64)     # 0 = did not transmit
        self.last_failed = np.zeros(n, dtype=bool)
        self.actions = np.zeros(n, dtype=np.int64)
        # this slot's active ids and the generation slots and aging kinds of
        # their messages; _float_ages keeps their future ages in ages_cache
        self.t = 0
        self.ids = np.zeros(0, dtype=np.int64)
        self.gen: list[int] = []
        self.kinds: list[AgingKind] = []
        self.ages_cache = None
        self.trace_unused: list[int] = []

    def activated(self, hits: list[Device]) -> None:
        pass                    # allocate reads the Device objects

    def active_ids(self) -> np.ndarray:
        """Ids of the devices with a pending message, ascending."""
        return np.array([d.id for d in self.devices if d.active], dtype=np.int64)

    def allocate(self, t: int, active_ids: np.ndarray, draws: SlotDraws):
        config, devices = self.config, self.devices
        pending = [devices[i] for i in active_ids.tolist()]
        self.t, self.ids = t, active_ids
        self.gen = [d.gen_slot for d in pending]
        self.kinds = [d.aging for d in pending]
        self.ages_cache = None
        if not pending:
            actions = np.zeros(config.n_devices, dtype=np.int64)
        elif config.mode is Mode.DISTRIBUTED_PREDETERMINED:
            actions = np.array(predetermined_actions(self._future_ages(),
                                                     [d.active for d in devices],
                                                     config.n_rbs, full_info=True),
                               dtype=np.int64)
        else:
            actions = _game_actions(self, t, draws, active_ids)
        self.actions = actions
        tx = np.flatnonzero(actions)
        return tuple((i, frozenset((rb,))) for i, rb
                     in zip(tx.tolist(), actions[tx].tolist())), 0

    def _float_ages(self) -> tuple[np.ndarray, np.ndarray]:
        """This slot's future ages as float64 (inf past 2**1024) and their log2.

        The log2 is exact where the age saturated (a power of two there).
        """
        if self.ages_cache is None:
            horizon = self.t + self.config.beta
            gen = np.array(self.gen, dtype=np.int64)
            exponential = np.array([k is not _LINEAR for k in self.kinds], dtype=bool)
            self.ages_cache = aoi_array(exponential, horizon, gen), horizon - 1 - gen
        return self.ages_cache

    def _future_ages(self) -> list:
        """Exact future ages of this slot's active devices, 0 for idle ones."""
        future = [0] * self.config.n_devices
        horizon = self.t + self.config.beta
        for i, kind, gen in zip(self.ids.tolist(), self.kinds, self.gen):
            future[i] = aoi_value(kind, horizon, gen)
        return future

    def feedback(self, claimants, outcomes) -> None:
        success = Outcome.SUCCESS
        self.last_action = self.actions
        self.last_failed = np.zeros(self.config.n_devices, dtype=bool)
        self.last_failed[[i for i, o in outcomes.items() if o is not success]] = True
        if self.config.trace:
            self.trace_unused.append(self.config.n_rbs - len(claimants))

    def trace(self) -> dict:
        active = np.zeros(self.config.n_devices, dtype=bool)
        active[self.ids] = True
        return {"unused_rbs": self.trace_unused,
                "final": {"actions": self.actions.tolist(),
                          "future_aoi": self._future_ages(),
                          "active": active.tolist()}}


def _transmitters(stack: _DistributedStack) -> np.ndarray:
    """Which of the slot's active devices reach their transmit threshold.

    Full range compares exact ages against one shared threshold: past float
    range the ages at or above it are powers of two, compared by exponent.
    Partial range gives each device the threshold of the in-range active
    ages, as floats: exact ages beyond float range saturate to inf, which
    keeps the ties-transmit rule intact.
    """
    config = stack.config
    ids = stack.ids
    R, N, n_active = config.n_rbs, config.n_devices, len(ids)
    if stack.neighbors is None:
        k = stack.shared_kappa[n_active - 1]
        if k >= n_active:           # the threshold is the smallest age
            return np.ones(n_active, dtype=bool)
        ages, exponents = stack._float_ages()
        threshold = kth_largest(ages.tolist(), k)
        if threshold < math.inf:
            return ages >= threshold
        exponents = np.where(np.isinf(ages), exponents, -1)
        return exponents >= kth_largest(exponents.tolist(), k)
    ages, _ = stack._float_ages()
    # row r marks the ages device ids[r] knows
    known = stack.neighbors[ids][:, ids]
    ks = kappa(known.sum(axis=1), n_active, R, N, config.v_a, config.zeta)
    return ages >= kth_largest(ages, ks, known)


def _game_actions(stack: _DistributedStack, t: int, draws: SlotDraws,
                  active_ids: np.ndarray) -> np.ndarray:
    """Minority-game transmit decisions plus SCA/random RB choices for one slot.

    Returns every device's RB, 0 for the silent ones.
    """
    config = stack.config
    R, neighbors = config.n_rbs, stack.neighbors
    last_action, last_failed = stack.last_action, stack.last_failed
    passing = _transmitters(stack)
    actions = np.zeros(config.n_devices, dtype=np.int64)

    if config.mode is Mode.DISTRIBUTED_RANDOM:
        chosen = active_ids[passing]
        if len(chosen):
            actions[chosen] = random_selection(R, draws.vec(t, _PH_DECIDE)[chosen])
        return actions

    # freed-RB delegation: a device that delivered last slot and went idle hands
    # its RB to an active neighbor, weighted by future age; lowest delegator id
    # wins when two target the same neighbor
    won = (last_action >= 1) & ~last_failed
    sending = passing
    if len(active_ids) < config.n_devices:
        idle = won.copy()
        idle[active_ids] = False
        delegators = np.flatnonzero(idle)
        if len(delegators):
            # a delegator is idle, so it is never its own candidate
            candidates = (np.ones((len(delegators), len(active_ids)), dtype=bool)
                          if neighbors is None
                          else neighbors[delegators][:, active_ids])
            picks = delegate_target(candidates, *stack._float_ages(),
                                    draws.vec(t, _PH_DELEGATE)[delegators])
            hit = picks >= 0
            targets, first = np.unique(picks[hit], return_index=True)
            actions[active_ids[targets]] = last_action[delegators[hit][first]]
            sending = passing.copy()
            sending[targets] = False

    # a passing device repeats an RB that just worked; the rest decide by SCA
    keep = sending & won[active_ids]
    kept = active_ids[keep]
    actions[kept] = last_action[kept]
    deciding = active_ids[sending & ~keep]
    if len(deciding):
        # a device only knows an RB was taken if it sensed a transmission on
        # it last slot; at full range every device senses the same
        prev = last_action[deciding]
        if neighbors is None:
            sensed = np.bincount(last_action, minlength=R + 1)
            crowd, unused = sensed[prev], sensed[None, 1:] == 0
        else:
            # count every (deciding device, RB) pair of a transmission it heard
            heard = np.flatnonzero(last_action)
            cells = np.arange(len(deciding))[:, None] * (R + 1) + last_action[heard]
            sensed = np.bincount(cells[neighbors[deciding][:, heard]],
                                 minlength=len(deciding) * (R + 1))
            sensed = sensed.reshape(len(deciding), R + 1)
            crowd = sensed[np.arange(len(deciding)), prev]
            unused = sensed[:, 1:] == 0
        # the crowd seen on RB 0 (silence) is never consulted
        actions[deciding] = sca_step(prev, last_failed[deciding], crowd, unused,
                                     draws.vec(t, _PH_DECIDE)[deciding],
                                     draws.vec(t, _PH_FRESH)[deciding], R)
    return actions


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

_FIELD_NAMES = {f.name for f in fields(ScenarioConfig)}


def replicate_seed(base_seed: int, replicate: int) -> int:
    """Per-replicate seed, shared by every sweep value (matched-seed design).

    Replicate 0 keeps the base seed, so a one-value one-replicate sweep is
    the plain run.
    """
    if replicate == 0:
        return base_seed
    ss = np.random.SeedSequence([base_seed, replicate])
    return int(ss.generate_state(1)[0])


def sweep_iter(base: ScenarioConfig, parameter: str, values, replicates: int = 1):
    """Yield (value, replicate, RunResult) in (value, replicate) order."""
    if parameter not in _FIELD_NAMES:
        raise ConfigError(f"unknown sweep parameter: {parameter}")
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    for value in values:
        for rep in range(replicates):
            config = replace(base, **{parameter: value},
                             seed=replicate_seed(base.seed, rep))
            yield value, rep, run(config)
