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
from .aging import aoi_array, aoi_value
from .centralized import (KIND_UNKNOWN, KINDS, NO_TYPE, RachConfig,
                          TypeLearner, Variant, identify_aging, learn_type,
                          rach_phase, schedule, tie_class)
from .channel import (DUPLICATE, SUCCESS, ChannelModel, outage_table,
                      resolve_transmissions, sample_heterogeneous_snr,
                      snr_db_to_linear)
from .devices import (Device, PendingMessages, TypeId, activate,
                      deliver_success, make_devices)
from .distributed import (delegate_target, kappa, random_selection,
                          reaches_threshold, sca_step)
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
_TYPE1 = TypeId.TYPE1
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


_NO_IDS = np.zeros(0, dtype=np.int64)


def _activation_sweep(messages: PendingMessages, p_linear: np.ndarray, t: int,
                      config: ScenarioConfig, draws: SlotDraws) -> np.ndarray:
    """Activate idle devices whose draw falls below v_a; returns their ids.

    Each phase is drawn only when the slot needs it.
    """
    idle = messages.rbs_left == 0
    if config.v_a == 0.0 or not idle.any():
        return _NO_IDS
    hits = (idle & (draws.vec(t, _PH_ACTIVATE) < config.v_a)).nonzero()[0]
    if len(hits):
        size_u = (draws.vec(t, _PH_SIZE)[hits]
                  if config.n_rbs_max > config.n_rbs_min else 0.0)
        activate(messages, hits, t, draws.vec(t, _PH_KIND)[hits], p_linear[hits],
                 config.n_rbs_max, size_u, config.n_rbs_min)
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

    def slot(self, t: int, slot_total: int, n_delivered: int, service_rate: float,
             rach: int, dup: int, outage: int):
        self.cum_aoi_total += slot_total
        self.cum_deliveries += n_delivered
        self.sr_total += service_rate
        self.sr_slots += 1
        self.rach += rach
        self.dup += dup
        self.outage += outage
        if t > self.warmup_slots:
            self.post_aoi_total += slot_total
            self.post_deliveries += n_delivered
            self.sr_post += service_rate
            self.sr_post_slots += 1
        return (_safe_mean(slot_total, n_delivered),
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

    One slot loop serves both stacks. The engine keeps every device's
    pending message in one ``PendingMessages`` set of arrays, which both
    stacks read. The stack picks who transmits on which RB range (allocate),
    the channel resolves the slot, the loop delivers and counts, and the
    stack learns the outcome (feedback) before idle devices draw fresh
    activations. Each of these is a few array operations per slot.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    devices = make_devices(config.n_devices, config.type1_fraction, config.m1,
                           config.m2, config.width, config.length, rng)
    channel = _build_channel(config, rng)
    draws = SlotDraws(config.seed, config.n_devices, config.slots)
    messages = PendingMessages(config.n_devices)
    p_linear = np.array([d.dtype.p_linear for d in devices])
    p_outage = outage_table(channel, config.n_devices, config.n_rbs_max)
    stack = (_CentralizedStack(config, devices, messages, channel)
             if config.mode.centralized
             else _DistributedStack(config, devices, messages))
    metrics = _MetricAccumulator(config.slots, config.warmup_fraction)
    records: list[SlotRecord] = []

    _activation_sweep(messages, p_linear, 0, config, draws)
    for t in range(1, config.slots + 1):
        active_ids = messages.rbs_left.nonzero()[0]
        ids, first, n_rbs, rach_failures = stack.allocate(t, active_ids, draws)
        outcomes, claims = resolve_transmissions(ids, first, n_rbs, p_outage,
                                                 draws.vec(t, _PH_OUTAGE))
        ok = outcomes == SUCCESS
        delivered, slot_total = deliver_success(messages, ids[ok], n_rbs[ok], t)
        stack.feedback(ids, outcomes, delivered, claims)

        n_success = int(np.count_nonzero(ok))
        duplicate_failures = int(np.count_nonzero(outcomes == DUPLICATE))
        outage_failures = len(ids) - n_success - duplicate_failures
        # RBs with exactly one claimant
        service_rate = int(np.count_nonzero(claims == 1)) / config.n_rbs
        slot_mean, cum_mean = metrics.slot(t, slot_total, len(delivered),
                                           service_rate, rach_failures,
                                           duplicate_failures, outage_failures)
        records.append(SlotRecord(
            slot=t, avg_inst_aoi_slot=slot_mean, avg_inst_aoi_cum=cum_mean,
            service_rate=service_rate, n_active=len(active_ids),
            n_transmitting=len(ids), rach_failures=rach_failures,
            duplicate_failures=duplicate_failures,
            outage_failures=outage_failures))
        _activation_sweep(messages, p_linear, t, config, draws)

    return RunResult(config=config, records=records,
                     summary=metrics.summary(config.slots),
                     trace=stack.trace() if config.trace else None)


# ---------------------------------------------------------------------------
# Centralized stack
# ---------------------------------------------------------------------------

class _CentralizedStack:
    """Request phase, per-request split plan and type learning, priority schedule.

    The stack reads the pending messages from the engine's arrays and keeps
    what the scheduler knows about them in per-device arrays of its own,
    which feedback resets on delivery. A slot then ranks its RACH survivors
    with a few array operations.
    """

    def __init__(self, config: ScenarioConfig, devices: list[Device],
                 messages: PendingMessages, channel: ChannelModel):
        self.config = config
        self.devices = devices
        self.messages = messages
        self.channel = channel
        self.variant = Variant(config.mode.value.removeprefix("centralized_"))
        self.rach = RachConfig(config.preambles, config.rach_exact)
        self.learner = TypeLearner(m1=config.m1, m2=config.m2,
                                   p_type1=config.type1_fraction)
        n = config.n_devices
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

    def allocate(self, t: int, active_ids: np.ndarray, draws: SlotDraws):
        """The slot's transmitters, their RB ranges and the RACH losses."""
        config, variant, messages = self.config, self.variant, self.messages
        survivors = rach_phase(active_ids, self.rach, draws.vec(t, _PH_RACH))
        gen = messages.gen_slot[survivors]
        exponential = messages.exponential[survivors]
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
        return served, first, end - first, len(active_ids) - len(survivors)

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
        messages = self.messages
        left = messages.rbs_left[survivors]
        needed = self.first_split[survivors, left]
        if needed.all():
            return needed
        for j in np.flatnonzero(needed == 0).tolist():
            i, n = int(survivors[j]), int(left[j])
            plan = plan_message(n, KINDS[int(messages.exponential[i])], self.channel,
                                i, self.config.n_rbs, t, int(messages.gen_slot[i]))
            needed[j] = self.first_split[i, n] = plan.splits[0]
        return needed

    def feedback(self, ids, outcomes, delivered, claims) -> None:
        # what the scheduler learned about a message goes with its delivery
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
    x, y = xy.T
    return (x[:, None] - x) ** 2 + (y[:, None] - y) ** 2 <= r_c * r_c


class _DistributedStack:
    """Minority-game transmit rule with SCA or random RB picks, or the rank map.

    Each slot reads the active devices' pending messages from the engine's
    arrays; their future ages become float64 arrays when a decision needs
    them, and each device's last RB and whether it failed are arrays that
    feedback writes. A slot's decisions are then a few array operations
    over the active devices.
    """

    def __init__(self, config: ScenarioConfig, devices: list[Device],
                 messages: PendingMessages):
        self.config = config
        self.messages = messages
        # the rank-to-RB baseline is defined only under full information
        self.neighbors = None if config.mode is Mode.DISTRIBUTED_PREDETERMINED \
            else _neighbor_matrix(devices, config.r_c)
        n = config.n_devices
        # the threshold rank of a device that knows n_known ages, at index
        # n_known - 1: when it knows every active device, and when it does not
        counts = np.arange(1, n + 1)
        self.shared_kappa = kappa(counts, counts, config.n_rbs, n, config.v_a,
                                  config.zeta)
        self.partial_kappa = kappa(counts, 0, config.n_rbs, n, config.v_a, config.zeta)
        self.last_action = np.zeros(n, dtype=np.int64)     # 0 = did not transmit
        self.last_failed = np.zeros(n, dtype=bool)
        self.actions = np.zeros(n, dtype=np.int64)
        # this slot's active ids and the generation slots and aging kinds of
        # their messages; _float_ages keeps their future ages in ages_cache
        self.t = 0
        self.ids = _NO_IDS
        self.gen = _NO_IDS
        self.exponential = np.zeros(0, dtype=bool)
        self.ages_cache = None
        self.trace_unused: list[int] = []

    def allocate(self, t: int, active_ids: np.ndarray, draws: SlotDraws):
        """The slot's transmitters, their RBs (ranges of one) and no RACH loss."""
        config, messages = self.config, self.messages
        self.t, self.ids = t, active_ids
        self.gen = messages.gen_slot[active_ids]
        self.exponential = messages.exponential[active_ids]
        self.ages_cache = None
        if not len(active_ids):
            actions = np.zeros(config.n_devices, dtype=np.int64)
        elif config.mode is Mode.DISTRIBUTED_PREDETERMINED:
            # the k-th highest future age transmits on RB k, ties by device id
            ones = np.ones_like(active_ids)
            served, first, _ = schedule(active_ids, *self._float_ages(), ones, ones,
                                        config.n_rbs)
            actions = np.zeros(config.n_devices, dtype=np.int64)
            actions[served] = first + 1
        else:
            actions = _game_actions(self, t, draws, active_ids)
        self.actions = actions
        tx = actions.nonzero()[0]
        return tx, actions[tx], np.ones_like(tx), 0

    def kappa(self, n_known: np.ndarray, n_active: int) -> np.ndarray:
        """``kappa(n_known, n_active, ...)`` of this run, read from its tables."""
        return np.where(n_known == n_active, self.shared_kappa[n_known - 1],
                        self.partial_kappa[n_known - 1])

    def _float_ages(self) -> tuple[np.ndarray, np.ndarray]:
        """This slot's future ages as float64 (inf past 2**1024) and their log2.

        The log2 is exact where the age saturated (a power of two there).
        """
        if self.ages_cache is None:
            horizon = self.t + self.config.beta
            self.ages_cache = (aoi_array(self.exponential, horizon, self.gen),
                               horizon - 1 - self.gen)
        return self.ages_cache

    def _future_ages(self) -> list:
        """Exact future ages of this slot's active devices (0: idle), for the trace."""
        future = [0] * self.config.n_devices
        horizon = self.t + self.config.beta
        for i, exponential, gen in zip(self.ids.tolist(), self.exponential.tolist(),
                                       self.gen.tolist()):
            future[i] = aoi_value(KINDS[exponential], horizon, gen)
        return future

    def feedback(self, ids, outcomes, delivered, claims) -> None:
        self.last_action = self.actions
        self.last_failed = np.zeros(self.config.n_devices, dtype=bool)
        self.last_failed[ids[outcomes != SUCCESS]] = True
        if self.config.trace:
            self.trace_unused.append(self.config.n_rbs
                                     - int(np.count_nonzero(claims)))

    def trace(self) -> dict:
        active = np.zeros(self.config.n_devices, dtype=bool)
        active[self.ids] = True
        return {"unused_rbs": self.trace_unused,
                "final": {"actions": self.actions.tolist(),
                          "future_aoi": self._future_ages(),
                          "active": active.tolist()}}


def _transmitters(stack: _DistributedStack) -> np.ndarray:
    """Which of the slot's active devices reach their transmit threshold.

    Full range ranks exact ages: past float range by their exponents. Partial
    range counts, per device, the in-range active ages above its own, as
    floats: exact ages beyond float range saturate to inf, which keeps the
    ties-transmit rule intact.
    """
    ids = stack.ids
    n_active = len(ids)
    if stack.neighbors is None:
        k = stack.shared_kappa[n_active - 1]
        if k >= n_active:           # the threshold is the smallest age
            return np.ones(n_active, dtype=bool)
        ages, exponents = stack._float_ages()
        return reaches_threshold(ages, k, exponents=exponents)
    # row r marks the ages device ids[r] knows
    known = stack.neighbors[ids][:, ids]
    ks = stack.kappa(known.sum(axis=1, dtype=np.int32), n_active)
    return reaches_threshold(stack._float_ages()[0], ks, known)


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
