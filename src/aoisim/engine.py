"""Time-slotted simulation loop binding devices, channel, and an allocation stack.

Slot structure: devices active at the start of a slot contend for RBs, the
channel resolves, completed messages are delivered and recorded, and only
then do idle devices draw fresh activations (generation slot = current
slot). A new message is therefore first transmitted one slot after its
generation and every delivery age is at least 1. Activation draws also run
once before the first slot (generation slot 0), so with v_a = 1 the cell is
busy from slot 1 on.

Static draws (positions, latent types, per-device SNR) come from one
generator seeded with the scenario seed. Every in-loop draw instead is a
uniform keyed by (seed, slot, phase, device) (``SlotDraws``), handed to each
rule aligned with the ids it decides for, so equal configs give
byte-identical results and runs that share a seed but differ in mode see
identical device-level randomness (common random numbers); mode comparisons
on matched seeds then differ only where the allocation decisions actually
differ. Lanes of one slot loop that share a seed share its draws: a slot's
phase builds one ``Generator`` per distinct seed holding ids.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import centralized
from .aging import aoi_array, aoi_value
from .centralized import (KIND_UNKNOWN, KINDS, NO_TYPE, TypeLearner,
                          identify_aging, learn_type, rach_phase, schedule,
                          tie_class)
from .channel import (SUCCESS, outage_table, resolve_transmissions,
                      sample_heterogeneous_snr, snr_db_to_linear)
from .devices import (PendingMessages, TypeId, activate, deliver_success,
                      make_devices)
from .distributed import (delegate_target, kappa, random_selection,
                          reaches_threshold, sca_step)
from .planner import first_parts


# draw phases within a slot; the (seed, slot, phase) triple seeds one vector
_PH_ACTIVATE = 0
_PH_KIND = 1
_PH_SIZE = 2
_PH_RACH = 3
_PH_OUTAGE = 4
_PH_DECIDE = 5
_PH_FRESH = 6
_PH_DELEGATE = 7

# numpy's SeedSequence constants (pool of four uint32 words, 32-bit hashes)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_POOL_SIZE = 4
_N_PHASES = 8
_STATE_BLOCK = 256
# distinct seeds whose words one seed_states pass computes: the largest
# group that keeps a block fill of 30 seeds under 2.5 MiB traced (BENCH_13.json)
_FILL_LANES = 3


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

    # each step writes into the one array it has just made or may overwrite
    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> shift
        return value

    def mix(x, y):
        x *= np.uint32(_MIX_MULT_L)
        y *= np.uint32(_MIX_MULT_R)
        x -= y
        x ^= x >> shift
        return x

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
        value *= np.uint32(hash_const)
        value ^= value >> shift
        state[:, i_dst] = value
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


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
    """The in-loop uniforms of a slot loop's lanes, served to the ids that read them.

    Lane l runs seed seeds[l] on n_devices devices, ids l * n_devices to
    (l + 1) * n_devices - 1. Device i of lane l draws entry i of the stream
    of ``default_rng(SeedSequence([seeds[l], slot, phase])).random(n_devices)``,
    a pure function of (seed, slot, phase), so a device keeps its draw across
    modes run with the same seed even when the modes consume different
    phases or diverge in state, and lanes that share a seed share its
    vector. The seed words of every distinct seed for a block of up to
    min(256, slots + 1) slots are computed when a slot outside the current
    block is asked for, a few seeds per ``seed_states`` pass. A call builds
    one generator per distinct seed holding ids (one seed: no lane bookkeeping).
    """

    __slots__ = ("_seed_words", "_seeds", "_source", "_block", "_first", "_end", "_states")

    def __init__(self, seeds, n_devices: int, slots: int):
        seeds, index = list(seeds), {}
        for seed in seeds:
            index.setdefault(seed, len(index))
        self._seed_words = [_uint32_words(seed) for seed in index]
        # the distinct seeds' vectors end to end, as lanes with no RBs; device i
        # of lane l reads their entry _source[l * N + i] (None: seeds distinct)
        self._seeds = _Lanes(len(index), n_devices, 0)
        self._source = None
        if len(index) < len(seeds):
            distinct = [index[seed] for seed in seeds]
            self._source = (self._seeds.starts[distinct, None] + np.arange(n_devices)).ravel()
        self._block = min(_STATE_BLOCK, slots + 1)
        self._first = self._end = 0
        self._states = None

    def _fill(self, first: int) -> None:
        # a block never mixes slots of different word counts
        n_words = len(_uint32_words(first))
        end = min(first + self._block, 1 << (32 * n_words))
        slots = np.arange(first, end, dtype=np.uint64)
        rows = len(slots) * _N_PHASES
        # the entropy after the seed of each (slot, phase) row: slot words, phase
        tail = [np.repeat((slots >> np.uint64(32 * j)) & np.uint64(_MASK32),
                          _N_PHASES).astype(np.uint32) for j in range(n_words)]
        tail.append(np.tile(np.arange(_N_PHASES, dtype=np.uint32), len(slots)))
        # row (slot, phase) holds every distinct seed's words; one pass per
        # group of seeds of one width, so the temporaries do not grow with them
        if self._states is None or len(self._states) != rows:
            self._states = np.empty((rows, len(self._seed_words), 4), dtype=np.uint64)
        for width in {len(words) for words in self._seed_words}:
            members = [k for k, words in enumerate(self._seed_words)
                       if len(words) == width]
            for start in range(0, len(members), _FILL_LANES):
                group = members[start:start + _FILL_LANES]
                seeds = np.array([self._seed_words[k] for k in group],
                                 dtype=np.uint32)
                columns = [np.tile(seeds[:, j], rows) for j in range(width)]
                columns += [np.repeat(column, len(group)) for column in tail]
                self._states[:, group] = seed_states(np.column_stack(columns)).reshape(
                    rows, len(group), 4)
        self._first, self._end = first, end

    def vec(self, slot: int, phase: int, ids: np.ndarray) -> np.ndarray:
        """The uniforms of (slot, phase) of the devices ids, aligned with ids.

        Only the seeds of the lanes holding ids draw, each once, so a lane
        never draws a phase its mode does not consume.
        """
        if not self._first <= slot < self._end:
            self._fill(slot)
        states, seeds = self._states[(slot - self._first) * _N_PHASES + phase], self._seeds
        if self._source is not None:
            ids = self._source[ids]
        if seeds.count == 1 and len(ids):
            return _Generator(_PCG64(_SeedWords(states[0]))).random(seeds.N)[ids]
        out = np.empty(seeds.count * seeds.N)
        for k, count in enumerate(seeds.counts(ids)):
            if count:
                _Generator(_PCG64(_SeedWords(states[k]))).random(
                    seeds.N, out=out[seeds.devices(k)])
        return out[ids]


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


def _usable_snr_db(db: float) -> bool:
    """Whether a dB value converts to a positive, finite linear SNR."""
    if not math.isfinite(db):
        return False
    try:
        linear = snr_db_to_linear(db)
    except OverflowError:
        return False
    return 0.0 < linear < math.inf


# the largest look-ahead validate() accepts: from about 1,100 on every exponential
# future age is inf, while from 2**31 on ldexp and int64 overflow
MAX_BETA = 1 << 16


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
    zeta: float = 1.2
    r_c: float = 15.0
    width: float = 10.0
    length: float = 10.0
    warmup_fraction: float = 0.1

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
            (1 <= self.beta <= MAX_BETA, f"beta must be in [1, {MAX_BETA}]"),
            (self.preambles >= 1, "preambles must be >= 1"),
            (self.n_rbs_max >= 1, "n_rbs_max must be >= 1"),
            (self.n_rbs_max <= self.n_rbs, "n_rbs_max cannot exceed n_rbs"),
            (1 <= self.n_rbs_min <= self.n_rbs_max,
             "need 1 <= n_rbs_min <= n_rbs_max"),
            (self.zeta > 0, "zeta must be positive"),
            (self.r_c >= 0, "r_c must be >= 0"),
            (0 < self.width < math.inf and 0 < self.length < math.inf,
             "cell dimensions must be positive and finite"),
            # squared distances must not overflow to inf, where every pair
            # would read as in range
            (self.width * self.width + self.length * self.length < math.inf,
             "the cell's squared diagonal width**2 + length**2 must be finite"),
            (0.0 <= self.warmup_fraction < 1.0, "warmup_fraction must be in [0,1)"),
            (isinstance(self.mode, Mode), "mode must be a Mode"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        if not self.mode.centralized and self.n_rbs_max != 1:
            raise ConfigError("multi-RB messages are a centralized-only feature")
        snr_fields = ["mean_snr_db"]
        if self.heterogeneous_power:
            snr_fields += ["hetero_snr_low_db", "hetero_snr_high_db"]
        for name in snr_fields:
            if not _usable_snr_db(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite dB value whose "
                                  "linear SNR is positive and finite")
        if self.heterogeneous_power and self.hetero_snr_low_db > self.hetero_snr_high_db:
            raise ConfigError("hetero_snr_low_db cannot exceed hetero_snr_high_db")


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
    """A run's config, summary, trace and records; the records are built from
    the run's tallies when first read, so a summary reader never builds them.
    Every run has a trace, in its stack's schema (each stack's ``trace``)."""
    config: ScenarioConfig
    summary: RunSummary
    trace: dict
    _tallies: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def records(self) -> list[SlotRecord]:
        return _slot_records(*self._tallies)


def _safe_mean(total, count) -> float | None:
    """Mean of exact integer/float ages; huge exponential sums degrade to inf."""
    if count == 0:
        return None
    try:
        return total / count
    except OverflowError:
        return math.inf


_NO_IDS = np.zeros(0, dtype=np.int64)


# a row selector that takes every entry (a view, no copy)
_ALL = slice(None)


class _Lanes:
    """The device-id and RB layout of a slot loop's lanes, read only through here.

    Lane l holds the device ids l * N to l * N + N - 1 and, for each lane-local
    RB b in 0..R-1, the channel RB l * R + b. One lane takes a fast path in
    every method, with no lane bookkeeping.
    """

    __slots__ = ("count", "N", "R", "starts", "_keys")

    def __init__(self, count: int, N: int, R: int):
        self.count, self.N, self.R = count, N, R
        self.starts = np.arange(count + 1) * N
        self._keys = {}

    def of(self, ids: np.ndarray) -> np.ndarray | None:
        """The lane of each of ids; None for one lane."""
        return None if self.count == 1 else ids // self.N

    def counts(self, ids: np.ndarray, lane: np.ndarray | None = None) -> list[int]:
        """How many of ids fall in each lane; lane, when given, is ``of(ids)``."""
        if self.count == 1:
            return [len(ids)]
        return np.bincount(ids // self.N if lane is None else lane,
                           minlength=self.count).tolist()

    def bounds(self, sorted_ids: np.ndarray) -> list[int]:
        """sorted_ids[bounds[l]:bounds[l + 1]] are lane l's entries."""
        if self.count == 1:
            return [0, len(sorted_ids)]
        return np.searchsorted(sorted_ids, self.starts).tolist()

    def mask(self, hit: list[bool]):
        """Which devices sit in a lane l with hit[l]: None when no lane is hit,
        _ALL when every lane is, and otherwise a bool mask over every device."""
        if not any(hit):
            return None
        if all(hit):
            return _ALL
        return np.repeat(hit, self.N)

    def histogram(self, values: np.ndarray, width: int, unit: int,
                  index: np.ndarray | None = None) -> np.ndarray:
        """Each lane's counts of values in 0..width - 1, a (count, width) array;
        value i sits in lane index[i] // unit, index defaulting to i."""
        if self.count == 1:
            return np.bincount(values, minlength=width)[None]
        if index is not None:
            keys = index // unit * width
        elif (keys := self._keys.get((unit, width))) is None:
            # kept: a slot loop asks for the same few (unit, width) every slot
            keys = self._keys[unit, width] = np.arange(self.count * unit) // unit * width
        return np.bincount(keys[:len(values)] + values,
                           minlength=self.count * width).reshape(self.count, width)

    def age_sums(self, ids: np.ndarray, ages: np.ndarray,
                 exponential: np.ndarray) -> list[int]:
        """Each lane's exact sum (a Python int) of the delivery ages of ids,
        ids[j]'s message being ages[j] slots old: linear ages add up in int64,
        and exponential ones, 2**(k - 1) at k slots, as Python ints, one shift
        per (lane, k) group, so the sums stay exact past 2**1024."""
        linear = np.where(exponential, 0, ages)
        if self.count == 1:
            sums, keys = [int(linear.sum())], ages[exponential]
        else:
            lane = ids // self.N
            sums = np.zeros(self.count, dtype=np.int64)
            np.add.at(sums, lane, linear)
            sums, keys = sums.tolist(), (ages * self.count + lane)[exponential]
        # a Counter groups the few (k, lane) keys of a slot faster than np.unique
        for key, n in Counter(keys.tolist()).items():
            k, lane = divmod(key, self.count)
            sums[lane] += n << (k - 1)
        return sums

    def devices(self, lane: int) -> slice:
        """Lane lane's device ids, as a slice of every device."""
        return slice(lane * self.N, (lane + 1) * self.N)

    def on_channel(self, ids: np.ndarray, rbs: np.ndarray) -> np.ndarray:
        """The channel RB of each device of ids on its lane-local RB rbs."""
        return rbs if self.count == 1 else rbs + ids // self.N * self.R


def _rows(mask, ids: np.ndarray):
    """The selector of ids under a ``_Lanes.mask``: None, _ALL or a bool mask."""
    return mask if mask is None or mask is _ALL else mask[ids]


def _activation_sweep(messages: PendingMessages, p_linear: np.ndarray, t: int,
                      config: ScenarioConfig, draws: SlotDraws) -> np.ndarray:
    """Activate idle devices whose draw falls below v_a; returns their ids.

    Each phase is drawn only when the slot needs it: the activation coin
    for the idle devices, the kind and size for the activated ones. At
    v_a = 1 every idle device activates and at v_a = 0 none does, so
    neither draws the coin.
    """
    idle = (messages.rbs_left == 0).nonzero()[0]
    if config.v_a == 0.0 or not len(idle):
        return _NO_IDS
    hits = (idle if config.v_a >= 1.0
            else idle[draws.vec(t, _PH_ACTIVATE, idle) < config.v_a])
    if len(hits):
        size_u = (draws.vec(t, _PH_SIZE, hits)
                  if config.n_rbs_max > config.n_rbs_min else 0.0)
        activate(messages, hits, t, draws.vec(t, _PH_KIND, hits), p_linear[hits],
                 config.n_rbs_max, size_u, config.n_rbs_min)
    return hits


# a lane's tallies of a slot: active devices, transmissions by outcome code
# (SUCCESS, DUPLICATE, OUTAGE), RACH losses, deliveries, RBs with one claimant
# and RBs with two or more (crowded)
_ACTIVE, _OUTCOMES, _RACH, _DELIVERED, _SINGLE, _CROWDED, _N_TALLIES = 0, 1, 4, 5, 6, 7, 8


def _summary(tallies: np.ndarray, totals: list, R: int, warmup_slots: int) -> RunSummary:
    """A lane's summary from its (slots, _N_TALLIES) tallies and the exact
    age totals (Python ints) of its slots."""
    slots = len(tallies)
    count = tallies.sum(axis=0).tolist()
    post = int(tallies[warmup_slots:, _DELIVERED].sum())
    rates = tallies[:, _SINGLE] / R
    # added slot by slot from 0.0, as a running total adds them (np.sum adds
    # pairwise, and sum() compensates from Python 3.12); none after a full warm-up
    rate, post_rate = (float(part.cumsum()[-1]) if len(part) else 0.0
                       for part in (rates, rates[warmup_slots:]))
    return RunSummary(
        slots=slots, warmup_slots=warmup_slots, deliveries=count[_DELIVERED],
        deliveries_postwarmup=post,
        mean_delivery_aoi=_safe_mean(sum(totals), count[_DELIVERED]),
        mean_delivery_aoi_postwarmup=_safe_mean(sum(totals[warmup_slots:]), post),
        mean_service_rate=rate / max(1, slots),
        mean_service_rate_postwarmup=post_rate / max(1, slots - warmup_slots),
        rach_failures=count[_RACH], duplicate_failures=count[_OUTCOMES + 1],
        outage_failures=count[_OUTCOMES + 2])


def _slot_records(tallies: np.ndarray, totals, R: int) -> list[SlotRecord]:
    """A lane's records from its (slots, _N_TALLIES) tallies and exact age totals."""
    records, cum_total, cum_deliveries = [], 0, 0
    for t, (row, total) in enumerate(zip(tallies, totals), 1):
        n_active, n_success, duplicate, outage, rach, n_delivered, n_single, _ = row.tolist()
        cum_total, cum_deliveries = cum_total + total, cum_deliveries + n_delivered
        records.append(SlotRecord(
            t, _safe_mean(total, n_delivered), _safe_mean(cum_total, cum_deliveries),
            n_single / R, n_active, n_success + duplicate + outage, rach, duplicate,
            outage))
    return records


def run(config: ScenarioConfig) -> RunResult:
    """Simulate one scenario; deterministic in (config, seed)."""
    return run_many([config])[0]


def _shares_loop(a: ScenarioConfig, b: ScenarioConfig) -> bool:
    """Whether run_many runs a and b as lanes of one slot loop: they differ
    only in seed and in mode, and both modes belong to one stack."""
    return (a.mode.centralized == b.mode.centralized
            and replace(b, seed=a.seed, mode=a.mode) == a)


def run_many(configs) -> list[RunResult]:
    """Simulate configs that differ only in seed and mode, as lanes of one slot loop.

    The modes must belong to one stack (``_shares_loop``); any other batch,
    and an empty one, raises ``ConfigError``. Returns one result per config,
    in order, each equal to what a run of that config alone gives. Lane l
    holds config l in the layout of one ``_Lanes``: devices l * N to
    l * N + N - 1, and the channel RBs l * R + b for the lane-local RBs b
    the stacks pick. Each lane keeps its own positions, latent types, mean
    SNRs and draw seed, so its draws and outcomes are those of the lone
    run, and its mode is a mask over its devices within the stack's one
    slot path. One ``SlotDraws`` serves every lane: each rule is handed the
    uniforms of the ids it decides for, so a lane draws a phase only when
    its mode consumes it. run_many takes any number of lanes; sweeps and
    presets cap theirs with ``loop_batches``.

    One slot loop serves both stacks, its array work shared by the lanes. In
    a slot the stack picks who transmits on which RBs of its lane
    (allocate), the channel resolves, ``deliver_success`` credits the
    received RBs and the stack learns the outcome (feedback), all on one
    ``PendingMessages`` set of arrays, before idle devices draw fresh
    activations. A slot's counts are a row of every lane's integer tallies,
    beside each lane's exact age sum (``_Lanes.age_sums``); a lane's
    summary, trace and (when first read) records come from its own slice.
    """
    configs = list(configs)
    if not configs:
        raise ConfigError("run_many needs at least one config")
    base = configs[0]
    for config in configs:
        config.validate()
        if not _shares_loop(base, config):
            raise ConfigError("run_many runs configs that differ only in seed "
                              "and in mode within one stack")
    lanes = _Lanes(len(configs), base.n_devices, base.n_rbs)
    N = lanes.N
    modes = [config.mode for config in configs]
    columns = []
    for config in configs:
        # a lane's static draws, in stream order: positions, latent types,
        # then mean SNRs
        rng = np.random.default_rng(config.seed)
        lane = make_devices(N, config.type1_fraction, config.m1, config.m2,
                            config.width, config.length, rng)
        if config.heterogeneous_power:
            snr = sample_heterogeneous_snr(N, config.hetero_snr_low_db,
                                           config.hetero_snr_high_db, rng)
        else:
            snr = np.full(N, snr_db_to_linear(config.mean_snr_db))
        columns.append((*lane, snr))
    positions, types, p_linear, snr = map(np.concatenate, zip(*columns))
    draws = SlotDraws([config.seed for config in configs], N, base.slots)
    messages = PendingMessages(lanes.count * N)
    p_outage = outage_table(snr, base.epsilon, base.n_rbs_max)
    # where no transmission can fail on the channel (epsilon = 0) the outage
    # uniforms decide nothing, so they are not drawn: u < 0 never holds
    can_fail = bool((p_outage[:, 1:] > 0).any())
    stack = (_CentralizedStack(base, lanes, types, p_outage, messages, modes)
             if base.mode.centralized
             else _DistributedStack(base, lanes, positions, messages, modes))
    # each slot's row of tallies and exact age totals (``_summary``)
    tallies = np.zeros((base.slots, lanes.count, _N_TALLIES), dtype=np.int64)
    totals: list[int] = []

    _activation_sweep(messages, p_linear, 0, base, draws)
    for t in range(1, base.slots + 1):
        active_ids = messages.rbs_left.nonzero()[0]
        n_active = lanes.counts(active_ids)
        ids, first, n_rbs, rach_failures = stack.allocate(t, active_ids, n_active, draws)
        outcomes, claims = resolve_transmissions(
            ids, lanes.on_channel(ids, first), n_rbs, p_outage,
            draws.vec(t, _PH_OUTAGE, ids) if can_fail else 0.0)
        ok = outcomes == SUCCESS
        delivered = deliver_success(messages, ids[ok], n_rbs[ok])
        stack.feedback(ids, outcomes, delivered)

        tally = tallies[t - 1]
        tally[:, _ACTIVE] = n_active
        tally[:, _OUTCOMES:_RACH] = lanes.histogram(outcomes, 3, N, ids)
        tally[:, _RACH] = rach_failures
        tally[:, _DELIVERED] = lanes.counts(delivered)
        # each lane's RBs by claimants: none, one (single), more (crowded)
        tally[:, _SINGLE:] = lanes.histogram(np.minimum(claims, 2), 3, base.n_rbs)[:, 1:]
        totals += lanes.age_sums(delivered, t - messages.gen_slot[delivered],
                                 messages.exponential[delivered])
        _activation_sweep(messages, p_linear, t, base, draws)

    warmup_slots = int(base.slots * base.warmup_fraction)
    results = []
    for lane, config in enumerate(configs):
        own = (tallies[:, lane], totals[lane::lanes.count], base.n_rbs)
        results.append(RunResult(config=config, summary=_summary(*own, warmup_slots),
                                 trace=stack.trace(lane, own[0]), _tallies=own))
    return results


# ---------------------------------------------------------------------------
# Centralized stack
# ---------------------------------------------------------------------------

class _CentralizedStack:
    """Request phase, split plan and type learning, priority schedule.

    The stack reads the pending messages from the engine's arrays and keeps
    what the scheduler knows about them in per-device arrays of its own,
    which feedback resets on delivery. A slot then ranks its RACH survivors
    with a few array operations. types (``TypeId`` values) and p_outage
    (the run's ``outage_table``) hold every device of every lane, in lane
    order; every lane has its own RACH and its own R RBs. modes holds each
    lane's mode: it selects what the scheduler knows of the lane's requests.
    """

    def __init__(self, config: ScenarioConfig, lanes: _Lanes, types: np.ndarray,
                 p_outage: np.ndarray, messages: PendingMessages,
                 modes: list[Mode]):
        self.config = config
        self.lanes = lanes
        self.messages = messages
        n = len(types)
        self.full_info = lanes.mask([m is Mode.CENTRALIZED_FULL_INFO for m in modes])
        self.learning = lanes.mask([m is Mode.CENTRALIZED_LEARNING for m in modes])
        self.learner = TypeLearner(m1=config.m1, m2=config.m2,
                                   p_type1=config.type1_fraction, n_devices=n)
        self.true_type = types
        # scheduler-side knowledge under learning: the identified kind of the
        # pending message (reset on delivery) and the device's ML type
        # estimate (it moves only on observe)
        self.known_kind = np.full(n, KIND_UNKNOWN, dtype=np.int8)
        self.est_type = np.full(n, NO_TYPE, dtype=np.int8)
        # slot (-1: none) and age of the last report of each unresolved message
        self.last_slot = np.full(n, -1, dtype=np.int64)
        self.last_age = np.zeros(n)
        # the RBs a message sends this slot, per (device, RBs left): the
        # first part of its best split under the device's outage probabilities
        self.first_split = first_parts(p_outage)

    def allocate(self, t: int, active_ids: np.ndarray, n_active: list[int],
                 draws: SlotDraws):
        """Slot t's transmitters, their lane-local RB ranges, each lane's RACH losses."""
        config, messages, lanes = self.config, self.messages, self.lanes
        survivors = rach_phase(active_ids, draws.vec(t, _PH_RACH, active_ids),
                               config.preambles, config.rach_exact,
                               lanes.of(active_ids))
        gen = messages.gen_slot[survivors]
        exponential = messages.exponential[survivors]
        ages = aoi_array(exponential, t, gen)           # the reported ages
        # what the base station knows of each request, by its lane's mode:
        # the mode's only effect. No learning knows nothing.
        kinds = np.full(len(survivors), KIND_UNKNOWN, dtype=np.int8)
        types = np.full(len(survivors), NO_TYPE, dtype=np.int8)
        full = _rows(self.full_info, survivors)
        if full is not None:
            kinds[full] = exponential[full]         # true kinds (KINDS codes)
            types[full] = self.true_type[survivors[full]]
        learn = _rows(self.learning, survivors)
        if learn is not None:
            kinds[learn] = self._identify(t, survivors[learn], ages[learn])
            types[learn] = self.est_type[survivors[learn]]
        # called through the module, where perfbench/tracer.py times it
        keys = centralized.priority_key(ages, kinds, types, self.learner, config.beta)
        needed = self.first_split[survivors, messages.rbs_left[survivors]]
        survivor_lanes = lanes.of(survivors)
        served, first, end = schedule(survivors, keys, t + config.beta - 1 - gen,
                                      tie_class(types, self.learner),
                                      needed, config.n_rbs, survivor_lanes)
        return served, first, end - first, np.subtract(
            n_active, lanes.counts(survivors, survivor_lanes))

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
        if new.any():
            found_ids = ids[new]
            self.learner.observe(found_ids, found[new])
            self.est_type[found_ids] = learn_type(self.learner, found_ids)
        return kinds

    def feedback(self, ids, outcomes, delivered) -> None:
        # what the scheduler learned about a message goes with its delivery
        self.known_kind[delivered] = KIND_UNKNOWN
        self.last_slot[delivered] = -1

    def trace(self, lane: int, tallies: np.ndarray) -> dict:
        devices = self.lanes.devices(lane)
        counts = self.learner.counts[devices]
        observed = np.flatnonzero(counts.sum(axis=1)).tolist()
        types = self.true_type[devices].tolist()
        return {"learner_counts": {i: tuple(counts[i].tolist()) for i in observed},
                "latent_types": {i: TypeId(code) for i, code in enumerate(types)}}


# ---------------------------------------------------------------------------
# Distributed stack
# ---------------------------------------------------------------------------

# the float64 entries of one row block of _neighbor_matrix's distances (1 MiB)
_NEIGHBOR_BLOCK = 1 << 17
# the largest share of a game lane's device pairs out of range that makes
# _DistributedStack list the unheard pairs of its batch; a batch whose game
# lanes all miss more keeps their dense blocks (crossover measured on
# N = 200 and 1,000 cells, BENCH_14.json)
_PAIR_SHARE = 0.15


def _neighbor_matrix(xy: np.ndarray, r_c: float) -> np.ndarray | None:
    """Boolean adjacency (self included) of the positions xy, or None when
    the range covers them all.

    Pair (i, j) is in range when (x_i - x_j)**2 + (y_i - y_j)**2 <= r_c**2,
    computed a block of rows at a time, so no N x N float array exists.
    """
    span = xy.max(axis=0) - xy.min(axis=0)
    if r_c >= math.hypot(span[0], span[1]):
        return None
    x, y = xy.T
    near = np.empty((len(xy), len(xy)), dtype=bool)
    step = max(1, _NEIGHBOR_BLOCK // len(xy))
    for lo in range(0, len(xy), step):
        distance = x[lo:lo + step, None] - x
        distance *= distance
        dy = y[lo:lo + step, None] - y
        dy *= dy
        distance += dy
        np.less_equal(distance, r_c * r_c, out=near[lo:lo + step])
    return near


def _misses_few(block: np.ndarray | None) -> bool:
    """Whether a lane's neighbor block (None: the range covers its devices)
    misses at most _PAIR_SHARE of its device pairs."""
    if block is None:
        return True
    n = len(block)
    # the block is symmetric with a true diagonal
    return (block.size - np.count_nonzero(block)) // 2 <= _PAIR_SHARE * (n * (n - 1) // 2)


class _DistributedStack:
    """Minority-game transmit rule with SCA or random RB picks, or the rank map.

    Each slot reads the active devices' pending messages from the engine's
    arrays; their future ages become float64 arrays when a decision needs
    them, and each device's last RB and whether it failed are arrays that
    feedback writes. A slot's decisions are then a few array operations
    over the active devices.

    positions holds the devices of every lane in lane order. A device only
    ever hears devices of its own lane. A device's action is its RB label,
    1..R (0: silent), in its own lane; allocate returns its lane-local RB.
    The batch hears in one form, set by its game lanes. It is listed once
    one game lane's range covers its devices' span or misses at most
    _PAIR_SHARE of its pairs: unheard then lists the out-of-range pairs
    (i < j) of every game lane, as global ids, and the lanes decide in one
    pass, taking the unheard pairs' share from what their whole lane gives;
    full_range says no lane misses a pair. Otherwise the batch is dense:
    dense holds (lane, adjacency matrix) for every game lane, and the lanes
    decide one by one. Where a lane's range covers its devices' span
    (exact, a ``_Lanes.mask``) the threshold ranks saturated ages by
    exponent; every other lane ties them as inf.

    modes holds each lane's mode. Predetermined lanes go through the rank
    map alone and never set the form; the game lanes share
    the transmit threshold, after which random lanes pick uniformly and SCA
    lanes delegate, keep and step. Each of predetermined, game, random and
    sca is a ``_Lanes.mask`` over the devices.
    """

    def __init__(self, config: ScenarioConfig, lanes: _Lanes, positions: np.ndarray,
                 messages: PendingMessages, modes: list[Mode]):
        self.config = config
        self.lanes = lanes
        self.messages = messages
        n, size = config.n_devices, len(positions)
        ranked = [m is Mode.DISTRIBUTED_PREDETERMINED for m in modes]
        self.predetermined, self.game = lanes.mask(ranked), lanes.mask([not r for r in ranked])
        self.random = lanes.mask([m is Mode.DISTRIBUTED_RANDOM for m in modes])
        self.sca = lanes.mask([m is Mode.DISTRIBUTED_SCA for m in modes])
        # the rank-to-RB baseline is defined only under full information.
        # One block is built at a time; once the batch is listed, each block
        # (the kept ones included) lists its devices' unheard partners, row
        # d's misses being device d's, and is dropped
        blocks, exact, missed, listed = [], [], [_NO_IDS], False
        count = np.zeros(size, dtype=np.int64)
        for lane, mode in enumerate(modes):
            game = mode is not Mode.DISTRIBUTED_PREDETERMINED
            block = (_neighbor_matrix(positions[lanes.devices(lane)], config.r_c)
                     if game else None)
            exact.append(block is None)
            listed = listed or game and _misses_few(block)
            if block is not None:
                blocks.append((lane, block))
            if listed:
                for i, kept in blocks:
                    count[lanes.devices(i)] = n - np.count_nonzero(kept, axis=1)
                    missed.append(np.nonzero(~kept)[1] + lanes.starts[i])
                blocks = []
        self.dense = blocks
        self.exact = lanes.mask(exact)
        # device d's unheard partners, ascending: partners[partner_start[d]:partner_end[d]]
        self.partners = np.concatenate(missed)
        del missed
        self.partner_end = np.cumsum(count)
        self.partner_start = self.partner_end - count
        # each unheard pair (i < j) once, in (i, j) order: the partners above
        # their device, taken a lane at a time so that the set-up peak holds
        # little more than the two lists
        self.unheard = np.empty((2, len(self.partners) // 2), dtype=np.int64)
        filled = 0
        for lane in range(lanes.count):
            devices = lanes.devices(lane)
            first, end = self.partner_start[devices.start], self.partner_end[devices.stop - 1]
            partners = self.partners[first:end]
            owners = np.arange(devices.start, devices.stop).repeat(count[devices])
            above = owners < partners
            k = filled + np.count_nonzero(above)
            self.unheard[0, filled:k] = owners[above]
            self.unheard[1, filled:k] = partners[above]
            filled = k
        self.full_range = not (self.dense or self.unheard.size)
        # the threshold rank of a device that knows n_known ages, at index
        # n_known - 1: when it knows every active device, and when it does not
        counts = np.arange(1, n + 1)
        self.shared_kappa = kappa(counts, counts, config.n_rbs, n, config.v_a,
                                  config.zeta)
        self.partial_kappa = kappa(counts, 0, config.n_rbs, n, config.v_a, config.zeta)
        self.last_action = np.zeros(size, dtype=np.int64)     # 0 = did not transmit
        self.last_failed = np.zeros(size, dtype=bool)
        self.actions = np.zeros(size, dtype=np.int64)
        self.no_rach_loss = [0] * lanes.count
        # this slot's active ids and the generation slots and aging kinds of
        # their messages; _float_ages keeps their future ages in ages_cache
        self.t = 0
        self.ids = _NO_IDS
        self.gen = _NO_IDS
        self.exponential = np.zeros(0, dtype=bool)
        self.ages_cache = None

    def _dense_lanes(self, sorted_ids: np.ndarray):
        """(lane, block, lo, hi) of each dense lane holding some of sorted_ids,
        its entries being sorted_ids[lo:hi]."""
        bounds = self.lanes.bounds(sorted_ids)
        for lane, block in self.dense:
            if bounds[lane] < bounds[lane + 1]:
                yield lane, block, bounds[lane], bounds[lane + 1]

    def _unheard_among(self, ids: np.ndarray) -> np.ndarray:
        """The unheard pairs of two devices of the sorted ids, as the columns
        (i, j) of a (2, P) array of indices into ids, ids[i] < ids[j]."""
        where = np.full(len(self.actions), -1)
        where[ids] = np.arange(len(ids))
        pairs = where[self.unheard]
        return pairs.compress(np.minimum(*pairs) >= 0, axis=1)

    def _partners_of(self, rows: np.ndarray):
        """(r, d) for every unheard partner d of every device rows[r]."""
        start = self.partner_start[rows]
        count = self.partner_end[rows] - start
        r = np.arange(len(rows)).repeat(count)
        # partner k of row r: entry start[r] + k, output position cumsum[r] - count[r] + k
        entry = np.arange(len(r)) + (start + count - count.cumsum()).repeat(count)
        return r, self.partners[entry]

    def allocate(self, t: int, active_ids: np.ndarray, n_active: list[int],
                 draws: SlotDraws):
        """Slot t's transmitters, their lane-local RBs (ranges of one), no RACH loss."""
        config, messages = self.config, self.messages
        self.t, self.ids = t, active_ids
        self.gen = messages.gen_slot[active_ids]
        self.exponential = messages.exponential[active_ids]
        self.ages_cache = None
        actions = np.zeros(len(self.actions), dtype=np.int64)
        if len(active_ids):
            pred = _rows(self.predetermined, active_ids)
            if pred is not None:
                # the k-th highest future age transmits on RB k, ties by device id
                ids = active_ids[pred]
                ages, exponents = self._float_ages()
                ones = np.ones_like(ids)
                served, first, _ = schedule(ids, ages[pred], exponents[pred], ones,
                                            ones, config.n_rbs, self.lanes.of(ids))
                actions[served] = first + 1
            if self.game is not None:
                _game_actions(self, t, draws, actions)
        self.actions = actions
        tx = actions.nonzero()[0]
        return tx, actions[tx] - 1, np.ones_like(tx), self.no_rach_loss

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

    def feedback(self, ids, outcomes, delivered) -> None:
        self.last_action = self.actions
        self.last_failed = np.zeros(len(self.actions), dtype=bool)
        self.last_failed[ids[outcomes != SUCCESS]] = True

    def trace(self, lane: int, tallies: np.ndarray) -> dict:
        """The lane's unused RBs in every slot, read from its tallies, and its
        devices' actions, exact future ages (0: idle) and activity at the last slot."""
        n, devices = self.config.n_devices, self.lanes.devices(lane)
        lo, hi = self.lanes.bounds(self.ids)[lane:lane + 2]
        local = self.ids[lo:hi] - devices.start
        future = [0] * n
        horizon = self.t + self.config.beta
        for i, exponential, gen in zip(local.tolist(), self.exponential[lo:hi].tolist(),
                                       self.gen[lo:hi].tolist()):
            future[i] = aoi_value(KINDS[exponential], horizon, gen)
        active = np.zeros(n, dtype=bool)
        active[local] = True
        unused = self.config.n_rbs - tallies[:, _SINGLE] - tallies[:, _CROWDED]
        return {"unused_rbs": unused.tolist(),
                "final": {"actions": self.actions[devices].tolist(),
                          "future_aoi": future, "active": active.tolist()}}


def _reaching(stack: _DistributedStack, game) -> np.ndarray:
    """Which of the slot's active devices reach their transmit threshold.

    game (a ``_rows`` selector) picks the active devices of the game lanes;
    the threshold runs on those alone, and every other device reads False.
    Each device ranks its own lane only. In a listed batch a device knows
    its lane's active ages but those of its unheard partners, and every
    lane ranks in one pass. Ages past float range rank by exponent where
    the lane is exact and tie as inf elsewhere: no exponents are passed,
    or, beside exact lanes, they all read 1024, the first exponent past
    float range. A dense batch counts, per device, the in-range active
    ages above its own, as floats, lane by lane.
    """
    if stack.dense:
        # the dense lanes are the game lanes: other rows stay False
        passing = np.zeros(len(stack.ids), dtype=bool)
        ages = stack._float_ages()[0]
        for lane, block, lo, hi in stack._dense_lanes(stack.ids):
            # row r marks the ages the lane's r-th active device knows
            local = stack.ids[lo:hi] - stack.lanes.devices(lane).start
            known = block[local][:, local]
            ks = stack.kappa(known.sum(axis=1, dtype=np.int32), hi - lo)
            passing[lo:hi] = reaches_threshold(ages[lo:hi], ks, known)
        return passing
    ids = stack.ids[game]
    if not len(ids):
        return np.zeros(len(stack.ids), dtype=bool)
    lanes = stack.lanes.of(ids)
    n_active = len(ids) if lanes is None else np.bincount(lanes)[lanes]
    if stack.full_range:
        k, unheard = stack.shared_kappa[n_active - 1], None
        # where k >= n_active the threshold is the smallest age; one lane
        # compares scalars, which need no reduction
        everyone = k >= n_active if lanes is None else (k >= n_active).all()
    else:
        unheard, everyone = stack._unheard_among(ids), False
        k = stack.kappa(n_active - np.bincount(unheard.ravel(), minlength=len(ids)),
                        n_active)
    if everyone:
        passing = np.ones(len(ids), dtype=bool)
    else:
        ages, exponents = (values[game] for values in stack._float_ages())
        exact = _rows(stack.exact, ids)
        exponents = (exponents if exact is _ALL else None if exact is None
                     else np.where(exact, exponents, 1024))
        passing = reaches_threshold(ages, k, exponents=exponents, lanes=lanes,
                                    unheard=unheard)
    if game is _ALL:
        return passing
    out = np.zeros(len(stack.ids), dtype=bool)
    out[game] = passing
    return out


def _delegate_picks(stack: _DistributedStack, delegators: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """The active device (column of stack.ids) inheriting each delegator's RB.

    -1 where a delegator has no active neighbor. Candidates are the active
    devices of the delegator's lane within its range. A listed batch picks
    for every delegator at once: row r of the candidates spans the active
    devices of delegator r's lane, the widest lane setting the width, less
    its unheard partners. A dense batch picks lane by lane on its blocks.
    """
    ids = stack.ids
    ages, exponents = stack._float_ages()
    if stack.dense:
        picks = np.empty(len(delegators), dtype=np.intp)
        bounds = stack.lanes.bounds(ids)
        for lane, block, d_lo, d_hi in stack._dense_lanes(delegators):
            lo, hi = bounds[lane], bounds[lane + 1]
            # a delegator is idle, so it is never its own candidate
            start = stack.lanes.devices(lane).start
            candidates = block[delegators[d_lo:d_hi] - start][:, ids[lo:hi] - start]
            lane_picks = delegate_target(candidates, ages[lo:hi], exponents[lo:hi],
                                         u[d_lo:d_hi])
            picks[d_lo:d_hi] = np.where(lane_picks >= 0, lane_picks + lo, -1)
        return picks
    lanes = stack.lanes.of(delegators)
    if lanes is None:
        width, offset = len(ids), 0
        candidates = np.ones((len(delegators), width + 1), dtype=bool)
    else:
        bounds = np.array(stack.lanes.bounds(ids))
        count = np.diff(bounds)
        lo, width = bounds[lanes], int(count[lanes].max())
        offset = np.repeat(bounds[:-1], count)
        span = np.arange(width + 1)
        candidates = span < count[lanes, None]
        # row r, column c: the active device lo[r] + c, if its lane has one
        columns = np.minimum(lo[:, None] + span[:-1], len(ids) - 1)
        ages, exponents = ages[columns], exponents[columns]
    if not stack.full_range:
        # column[d]: active device d's place among its lane's active devices;
        # column width, past the candidates, takes every other device
        column = np.full(len(stack.actions), width)
        column[ids] = np.arange(len(ids)) - offset
        rows, partners = stack._partners_of(delegators)
        candidates[rows, column[partners]] = False
    picks = delegate_target(candidates[:, :width], ages, exponents, u)
    return picks if lanes is None else np.where(picks >= 0, picks + lo, -1)


def _sensed(stack: _DistributedStack, deciding: np.ndarray, prev: np.ndarray):
    """What the deciding devices sensed last slot, as ``sca_step`` reads it.

    Returns the crowd each saw on its own last RB and the unused-RB rows:
    one per device, or one for all where every device sensed the same. A
    device only knows an RB was taken if it sensed a transmission on it: in
    a listed batch, its lane's transmissions of last slot but those of its
    unheard partners; in a dense batch, those its block marks.
    """
    last_action, lanes = stack.last_action, stack.lanes
    # an RB label's sensed counts: 0 (silent) and the RBs 1..R
    width = lanes.R + 1
    if stack.dense:
        crowds = np.empty(len(deciding), dtype=np.intp)
        unused = np.empty((len(deciding), lanes.R), dtype=bool)
        for lane, block, lo, hi in stack._dense_lanes(deciding):
            devices = lanes.devices(lane)
            lane_actions = last_action[devices]
            # count every (deciding device, RB) pair of a transmission it heard
            heard = np.flatnonzero(lane_actions)
            cells = np.arange(hi - lo)[:, None] * width + lane_actions[heard]
            sensed = np.bincount(cells[block[deciding[lo:hi] - devices.start][:, heard]],
                                 minlength=(hi - lo) * width).reshape(hi - lo, width)
            crowds[lo:hi] = sensed[np.arange(hi - lo), prev[lo:hi]]
            unused[lo:hi] = sensed[:, 1:] == 0
        return crowds, unused
    # last slot's transmitters per RB label of each device's lane; one lane
    # keeps one row, which every device reads
    sensed = lanes.histogram(last_action, width, lanes.N)
    deciding_lanes = lanes.of(deciding)
    if deciding_lanes is not None:
        sensed = sensed[deciding_lanes]
    if not stack.full_range:
        # a silent partner lands in column 0, which nothing reads
        rows, partners = stack._partners_of(deciding)
        missed = np.bincount(rows * width + last_action[partners],
                             minlength=len(deciding) * width)
        sensed = sensed - missed.reshape(-1, width)
    row = 0 if len(sensed) == 1 else np.arange(len(deciding))
    return sensed[row, prev], sensed[:, 1:] == 0


def _game_actions(stack: _DistributedStack, t: int, draws: SlotDraws,
                  actions: np.ndarray) -> None:
    """Minority-game transmit decisions plus SCA/random RB choices for one slot.

    Writes the RB of every device of the game lanes into actions (0 for the
    silent ones), which holds every device.
    """
    R = stack.config.n_rbs
    active_ids = stack.ids
    last_action, last_failed = stack.last_action, stack.last_failed
    passing = _reaching(stack, _rows(stack.game, active_ids))

    random = _rows(stack.random, active_ids)
    if random is not None:
        chosen = active_ids[passing if random is _ALL else passing & random]
        if len(chosen):
            actions[chosen] = random_selection(R, draws.vec(t, _PH_DECIDE, chosen))
    sca = _rows(stack.sca, active_ids)
    if sca is None:
        return

    # freed-RB delegation: a device that delivered last slot and went idle hands
    # its RB to an active neighbor, weighted by future age; lowest delegator id
    # wins when two target the same neighbor
    won = (last_action >= 1) & ~last_failed
    sending = passing if sca is _ALL else passing & sca
    if len(active_ids) < len(last_action):
        idle = won.copy()
        idle[active_ids] = False
        if stack.sca is not _ALL:
            idle &= stack.sca
        delegators = np.flatnonzero(idle)
        if len(delegators):
            picks = _delegate_picks(stack, delegators,
                                    draws.vec(t, _PH_DELEGATE, delegators))
            hit = picks >= 0
            targets, first = np.unique(picks[hit], return_index=True)
            actions[active_ids[targets]] = last_action[delegators[hit][first]]
            sending = sending.copy()
            sending[targets] = False

    # a passing device repeats an RB that just worked; the rest decide by SCA
    keep = sending & won[active_ids]
    kept = active_ids[keep]
    actions[kept] = last_action[kept]
    deciding = active_ids[sending & ~keep]
    if len(deciding):
        prev = last_action[deciding]
        crowd, unused = _sensed(stack, deciding, prev)
        # the crowd seen on RB 0 (silence) is never consulted
        actions[deciding] = sca_step(prev, last_failed[deciding], crowd, unused,
                                     draws.vec(t, _PH_DECIDE, deciding),
                                     draws.vec(t, _PH_FRESH, deciding), R)


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

_FIELD_NAMES = {f.name for f in fields(ScenarioConfig)}

# a sweep runs consecutive configs as lanes of one slot loop, at most this
# many at once, which takes most of the lanes' speed-up (README)
SWEEP_LANES = 16
# the bytes of neighbor matrices (N * N bools per lane) one batch may hold
SWEEP_NEIGHBOR_BYTES = 1 << 20


def sweep_lanes(config: ScenarioConfig) -> int:
    """How many lanes a batch holding config may have (``loop_batches``).

    SWEEP_LANES, except where a lane may build a neighbor matrix: a game
    mode whose range does not cover the cell diagonal. There the stack
    builds one N x N matrix per lane while it is set up, and a dense batch
    keeps them all; SWEEP_NEIGHBOR_BYTES caps the matrices a batch may hold
    (16 lanes up to N = 256, 1 from N = 1024). A listed batch holds its
    unheard pairs instead, 32 bytes each, which the cap does not count.
    """
    if (config.mode.centralized or config.mode is Mode.DISTRIBUTED_PREDETERMINED
            or config.r_c >= math.hypot(config.width, config.length)):
        return SWEEP_LANES
    return max(1, min(SWEEP_LANES, SWEEP_NEIGHBOR_BYTES // config.n_devices ** 2))


def loop_batches(items, config_of=lambda item: item):
    """Split items, in order, into consecutive batches for ``run_many``.

    config_of gives an item's ScenarioConfig (the item itself by default).
    An item joins the batch before it when their configs share a slot loop
    (equal but for seed and for mode within one stack) and the batch stays
    within the smallest ``sweep_lanes`` of its configs; otherwise it starts
    a new batch. Items are read lazily: a batch is yielded once the next
    item does not join it.
    """
    batch, cap = [], 0
    for item in items:
        config = config_of(item)
        lanes = sweep_lanes(config)
        if batch and (len(batch) >= min(cap, lanes)
                      or not _shares_loop(config_of(batch[0]), config)):
            yield batch
            batch = []
        cap = min(cap, lanes) if batch else lanes
        batch.append(item)
    if batch:
        yield batch


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
    """Yield (value, replicate, RunResult) in (value, replicate) order.

    Replicate k runs seed ``replicate_seed(seed, k)``, seed being the base
    seed, or the value itself when the parameter is seed.

    The runs go through ``run_many`` in the batches of ``loop_batches``:
    a value's replicates, and across values the runs that differ only in
    seed and in mode within one stack (a sweep over seed, or over modes of
    one stack), share a slot loop, at most ``sweep_lanes`` lanes at a time.
    Equal values (0.5 and 0.50 once parsed) raise ``ConfigError``: their runs
    would repeat one another's seeds and count as extra replicates.
    """
    if parameter not in _FIELD_NAMES:
        raise ConfigError(f"unknown sweep parameter: {parameter}")
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    values = list(values)
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ConfigError(f"sweep value {value} repeats")

    def jobs():
        for value in values:
            config = replace(base, **{parameter: value})
            config.validate()
            for rep in range(replicates):
                yield value, rep, replace(config, seed=replicate_seed(config.seed, rep))

    for batch in loop_batches(jobs(), lambda job: job[2]):
        for (value, rep, _), result in zip(batch, run_many([job[2] for job in batch])):
            yield value, rep, result
