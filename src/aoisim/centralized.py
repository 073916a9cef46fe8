"""Centralized uplink allocation: request phase, type learning, priority scheduling.

Every active device contends on the request channel each slot; a request
survives the preamble-collision thinning and reports the pending message's
current age C_i and its RB demand. The scheduler ranks requests by future
age. Three variants differ only in how the future age is obtained:

* full information: the true aging kind of every message is known;
* learning: the kind is inferred from observed C_i values (a single
  non-power-of-two observation proves linear aging; two observations of the
  same message separate additive from doubling growth), and while a message
  is still unresolved the scheduler substitutes the expected future age under
  a maximum-likelihood estimate of the device's type;
* no learning: every request gets the population-marginal expected future
  age, which is monotone in C_i, so this variant reduces to priority by
  current age.

The request-phase, priority and scheduling rules take and return arrays with
one entry per request, so a slot's requests are ranked by one sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .aging import AgingKind, age_forward, linear_only
from .devices import TypeId


class Variant(Enum):
    NO_LEARNING = "no_learning"
    LEARNING = "learning"
    FULL_INFO = "full_info"


# array codes of what the scheduler knows: a message's aging kind (the code
# indexes KINDS) and a device's type (the TypeId value, or NO_TYPE)
KIND_UNKNOWN, KIND_LINEAR, KIND_EXPONENTIAL = -1, 0, 1
KINDS = (AgingKind.LINEAR, AgingKind.EXPONENTIAL)
NO_TYPE = 0


@dataclass(frozen=True)
class RachConfig:
    preambles: int = 64
    exact_draws: bool = False   # simulate actual preamble picks instead of thinning

    def __post_init__(self):
        if self.preambles < 1:
            raise ValueError("preambles must be >= 1")


def rach_collision_probability(n_active: int, preambles: int) -> float:
    """Chance a given device's preamble is picked by at least one other device."""
    if n_active <= 1:
        return 0.0
    return 1.0 - ((preambles - 1) / preambles) ** (n_active - 1)


def rach_phase(active_ids, config: RachConfig, u, lanes=None) -> np.ndarray:
    """Ids whose scheduling request reaches the base station this slot.

    active_ids is an id array (a list works), and u maps device id to a
    uniform in [0,1) (an array indexed by id). Default is independent
    Bernoulli thinning at the per-device collision probability; the exact
    mode derives a preamble pick from each uniform and keeps the devices
    whose preamble is unique. Survivors keep the order of active_ids.
    lanes, one index per active id, splits the requests into cells that
    each have their own preambles and collide only among themselves; None
    puts every request in one cell.
    """
    active_ids = np.asarray(active_ids, dtype=np.intp)
    n = len(active_ids)
    if n == 0:
        return active_ids
    u_active = np.asarray(u)[active_ids]
    lanes = np.zeros(n, dtype=np.intp) if lanes is None else np.asarray(lanes)
    if config.exact_draws:
        picks = (u_active * config.preambles).astype(np.intp) + lanes * config.preambles
        counts = np.bincount(picks)
        return active_ids[counts[picks] == 1]
    survive_p = np.array([1.0 - rach_collision_probability(c, config.preambles)
                          for c in np.bincount(lanes).tolist()])[lanes]
    return active_ids[u_active < survive_p]


def identify_aging(ages, prev_slots, prev_ages, slot: int) -> np.ndarray:
    """Infer the aging kinds of pending messages from their reported ages.

    One entry per message: its reported age at ``slot`` and the slot and age
    of its previous surviving request, or slot -1 with no earlier report.
    Ages are float64 as ``aging.aoi_array`` gives them. Returns KIND_* codes,
    KIND_UNKNOWN where the evidence is consistent with both kinds.

    A non-power-of-two age is attainable only by linear aging; otherwise two
    reports tell additive from doubling growth. Finite ages are exact
    integers, so every comparison is exact. Only exponential ages reach
    2**1024, where they read inf: such an age can never be linear, and it
    fits doubling from any earlier age of the same message, as the exact
    values do.
    """
    ages = np.asarray(ages, dtype=np.float64)
    prev_ages = np.asarray(prev_ages, dtype=np.float64)
    prev_slots = np.asarray(prev_slots)
    gap = slot - prev_slots
    seen = (prev_slots >= 0) & (gap > 0)
    with np.errstate(over="ignore"):
        exponential_fits = ages == np.ldexp(prev_ages, gap)
    linear_fits = (ages == prev_ages + gap) & (ages < np.inf)
    # exactly one kind fits: its code is exponential_fits (KIND_LINEAR is 0)
    kinds = np.where(seen & (linear_fits != exponential_fits), exponential_fits,
                     KIND_UNKNOWN)
    kinds[linear_only(ages)] = KIND_LINEAR
    return kinds


@dataclass
class TypeLearner:
    """Per-device counts of identified message kinds plus the population priors.

    counts is an (n_devices, 2) int array: row i holds device i's
    (linear, exponential) identifications. The priors are fixed at
    construction: log_lik caches their logarithms.
    """

    m1: float = 0.75
    m2: float = 0.75
    p_type1: float = 0.6
    n_devices: int = 0
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.counts = np.zeros((self.n_devices, 2), dtype=np.int64)
        # log-likelihood of one (linear, exponential) observation per type
        self.log_lik = ((math.log(self.m1), math.log(1.0 - self.m1)),
                        (math.log(1.0 - self.m2), math.log(self.m2)))

    def observe(self, device_ids, kinds) -> None:
        """Count one identification per id, kinds holding its KIND_* code."""
        np.add.at(self.counts, (device_ids, kinds), 1)


def learn_type(learner: TypeLearner, device_ids) -> np.ndarray:
    """Maximum-likelihood types of an id array from the identified-kind counts.

    TypeId values, NO_TYPE where a device has no observation (callers fall
    back to the marginal priors). Ties break to TYPE2, the faster-aging
    class.
    """
    k = learner.counts[device_ids]
    k_lin, k_exp = k[..., 0], k[..., 1]
    (lin1, exp1), (lin2, exp2) = learner.log_lik
    ll1 = k_lin * lin1 + k_exp * exp1
    ll2 = k_lin * lin2 + k_exp * exp2
    learned = np.where(ll1 > ll2, TypeId.TYPE1.value, TypeId.TYPE2.value)
    return np.where(k_lin + k_exp == 0, NO_TYPE, learned).astype(np.int8)


def expected_future_aoi(current_aoi, est, m1: float, m2: float, beta: int = 1):
    """Expected future age of an unresolved message under a type hypothesis.

    current_aoi is one age and est a TypeId, or current_aoi is a float64
    array and est an array of TypeId values, one per age. Both kinds advance
    through ``age_forward``, so float ages saturate to inf at any beta.
    """
    if isinstance(est, TypeId):
        p_lin = m1 if est is TypeId.TYPE1 else 1.0 - m2
    else:
        p_lin = np.where(est == TypeId.TYPE1.value, m1, 1.0 - m2)
    return (p_lin * age_forward(AgingKind.LINEAR, current_aoi, beta)
            + (1.0 - p_lin) * age_forward(AgingKind.EXPONENTIAL, current_aoi, beta))


def marginal_expected_future_aoi(current_aoi, m1: float, m2: float,
                                 p_type1: float, beta: int = 1):
    """Expected future age with only the population type mix known.

    A type with zero share is left out instead of weighted by 0.0, which
    would turn an age saturated to inf into NaN; for finite ages the value
    is the same either way.
    """
    if p_type1 == 0.0:
        return expected_future_aoi(current_aoi, TypeId.TYPE2, m1, m2, beta)
    if p_type1 == 1.0:
        return expected_future_aoi(current_aoi, TypeId.TYPE1, m1, m2, beta)
    return (p_type1 * expected_future_aoi(current_aoi, TypeId.TYPE1, m1, m2, beta)
            + (1.0 - p_type1) * expected_future_aoi(current_aoi, TypeId.TYPE2,
                                                    m1, m2, beta))


def priority_key(ages, kinds, types, learner: TypeLearner, variant: Variant,
                 beta: int = 1) -> np.ndarray:
    """Future-age priority keys of many requests under the given variant.

    ages are the reported current ages as float64 (``aging.aoi_array``).
    kinds holds each message's aging kind as the scheduler knows it (a
    KIND_* code; the true kind under full information) and types each
    device's type (a TypeId value or NO_TYPE; the true type under full
    information). A known kind prices a request at its exact future age.
    Under learning an unresolved request is priced at its expected future
    age under the learned type, or under the population mix while no type
    is learned; without learning every request gets the population-mix
    price.

    Finite keys equal the exact scalar values: integer future ages below
    2**1024 convert exactly, and the expected ages keep the scalar operation
    order. Keys past float range saturate to inf, never NaN.
    """
    ages = np.asarray(ages, dtype=np.float64)
    m1, m2, p_type1 = learner.m1, learner.m2, learner.p_type1
    with np.errstate(over="ignore"):
        if variant is Variant.NO_LEARNING:
            return marginal_expected_future_aoi(ages, m1, m2, p_type1, beta)
        kinds = np.asarray(kinds)
        keys = np.where(kinds == KIND_EXPONENTIAL,
                        age_forward(AgingKind.EXPONENTIAL, ages, beta),
                        age_forward(AgingKind.LINEAR, ages, beta))
        if variant is Variant.LEARNING:
            types = np.asarray(types)
            unresolved = kinds == KIND_UNKNOWN
            keys = np.where(unresolved, expected_future_aoi(ages, types, m1, m2, beta),
                            keys)
            no_type = unresolved & (types == NO_TYPE)
            if no_type.any():
                keys[no_type] = marginal_expected_future_aoi(ages[no_type], m1, m2,
                                                             p_type1, beta)
    return keys


def tie_class(types, learner: TypeLearner, variant: Variant) -> np.ndarray:
    """Tie class per request: on equal keys class 0 is served before class 1.

    The faster-aging type goes first: the learned type under learning (the
    more common type while none is learned), the true type under full
    information. Without learning every request shares one class.
    """
    types = np.asarray(types)
    if variant is Variant.NO_LEARNING:
        return np.ones(len(types), dtype=bool)
    classes = types != TypeId.TYPE2.value
    if variant is Variant.LEARNING and learner.p_type1 < 0.5:
        classes &= types != NO_TYPE           # no type yet: presumed TYPE2
    return classes


def schedule(ids, keys, exponents, tie_classes, rbs_needed, R: int, lanes=None):
    """Allocate RB indices to requests in descending future-age order.

    One array entry per request: device id, priority key, log2 of its future
    age, tie class and RB demand. The exponent is consulted only between
    keys that saturated to inf, where it keeps the exact order of ages past
    2**1024. Equal keys are served by tie class, then by device id for
    determinism. Each request gets min(remaining, rbs_needed) RBs, handed
    out consecutively so no RB is ever assigned twice.

    lanes, one index per request, splits the requests into cells scheduled
    each on its own R RBs: the order puts the lane first, and the RB count
    restarts in every lane. None (one cell) skips the lane key and the
    restart, which would cost a centralized slot about 8 us.

    Returns the served ids in service order and, per served id, its RB
    range [first, end) in its lane.
    """
    ids = np.asarray(ids)
    keys = np.asarray(keys, dtype=np.float64)
    saturated = np.where(np.isinf(keys), exponents, 0)
    sort_keys = (ids, tie_classes, -saturated, -keys)
    if lanes is not None:
        sort_keys += (lanes,)
    order = np.lexsort(sort_keys)
    needed = np.asarray(rbs_needed)[order]
    end = np.cumsum(needed)
    if lanes is not None:
        lane = np.asarray(lanes)[order]
        end -= (end - needed)[np.searchsorted(lane, lane)]
    first = end - needed
    # requests up to the first whose demand reaches R get RBs
    served = first < R
    return ids[order[served]], first[served], np.minimum(end[served], R)
