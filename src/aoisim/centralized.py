"""Centralized uplink allocation: request phase, type learning, priority scheduling.

Every active device contends on the request channel each slot; a request
survives the preamble-collision thinning and reports the pending message's
current age C_i and its RB demand. The scheduler ranks requests by future
age, priced from what the base station knows about each request:

* a known aging kind gives the exact future age;
* an unknown kind with a known device type gives the expected future age
  under that type;
* an unknown kind with no type gives the expected future age under the
  population type mix, which is monotone in C_i.

The three centralized modes share this one rule and differ only in what
the engine tells it. Full information knows every kind and type. Learning
knows the kinds identified from observed C_i values (a single
non-power-of-two observation proves linear aging; two observations of the
same message separate additive from doubling growth) and a
maximum-likelihood estimate of each observed device's type. No learning
knows nothing, so every request gets the population-mix price and the
order reduces to priority by current age.

The request-phase, priority and scheduling rules take and return arrays with
one entry per request, so a slot's requests are ranked by one sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aging import AgingKind, age_forward, linear_only
from .devices import TypeId


# array codes of what the scheduler knows: a message's aging kind (the code
# indexes KINDS) and a device's type (the TypeId value, or NO_TYPE)
KIND_UNKNOWN, KIND_LINEAR, KIND_EXPONENTIAL = -1, 0, 1
KINDS = (AgingKind.LINEAR, AgingKind.EXPONENTIAL)
NO_TYPE = 0


def rach_collision_probability(n_active: int, preambles: int) -> float:
    """Chance a given device's preamble is picked by at least one other device."""
    if n_active <= 1:
        return 0.0
    return 1.0 - ((preambles - 1) / preambles) ** (n_active - 1)


def rach_phase(active_ids, u, preambles: int, exact: bool = False,
               lanes=None) -> np.ndarray:
    """Ids whose scheduling request reaches the base station this slot.

    active_ids is an id array (a list works), and u holds one uniform in
    [0,1) per active id, aligned with it. Default is independent Bernoulli
    thinning at the per-device collision probability; exact derives a
    preamble pick from each uniform and keeps the devices whose preamble is
    unique, counting the picks by sorting them, so its cost follows the
    requests and not the preamble pool. Survivors keep the order of
    active_ids. lanes, one index per active id, splits the requests into
    cells that each have their own preambles and collide only among
    themselves; None puts every request in one cell.
    """
    if preambles < 1:
        raise ValueError("preambles must be >= 1")
    active_ids = np.asarray(active_ids, dtype=np.intp)
    n = len(active_ids)
    if n == 0:
        return active_ids
    u = np.asarray(u)
    lanes = np.zeros(n, dtype=np.intp) if lanes is None else np.asarray(lanes)
    if exact:
        # floor(u * preambles) as floats: equal exactly when the integer
        # picks are, and no pool is too large to hold
        picks = np.floor(u * float(preambles))
        order = np.lexsort((picks, lanes))
        picks, lanes = picks[order], lanes[order]
        repeat = (picks[1:] == picks[:-1]) & (lanes[1:] == lanes[:-1])
        unique = np.ones(n, dtype=bool)
        unique[1:] &= ~repeat
        unique[:-1] &= ~repeat
        keep = np.empty(n, dtype=bool)
        keep[order] = unique
        return active_ids[keep]
    survive_p = np.array([1.0 - rach_collision_probability(c, preambles)
                          for c in np.bincount(lanes).tolist()])[lanes]
    return active_ids[u < survive_p]


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

    TypeId values, NO_TYPE where a device has no observation (priority_key
    then prices it under the population type mix). Ties break to TYPE2, the
    faster-aging class.
    """
    k = learner.counts[device_ids]
    k_lin, k_exp = k[..., 0], k[..., 1]
    (lin1, exp1), (lin2, exp2) = learner.log_lik
    ll1 = k_lin * lin1 + k_exp * exp1
    ll2 = k_lin * lin2 + k_exp * exp2
    learned = np.where(ll1 > ll2, TypeId.TYPE1.value, TypeId.TYPE2.value)
    return np.where(k_lin + k_exp == 0, NO_TYPE, learned).astype(np.int8)


def _expected(linear, exponential, p_linear: float):
    """Future age of a message that ages linearly with probability p_linear."""
    return p_linear * linear + (1.0 - p_linear) * exponential


def priority_key(ages, kinds, types, learner: TypeLearner, beta: int = 1) -> np.ndarray:
    """Future-age priority keys of many requests, from what the scheduler knows.

    ages are the reported current ages as float64 (``aging.aoi_array``),
    kinds each message's aging kind as a KIND_* code and types each device's
    type as a TypeId value or NO_TYPE. A request of known kind is priced at
    its exact future age; one of unknown kind at its expected future age
    under its device's type, or under the population type mix when no type
    is known. A type with zero share is left out of the mix instead of
    weighted by 0.0, which would turn an age saturated to inf into NaN.

    Finite keys equal the exact scalar values: integer future ages below
    2**1024 convert exactly, and the expected ages keep the scalar operation
    order. Keys past float range saturate to inf, never NaN.
    """
    ages = np.asarray(ages, dtype=np.float64)
    kinds, types = np.asarray(kinds), np.asarray(types)
    m1, m2, p_type1 = learner.m1, learner.m2, learner.p_type1
    with np.errstate(over="ignore"):
        linear = age_forward(AgingKind.LINEAR, ages, beta)
        exponential = age_forward(AgingKind.EXPONENTIAL, ages, beta)
        exact = np.where(kinds == KIND_EXPONENTIAL, exponential, linear)
        unknown = kinds == KIND_UNKNOWN
        if not unknown.any():       # every kind known: skip the expected ages
            return exact
        type1 = _expected(linear, exponential, m1)
        type2 = _expected(linear, exponential, 1.0 - m2)
        if p_type1 == 0.0:
            mix = type2
        elif p_type1 == 1.0:
            mix = type1
        else:
            mix = p_type1 * type1 + (1.0 - p_type1) * type2
    expected = np.where(types == TypeId.TYPE1.value, type1,
                        np.where(types == NO_TYPE, mix, type2))
    return np.where(unknown, expected, exact)


def tie_class(types, learner: TypeLearner) -> np.ndarray:
    """Tie class per request: on equal keys class 0 is served before class 1.

    The faster-aging type (TYPE2) goes first. A request with no known type
    is presumed of the more common type (TYPE1 on an even mix).
    """
    types = np.asarray(types)
    classes = types != TypeId.TYPE2.value
    if learner.p_type1 < 0.5:
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
