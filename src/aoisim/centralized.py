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


# bound once for the per-request paths, as in aging.py
_LINEAR, _TYPE1, _TYPE2 = AgingKind.LINEAR, TypeId.TYPE1, TypeId.TYPE2
_NO_LEARNING, _LEARNING, _FULL_INFO = (Variant.NO_LEARNING, Variant.LEARNING,
                                       Variant.FULL_INFO)


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


def rach_phase(active_ids: list[int], config: RachConfig, u) -> list[int]:
    """Ids whose scheduling request reaches the base station this slot.

    u maps device id to a uniform in [0,1) (an array indexed by id works).
    Default is independent Bernoulli thinning at the per-device collision
    probability; the exact mode derives a preamble pick from each uniform
    and keeps the devices whose preamble is unique.
    """
    n = len(active_ids)
    if n == 0:
        return []
    if config.exact_draws:
        picks = [int(u[device_id] * config.preambles) for device_id in active_ids]
        counts = np.bincount(picks, minlength=config.preambles)
        return [device_id for device_id, pick in zip(active_ids, picks)
                if counts[pick] == 1]
    survive_p = 1.0 - rach_collision_probability(n, config.preambles)
    return [device_id for device_id in active_ids if u[device_id] < survive_p]


@dataclass(slots=True)
class UplinkRequest:
    device_id: int
    current_aoi: object          # int, exact (exponential ages are big ints)
    rbs_needed: int
    true_kind: AgingKind | None = None      # consulted by the full-info variant only
    known_kind: AgingKind | None = None     # identification result, if any
    est_type: TypeId | None = None          # learned ML type, or the true one


def identify_aging(current_aoi, history: tuple[int, object] | None,
                   slot: int) -> AgingKind | None:
    """Infer the aging kind of the pending message from its reported ages.

    history is the (slot, age) of the previous surviving request for the
    same message, or None. Returns None when the evidence is consistent with
    both kinds.
    """
    if linear_only(current_aoi):
        return AgingKind.LINEAR
    if history is None:
        return None
    prev_slot, prev_aoi = history
    gap = slot - prev_slot
    if gap <= 0:
        return None
    linear_fits = current_aoi == prev_aoi + gap
    exponential_fits = current_aoi == prev_aoi * (1 << gap)
    if linear_fits and not exponential_fits:
        return AgingKind.LINEAR
    if exponential_fits and not linear_fits:
        return AgingKind.EXPONENTIAL
    return None


@dataclass
class TypeLearner:
    """Per-device counts of identified message kinds plus the population priors."""

    m1: float = 0.75
    m2: float = 0.75
    p_type1: float = 0.6
    counts: dict[int, list[int]] = field(default_factory=dict)   # id -> [k_lin, k_exp]

    def observe(self, device_id: int, kind: AgingKind) -> None:
        k = self.counts.setdefault(device_id, [0, 0])
        k[0 if kind is _LINEAR else 1] += 1

    def observation_count(self, device_id: int) -> int:
        k = self.counts.get(device_id)
        return 0 if k is None else k[0] + k[1]


def learn_type(learner: TypeLearner, device_id: int) -> TypeId | None:
    """Maximum-likelihood type from the identified-kind counts.

    Returns None with zero observations (callers fall back to the marginal
    priors). Ties break to TYPE2, the faster-aging class.
    """
    k = learner.counts.get(device_id)
    if k is None or k[0] + k[1] == 0:
        return None
    k_lin, k_exp = k
    ll1 = k_lin * math.log(learner.m1) + k_exp * math.log(1.0 - learner.m1)
    ll2 = k_lin * math.log(1.0 - learner.m2) + k_exp * math.log(learner.m2)
    return TypeId.TYPE1 if ll1 > ll2 else TypeId.TYPE2


def expected_future_aoi(current_aoi, est: TypeId, m1: float, m2: float,
                        beta: int = 1) -> float:
    """Expected future age of an unresolved message under a type hypothesis."""
    p_lin = m1 if est is _TYPE1 else 1.0 - m2
    return (p_lin * (current_aoi + beta)
            + (1.0 - p_lin) * (current_aoi * (1 << beta)))


def marginal_expected_future_aoi(current_aoi, m1: float, m2: float,
                                 p_type1: float, beta: int = 1) -> float:
    """Expected future age with only the population type mix known."""
    return (p_type1 * expected_future_aoi(current_aoi, _TYPE1, m1, m2, beta)
            + (1.0 - p_type1) * expected_future_aoi(current_aoi, _TYPE2, m1, m2, beta))


def priority_key(request: UplinkRequest, learner: TypeLearner, variant: Variant,
                 beta: int = 1):
    """Future-age priority of one request under the given variant."""
    if variant is _FULL_INFO:
        return age_forward(request.true_kind, request.current_aoi, beta)
    if variant is _LEARNING:
        if request.known_kind is not None:
            return age_forward(request.known_kind, request.current_aoi, beta)
        if request.est_type is not None:
            return expected_future_aoi(request.current_aoi, request.est_type,
                                       learner.m1, learner.m2, beta)
    return marginal_expected_future_aoi(request.current_aoi, learner.m1,
                                        learner.m2, learner.p_type1, beta)


def schedule(requests: list[UplinkRequest], learner: TypeLearner, R: int,
             variant: Variant, beta: int = 1) -> list[tuple[int, tuple[int, ...]]]:
    """Allocate RB indices to requests in descending future-age order.

    Equal keys are served faster-aging-type-first (the estimated type for the
    learning variant, the true type under full information), then by device
    id for determinism. Each request gets min(remaining, rbs_needed) RBs;
    indices are handed out consecutively so no RB is ever assigned twice.
    """
    def tie_class(req: UplinkRequest) -> int:
        est = None if variant is _NO_LEARNING else req.est_type
        if est is None and variant is _LEARNING:
            est = _TYPE1 if learner.p_type1 >= 0.5 else _TYPE2
        return 0 if est is _TYPE2 else 1

    scored = sorted(
        requests,
        key=lambda req: (-priority_key(req, learner, variant, beta),
                         tie_class(req), req.device_id),
    )
    allocation: list[tuple[int, tuple[int, ...]]] = []
    next_rb = 0
    for req in scored:
        if next_rb >= R:
            break
        take = min(R - next_rb, req.rbs_needed)
        allocation.append((req.device_id, tuple(range(next_rb, next_rb + take))))
        next_rb += take
    return allocation
