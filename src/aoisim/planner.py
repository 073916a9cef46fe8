"""Optimal split of a multi-RB message across slots.

A message needing n RBs can send them all at once (one slot, higher outage),
one per slot (n slots, lower outage per slot), or any mix. Each segment of r
simultaneous RBs lasts 1/(1-p(r)) slots in expectation, so a candidate split
is a composition of n and its cost is the message age at the expected finish
time. Both aging kinds are strictly increasing in time, so the minimizer of
expected finish time minimizes the age regardless of kind; plans therefore
cache on (n, snr, epsilon) only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .aging import AgingKind
from .channel import ChannelModel, outage_probability


@dataclass(frozen=True)
class TransmissionPlan:
    splits: tuple[int, ...]
    expected_slots: float
    expected_aoi: float


@lru_cache(maxsize=4096)
def _best_split(n: int, snr: float, epsilon: float, max_part: int) -> tuple[tuple[int, ...], float]:
    """Best composition of n into parts of at most max_part, and its cost.

    The cost is the expected slot count, summed part by part from the first;
    ties go to fewer slots, then to the lexicographically largest split (the
    larger first part). Expected slots add up over parts, so this is rod
    cutting: the best split of m ends in some part r after a best split of
    m - r, and each m is settled once, in O(n * max_part).
    """
    model = ChannelModel(mean_snr=snr, epsilon=epsilon)
    part_cost = [0.0]
    for r in range(1, min(n, max_part) + 1):
        p = outage_probability(model, -1, r)
        part_cost.append(float("inf") if p >= 1.0 else 1.0 / (1.0 - p))
    cost, slots, last = [0.0] * (n + 1), [0] * (n + 1), [0] * (n + 1)

    def unwind(m: int, tail: int) -> tuple[int, ...]:
        parts = [tail]
        while m:
            parts.append(last[m])
            m -= last[m]
        return tuple(reversed(parts))

    for m in range(1, n + 1):
        for r in range(1, min(m, max_part) + 1):
            candidate = (cost[m - r] + part_cost[r], slots[m - r] + 1)
            if last[m]:
                best = (cost[m], slots[m])
                if candidate > best or (candidate == best and unwind(m - r, r)
                                        < unwind(m - last[m], last[m])):
                    continue
            (cost[m], slots[m]), last[m] = candidate, r
    return unwind(n - last[n], last[n]), cost[n]


def plan_message(n_i: int, aging: AgingKind, model: ChannelModel, device_id: int,
                 R: int, tau: int, delta: int) -> TransmissionPlan:
    """Pick the composition of n_i minimizing the message age at expected completion.

    Searches every composition of n_i into parts of at most R. Zero-RB slots
    only postpone completion under a strictly increasing aging function, so
    they are never candidates.
    """
    if n_i < 1 or n_i > R:
        raise ValueError(f"n_i must be in 1..R, got {n_i} with R={R}")
    splits, expected_slots = _best_split(n_i, model.snr_for(device_id), model.epsilon, R)
    # age at the (generally fractional) expected finish time
    exponent = (tau + expected_slots) - delta
    if aging is AgingKind.LINEAR:
        expected_aoi = exponent
    elif exponent - 1 > 1023:
        expected_aoi = float("inf")
    else:
        expected_aoi = 2.0 ** (exponent - 1)
    return TransmissionPlan(splits=splits, expected_slots=expected_slots,
                            expected_aoi=expected_aoi)
