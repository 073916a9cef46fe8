"""Optimal split of a multi-RB message across slots.

A message needing n RBs can send them all at once (one slot, higher outage),
one per slot (n slots, lower outage per slot), or any mix. Each segment of r
simultaneous RBs lasts 1/(1-p(r)) slots in expectation, so a candidate split
is a composition of n and its cost is the message age at the expected finish
time. Both aging kinds are strictly increasing in time, so the minimizer of
expected finish time minimizes the age regardless of kind; plans therefore
depend on (n, snr, epsilon) only, and a run plans every (SNR, demand) pair
once, before its first slot (``first_parts``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channel import outage_probability


@lru_cache(maxsize=4096)
def _best_split(n: int, snr: float, epsilon: float,
                max_part: int) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
    """Best composition of every m <= n into parts of at most max_part, and its cost.

    Returns splits and costs: splits[m] is the best split of m and costs[m]
    its cost, the expected slot count summed part by part from the first
    (splits[0] is empty). Ties go to fewer slots, then to the
    lexicographically largest split (the larger first part). Expected slots
    add up over parts, so this is rod cutting: the best split of m ends in
    some part r after a best split of m - r, and each m is settled once, in
    O(n * max_part). Settling n settles every smaller m on the way.
    """
    part_cost = [0.0]
    for r in range(1, min(n, max_part) + 1):
        p = outage_probability(snr, epsilon, r)
        part_cost.append(float("inf") if p >= 1.0 else 1.0 / (1.0 - p))
    cost, slots, splits = [0.0] * (n + 1), [0] * (n + 1), [()] * (n + 1)
    for m in range(1, n + 1):
        last = 0
        for r in range(1, min(m, max_part) + 1):
            candidate = (cost[m - r] + part_cost[r], slots[m - r] + 1)
            if last:
                best = (cost[m], slots[m])
                if candidate > best or (candidate == best and splits[m - r] + (r,)
                                        < splits[m - last] + (last,)):
                    continue
            (cost[m], slots[m]), last = candidate, r
        splits[m] = splits[m - last] + (last,)
    return tuple(splits), tuple(cost)


def first_parts(snr: np.ndarray, epsilon: float, n_max: int, max_part: int) -> np.ndarray:
    """table[i, m]: the first part of the best split of m for a device of SNR snr[i].

    One ``_best_split`` per distinct SNR fills every m in 1..n_max; column 0
    is 0. A message with m RBs left sends table[i, m] of them this slot.
    """
    values, rows = np.unique(np.asarray(snr, dtype=np.float64), return_inverse=True)
    table = np.zeros((len(values), n_max + 1), dtype=np.int64)
    for i, value in enumerate(values.tolist()):
        splits, _ = _best_split(n_max, value, epsilon, max_part)
        table[i, 1:] = [split[0] for split in splits[1:]]
    return table[rows]
