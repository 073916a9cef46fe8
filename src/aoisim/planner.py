"""Optimal split of a multi-RB message across slots.

A message needing n RBs can send them all at once (one slot, higher outage),
one per slot (n slots, lower outage per slot), or any mix. Each segment of r
simultaneous RBs lasts 1/(1-p(r)) slots in expectation, so a candidate split
is a composition of n and its cost is the message age at the expected finish
time. Both aging kinds are strictly increasing in time, so the minimizer of
expected finish time minimizes the age regardless of kind; plans therefore
depend on the device's outage probabilities only, and a run plans every
(device, demand) pair once, before its first slot (``first_parts``).
"""

from __future__ import annotations

import numpy as np


def first_parts(p_outage: np.ndarray) -> np.ndarray:
    """table[i, m]: the first part of the best split of m RBs for device i.

    p_outage is the run's ``channel.outage_table``: p_outage[i, r] is device
    i's outage probability on r simultaneous RBs. A part of r RBs costs
    1/(1 - p) expected slots, inf where p = 1, and a split costs its
    parts summed from the first. Ties go to fewer slots, then to the larger
    first part. Expected slots add up over parts, so this is rod cutting:
    the best split of m ends in some part r after the best split of m - r,
    and one pass over m settles every device row at once. Column 0 is 0; a
    message with m RBs left sends table[i, m] of them this slot.
    """
    p = np.asarray(p_outage, dtype=np.float64)[:, 1:]
    n_rows, n_max = p.shape
    with np.errstate(divide="ignore"):
        part_cost = 1.0 / (1.0 - p)
    cost = np.zeros((n_rows, n_max + 1))
    slots = np.zeros((n_rows, n_max + 1), dtype=np.int64)
    first = np.zeros((n_rows, n_max + 1), dtype=np.int64)
    rows = np.arange(n_rows)
    for m in range(1, n_max + 1):
        # column j: the best split of m - 1 - j, then a last part of j + 1
        rest = np.arange(m - 1, -1, -1)
        c = cost[:, rest] + part_cost[:, :m]
        s = slots[:, rest] + 1
        f = np.where(rest > 0, first[:, rest], np.arange(1, m + 1))
        tied = c == c.min(axis=1, keepdims=True)
        s_tied = np.where(tied, s, n_max + 1)
        tied &= s_tied == s_tied.min(axis=1, keepdims=True)
        pick = np.where(tied, f, 0).argmax(axis=1)
        cost[:, m], slots[:, m] = c[rows, pick], s[rows, pick]
        first[:, m] = f[rows, pick]
    return first
