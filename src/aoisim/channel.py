"""Rayleigh/AWGN outage model and slot-level transmission resolution.

The channel is parameterized by mean received SNR (signal power over noise
variance) and an SNR threshold epsilon. A device splitting its power over r
simultaneous resource blocks sees outage probability 1 - exp(-r*eps/snr),
independent per device per slot. Resource blocks claimed by more than one
device fail for every claimant.
"""

from __future__ import annotations

import math

import numpy as np


# outcome codes, as resolve_transmissions returns them
SUCCESS, DUPLICATE, OUTAGE = 0, 1, 2


def snr_db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def outage_probability(snr: float, epsilon: float, r_simultaneous: int) -> float:
    """Failure probability of a transmission using r_simultaneous RBs at once."""
    if r_simultaneous < 1:
        raise ValueError("r_simultaneous must be >= 1")
    return 1.0 - math.exp(-r_simultaneous * epsilon / snr)


def epsilon_for_outage(p: float, mean_snr_db: float, r_simultaneous: int = 1) -> float:
    """Decoding threshold that puts a single transmission at outage probability p."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    return -snr_db_to_linear(mean_snr_db) * math.log1p(-p) / r_simultaneous


def outage_table(snr: np.ndarray, epsilon: float, max_rbs: int) -> np.ndarray:
    """p[i, r] = outage_probability(snr[i], epsilon, r) for r in 1..max_rbs.

    snr is a float64 array of mean SNRs. The probability of a transmission
    depends on its device's mean SNR and its RB count alone, so a run
    computes it once per distinct pair. Column 0 is nan.
    """
    if (snr <= 0).any() or epsilon < 0:
        raise ValueError("need positive SNRs and a nonnegative epsilon")
    values, rows = np.unique(snr, return_inverse=True)
    table = np.full((len(values), max_rbs + 1), np.nan)
    for i, value in enumerate(values.tolist()):
        for r in range(1, max_rbs + 1):
            table[i, r] = outage_probability(value, epsilon, r)
    return table[rows]


def resolve_transmissions(ids, first, n_rbs, p_outage: np.ndarray, u):
    """Resolve one slot of transmissions into per-transmitter outcome codes.

    Transmitter j is device ids[j] on the RB range [first[j], first[j] +
    n_rbs[j]), the three being int64 arrays. Any RB claimed by two or more
    transmitters fails all its claimants. Each surviving transmitter
    compares its own uniform u[j], u being a float64 array aligned with ids
    (or one float for all), against its outage probability p_outage[id,
    n_rbs] (``outage_table``); a multi-RB transmission succeeds or fails
    whole. A device's channel luck is thus a function of (slot, id) alone.

    Returns the SUCCESS/DUPLICATE/OUTAGE code of every transmitter and the
    number of claimants of every RB index up to the highest one claimed.
    """
    if len(ids) == 0:
        return np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int64)
    if n_rbs.min() < 1:
        raise ValueError(f"device {ids[np.argmin(n_rbs)]} listed with an empty RB set")
    if np.bincount(ids).max() > 1:
        raise ValueError("a device appears more than once in the assignment")
    if n_rbs.max() == 1:
        claims = np.bincount(first)
        duplicate = claims[first] > 1
    else:
        end = first + n_rbs
        size = int(end.max()) + 1
        # claimants per RB from the range starts and ends
        claims = (np.bincount(first, minlength=size)
                  - np.bincount(end, minlength=size)).cumsum()[:-1]
        # crowded[b]: RBs below b with two or more claimants
        crowded = np.zeros(size, dtype=np.int64)
        (claims > 1).cumsum(out=crowded[1:])
        duplicate = crowded[end] > crowded[first]
    outcomes = duplicate.astype(np.int8)        # SUCCESS is 0, DUPLICATE 1
    outcomes[~duplicate & (u < p_outage[ids, n_rbs])] = OUTAGE
    return outcomes, claims


def sample_heterogeneous_snr(n: int, low_db: float, high_db: float,
                             rng: np.random.Generator) -> np.ndarray:
    """Mean SNR of n devices, drawn uniformly in dB and converted to linear scale."""
    return np.array([snr_db_to_linear(db) for db in rng.uniform(low_db, high_db, size=n)])
