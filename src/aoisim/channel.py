"""Rayleigh/AWGN outage model and slot-level transmission resolution.

The channel is parameterized by mean received SNR (signal power over noise
variance) and an SNR threshold epsilon. A device splitting its power over r
simultaneous resource blocks sees outage probability 1 - exp(-r*eps/snr),
independent per device per slot. Resource blocks claimed by more than one
device fail for every claimant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Outcome(Enum):
    SUCCESS = "success"
    DUPLICATE_FAILURE = "duplicate"
    OUTAGE_FAILURE = "outage"


# bound once for the per-transmission path, as in aging.py
_SUCCESS, _DUPLICATE, _OUTAGE = (Outcome.SUCCESS, Outcome.DUPLICATE_FAILURE,
                                 Outcome.OUTAGE_FAILURE)


@dataclass(frozen=True)
class ChannelModel:
    """Mean-SNR outage model; per-device overrides support unequal transmit power."""

    mean_snr: float = 100.0          # linear scale; 100 = 20 dB
    epsilon: float = 1.0
    per_device_mean_snr: dict[int, float] | None = None

    def __post_init__(self):
        if self.mean_snr <= 0:
            raise ValueError("mean_snr must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    def snr_for(self, device_id: int) -> float:
        if self.per_device_mean_snr is not None:
            return self.per_device_mean_snr.get(device_id, self.mean_snr)
        return self.mean_snr


def snr_db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def outage_probability(model: ChannelModel, device_id: int, r_simultaneous: int) -> float:
    """Failure probability of a transmission using r_simultaneous RBs at once."""
    if r_simultaneous < 1:
        raise ValueError("r_simultaneous must be >= 1")
    return 1.0 - math.exp(-r_simultaneous * model.epsilon / model.snr_for(device_id))


def epsilon_for_outage(p: float, mean_snr_db: float, r_simultaneous: int = 1) -> float:
    """Decoding threshold that puts a single transmission at outage probability p."""
    if not 0.0 <= p < 1.0:
        raise ValueError("p must be in [0, 1)")
    return -snr_db_to_linear(mean_snr_db) * math.log1p(-p) / r_simultaneous


@dataclass(frozen=True)
class RbAssignment:
    """Per-slot map of transmitting devices to the RB indices they use."""

    slot: int
    entries: tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self):
        ids = [device_id for device_id, _ in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("a device appears more than once in the assignment")
        for device_id, rbs in self.entries:
            if not rbs:
                raise ValueError(f"device {device_id} listed with an empty RB set")


def resolve_slot(assignment: RbAssignment, model: ChannelModel,
                 u) -> dict[int, Outcome]:
    """Resolve one slot of transmissions into per-device outcomes.

    Any RB claimed by two or more devices fails all its claimants. Each
    surviving device compares its own uniform u[device_id] against the
    outage probability for its simultaneous-RB count; a multi-RB
    transmission succeeds or fails whole. Duplicated devices consume no
    uniform, so a device's channel luck is a function of (slot, id) alone.
    """
    claims: dict[int, int] = {}
    for device_id, rbs in assignment.entries:
        for rb in rbs:
            claims[rb] = claims.get(rb, 0) + 1

    outcomes: dict[int, Outcome] = {}
    for device_id, rbs in assignment.entries:
        if max(map(claims.__getitem__, rbs)) > 1:
            outcomes[device_id] = _DUPLICATE
        else:
            p = outage_probability(model, device_id, len(rbs))
            outcomes[device_id] = _OUTAGE if u[device_id] < p else _SUCCESS
    return outcomes


def sample_heterogeneous_snr(device_ids, low_db: float, high_db: float,
                             rng: np.random.Generator) -> dict[int, float]:
    """Per-device mean SNR drawn uniformly in dB and converted to linear scale."""
    draws = rng.uniform(low_db, high_db, size=len(device_ids))
    return {device_id: snr_db_to_linear(db) for device_id, db in zip(device_ids, draws)}
