"""Device state, message lifecycle, and AoI bookkeeping.

A device is idle or carries exactly one pending message. Failed transmissions
retry every slot until the message is fully delivered, so the pending
generation slot is well defined. Activation draws happen at the end of a
slot, which means a fresh message is first transmitted (and first aged) the
slot after its generation: delivery ages are always >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .aging import AgingKind, aoi_value


# bound once for the per-activation path, as in aging.py
_LINEAR, _EXPONENTIAL = AgingKind.LINEAR, AgingKind.EXPONENTIAL


class TypeId(Enum):
    TYPE1 = 1
    TYPE2 = 2


@dataclass(frozen=True)
class DeviceType:
    """Latent device class governing the aging-kind mix of its messages."""

    type_id: TypeId
    p_linear: float

    def __post_init__(self):
        if not 0.0 <= self.p_linear <= 1.0:
            raise ValueError("p_linear must be a probability")

    @property
    def p_exponential(self) -> float:
        return 1.0 - self.p_linear


def type1(m1: float = 0.75) -> DeviceType:
    """Mostly-linear device class; requires m1 > 0.5."""
    return DeviceType(TypeId.TYPE1, m1)


def type2(m2: float = 0.75) -> DeviceType:
    """Mostly-exponential device class; requires m2 > 0.5."""
    return DeviceType(TypeId.TYPE2, 1.0 - m2)


@dataclass
class Device:
    id: int
    position: tuple[float, float]
    dtype: DeviceType
    active: bool = False
    aging: AgingKind | None = None
    n_rbs: int = 1
    n_remaining: int = 0
    delta: int = 0
    gen_slot: int = 0

    def __post_init__(self):
        if self.n_rbs < 1:
            raise ValueError("n_rbs must be >= 1")


def current_aoi(device: Device, t: int):
    """Age of the pending message at slot t, through its aging kind."""
    if not device.active:
        raise ValueError(f"device {device.id} has no pending message")
    return aoi_value(device.aging, t, device.gen_slot)


def future_aoi(device: Device, t: int, beta: int = 1):
    """Pending-message age evaluated beta slots after slot t (the priority key F_i)."""
    if not device.active:
        raise ValueError(f"device {device.id} has no pending message")
    return aoi_value(device.aging, t + beta, device.gen_slot)


def activate(device: Device, t: int, kind_u: float, n_rbs_max: int = 1,
             size_u: float = 0.0, n_rbs_min: int = 1) -> Device:
    """Give an idle device a fresh message generated at slot t.

    kind_u and size_u are uniforms in [0,1) supplied by the caller: the
    aging kind is linear when kind_u falls below the device type's linear
    probability, and the RB demand is the size_u quantile of the integer
    window {n_rbs_min..n_rbs_max}.
    """
    if not 1 <= n_rbs_min <= n_rbs_max:
        raise ValueError("demand window needs 1 <= n_rbs_min <= n_rbs_max")
    device.active = True
    device.aging = _LINEAR if kind_u < device.dtype.p_linear else _EXPONENTIAL
    span = n_rbs_max - n_rbs_min + 1
    device.n_rbs = n_rbs_min if span == 1 else n_rbs_min + int(size_u * span)
    device.n_remaining = device.n_rbs
    device.gen_slot = t
    return device


def deliver_success(device: Device, t: int):
    """Mark the pending message fully received at slot t.

    Returns the recorded delivery age C_i (the pending message's age at the
    success slot through its aging kind). The device becomes idle and its
    delivered-history marker delta advances to the message's generation slot.
    """
    if not device.active:
        raise ValueError(f"device {device.id} is not active")
    recorded = aoi_value(device.aging, t, device.gen_slot)
    device.delta = device.gen_slot
    device.active = False
    device.aging = None
    device.n_remaining = 0
    return recorded


def sample_positions(n: int, w: float, l: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform positions in the w x l rectangle (fixed-N point process)."""
    xy = rng.random((n, 2))
    xy[:, 0] *= w
    xy[:, 1] *= l
    return xy


def make_devices(n: int, type1_fraction: float, m1: float, m2: float,
                 w: float, l: float, rng: np.random.Generator) -> list[Device]:
    """Create n idle devices with latent types drawn i.i.d. and uniform positions."""
    positions = sample_positions(n, w, l, rng)
    t1, t2 = type1(m1), type2(m2)
    draws = rng.random(n)
    return [
        Device(id=i, position=(float(positions[i, 0]), float(positions[i, 1])),
               dtype=t1 if draws[i] < type1_fraction else t2)
        for i in range(n)
    ]
