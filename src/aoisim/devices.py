"""Devices, their pending messages, and delivery bookkeeping.

A device is idle or carries exactly one pending message. Failed transmissions
retry every slot until the message is fully delivered, so the pending
generation slot is well defined. Activation draws happen at the end of a
slot, which means a fresh message is first transmitted (and first aged) the
slot after its generation: delivery ages are always >= 1.

A ``Device`` holds what never changes; the messages of all devices live in
one ``PendingMessages`` set of arrays, and ``activate`` and
``deliver_success`` update many devices in one call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np


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
    """A device's static part: id, position and latent type."""

    id: int
    position: tuple[float, float]
    dtype: DeviceType


class PendingMessages:
    """The pending message of every device, one array entry per device.

    gen_slot is the generation slot, exponential flags the aging kind and
    rbs_left counts the RBs still to deliver; 0 there marks an idle device.
    Entries of idle devices keep their last message's values.
    """

    __slots__ = ("gen_slot", "exponential", "rbs_left")

    def __init__(self, n_devices: int):
        self.gen_slot = np.zeros(n_devices, dtype=np.int64)
        self.exponential = np.zeros(n_devices, dtype=bool)
        self.rbs_left = np.zeros(n_devices, dtype=np.int64)


def activate(messages: PendingMessages, ids, t: int, kind_u, p_linear,
             n_rbs_max: int = 1, size_u=0.0, n_rbs_min: int = 1) -> None:
    """Give the idle devices ids fresh messages generated at slot t.

    kind_u and size_u are uniforms in [0,1) supplied by the caller, one per
    id (or one for all): a message ages exponentially when kind_u reaches
    its device's linear probability p_linear, and its RB demand is the
    size_u quantile of the integer window {n_rbs_min..n_rbs_max}.
    """
    if not 1 <= n_rbs_min <= n_rbs_max:
        raise ValueError("demand window needs 1 <= n_rbs_min <= n_rbs_max")
    span = n_rbs_max - n_rbs_min + 1
    messages.gen_slot[ids] = t
    messages.exponential[ids] = kind_u >= p_linear
    messages.rbs_left[ids] = (n_rbs_min if span == 1
                              else n_rbs_min + np.floor(size_u * span))


def deliver_success(messages: PendingMessages, ids, n_rbs, t: int, lanes: int = 1):
    """Credit the successful transmissions of slot t.

    Device ids[j] got n_rbs[j] of its pending RBs through. Messages with no
    RB left are delivered: their devices go idle. Returns the delivered ids
    and, per lane, the exact sum (a Python int) of their recorded delivery
    ages C_i, each the message's age at slot t through its aging kind. The
    devices split into lanes of equal size, in id order.

    Linear ages add up per lane in int64. Exponential ages 2**(k-1) add up
    as Python ints, one shift per (lane, exponent) group, so the sums stay
    exact past 2**1024.
    """
    ids = np.asarray(ids)
    left = messages.rbs_left[ids]
    if len(left) and left.min() < 1:
        raise ValueError(f"devices {ids[left < 1].tolist()} have no pending message")
    left -= n_rbs
    np.maximum(left, 0, out=left)
    messages.rbs_left[ids] = left
    delivered = ids[left == 0]
    k = t - messages.gen_slot[delivered]
    exponential = messages.exponential[delivered]
    lane = delivered // (len(messages.rbs_left) // lanes)
    linear = np.zeros(lanes, dtype=np.int64)
    np.add.at(linear, lane, np.where(exponential, 0, k))
    totals = linear.tolist()
    # k <= t, so lane * (t + 1) + k keys a (lane, age) group; a Counter
    # groups the few keys of a slot faster than np.unique
    groups = Counter((lane * (t + 1) + k)[exponential].tolist())
    for key, count in groups.items():
        lane_index, age_slots = divmod(key, t + 1)
        totals[lane_index] += count << (age_slots - 1)
    return delivered, totals


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
