"""Devices, their pending messages, and the crediting of received RBs.

A device is idle or carries exactly one pending message. Failed transmissions
retry every slot until the message is fully delivered, so the pending
generation slot is well defined. Activation draws happen at the end of a
slot, which means a fresh message is first transmitted (and first aged) the
slot after its generation: delivery ages are always >= 1.

What never changes about the devices (positions, latent types) is a few
per-device arrays from ``make_devices``; the messages of all devices live in
one ``PendingMessages`` set of arrays, and ``activate`` and
``deliver_success`` update many devices in one call.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class TypeId(Enum):
    TYPE1 = 1
    TYPE2 = 2


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


def deliver_success(messages: PendingMessages, ids, n_rbs) -> np.ndarray:
    """Credit the successful transmissions of a slot; returns the delivered ids.

    Device ids[j] got n_rbs[j] of its pending RBs through. Messages with no
    RB left are delivered: their devices go idle and keep the message's
    generation slot and aging kind, from which its delivery age is read.
    """
    ids = np.asarray(ids)
    left = messages.rbs_left[ids]
    if len(left) and left.min() < 1:
        raise ValueError(f"devices {ids[left < 1].tolist()} have no pending message")
    left -= n_rbs
    np.maximum(left, 0, out=left)
    messages.rbs_left[ids] = left
    return ids[left == 0]


def make_devices(n: int, type1_fraction: float, m1: float, m2: float,
                 w: float, l: float, rng: np.random.Generator):
    """n devices: uniform positions in the w x l rectangle, then i.i.d. latent types.

    Returns the (n, 2) positions, each device's type as its ``TypeId``
    value (int8) and the probability that its messages age linearly: m1
    for type 1, 1 - m2 for type 2.
    """
    positions = rng.random((n, 2)) * (w, l)
    type1 = rng.random(n) < type1_fraction
    types = np.where(type1, TypeId.TYPE1.value, TypeId.TYPE2.value).astype(np.int8)
    return positions, types, np.where(type1, m1, 1.0 - m2)
