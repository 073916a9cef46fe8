"""Aging functions and age-of-information arithmetic.

Two aging kinds exist. A linearly aging message is worth its plain age in
slots; an exponentially aging message doubles in value every slot. Ages are
kept as exact Python integers (the exponential kind returns ``1 << k``), so
arbitrarily old messages never overflow; the only non-integer value is the
degenerate age 0.5 of an exponential message evaluated at its own generation
slot, which simulations never reach (a message is at least one slot old when
it is first transmitted). ``aoi_array`` is the same function over arrays of
messages in float64: exact below 2**1024 and saturated to inf past it.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class AgingKind(Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exponential"


def aoi_value(kind: AgingKind, t: int, delta: int):
    """Age of a message generated at slot ``delta``, evaluated at slot ``t``.

    Linear kind: t - delta. Exponential kind: 2**(t - delta - 1), which is
    0.5 at t == delta and an exact integer for every later slot.
    """
    if t < delta:
        raise ValueError(f"evaluation slot {t} precedes generation slot {delta}")
    k = t - delta
    if kind is AgingKind.LINEAR:
        return k
    if k == 0:
        return 0.5
    return 1 << (k - 1)


_MANTISSA_BITS = np.uint64((1 << 52) - 1)

# 2**(k-1) for k = 0..1024, then inf: exponential ages by slots since generation
_EXP_AGES = np.append(np.ldexp(1.0, np.arange(-1, 1024)), np.inf)


def aoi_array(exponential, t: int, delta) -> np.ndarray:
    """``aoi_value`` for many messages at slot ``t``, as float64.

    exponential flags each message's kind and delta holds the generation
    slots. Linear ages and powers of two below 2**1024 convert exactly, so
    every finite entry equals ``float(aoi_value(...))``; exponential ages at
    or past 2**1024 are inf.
    """
    k = t - np.asarray(delta)
    return np.where(exponential, _EXP_AGES[np.minimum(k, len(_EXP_AGES) - 1)], k)


def age_forward(kind: AgingKind, value, steps: int):
    """Advance an already-computed age ``value`` by ``steps`` slots.

    Linear ages grow additively, exponential ages double per slot. This is
    what a scheduler uses to turn a reported current age into a future age
    without knowing the generation slot.

    A Python int advances exactly. A float or float64 array doubles through
    ``np.ldexp``: the same value as multiplying by ``2**steps`` below 2**1024,
    and inf past it, where the product would raise for steps >= 1024.
    """
    if steps < 0:
        raise ValueError("cannot age backwards")
    if kind is AgingKind.LINEAR:
        return value + steps
    if isinstance(value, int):
        return value * (1 << steps)
    return np.ldexp(value, steps)


def is_power_of_two(value):
    """True for 1, 2, 4, 8, ... (the attainable exponential ages).

    Elementwise on float64 ages as ``aoi_array`` gives them; inf, the form
    an exponential age past 2**1024 takes there, counts as one.
    """
    value = np.asarray(value, dtype=np.float64)
    # powers of two (and inf) are the doubles with all mantissa bits zero
    return (value >= 1) & ((value.view(np.uint64) & _MANTISSA_BITS) == 0)


def linear_only(value):
    """True where an observed age is attainable only by the linear kind.

    Linear ages are {1, 2, 3, ...}; exponential ages are {1, 2, 4, 8, ...};
    the difference {3, 5, 6, 7, 9, ...} identifies the linear kind from a
    single observation. Elementwise on float64 ages, like is_power_of_two.
    """
    value = np.asarray(value, dtype=np.float64)
    return (value >= 1) & (value == np.floor(value)) & ~is_power_of_two(value)
