"""Aging functions and age-of-information arithmetic.

Two aging kinds exist. A linearly aging message is worth its plain age in
slots; an exponentially aging message doubles in value every slot. Ages are
kept as exact Python integers (the exponential kind returns ``1 << k``), so
arbitrarily old messages never overflow; the only non-integer value is the
degenerate age 0.5 of an exponential message evaluated at its own generation
slot, which simulations never reach (a message is at least one slot old when
it is first transmitted).
"""

from __future__ import annotations

from enum import Enum


class AgingKind(Enum):
    LINEAR = "linear"
    EXPONENTIAL = "exponential"


# per-request paths compare against bindings: on Python 3.11 every Enum
# member lookup is a descriptor call
_LINEAR = AgingKind.LINEAR


def aoi_value(kind: AgingKind, t: int, delta: int):
    """Age of a message generated at slot ``delta``, evaluated at slot ``t``.

    Linear kind: t - delta. Exponential kind: 2**(t - delta - 1), which is
    0.5 at t == delta and an exact integer for every later slot.
    """
    if t < delta:
        raise ValueError(f"evaluation slot {t} precedes generation slot {delta}")
    k = t - delta
    if kind is _LINEAR:
        return k
    if k == 0:
        return 0.5
    return 1 << (k - 1)


def age_forward(kind: AgingKind, value, steps: int):
    """Advance an already-computed age ``value`` by ``steps`` slots.

    Linear ages grow additively, exponential ages double per slot. This is
    what a scheduler uses to turn a reported current age into a future age
    without knowing the generation slot.
    """
    if steps < 0:
        raise ValueError("cannot age backwards")
    if kind is _LINEAR:
        return value + steps
    return value * (1 << steps)


def is_power_of_two(value) -> bool:
    """True for 1, 2, 4, 8, ... (the attainable exponential ages)."""
    if isinstance(value, float):
        if not value.is_integer():
            return False
        value = int(value)
    return value >= 1 and (value & (value - 1)) == 0


def linear_only(value) -> bool:
    """True when an observed age is attainable only by the linear kind.

    Linear ages are {1, 2, 3, ...}; exponential ages are {1, 2, 4, 8, ...};
    the difference {3, 5, 6, 7, 9, ...} identifies the linear kind from a
    single observation.
    """
    return isinstance(value, int) and value >= 1 and not is_power_of_two(value)
