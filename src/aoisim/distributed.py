"""Distributed allocation: minority-game transmit rule, crowd avoidance, baselines.

Each active device decides for itself whether to transmit (its future age
must reach the kappa-th largest future age it knows about) and, if so, on
which RB. The stochastic crowd-avoidance rule keeps a winning RB, abandons a
contended one with probability depending on how crowded it looked, and draws
fresh RBs from the set observed unused last slot. Baselines pick RBs
uniformly at random or by a full-information rank-to-RB mapping.

Devices within communication range broadcast their future ages, observed
per-RB transmitter counts and payoffs. No decision rule here consumes a
neighbor's payoff, so a device decides from ages and counts only; its own
last payoff enters as the success/failure signal of its last transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class GameParams:
    rho: float = 2.0      # reward for transmitting alone on an RB
    gamma: float = 1.0    # cost of a failed transmission
    eta: float = 0.5      # tilt that rewards justified silence and punishes unjustified
    zeta: float = 1.2     # inflation factor in the active-count estimate
    r_c: float = 15.0     # communication range, meters

    def __post_init__(self):
        if not self.rho > self.gamma > 0:
            raise ValueError("need rho > gamma > 0")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("need 0 < eta < 1")
        if self.zeta <= 0 or self.r_c < 0:
            raise ValueError("zeta must be positive and r_c nonnegative")


def kth_largest(values, k):
    """k-th largest element (1-based); k beyond the list returns the minimum.

    A sequence is sorted as given, so exact integer ages stay exact. A 2-D
    array with one k per row gives the k-th largest of every row from a
    single sort (the per-device float thresholds).
    """
    if isinstance(values, np.ndarray) and values.ndim == 2:
        n = values.shape[1]
        k = np.minimum(k, n)
        return np.sort(values, axis=1)[np.arange(len(values)), n - k]
    return sorted(values, reverse=True)[min(k, len(values)) - 1]


def kappa(n_known: int, n_active: int, R: int, N: int, v_a: float,
          zeta: float) -> int:
    """How many of the n_known future ages a device knows may transmit.

    A device that knows every one of the n_active active devices (full
    information) admits R transmitters. Otherwise it scales R by its share of
    the estimated active population N*v_a*zeta, rounding up. The result is
    clamped to [1, n_known]; a device transmits when its own future age
    reaches the kappa-th largest known one, so ties transmit.
    """
    if n_known < 1:
        raise ValueError("the known ages must include the deciding device itself")
    if n_known == n_active:
        k = R
    else:
        k = math.ceil(R * n_known / (N * v_a * zeta))
    return max(1, min(n_known, k))


def sca_step(prev_action: int, prev_failed: bool, crowd_seen: int,
             unused_sorted, keep_u: float, pick_u: float, R: int) -> int:
    """Crowd-avoidance RB choice for a device that transmits this slot.

    Repeats an RB that just worked. After a failure the device stays with
    probability one over the crowd it saw on that RB last slot (crowd_seen,
    itself included); a failure implies at least one other claimant (or an
    outage it cannot distinguish), so the crowd is taken as at least 2 even
    when nobody else was visible. Otherwise, and for devices that did not
    transmit last slot, the choice is uniform over unused_sorted, the RBs it
    sensed unused last slot in ascending order, falling back to uniform over
    all R when every RB was busy. keep_u decides the stay coin and pick_u
    the fresh pick; both are uniforms in [0,1) supplied by the caller.
    """
    if prev_action >= 1:
        if not prev_failed:
            return prev_action
        if keep_u < 1.0 / max(2, crowd_seen):
            return prev_action
    if unused_sorted:
        return unused_sorted[int(pick_u * len(unused_sorted))]
    return random_selection(R, pick_u)


def delegate_target(active_neighbor_ids, neighbor_f_values,
                    u: float) -> int | None:
    """Pick the neighbor inheriting a freed RB, weighted by future age.

    u is a uniform in [0,1) supplied by the caller (inverse-CDF sampling).
    """
    if not active_neighbor_ids:
        return None
    # scale by the max so exact big-integer ages cannot overflow a float sum
    top = max(neighbor_f_values)
    if top <= 0:
        return active_neighbor_ids[int(u * len(active_neighbor_ids))]
    weights = [f / top for f in neighbor_f_values]
    threshold = u * sum(weights)
    acc = 0.0
    for device_id, w in zip(active_neighbor_ids, weights):
        acc += w
        if threshold < acc:
            return device_id
    return active_neighbor_ids[-1]


def random_selection(R: int, u: float) -> int:
    """Uniform RB pick for a device that decided to transmit.

    u is a uniform in [0,1); the pick is its quantile in {1..R}.
    """
    return 1 + int(u * R)


def predetermined_actions(f_values, active, R: int, full_info: bool = True) -> list[int]:
    """Rank-to-RB mapping: the k-th highest future age transmits on RB k.

    Needs every device to know the full ranking, so partial information is a
    domain error. Ranks beyond R stay silent.
    """
    if not full_info:
        raise ValueError("predetermined selection requires full information")
    actions = [0] * len(f_values)
    order = sorted((i for i in range(len(f_values)) if active[i]),
                   key=lambda i: (-f_values[i], i))
    for rank, i in enumerate(order, start=1):
        if rank <= R:
            actions[i] = rank
    return actions


def service_rate_closed_form(T: int, R: int) -> float:
    """Fraction of RBs holding exactly one of T uniform random transmitters."""
    if T < 0 or R < 1:
        raise ValueError("need T >= 0 and R >= 1")
    if T == 0:
        return 0.0
    return (T / R) * ((R - 1) / R) ** (T - 1)


# ---------------------------------------------------------------------------
# Full-information game: payoffs and equilibrium checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NashResult:
    is_equilibrium: bool
    witness: tuple[int, int] | None   # (device, better action) when not an NE
    structural: bool                  # matches the top-ages-on-distinct-RBs shape


class FullInfoGame:
    """One-slot game among devices that all see the full active population."""

    def __init__(self, f_values, active, R: int, params: GameParams):
        self.f_values = tuple(f_values)
        self.active = tuple(bool(a) for a in active)
        self.R = R
        self.params = params
        active_ages = tuple(f for f, a in zip(self.f_values, self.active) if a)
        self._threshold = kth_largest(active_ages, R) if active_ages else None

    def n(self) -> int:
        return len(self.f_values)

    def payoff(self, actions, i: int) -> float:
        """Payoff of device i under the joint action vector."""
        x_i = actions[i]
        if x_i >= 1:
            shared = any(j != i and actions[j] == x_i for j in range(self.n()))
            return -self.params.gamma if shared else self.params.rho
        if not self.active[i]:
            return self.params.rho + self.params.eta
        if self.f_values[i] < self._threshold:
            return self.params.rho + self.params.eta
        return -(self.params.gamma + self.params.eta)

    def alternatives(self, i: int):
        if not self.active[i]:
            return (0,)
        return tuple(range(0, self.R + 1))

    def is_nash_equilibrium(self, actions) -> NashResult:
        """Exhaustive unilateral-deviation check, plus the structural shape test.

        The structural shape (at most R top-age active devices on distinct
        RBs, everyone else silent) is sufficient for an equilibrium, and that
        implication is asserted here; the reverse direction does not hold in
        general, so the deviation check is the returned verdict.
        """
        actions = list(actions)
        for i in range(self.n()):
            if not self.active[i] and actions[i] != 0:
                raise ValueError(f"inactive device {i} cannot transmit")
        witness = None
        for i in range(self.n()):
            base = self.payoff(actions, i)
            for alt in self.alternatives(i):
                if alt == actions[i]:
                    continue
                trial = actions[i]
                actions[i] = alt
                gain = self.payoff(actions, i)
                actions[i] = trial
                if gain > base:
                    witness = (i, alt)
                    break
            if witness:
                break
        structural = self._structural(actions)
        result = NashResult(is_equilibrium=witness is None, witness=witness,
                            structural=structural)
        assert not structural or result.is_equilibrium, \
            "structural equilibrium shape failed the deviation check"
        return result

    def _structural(self, actions) -> bool:
        transmitters = [i for i in range(self.n()) if actions[i] >= 1]
        used = [actions[i] for i in transmitters]
        if len(set(used)) != len(used):
            return False
        n_active = sum(self.active)
        if len(transmitters) != min(self.R, n_active):
            return False
        silent_active = [i for i in range(self.n())
                         if self.active[i] and actions[i] == 0]
        if transmitters and silent_active:
            lowest_tx = min(self.f_values[i] for i in transmitters)
            highest_silent = max(self.f_values[i] for i in silent_active)
            # a boundary tie is excluded: the tied silent device would rather
            # collide (-gamma) than stay silent (-(gamma+eta))
            if highest_silent >= lowest_tx:
                return False
        return True

    def enumerate_equilibria(self) -> list[tuple[int, ...]]:
        """All pure equilibria by brute force; intended for small games."""
        spaces = [self.alternatives(i) for i in range(self.n())]
        found = []
        for joint in product(*spaces):
            if self.is_nash_equilibrium(list(joint)).is_equilibrium:
                found.append(joint)
        return found

