"""Distributed allocation: minority-game transmit rule, crowd avoidance, baselines.

Each active device decides for itself whether to transmit (its future age
must reach the kappa-th largest future age it knows about) and, if so, on
which RB. The stochastic crowd-avoidance rule keeps a winning RB, abandons a
contended one with probability depending on how crowded it looked, and draws
fresh RBs from the set observed unused last slot. The random baseline picks
RBs uniformly; the rank-to-RB baseline is ``centralized.schedule`` run by
the engine on future ages.

Devices within communication range broadcast their future ages, observed
per-RB transmitter counts and payoffs. No decision rule here consumes a
neighbor's payoff, so a device decides from ages and counts only; its own
last payoff enters as the success/failure signal of its last transmission.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class GameParams:
    rho: float = 2.0      # reward for transmitting alone on an RB
    gamma: float = 1.0    # cost of a failed transmission
    eta: float = 0.5      # tilt that rewards justified silence and punishes unjustified

    def __post_init__(self):
        if not self.rho > self.gamma > 0:
            raise ValueError("need rho > gamma > 0")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("need 0 < eta < 1")


def kth_largest(values, k):
    """k-th largest element (1-based); k beyond the list returns the minimum.

    The sequence is sorted as given, so exact integer ages stay exact.
    """
    return sorted(values, reverse=True)[min(k, len(values)) - 1]


def reaches_threshold(ages, k, known=None, exponents=None, lanes=None,
                      unheard=None) -> np.ndarray:
    """Which devices transmit: fewer than k of the ages each knows exceed its own.

    That is its age reaching the k-th largest known age, ties transmitting.
    One entry per active device: its future age as float64 (inf past
    2**1024) and its k. A device knows the ages of its lane, itself
    included, in one of two forms:

    - known, a bool matrix whose row r marks the ages device r knows;
    - lanes, one lane index per device (one lane when None), and unheard,
      index arrays (a, b) as the rows of a (2, P) array (none when None):
      every age of its lane but that of a[p] for device b[p], and that of
      b[p] for device a[p].

    In the lanes form, exponents (the log2 of each age) order the saturated
    ages exactly; without them, and always under known, saturated ages tie
    as inf.
    """
    ages = np.asarray(ages, dtype=np.float64)
    if known is not None:
        # int32 row sums of bools run about twice as fast as count_nonzero's
        above = ages[None, :] > ages[:, None]
        above &= known
        return above.sum(axis=1, dtype=np.int32) < k
    saturated = None if exponents is None else np.isinf(ages)
    exact = saturated is not None and saturated.any()
    if lanes is None and not exact:
        # one lane's ages sort as floats, about 3x faster than complex keys
        above = len(ages) - np.searchsorted(np.sort(ages), ages, "right")
    else:
        lanes = np.zeros(len(ages), dtype=np.intp) if lanes is None else np.asarray(lanes)
        # complex keys sort lexicographically: the lane and, ranking exactly,
        # the exponent where the age saturated, which stays below the next
        # lane's start; then the age (0 where its exponent ranks it)
        keys = np.empty(len(ages), dtype=np.complex128)
        if exact:
            top = np.where(saturated, exponents, 0)
            keys.real = lanes * (int(np.max(top)) + 1) + top
            keys.imag = np.where(saturated, 0, ages)
        else:
            keys.real, keys.imag = lanes, ages
        lane_end = np.cumsum(np.bincount(lanes))[lanes]
        above = lane_end - np.searchsorted(np.sort(keys), keys, "right")
    if unheard is not None:
        # the lower of an unheard pair does not count the higher one; within
        # a lane the higher age has fewer ages above it
        a, b = unheard = np.asarray(unheard)
        above_a, above_b = above[unheard]
        lower = np.where(above_b < above_a, a, b)
        above -= np.bincount(lower[above_a != above_b], minlength=len(ages))
    return above < k


def kappa(n_known, n_active: int, R: int, N: int, v_a: float, zeta: float):
    """How many of the n_known future ages a device knows may transmit.

    A device that knows every one of the n_active active devices (full
    information) admits R transmitters. Otherwise it scales R by its share of
    the estimated active population N*v_a*zeta, rounding up. The result is
    clamped to [1, n_known]; ``reaches_threshold`` applies it. Elementwise
    over arrays of counts, one per deciding device; n_active = 0 gives the
    scaled rank of every count.
    """
    n_known = np.asarray(n_known)
    if (n_known < 1).any():
        raise ValueError("the known ages must include the deciding device itself")
    # v_a = 0 (or small enough to overflow the quotient) expects nobody
    # active, so a device admits everyone it knows
    with np.errstate(divide="ignore", over="ignore"):
        k = np.where(n_known == n_active, R, np.ceil(R * n_known / (N * v_a * zeta)))
    return np.minimum(np.maximum(k, 1), n_known).astype(np.int64)


def sca_step(prev_action, prev_failed, crowd_seen, unused, keep_u, pick_u,
             R: int) -> np.ndarray:
    """Crowd-avoidance RB choices of the devices that transmit this slot.

    One array entry per device: its last RB (0 when silent), whether that
    transmission failed and the crowd it saw on that RB last slot. Row r of
    the bool matrix unused marks the RBs device r sensed unused last slot
    (column c is RB c+1); a single row serves every device. A device
    repeats an RB that just worked. After a failure it stays with
    probability one over the crowd it saw (crowd_seen, itself included); a
    failure implies at least one other claimant (or an outage it cannot
    distinguish), so the crowd is taken as at least 2 even when nobody else
    was visible. Otherwise, and for devices that did not transmit last slot,
    the choice is uniform over the RBs it sensed unused, falling back to
    uniform over all R when every RB was busy. keep_u decides the stay coin
    and pick_u the fresh pick; both are uniforms in [0,1) supplied by the
    caller.
    """
    prev_action = np.asarray(prev_action)
    stay = (prev_action >= 1) & ~(np.asarray(prev_failed, dtype=bool)
                                  & (keep_u >= 1.0 / np.maximum(2, crowd_seen)))
    # the fresh pick is the floor(pick_u * n_unused)-th unused RB
    ranks = np.cumsum(unused, axis=1)
    n_unused = ranks[:, -1]
    nth = (pick_u * n_unused).astype(np.int64)
    fresh = np.argmax(ranks > nth[:, None], axis=1) + 1
    busy = n_unused == 0
    if busy.any():
        fresh = np.where(busy, random_selection(R, pick_u), fresh)
    return np.where(stay, prev_action, fresh)


def delegate_target(candidates, ages, exponents, u) -> np.ndarray:
    """Pick, per freed RB, the neighbor inheriting it, weighted by future age.

    Row r of the bool matrix candidates marks the active neighbors of the
    r-th delegator; the columns are devices in ascending id order, with
    their future ages as float64 (``aging.aoi_array``: inf past 2**1024) and
    the log2 of each age, which is consulted only where the age saturated:
    one per column, or, as matrices, one per entry of candidates.
    u holds one uniform in [0,1) per delegator (inverse-CDF sampling).
    Returns the chosen column of every row, -1 for a row without candidates.

    A candidate weighs f/top, top the row's largest age, so that exact
    big-integer ages cannot overflow the sum; past float range the top is a
    power of two and the weights come from exponent arithmetic, equal to the
    exact quotients. Candidates whose ages are all zero weigh the same. The
    weights accumulate in column order.
    """
    candidates = np.asarray(candidates, dtype=bool)
    if not candidates.shape[1]:
        return np.full(len(candidates), -1)
    ages = np.asarray(ages, dtype=np.float64)
    known = np.where(candidates, ages, 0.0)
    top = known.max(axis=1)
    regular = (top > 0) & (top < np.inf)
    if regular.all():
        weights = known / top[:, None]
    else:
        weights = known / np.where(regular, top, 1.0)[:, None]
        saturated = top == np.inf
        if saturated.any():
            ages = np.broadcast_to(ages, candidates.shape)[saturated]
            big = np.isinf(ages)
            exponents = np.where(big, np.broadcast_to(exponents, candidates.shape)[saturated],
                                 0)
            rows = candidates[saturated]
            top_exponent = np.where(rows & big, exponents, 0).max(axis=1)
            # only non-candidates can sit above a row's top exponent; the
            # clamp keeps their (discarded) ldexp finite
            shift = np.minimum(exponents - top_exponent[:, None], 0)
            weights[saturated] = np.where(rows, np.ldexp(np.where(big, 1.0, ages), shift),
                                          0.0)
        flat = top <= 0
        weights[flat] = candidates[flat]
    cumulative = np.cumsum(weights, axis=1)
    # u < 1 keeps u * total below the total (a float product rounds no
    # higher), so some candidate's running sum passes the threshold; a row
    # without candidates has a total of 0
    total = cumulative[:, -1]
    picks = np.argmax(cumulative > (u * total)[:, None], axis=1)
    return np.where(total > 0, picks, -1)


def random_selection(R: int, u):
    """Uniform RB pick for a device that decided to transmit.

    u is a uniform in [0,1); the pick is its quantile in {1..R}. Elementwise
    over an array of uniforms.
    """
    return 1 + np.multiply(u, R).astype(np.int64)


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

