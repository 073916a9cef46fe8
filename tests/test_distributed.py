import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoisim.distributed import (FullInfoGame, GameParams, delegate_target,
                                kappa, kth_largest, predetermined_actions,
                                random_selection, sca_step,
                                service_rate_closed_form)


# --- transmit rule -----------------------------------------------------------
# the engine's threshold is kth_largest(known ages, kappa(...)); ties transmit

def test_kth_largest_basics():
    assert kth_largest([5, 1, 9, 3], 1) == 9
    assert kth_largest([5, 1, 9, 3], 3) == 3
    assert kth_largest([5, 1, 9, 3], 99) == 1
    assert kth_largest([7], 1) == 7
    assert kth_largest([1 << 1200, 1 << 1100, 3], 2) == 1 << 1100
    # the partial-range input: one row of known ages per deciding device
    rows = np.array([[5.0, 1.0, 9.0, 3.0], [2.0, 8.0, -np.inf, 8.0]])
    assert kth_largest(rows, [3, 2]).tolist() == [3.0, 8.0]
    assert kth_largest(rows, [99, 1]).tolist() == [1.0, 8.0]


def test_kappa_full_information_admits_R():
    # a device that knows every active device admits R, clamped to what it knows
    assert kappa(10, 10, 5, 50, 1.0, 1.2) == 5
    assert kappa(3, 3, 5, 50, 1.0, 1.2) == 3


def test_kappa_scales_with_known_share():
    # R=50, N=200, v_a=0.35, zeta=1.2: estimated active count is 84
    assert kappa(10, 84, 50, 200, 0.35, 1.2) == math.ceil(50 * 10 / (200 * 0.35 * 1.2))
    assert kappa(1, 84, 50, 200, 0.35, 1.2) == 1
    assert kappa(2000, 2001, 50, 200, 0.35, 1.2) == \
        math.ceil(50 * 2000 / (200 * 0.35 * 1.2))


def test_kappa_requires_own_entry():
    with pytest.raises(ValueError):
        kappa(0, 5, 5, 50, 1.0, 1.2)


def test_transmit_on_threshold_ties():
    ages = [4, 4, 2]
    threshold = kth_largest(ages, kappa(len(ages), 3, 2, 50, 1.0, 1.2))
    assert 4 >= threshold
    assert not 2 >= threshold


def test_silent_payoff_sides():
    # device 0 sits at the R=1 threshold, device 1 below it, device 2 is idle
    params = GameParams()
    game = FullInfoGame((9, 5, 0), (True, True, False), 1, params)
    silent = [0, 0, 0]
    assert game.payoff(silent, 1) == params.rho + params.eta
    assert game.payoff(silent, 0) == -(params.gamma + params.eta)
    assert game.payoff(silent, 2) == params.rho + params.eta


# --- crowd avoidance ---------------------------------------------------------

def test_sca_repeats_a_winning_rb():
    assert sca_step(7, False, 1, [], keep_u=0.99, pick_u=0.99, R=50) == 7


def test_sca_failure_keep_coin():
    assert sca_step(7, True, 3, [], keep_u=0.33, pick_u=0.0, R=50) == 7
    # keep probability is 1/3: a uniform at it or above abandons the RB
    assert sca_step(7, True, 3, [], keep_u=0.34, pick_u=0.0, R=50) == 1


def test_sca_failure_implies_crowd_of_two():
    # nobody else visible on the RB still counts as one unseen contender
    for crowd_seen in (0, 1):
        assert sca_step(7, True, crowd_seen, [], keep_u=0.49, pick_u=0.0, R=50) == 7
        assert sca_step(7, True, crowd_seen, [], keep_u=0.51, pick_u=0.0, R=50) != 7


def test_sca_fresh_pick_prefers_sensed_unused():
    unused = [2, 4, 9]
    assert sca_step(0, False, 0, unused, keep_u=0.0, pick_u=0.0, R=50) == 2
    assert sca_step(0, False, 0, unused, keep_u=0.0, pick_u=0.99, R=50) == 9


def test_sca_fresh_pick_falls_back_to_all_rbs():
    assert sca_step(0, False, 0, [], keep_u=0.0, pick_u=0.0, R=50) == 1
    assert sca_step(0, False, 0, [], keep_u=0.0, pick_u=0.999, R=50) == 50


def test_delegation_weights_by_future_age():
    ids = [3, 8]
    assert delegate_target(ids, [1, 9], 0.05) == 3
    assert delegate_target(ids, [1, 9], 0.2) == 8
    assert delegate_target([], [], 0.5) is None
    assert delegate_target(ids, [0, 0], 0.6) == 8


def test_random_selection_quantiles():
    assert random_selection(50, 0.0) == 1
    assert random_selection(50, 0.999) == 50
    assert random_selection(2, 0.49) == 1
    assert random_selection(2, 0.51) == 2


# --- baselines and closed forms ----------------------------------------------

def test_predetermined_maps_rank_to_rb():
    f = [5, 9, 1, 7]
    actions = predetermined_actions(f, [True] * 4, 3)
    assert actions == [3, 1, 0, 2]
    with pytest.raises(ValueError):
        predetermined_actions(f, [True] * 4, 3, full_info=False)


def test_predetermined_skips_inactive():
    actions = predetermined_actions([5, 9, 1], [True, False, True], 2)
    assert actions == [1, 0, 2]


def test_service_rate_closed_form_values():
    assert service_rate_closed_form(2, 2) == pytest.approx(0.5)
    assert service_rate_closed_form(50, 50) == pytest.approx(0.3716017144, abs=1e-9)
    assert service_rate_closed_form(200, 50) == pytest.approx(0.0717875372, abs=1e-9)
    assert service_rate_closed_form(0, 10) == 0.0
    with pytest.raises(ValueError):
        service_rate_closed_form(-1, 10)


# --- full-information game ---------------------------------------------------

def test_two_device_equilibria():
    game = FullInfoGame((2, 2), (True, True), 2, GameParams())
    assert set(game.enumerate_equilibria()) == {(1, 2), (2, 1)}


def test_payoff_cells_match_symbols():
    params = GameParams(rho=2.0, gamma=1.0, eta=0.5, zeta=1.2, r_c=15.0)
    game = FullInfoGame((2, 2), (True, True), 2, params)
    assert game.payoff([0, 0], 0) == -(1.0 + 0.5)
    assert game.payoff([0, 1], 1) == 2.0
    assert game.payoff([1, 1], 0) == -1.0
    assert game.payoff([1, 2], 0) == 2.0


def test_deviation_ne_that_is_not_structural():
    """A collision profile can be an equilibrium without the sorted shape.

    With ages 9,8,8,8 on R=2 the threshold age is 8, so all four devices must
    transmit (silence at or above the threshold pays -(gamma+eta), worse than
    any transmission). Two devices per RB then has no profitable unilateral
    move: switching RBs keeps the collision and silence pays less.
    """
    game = FullInfoGame((9, 8, 8, 8), (True,) * 4, 2, GameParams())
    result = game.is_nash_equilibrium([1, 1, 2, 2])
    assert result.is_equilibrium
    assert not result.structural


def test_inactive_devices_cannot_transmit():
    game = FullInfoGame((5, 5), (True, False), 2, GameParams())
    with pytest.raises(ValueError):
        game.is_nash_equilibrium([1, 2])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_structural_shape_is_sufficient_for_equilibrium(n, R, data):
    # distinct ages: a silent device tied with the lowest transmitter would
    # profitably deviate into a collision, so ties void the shape guarantee
    ages = data.draw(st.lists(st.integers(1, 30), min_size=n, max_size=n,
                              unique=True))
    game = FullInfoGame(tuple(ages), (True,) * n, R, GameParams())
    order = sorted(range(n), key=lambda i: (-ages[i], i))
    actions = [0] * n
    for rb, i in enumerate(order[:min(R, n)], start=1):
        actions[i] = rb
    result = game.is_nash_equilibrium(actions)
    # the shape check inside asserts implication; verify both verdicts here
    assert result.structural
    assert result.is_equilibrium


def test_boundary_tie_breaks_the_shape_guarantee():
    # ages (5,5) on one RB: the silent device earns -(gamma+eta) and improves
    # to -gamma by colliding, so top-age-transmits is not an equilibrium here
    game = FullInfoGame((5, 5), (True, True), 1, GameParams())
    result = game.is_nash_equilibrium([1, 0])
    assert not result.is_equilibrium
    assert not result.structural
    assert result.witness == (1, 1)


def test_payoff_scale_invariance_of_equilibria():
    base = FullInfoGame((4, 3, 2), (True,) * 3, 2, GameParams())
    scaled = FullInfoGame((4, 3, 2), (True,) * 3, 2,
                          GameParams(rho=6.0, gamma=3.0, eta=0.9))
    assert set(base.enumerate_equilibria()) == set(scaled.enumerate_equilibria())


def test_game_params_validation():
    with pytest.raises(ValueError):
        GameParams(rho=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        GameParams(eta=0.0)
    with pytest.raises(ValueError):
        GameParams(zeta=0.0)
