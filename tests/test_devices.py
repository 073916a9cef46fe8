import numpy as np
import pytest

from aoisim.aging import AgingKind, aoi_array, aoi_value
from aoisim.devices import (PendingMessages, TypeId, activate, deliver_success,
                            make_devices)
from aoisim.engine import _PH_ACTIVATE, ScenarioConfig, _activation_sweep, _Lanes


def pending(n=1):
    return PendingMessages(n)


def deliver_at(m, ids, n_rbs, t):
    """deliver_success at slot t, and the exact age sum of what it delivered,
    added up as the engine adds a one-lane run's."""
    delivered = deliver_success(m, ids, n_rbs)
    (total,) = _Lanes(1, len(m.rbs_left), 1).age_sums(
        delivered, t - m.gen_slot[delivered], m.exponential[delivered])
    return delivered, total


def test_type_classes_complement():
    # a type-1 device ages linearly with probability m1, a type-2 device
    # exponentially with probability m2
    _, types, p_linear = make_devices(200, 0.5, 0.6, 0.75, 10.0, 10.0,
                                      np.random.default_rng(3))
    type1 = types == TypeId.TYPE1.value
    assert type1.any() and not type1.all()
    assert (p_linear[type1] == 0.6).all()
    assert (p_linear[~type1] == 0.25).all()
    assert 1.0 - p_linear[type1] == pytest.approx(0.4)


def test_activate_kind_follows_uniform_quantile():
    m = pending()
    activate(m, [0], 3, kind_u=0.74, p_linear=0.75)
    assert not m.exponential[0] and m.gen_slot[0] == 3
    activate(m, [0], 4, kind_u=0.76, p_linear=0.75)
    assert m.exponential[0]
    # one call activates many devices, each against its own type
    m = pending(3)
    activate(m, [0, 2], 5, kind_u=np.array([0.5, 0.5]), p_linear=np.array([0.75, 0.25]))
    assert m.exponential.tolist() == [False, False, True]
    assert m.gen_slot.tolist() == [5, 0, 5] and m.rbs_left.tolist() == [1, 0, 1]


def test_activate_rb_demand_quantile():
    m = pending()
    activate(m, [0], 1, kind_u=0.0, p_linear=0.75, n_rbs_max=4, size_u=0.999)
    assert m.rbs_left[0] == 4
    activate(m, [0], 2, kind_u=0.0, p_linear=0.75, n_rbs_max=4, size_u=0.0)
    assert m.rbs_left[0] == 1


def test_activate_rb_demand_window():
    m = pending(2)
    activate(m, [0, 1], 1, kind_u=0.0, p_linear=0.75, n_rbs_max=4,
             size_u=np.array([0.5, 0.34]), n_rbs_min=2)
    assert m.rbs_left.tolist() == [3, 3]     # quantiles of {2,3,4}
    activate(m, [0], 2, kind_u=0.0, p_linear=0.75, n_rbs_max=3, size_u=0.999,
             n_rbs_min=3)
    assert m.rbs_left[0] == 3                # degenerate window ignores size_u
    with pytest.raises(ValueError):
        activate(m, [0], 3, kind_u=0.0, p_linear=0.75, n_rbs_max=2, size_u=0.0,
                 n_rbs_min=3)


def test_message_lifecycle_ages_and_delivery():
    m = pending()
    activate(m, [0], 10, kind_u=0.0, p_linear=0.75)   # linear, generated at 10
    assert aoi_array(m.exponential, 11, m.gen_slot).tolist() == [1.0]
    assert aoi_array(m.exponential, 15, m.gen_slot).tolist() == [5.0]
    delivered, total = deliver_at(m, np.array([0]), np.array([1]), 15)
    assert delivered.tolist() == [0] and total == 5
    assert m.rbs_left[0] == 0


def test_exponential_delivery_age():
    m = pending()
    activate(m, [0], 0, kind_u=0.5, p_linear=1.0 - 0.99)
    assert m.exponential[0]
    delivered, total = deliver_at(m, np.array([0]), np.array([1]), 4)
    assert total == 8 and type(total) is int


def test_idle_device_has_no_age():
    m = pending(2)
    assert m.rbs_left.tolist() == [0, 0]
    activate(m, [0], 1, kind_u=0.0, p_linear=0.75)
    with pytest.raises(ValueError, match=r"devices \[1\] have no pending message"):
        deliver_success(m, np.array([0, 1]), np.array([1, 1]))


def test_future_aoi_uses_lookahead():
    # the stacks rank messages by their age beta slots ahead
    m = pending()
    activate(m, [0], 0, kind_u=0.0, p_linear=0.75)
    for beta, age in ((1, 5), (3, 7)):
        assert aoi_array(m.exponential, 4 + beta, m.gen_slot).tolist() == [age]
        assert aoi_value(AgingKind.LINEAR, 4 + beta, int(m.gen_slot[0])) == age


def test_partial_credit_keeps_the_message_pending():
    m = pending(3)
    activate(m, [0, 1, 2], 2, kind_u=np.array([0.0, 0.9, 0.9]), p_linear=0.75,
             n_rbs_max=4, size_u=np.array([0.99, 0.3, 0.99]))
    assert m.rbs_left.tolist() == [4, 2, 4]
    # a grant beyond the RBs left completes the message too
    delivered, total = deliver_at(m, np.array([0, 1, 2]), np.array([3, 3, 4]), 6)
    assert delivered.tolist() == [1, 2] and total == 8 + 8
    assert m.rbs_left.tolist() == [1, 0, 0]
    delivered, total = deliver_at(m, np.array([0]), np.array([1]), 7)
    assert delivered.tolist() == [0] and total == 5


class FixedDraws:
    """Slot draws of one device: act_u for the activation coin, 0 elsewhere."""

    def __init__(self, act_u):
        self.act_u = act_u

    def vec(self, slot, phase, ids):
        return np.full(len(ids), self.act_u if phase == _PH_ACTIVATE else 0.0)


def test_activation_step_leaves_active_device_alone():
    m = pending()
    activate(m, [0], 0, kind_u=0.0, p_linear=0.75)
    hits = _activation_sweep(m, np.array([0.75]), 9, ScenarioConfig(n_devices=1, v_a=1.0),
                             FixedDraws(0.0))
    assert hits.tolist() == [] and m.gen_slot[0] == 0


def test_activation_step_threshold():
    m = pending()
    config = ScenarioConfig(n_devices=1, v_a=0.3)
    _activation_sweep(m, np.array([0.75]), 5, config, FixedDraws(0.31))
    assert m.rbs_left[0] == 0
    hits = _activation_sweep(m, np.array([0.75]), 5, config, FixedDraws(0.29))
    assert hits.tolist() == [0] and m.rbs_left[0] == 1 and m.gen_slot[0] == 5


def test_make_devices_layout_and_types():
    rng = np.random.default_rng(7)
    positions, types, p_linear = make_devices(500, 0.6, 0.75, 0.75, 10.0, 10.0, rng)
    assert positions.shape == (500, 2) and types.shape == p_linear.shape == (500,)
    assert ((0.0 <= positions) & (positions <= 10.0)).all()
    assert set(types.tolist()) == {TypeId.TYPE1.value, TypeId.TYPE2.value}
    share = (types == TypeId.TYPE1.value).mean()
    assert 0.5 < share < 0.7
    assert p_linear.tolist() == [0.75 if code == TypeId.TYPE1.value else 0.25
                                 for code in types.tolist()]
    # positions come first in the stream, then one type draw per device
    rng = np.random.default_rng(7)
    xy = rng.random((500, 2)) * [10.0, 10.0]
    assert (positions == xy).all()
    assert ((types == TypeId.TYPE1.value) == (rng.random(500) < 0.6)).all()
    again = make_devices(500, 0.6, 0.75, 0.75, 10.0, 10.0, np.random.default_rng(7))
    for a, b in zip(again, (positions, types, p_linear)):
        assert (a == b).all()
