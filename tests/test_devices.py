import numpy as np
import pytest

from aoisim.aging import AgingKind
from aoisim.devices import (Device, TypeId, activate, current_aoi,
                            deliver_success, future_aoi, make_devices, type1,
                            type2)
from aoisim.engine import _PH_ACTIVATE, ScenarioConfig, _activation_sweep


def fresh_device(dev_id=0, dtype=None):
    return Device(id=dev_id, position=(1.0, 2.0), dtype=dtype or type1())


def test_type_classes_complement():
    assert type1(0.75).p_linear == 0.75
    assert type2(0.75).p_linear == 0.25
    assert type1(0.6).p_exponential == pytest.approx(0.4)


def test_activate_kind_follows_uniform_quantile():
    d = fresh_device(dtype=type1(0.75))
    activate(d, 3, kind_u=0.74)
    assert d.aging is AgingKind.LINEAR and d.gen_slot == 3
    d.active = False
    activate(d, 4, kind_u=0.76)
    assert d.aging is AgingKind.EXPONENTIAL


def test_activate_rb_demand_quantile():
    d = fresh_device()
    activate(d, 1, kind_u=0.0, n_rbs_max=4, size_u=0.999)
    assert d.n_rbs == 4 and d.n_remaining == 4
    d.active = False
    activate(d, 2, kind_u=0.0, n_rbs_max=4, size_u=0.0)
    assert d.n_rbs == 1


def test_activate_rb_demand_window():
    d = fresh_device()
    activate(d, 1, kind_u=0.0, n_rbs_max=4, size_u=0.5, n_rbs_min=2)
    assert d.n_rbs == 3                      # quantile of {2,3,4}
    d.active = False
    activate(d, 2, kind_u=0.0, n_rbs_max=3, size_u=0.999, n_rbs_min=3)
    assert d.n_rbs == 3                      # degenerate window ignores size_u
    d.active = False
    with pytest.raises(ValueError):
        activate(d, 3, kind_u=0.0, n_rbs_max=2, size_u=0.0, n_rbs_min=3)


def test_message_lifecycle_ages_and_delivery():
    d = fresh_device()
    activate(d, 10, kind_u=0.0)          # linear message generated at slot 10
    assert current_aoi(d, 11) == 1
    assert current_aoi(d, 15) == 5
    recorded = deliver_success(d, 15)
    assert recorded == 5
    assert not d.active and d.delta == 10


def test_exponential_delivery_age():
    d = fresh_device(dtype=type2(0.99))
    activate(d, 0, kind_u=0.5)           # p_linear = 0.01, so exponential
    assert d.aging is AgingKind.EXPONENTIAL
    assert deliver_success(d, 4) == 8


def test_idle_device_has_no_age():
    d = fresh_device()
    with pytest.raises(ValueError):
        current_aoi(d, 1)
    with pytest.raises(ValueError):
        deliver_success(d, 1)


def test_future_aoi_uses_lookahead():
    d = fresh_device()
    activate(d, 0, kind_u=0.0)
    assert future_aoi(d, 4) == 5
    assert future_aoi(d, 4, beta=3) == 7


class FixedDraws:
    """Slot draws of one device: act_u for the activation coin, 0 elsewhere."""

    def __init__(self, act_u):
        self.act_u = act_u

    def vec(self, slot, phase):
        return np.array([self.act_u if phase == _PH_ACTIVATE else 0.0])


def test_activation_step_leaves_active_device_alone():
    d = fresh_device()
    activate(d, 0, kind_u=0.0)
    gen = d.gen_slot
    _activation_sweep([d], 9, ScenarioConfig(n_devices=1, v_a=1.0), FixedDraws(0.0))
    assert d.gen_slot == gen


def test_activation_step_threshold():
    d = fresh_device()
    config = ScenarioConfig(n_devices=1, v_a=0.3)
    _activation_sweep([d], 5, config, FixedDraws(0.31))
    assert not d.active
    _activation_sweep([d], 5, config, FixedDraws(0.29))
    assert d.active and d.gen_slot == 5


def test_make_devices_layout_and_types():
    rng = np.random.default_rng(7)
    devices = make_devices(500, 0.6, 0.75, 0.75, 10.0, 10.0, rng)
    assert [d.id for d in devices] == list(range(500))
    for d in devices:
        assert 0.0 <= d.position[0] <= 10.0 and 0.0 <= d.position[1] <= 10.0
    share = sum(d.dtype.type_id is TypeId.TYPE1 for d in devices) / 500
    assert 0.5 < share < 0.7
    again = make_devices(500, 0.6, 0.75, 0.75, 10.0, 10.0, np.random.default_rng(7))
    assert [d.dtype.type_id for d in again] == [d.dtype.type_id for d in devices]
    assert [d.position for d in again] == [d.position for d in devices]
