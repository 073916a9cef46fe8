"""Slotted simulator of age-aware uplink resource-block allocation."""

from .aging import AgingKind, age_forward, aoi_array, aoi_value, linear_only
from .centralized import (RachConfig, TypeLearner, Variant,
                          expected_future_aoi, identify_aging, learn_type,
                          marginal_expected_future_aoi, priority_key,
                          rach_collision_probability, rach_phase, schedule,
                          tie_class)
from .channel import (ChannelModel, Outcome, epsilon_for_outage,
                      outage_probability, outage_table, resolve_transmissions)
from .devices import (Device, DeviceType, PendingMessages, TypeId, activate,
                      deliver_success, make_devices, type1, type2)
from .distributed import (FullInfoGame, GameParams, NashResult,
                          delegate_target, kappa, kth_largest,
                          random_selection, reaches_threshold, sca_step,
                          service_rate_closed_form)
from .engine import (ConfigError, Mode, RunResult, RunSummary, ScenarioConfig,
                     SlotRecord, replicate_seed, run, run_many, sweep_iter)
from .planner import TransmissionPlan, plan_message
from .presets import expand_preset, preset_description, preset_names

__version__ = "0.1.0"

__all__ = [
    "AgingKind", "age_forward", "aoi_array", "aoi_value", "linear_only",
    "RachConfig", "TypeLearner", "Variant",
    "expected_future_aoi", "identify_aging", "learn_type",
    "marginal_expected_future_aoi", "priority_key",
    "rach_collision_probability", "rach_phase", "schedule", "tie_class",
    "ChannelModel", "Outcome", "epsilon_for_outage", "outage_probability",
    "outage_table", "resolve_transmissions",
    "Device", "DeviceType", "PendingMessages", "TypeId", "activate",
    "deliver_success", "make_devices", "type1", "type2",
    "FullInfoGame", "GameParams", "NashResult", "delegate_target", "kappa",
    "kth_largest", "random_selection", "reaches_threshold", "sca_step",
    "service_rate_closed_form",
    "ConfigError", "Mode", "RunResult", "RunSummary", "ScenarioConfig",
    "SlotRecord", "replicate_seed", "run", "run_many", "sweep_iter",
    "TransmissionPlan", "plan_message",
    "expand_preset", "preset_description", "preset_names",
]
