"""Slotted simulator of age-aware uplink resource-block allocation."""

from .aging import AgingKind, age_forward, aoi_array, aoi_value, linear_only
from .centralized import (TypeLearner, identify_aging, learn_type,
                          priority_key, rach_collision_probability, rach_phase,
                          schedule, tie_class)
from .channel import (epsilon_for_outage, outage_probability, outage_table,
                      resolve_transmissions)
from .devices import (PendingMessages, TypeId, activate, deliver_success,
                      make_devices)
from .distributed import (FullInfoGame, GameParams, NashResult,
                          delegate_target, kappa, kth_largest,
                          random_selection, reaches_threshold, sca_step,
                          service_rate_closed_form)
from .engine import (ConfigError, Mode, RunResult, RunSummary, ScenarioConfig,
                     SlotRecord, loop_batches, replicate_seed, run, run_many,
                     sweep_iter)
from .planner import first_parts
from .presets import expand_preset, preset_description, preset_names

__version__ = "0.1.0"

__all__ = [
    "AgingKind", "age_forward", "aoi_array", "aoi_value", "linear_only",
    "TypeLearner", "identify_aging", "learn_type", "priority_key",
    "rach_collision_probability", "rach_phase", "schedule", "tie_class",
    "epsilon_for_outage", "outage_probability", "outage_table",
    "resolve_transmissions",
    "PendingMessages", "TypeId", "activate", "deliver_success", "make_devices",
    "FullInfoGame", "GameParams", "NashResult", "delegate_target", "kappa",
    "kth_largest", "random_selection", "reaches_threshold", "sca_step",
    "service_rate_closed_form",
    "ConfigError", "Mode", "RunResult", "RunSummary", "ScenarioConfig",
    "SlotRecord", "loop_batches", "replicate_seed", "run", "run_many",
    "sweep_iter",
    "first_parts",
    "expand_preset", "preset_description", "preset_names",
]
