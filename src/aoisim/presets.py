"""Canned scenario bundles for the CLI.

Each preset expands to an ordered list of labeled runs. Labels encode the
varied quantity so the output files sort naturally; every job is a complete
ScenarioConfig and can be rerun on its own. Slot counts are sized for a
desk-scale study, not for publication-grade confidence intervals.

The centralized bundles use a large preamble pool and multi-RB messages so
that the scheduler, not random-access collisions, is the binding resource;
with the classic 64-preamble pool at these device counts the surviving
request stream never fills 50 RBs with single-RB messages and the three
scheduler variants collapse onto each other.
"""

from __future__ import annotations

from dataclasses import replace

from .channel import epsilon_for_outage
from .checks import _CONVERGENCE, _RATE_POINTS
from .engine import Mode, ScenarioConfig

_CENTRALIZED_MODES = (
    ("nolearning", Mode.CENTRALIZED_NO_LEARNING),
    ("learning", Mode.CENTRALIZED_LEARNING),
    ("fullinfo", Mode.CENTRALIZED_FULL_INFO),
)
_DISTRIBUTED_MODES = (
    ("sca", Mode.DISTRIBUTED_SCA),
    ("random", Mode.DISTRIBUTED_RANDOM),
    ("predetermined", Mode.DISTRIBUTED_PREDETERMINED),
)

_CENTRAL_BASE = ScenarioConfig(
    n_devices=200, n_rbs=50, slots=3000, preambles=384, n_rbs_max=5,
    mode=Mode.CENTRALIZED_LEARNING, seed=0)
_DIST_BASE = ScenarioConfig(
    n_devices=200, n_rbs=50, slots=3000, r_c=10.0,
    mode=Mode.DISTRIBUTED_SCA, seed=0)


def _fmt(value) -> str:
    text = f"{value:g}" if isinstance(value, float) else str(value)
    return text.replace(".", "p")


def _centralized_activation_sweep(hetero: bool):
    jobs = []
    for tag, mode in _CENTRALIZED_MODES:
        for v_a in (0.1, 0.2, 0.3, 0.4, 0.5):
            jobs.append((f"{tag}_va{_fmt(v_a)}",
                         replace(_CENTRAL_BASE, mode=mode, v_a=v_a,
                                 heterogeneous_power=hetero)))
    return jobs


def _centralized_outage_sweep():
    jobs = []
    for tag, mode in _CENTRALIZED_MODES:
        for eps in (1.0, 5.0, 10.0, 20.0):
            jobs.append((f"{tag}_eps{_fmt(eps)}",
                         replace(_CENTRAL_BASE, mode=mode, v_a=0.2, epsilon=eps)))
    return jobs


def _distributed_activation_sweep(hetero: bool):
    jobs = []
    for tag, mode in _DISTRIBUTED_MODES:
        for v_a in (0.25, 0.35, 0.45):
            jobs.append((f"{tag}_va{_fmt(v_a)}",
                         replace(_DIST_BASE, mode=mode, v_a=v_a,
                                 heterogeneous_power=hetero)))
    return jobs


def _distributed_outage_sweep():
    base = replace(_DIST_BASE, n_devices=50, v_a=1.0, slots=2000)
    jobs = []
    for p in (0.01, 0.03, 0.05):
        eps = epsilon_for_outage(p, base.mean_snr_db)
        jobs.append((f"sca_p{_fmt(p)}",
                     replace(base, mode=Mode.DISTRIBUTED_SCA, epsilon=eps)))
    jobs.append(("random_p0p01",
                 replace(base, mode=Mode.DISTRIBUTED_RANDOM,
                         epsilon=epsilon_for_outage(0.01, base.mean_snr_db))))
    return jobs


def _distributed_range_sweep():
    base = replace(_DIST_BASE, n_devices=50, v_a=1.0, slots=2000)
    jobs = [(f"sca_rc{_fmt(rc)}", replace(base, mode=Mode.DISTRIBUTED_SCA, r_c=rc))
            for rc in (1.0, 5.0, 10.0, 15.0)]
    jobs.append(("random", replace(base, mode=Mode.DISTRIBUTED_RANDOM, r_c=15.0)))
    jobs.append(("predetermined",
                 replace(base, mode=Mode.DISTRIBUTED_PREDETERMINED, r_c=15.0)))
    return jobs


def _lookahead_sweep():
    central = replace(_CENTRAL_BASE, n_devices=100, v_a=1.0, slots=2000)
    dist = replace(_DIST_BASE, n_devices=100, v_a=1.0, slots=2000)
    jobs = []
    for beta in (1, 2, 3):
        for tag, mode in _CENTRALIZED_MODES:
            jobs.append((f"{tag}_beta{beta}",
                         replace(central, mode=mode, beta=beta)))
        for tag, mode in _DISTRIBUTED_MODES:
            jobs.append((f"{tag}_beta{beta}",
                         replace(dist, mode=mode, beta=beta)))
    return jobs


def _stack_comparison_sweep():
    jobs = []
    for v_a in (0.1, 0.3, 0.5):
        jobs.append((f"learning_va{_fmt(v_a)}",
                     replace(_CENTRAL_BASE, mode=Mode.CENTRALIZED_LEARNING,
                             v_a=v_a)))
        for rc in (5.0, 10.0, 15.0):
            jobs.append((f"sca_rc{_fmt(rc)}_va{_fmt(v_a)}",
                         replace(_DIST_BASE, mode=Mode.DISTRIBUTED_SCA,
                                 r_c=rc, v_a=v_a)))
    return jobs


def _two_device_game():
    return [("sca", ScenarioConfig(
        n_devices=2, n_rbs=2, slots=50, v_a=1.0, epsilon=0.0, r_c=15.0,
        mode=Mode.DISTRIBUTED_SCA, seed=0))]


def _random_rate_points():
    return [(f"t{n}_r{r}", ScenarioConfig(
        n_devices=n, n_rbs=r, slots=10_000, v_a=1.0, epsilon=0.0,
        r_c=15.0, mode=Mode.DISTRIBUTED_RANDOM, seed=0)) for n, r in _RATE_POINTS]


def _convergence_run():
    return [("sca", _CONVERGENCE)]


_PRESETS = {
    "central_activation": ("centralized schedulers vs activation probability",
                           lambda: _centralized_activation_sweep(False)),
    "central_activation_hetero": (
        "centralized schedulers vs activation, heterogeneous power",
        lambda: _centralized_activation_sweep(True)),
    "central_outage": ("centralized schedulers vs outage level",
                       _centralized_outage_sweep),
    "dist_activation": ("distributed allocators vs activation probability",
                        lambda: _distributed_activation_sweep(False)),
    "dist_activation_hetero": (
        "distributed allocators vs activation, heterogeneous power",
        lambda: _distributed_activation_sweep(True)),
    "dist_outage": ("distributed allocators vs outage level",
                    _distributed_outage_sweep),
    "dist_range": ("crowd-avoidance vs sensing range",
                   _distributed_range_sweep),
    "lookahead": ("both stacks vs priority look-ahead",
                  _lookahead_sweep),
    "stack_comparison": ("centralized vs distributed at scale",
                         _stack_comparison_sweep),
    "two_device_game": ("two-device game on two RBs", _two_device_game),
    "random_rate": ("random-selection service-rate reference points",
                    _random_rate_points),
    "convergence": ("crowd-avoidance convergence run", _convergence_run),
}


def preset_names() -> list[str]:
    return list(_PRESETS)


def preset_description(name: str) -> str:
    return _PRESETS[name][0]


def expand_preset(name: str) -> list[tuple[str, ScenarioConfig]]:
    """Labeled run list for a preset; unknown names raise KeyError."""
    if name not in _PRESETS:
        raise KeyError(name)
    return list(_PRESETS[name][1]())
