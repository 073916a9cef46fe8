"""Per-layer call tracing, installed from outside the simulator.

Nothing under ``src/`` knows about this module. ``install`` rebinds the names
through which the engine and the CLI reach each layer (``aoisim.engine.schedule``,
``aoisim.engine.SlotDraws.vec``, ``aoisim.cli.write_run_csv``, ...) to wrappers
that time every call, so a layer's time is measured at its call boundary.

Two kinds of hook keep memory bounded:

* ``SPAN`` hooks wrap calls made a few times per slot (draws, activation,
  RACH, scheduling, the game step, channel resolution, output). Each call is
  kept in memory as one span: layer, start, end, parent span and self time.
* ``AGGREGATE`` hooks wrap the per-request and per-device calls (10^5 to 10^6
  per run). They are folded into ``(calls, total, self)`` under the span that
  encloses them.

A layer's self time is its total time minus the time of the hooked calls made
inside it. The root span, named ``engine``, is the whole CLI call, so its self
time is what the engine does outside every hooked layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable

SPAN = "span"
AGGREGATE = "aggregate"
ROOT_LAYER = "engine"


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    target: str                 # attribute path inside the module, e.g. "SlotDraws.vec"
    kind: str
    observe: Callable | None = None   # observe(counters, args, result) after the call


def _add(counters: dict, key: str, amount: int) -> None:
    counters[key] = counters.get(key, 0) + amount


def _count_rach(counters, args, survivors) -> None:
    _add(counters, "rach.active", len(args[0]))
    _add(counters, "rach.survived", len(survivors))


def _count_identify(counters, args, kind) -> None:
    _add(counters, "learner.identify_calls", 1)
    _add(counters, "learner.identified", kind is not None)


def _count_outcomes(counters, args, outcomes) -> None:
    _add(counters, "channel.attempts", len(outcomes))
    _add(counters, "channel.successes",
         sum(1 for o in outcomes.values() if o.value == "success"))


HOOKS = (
    Hook("engine.draws", "aoisim.engine", "SlotDraws.vec", SPAN),
    Hook("engine.activation", "aoisim.engine", "_activation_sweep", SPAN),
    Hook("devices", "aoisim.engine", "activate", AGGREGATE),
    Hook("devices", "aoisim.engine", "current_aoi", AGGREGATE),
    Hook("devices", "aoisim.engine", "future_aoi", AGGREGATE),
    Hook("devices", "aoisim.engine", "deliver_success", AGGREGATE),
    Hook("centralized.rach", "aoisim.engine", "rach_phase", SPAN, _count_rach),
    Hook("centralized.learner", "aoisim.engine", "identify_aging", AGGREGATE,
         _count_identify),
    Hook("centralized.learner", "aoisim.engine", "learn_type", AGGREGATE),
    Hook("centralized.learner", "aoisim.centralized", "learn_type", AGGREGATE),
    Hook("centralized.learner", "aoisim.centralized", "TypeLearner.observe",
         AGGREGATE),
    Hook("centralized.priority", "aoisim.centralized", "priority_key", AGGREGATE),
    Hook("centralized.schedule", "aoisim.engine", "schedule", SPAN),
    Hook("planner", "aoisim.engine", "plan_message", AGGREGATE),
    Hook("distributed.game", "aoisim.engine", "_game_actions", SPAN),
    Hook("distributed.sca", "aoisim.engine", "sca_step", AGGREGATE),
    Hook("distributed.delegate", "aoisim.engine", "delegate_target", AGGREGATE),
    Hook("distributed.kth", "aoisim.engine", "kth_largest", SPAN),
    Hook("distributed.predetermined", "aoisim.engine", "predetermined_actions",
         SPAN),
    Hook("channel", "aoisim.engine", "resolve_slot", SPAN, _count_outcomes),
    Hook("cli.output", "aoisim.cli", "write_run_csv", SPAN),
    Hook("cli.output", "aoisim.cli", "_write_sweep", SPAN),
)

# every layer the benchmark reports, in report order; the root comes first
LAYERS = (ROOT_LAYER,) + tuple(dict.fromkeys(h.layer for h in HOOKS))


class Tracer:
    """Span and aggregate store for one traced process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []        # (layer, start, end, parent index, self_s)
        self.aggregates: dict = {}   # (owning span index, layer) -> [calls, total_s, self_s]
        self.counters: dict = {}
        self._stack: list = []       # frames: [owning span index, seconds in hooked children]

    def call(self, layer: str, kind: str, fn, args=(), kwargs=None):
        """Run fn(*args, **kwargs) as one traced call of `layer`."""
        stack = self._stack
        owner = stack[-1][0] if stack else -1
        if kind == SPAN:
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
        else:
            frame = [owner, 0.0]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = self.clock()
            stack.pop()
            total = end - start
            if stack:
                stack[-1][1] += total
            self_s = total - frame[1]
            if kind == SPAN:
                self.spans[index] = (layer, start, end, owner, self_s)
            else:
                agg = self.aggregates.get((owner, layer))
                if agg is None:
                    self.aggregates[(owner, layer)] = [1, total, self_s]
                else:
                    agg[0] += 1
                    agg[1] += total
                    agg[2] += self_s

    def layer_totals(self) -> dict[str, list]:
        """layer -> [calls, self seconds], zero for layers never called."""
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for layer, _, _, _, self_s in self.spans:
            entry = totals.setdefault(layer, [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        for (_, layer), (calls, _, self_s) in self.aggregates.items():
            entry = totals.setdefault(layer, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return totals

    def write(self, path) -> None:
        """Write every span, with the aggregates it owns, as one JSON file."""
        owned: dict[int, dict] = {}
        for (owner, layer), (calls, total, self_s) in self.aggregates.items():
            owned.setdefault(owner, {})[layer] = [calls, total, self_s]
        spans = [[layer, start, end, parent, self_s, owned.get(i, {})]
                 for i, (layer, start, end, parent, self_s) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "self_s",
                                  "aggregates"],
                       "spans": spans, "counters": self.counters}, fh)


def _wrap(tracer: Tracer, hook: Hook, fn):
    layer, kind, observe = hook.layer, hook.kind, hook.observe

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        result = tracer.call(layer, kind, fn, args, kwargs)
        if observe is not None:
            observe(tracer.counters, args, result)
        return result
    return hooked


def install(tracer: Tracer, hooks=HOOKS):
    """Rebind every hook target; return (restore, missing target names).

    A target that no longer exists is listed as missing and left alone, so a
    refactor that removes a function does not stop the benchmark.
    """
    installed, missing = [], []
    for hook in hooks:
        try:
            owner = importlib.import_module(hook.module)
            *path, name = hook.target.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(f"{hook.module}.{hook.target}")
            continue
        setattr(owner, name, _wrap(tracer, hook, original))
        installed.append((owner, name, original))

    def restore() -> None:
        for owner, name, original in reversed(installed):
            setattr(owner, name, original)
    return restore, missing


def ratios(counters: dict, cache_info=None) -> dict[str, float]:
    """Useful-outcome ratios, each with its base (the attempts it divides by)."""
    out: dict[str, float] = {}

    def ratio(name: str, num: int, base: int) -> None:
        out[name] = num / base if base else 0.0
        out[name + ".base"] = base

    ratio("centralized.rach.survival_ratio", counters.get("rach.survived", 0),
          counters.get("rach.active", 0))
    ratio("centralized.learner.identified_ratio",
          counters.get("learner.identified", 0),
          counters.get("learner.identify_calls", 0))
    hits = cache_info.hits if cache_info else 0
    ratio("planner.cache_hit_ratio", hits,
          hits + cache_info.misses if cache_info else 0)
    ratio("channel.success_ratio", counters.get("channel.successes", 0),
          counters.get("channel.attempts", 0))
    return out
