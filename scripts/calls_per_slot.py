"""Python-level calls per slot of ``engine.run_many``, counted with ``sys.setprofile``.

Slots/s on a shared host moves by a few percent from run to run; the number
of calls a slot makes does not. This script runs ``aoisim.cli.main`` on the
argv of each workload in ``perfbench/workloads.json`` (its ``{seed}``,
``{slots}`` and ``{out}`` filled in) and on the ``ScenarioConfig``
defaults, and counts the ``call`` events (Python functions) and ``c_call``
events (builtins and C methods) raised inside ``run_many``, divided by the
slots its loops ran, after one uncounted run of the same argv, at seed 0.
Set-up inside ``run_many`` is counted too; output writing and argument
parsing are not. A count repeats exactly for one argv and seed.

    PYTHONPATH=src python3 scripts/calls_per_slot.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from aoisim import cli, engine  # noqa: E402

WORKLOADS = ROOT / "perfbench" / "workloads.json"
DEFAULTS_ARGV = ["run", "--out", "{out}", "--quiet"]


def workload_argvs() -> dict[str, tuple[list[str], int]]:
    """name -> (argv template, slots): the perfbench workloads, then the defaults."""
    spec = json.loads(WORKLOADS.read_text())["workloads"]
    argvs = {name: (w["argv"], w["slots"]) for name, w in spec.items()}
    argvs["defaults"] = (DEFAULTS_ARGV, engine.ScenarioConfig().slots)
    return argvs


def count_calls(argv: list[str]) -> dict:
    """Loop slots and ``call``/``c_call`` event counts of the ``run_many``
    calls that ``cli.main(argv)`` makes."""
    counts = Counter()
    slots = 0

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            counts[event] += 1

    original = engine.run_many

    def counted(configs):
        nonlocal slots
        configs = list(configs)
        slots += configs[0].slots
        sys.setprofile(profile)
        try:
            return original(configs)
        finally:
            sys.setprofile(None)

    engine.run_many = counted
    try:
        code = cli.main(argv)
    finally:
        engine.run_many = original
    if code != 0:
        raise RuntimeError(f"aoisim exited {code} on {argv}")
    return {"slots": slots, "call": counts["call"], "c_call": counts["c_call"]}


def measure(template: list[str], slots: int, seed: int) -> dict:
    """Calls per slot of one workload's argv template at seed."""
    with tempfile.TemporaryDirectory() as tmp:
        fill = {"{seed}": str(seed), "{slots}": str(slots),
                "{out}": str(Path(tmp) / "out.csv")}
        argv = [fill.get(arg, arg) for arg in template]
        # an uncounted run first, so the one-time work of a process (lazy
        # imports, ABC caches) is not counted
        count_calls(argv)
        counted = count_calls(argv)
    per_slot = {event: counted[event] / counted["slots"] for event in ("call", "c_call")}
    return {"slots": counted["slots"], "call_per_slot": per_slot["call"],
            "c_call_per_slot": per_slot["c_call"],
            "per_slot": per_slot["call"] + per_slot["c_call"]}


def main() -> int:
    print(f"{'workload':<18} {'slots':>6} {'call':>8} {'c_call':>8} {'per slot':>9}")
    for name, (template, slots) in workload_argvs().items():
        r = measure(template, slots, seed=0)
        print(f"{name:<18} {r['slots']:>6} {r['call_per_slot']:>8.1f} "
              f"{r['c_call_per_slot']:>8.1f} {r['per_slot']:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
