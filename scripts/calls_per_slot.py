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

Each config's count is also broken down by the ``aoisim`` function that made
the calls: a call is charged to the innermost ``aoisim`` frame on the stack
when it is made, so the calls numpy's Python functions make in turn go to
the ``aoisim`` function that called numpy. The top BREAKDOWN functions are
printed under each config, calls per slot each.

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
PACKAGE = str(Path(engine.__file__).resolve().parent)
# functions listed under each config
BREAKDOWN = 15


def workload_argvs() -> dict[str, tuple[list[str], int]]:
    """name -> (argv template, slots): the perfbench workloads, then the defaults."""
    spec = json.loads(WORKLOADS.read_text())["workloads"]
    argvs = {name: (w["argv"], w["slots"]) for name, w in spec.items()}
    argvs["defaults"] = (DEFAULTS_ARGV, engine.ScenarioConfig().slots)
    return argvs


def _maker(frame, names: dict) -> str:
    """``module.qualname`` of the innermost ``aoisim`` function on frame's
    stack; names caches each code object's name ('' outside the package)."""
    while frame is not None:
        code = frame.f_code
        name = names.get(code)
        if name is None:
            path = Path(code.co_filename)
            name = (f"{path.stem}.{code.co_qualname}"
                    if str(path.parent) == PACKAGE else "")
            names[code] = name
        if name:
            return name
        frame = frame.f_back
    return "(outside aoisim)"


def count_calls(argv: list[str]) -> dict:
    """Loop slots, ``call``/``c_call`` event counts and the calls made by each
    ``aoisim`` function, of the ``run_many`` calls that ``cli.main(argv)`` makes."""
    counts, makers, names = Counter(), Counter(), {}
    slots = 0

    def profile(frame, event, arg):
        if event == "c_call":
            counts[event] += 1
            makers[_maker(frame, names)] += 1
        elif event == "call":
            # the new frame is the callee's; its caller made the call
            counts[event] += 1
            makers[_maker(frame.f_back, names)] += 1

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
    return {"slots": slots, "call": counts["call"], "c_call": counts["c_call"],
            "makers": makers}


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
    # most calls first, ties by name
    by_function = {name: calls / counted["slots"] for name, calls in
                   sorted(counted["makers"].items(), key=lambda item: (-item[1], item[0]))}
    return {"slots": counted["slots"], "call_per_slot": per_slot["call"],
            "c_call_per_slot": per_slot["c_call"],
            "per_slot": per_slot["call"] + per_slot["c_call"],
            "by_function": by_function}


def main() -> int:
    print(f"{'workload':<18} {'slots':>6} {'call':>8} {'c_call':>8} {'per slot':>9}")
    for name, (template, slots) in workload_argvs().items():
        r = measure(template, slots, seed=0)
        print(f"{name:<18} {r['slots']:>6} {r['call_per_slot']:>8.1f} "
              f"{r['c_call_per_slot']:>8.1f} {r['per_slot']:>9.1f}")
        for function, per_slot in list(r["by_function"].items())[:BREAKDOWN]:
            print(f"    {function:<50} {per_slot:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
