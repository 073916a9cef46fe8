"""aoisim benchmark: slot throughput of three reference scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --pin

Every repetition runs ``aoisim.cli.main`` in a fresh interpreter, one at a
time (``child.py``), on the workload's argv from ``workloads.json``. Its
output is checked against the run invariants and against the digest pinned
for the simulation seed, which is ``--seed`` modulo ``seed_modulus``. A crash,
a broken invariant or a digest mismatch is a failed operation.

``--trace 0`` reports, per workload, the median over repetitions of
``slots_per_s`` (simulated slots per wall second of the ``main`` call),
``setup_s`` (wall time of a fresh interpreter that imports aoisim and runs a
one-slot invocation of the workload, in its own process) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced repetitions and reports every
layer's calls and self time (see ``tracer.py``), the useful-outcome ratios
with their bases, and ``tracing.overhead``. ``--workload all`` runs every
workload round-robin, so drift in host speed hits all of them alike.

A shared host switches between speeds up to about 2x apart, for seconds to
minutes at a time, and CPU time moves with wall time. So both timings are
scaled to a reference host speed. ``slots_per_s`` is multiplied by the
child's ``slowdown``: how much longer than its reference a fixed pure-Python
loop took in the same process right before and after ``main`` (see
``child.py``). ``setup_s`` has two parts that follow host speed differently.
Interpreter start-up and the numpy import are scaled by a bare interpreter
that imports numpy (``reference_start``), timed right before and right after
the set-up run, against ``START_REF_S``; the aoisim import and the one-slot
``main`` call are scaled by the child's ``slowdown``. The unscaled medians are
printed as well. Layer self times are not scaled; ``tracing.overhead``
compares scaled times.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--pin`` reruns every workload
once per simulation seed and rewrites the pinned digests; do that only in a
change that alters simulated values on purpose, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import outputs
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = HERE / "workloads.json"
WORK = HERE / ".work"
MIN_ROUNDS = 3
MAX_BUDGET_S = 150.0         # stop starting rounds past this, so a run ends within 180 s
CHILD_TIMEOUT_S = 120.0
START_REF_S = 0.12           # reference_start() at reference speed, same guest
END_TO_END = {"slots_per_s": "slots/s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here at all; no result is printed."""


@dataclass
class Workload:
    name: str
    why: str
    kind: str
    slots: int
    runs: int
    argv: list
    loads: list
    bypasses: list
    digests: dict

    def cli_argv(self, seed: int, out: Path, slots: int | None = None) -> list[str]:
        values = {"seed": seed, "out": out, "slots": self.slots if slots is None else slots}
        return [arg.format(**values) for arg in self.argv]

    @property
    def slots_per_invocation(self) -> int:
        return self.slots * self.runs


def load_spec(path: Path = SPEC_PATH) -> tuple[int, dict[str, Workload]]:
    spec = json.loads(path.read_text())
    return spec["seed_modulus"], {name: Workload(name=name, **body)
                                  for name, body in spec["workloads"].items()}


def run_child(mode: str, argv: list[str], trace_file: Path | None = None):
    """(report or None, parent-side wall seconds, error text) for one child.

    The report gains ``spawned``, the parent's ``time.monotonic()`` just
    before the child was started.
    """
    cmd = [sys.executable, str(HERE / "child.py"), mode, json.dumps(argv)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"timed out after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, f"exit {proc.returncode}: {proc.stderr.strip()[-800:]}"
    report = json.loads(lines[-1])
    report["spawned"] = spawned
    if report["rc"] != 0:
        return None, wall, f"aoisim exit {report['rc']}: {proc.stderr.strip()[-800:]}"
    return report, wall, ""


def reference_start() -> float:
    """Wall seconds of a bare interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def _check_output(w: Workload, path: Path, sim_seed: int) -> tuple[str | None, list[str]]:
    digest, problems = outputs.check(path, w.kind, w.slots, w.runs)
    pin = w.digests.get(str(sim_seed))
    if digest is not None and digest != pin:
        problems.append(f"digest {digest[:16]} does not match pin "
                        f"{(pin or 'none')[:16]} for simulation seed {sim_seed}")
    return digest, problems


def plain_rep(w: Workload, sim_seed: int) -> dict:
    """One set-up run of a workload, then one timed run of it."""
    out = WORK / f"{w.name}.csv"
    rep = {"problems": []}
    before = reference_start()
    setup, _, err = run_child(
        "setup", w.cli_argv(sim_seed, WORK / f"{w.name}.setup.csv", slots=1))
    start_slowdown = (before + reference_start()) / 2 / START_REF_S
    if setup is None:
        rep["problems"].append(f"setup: {err}")
    else:
        startup = setup["numpy_ready"] - setup["spawned"]
        program = setup["main_end"] - setup["numpy_ready"]
        rep.update(raw_setup_s=startup + program,
                   setup_s=startup / start_slowdown + program / setup["slowdown"])
    report, _, err = run_child("plain", w.cli_argv(sim_seed, out))
    if report is None:
        rep["problems"].append(err)
        return rep
    digest, problems = _check_output(w, out, sim_seed)
    rep["problems"] += problems
    raw_rate = w.slots_per_invocation / report["wall_s"]
    rep.update(digest=digest, raw_slots_per_s=raw_rate,
               slots_per_s=raw_rate * report["slowdown"],
               peak_rss_mb=report["peak_rss_mb"])
    return rep


def traced_rep(w: Workload, sim_seed: int) -> dict:
    """An untraced repetition and a traced one of the same workload."""
    rep = {"problems": []}
    out = WORK / f"{w.name}.csv"
    report, _, err = run_child("plain", w.cli_argv(sim_seed, out))
    if report is None:
        rep["problems"].append(err)
        return rep
    digest, problems = _check_output(w, out, sim_seed)
    rep["problems"] += problems
    traced_out = WORK / f"{w.name}.traced.csv"
    traced, _, err = run_child("traced", w.cli_argv(sim_seed, traced_out),
                               WORK / f"{w.name}.trace.json")
    if traced is None:
        rep["problems"].append(f"traced: {err}")
        return rep
    traced_digest, problems = _check_output(w, traced_out, sim_seed)
    rep["problems"] += [f"traced: {p}" for p in problems]
    if traced_digest != digest:
        rep["problems"].append("traced output differs from untraced output")
    rep.update(digest=digest, traced_wall_s=traced["wall_s"],
               cost=report["wall_s"] / report["slowdown"],
               traced_cost=traced["wall_s"] / traced["slowdown"],
               layers=traced["layers"], ratios=traced["ratios"],
               missing=traced["missing"])
    return rep


def measure(workloads: list[Workload], sim_seed: int, seconds: float,
            trace: bool) -> dict[str, list[dict]]:
    """Repetitions per workload, one workload after another in each round."""
    rep_fn = traced_rep if trace else plain_rep
    budget = min(seconds * len(workloads), MAX_BUDGET_S)
    reps: dict[str, list[dict]] = {w.name: [] for w in workloads}
    start = time.perf_counter()
    rounds = 0
    while True:
        for w in workloads:
            reps[w.name].append(rep_fn(w, sim_seed))
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        if elapsed + per_round > MAX_BUDGET_S:
            break
        if rounds >= MIN_ROUNDS and elapsed + per_round > budget:
            break
    return reps


def _median(values) -> float:
    return statistics.median(values)


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise_plain(w: Workload, reps: list[dict]) -> tuple[dict, list[str]]:
    good = [r for r in reps if not r["problems"]]
    notes = [f"{w.name}: {len(reps)} repetitions, {len(reps) - len(good)} failed"]
    for r in reps:
        notes += [f"  failed: {p}" for p in r["problems"]]
    if not good:
        return {}, notes
    metrics = {}
    for name in END_TO_END:
        values = [r[name] for r in good]
        metrics[name] = _median(values)
        q1, q3 = _quartiles(values)
        notes.append(f"  {name:<12} {metrics[name]:12.4f} {END_TO_END[name]:<8}"
                     f" (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})")
        if "raw_" + name in good[0]:
            raw = _median([r["raw_" + name] for r in good])
            notes.append(f"  {'':<12} {raw:12.4f} unscaled by host speed")
    notes.append(f"  digest {good[0]['digest']} matches its pin")
    return metrics, notes


def summarise_traced(w: Workload, reps: list[dict]) -> tuple[dict, list[str]]:
    good = [r for r in reps if not r["problems"]]
    notes = [f"{w.name}: {len(reps)} traced repetitions, {len(reps) - len(good)} failed"]
    for r in reps:
        notes += [f"  failed: {p}" for p in r["problems"]]
    if not good:
        return {}, notes
    first = good[0]
    for r in good[1:]:
        if {k: v[0] for k, v in r["layers"].items()} != \
                {k: v[0] for k, v in first["layers"].items()}:
            r["problems"].append("layer call counts differ between traced runs")
        if r["ratios"] != first["ratios"]:
            r["problems"].append("ratios differ between traced runs")
    good = [r for r in good if not r["problems"]]
    if not good:
        return {}, notes + ["  failed: traced runs disagree"]
    metrics = {}
    traced_wall = _median([r["traced_wall_s"] for r in good])
    notes.append(f"  {'layer':<28}{'calls':>10}{'self_s':>12}{'share':>8}")
    for layer in tracing.LAYERS:
        calls = first["layers"][layer][0]
        self_s = _median([r["layers"][layer][1] for r in good])
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        notes.append(f"  {layer:<28}{calls:>10}{self_s:>12.4f}"
                     f"{self_s / traced_wall:>8.1%}")
    metrics.update(first["ratios"])
    metrics["tracing.overhead"] = (_median([r["traced_cost"] for r in good])
                                   / _median([r["cost"] for r in good]) - 1)
    notes += [f"  {name} = {value:.6g}" for name, value in first["ratios"].items()]
    notes.append(f"  tracing.overhead = {metrics['tracing.overhead']:.3f}")
    if first["missing"]:
        notes.append("  missing hooks: " + ", ".join(first["missing"]))
    busy = [layer for layer in w.bypasses if first["layers"][layer][0]]
    if busy:
        notes.append("  layers expected to be bypassed but called: " + ", ".join(busy))
    return metrics, notes


def environment(workloads: list[Workload], sim_seed: int, numpy_version: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        usable_cpus = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": usable_cpus, "commit": commit or "unknown",
            "source_sha256": source.hexdigest(), "simulation_seed": sim_seed,
            "horizons": {w.name: {"slots": w.slots, "runs": w.runs}
                         for w in workloads}}


def expected_metrics(bench_path: Path = ROOT / "BENCHMARK.json") -> dict[bool, dict]:
    """Metric name -> unit for trace off (False) and on (True), from BENCHMARK.json."""
    bench = json.loads(bench_path.read_text())
    return {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            True: {m["name"]: m["unit"] for m in bench["per_layer"]}}


def pin(modulus: int, workloads: dict[str, Workload]) -> None:
    spec = json.loads(SPEC_PATH.read_text())
    for w in workloads.values():
        digests = {}
        for sim_seed in range(modulus):
            out = WORK / f"{w.name}.csv"
            report, _, err = run_child("plain", w.cli_argv(sim_seed, out))
            if report is None:
                raise BenchError(f"{w.name} seed {sim_seed}: {err}")
            digest, problems = outputs.check(out, w.kind, w.slots, w.runs)
            if problems:
                raise BenchError(f"{w.name} seed {sim_seed}: {problems}")
            digests[str(sim_seed)] = digest
            print(f"{w.name} seed {sim_seed}: {digest}", flush=True)
        spec["workloads"][w.name]["digests"] = digests
    SPEC_PATH.write_text(json.dumps(spec, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute the pinned output digests and exit")
    args = parser.parse_args(argv)

    try:
        if not (ROOT / "src" / "aoisim" / "__init__.py").is_file():
            raise BenchError(f"no aoisim sources under {ROOT / 'src'}")
        modulus, by_name = load_spec()
        WORK.mkdir(exist_ok=True)
        if args.pin:
            pin(modulus, by_name)
            return 0
        if args.workload == "all":
            workloads = list(by_name.values())
        elif args.workload in by_name:
            workloads = [by_name[args.workload]]
        else:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(by_name)} or all")
        units = expected_metrics()[bool(args.trace)]
        sim_seed = args.seed % modulus
        # warm-up: compiles bytecode and proves the package imports from src/
        warm, _, err = run_child("plain", workloads[0].cli_argv(
            sim_seed, WORK / "warmup.csv", slots=1))
        if warm is None:
            raise BenchError(f"warm-up run failed: {err}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    reps = measure(workloads, sim_seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(environment(workloads, sim_seed, warm["numpy"]),
                                      sort_keys=True))
    summarise = summarise_traced if args.trace else summarise_plain
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for w in workloads:
        values, notes = summarise(w, reps[w.name])
        print("\n".join(notes))
        attempted += len(reps[w.name])
        failed += sum(1 for r in reps[w.name] if r["problems"])
        if set(values) != set(units):
            correct = False
            print(f"  failed: {w.name} reported no value for "
                  f"{sorted(set(units) - set(values))}")
        prefix = "" if len(workloads) == 1 else f"{w.name}."
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units.get(name, "")}
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
