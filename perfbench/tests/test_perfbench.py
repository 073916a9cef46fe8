"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

They are outside the repository's ``tests/`` tree, so the simulator's test
run does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import outputs  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402

RUN_CSV = """\
# mode=distributed_sca
slot,avg_inst_aoi_slot,avg_inst_aoi_cum,service_rate,n_active,n_transmitting,rach_failures,duplicate_failures,outage_failures
1,,,0.0,3,0,0,0,0
2,1.5,1.5,0.4,3,2,0,1,0
"""

SWEEP_CSV = """\
# mode=distributed_sca
parameter,value,replicate,seed,slots,warmup_slots,deliveries,deliveries_postwarmup,mean_delivery_aoi,mean_delivery_aoi_postwarmup,mean_service_rate,mean_service_rate_postwarmup,rach_failures,duplicate_failures,outage_failures
mode,Mode.DISTRIBUTED_SCA,0,0,10,1,40,36,1.25,1.3,0.8,0.81,0,3,1
"""


def _rows(tmp_path, text: str, kind: str):
    path = tmp_path / "out.csv"
    path.write_text(text)
    return outputs.read_rows(path, kind)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_total_minus_hooked_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.tick(1.0)

    def inner():
        clock.tick(2.0)
        tracer.call("leaf", tracing.AGGREGATE, leaf)
        tracer.call("leaf", tracing.AGGREGATE, leaf)
        clock.tick(0.5)

    def root():
        clock.tick(3.0)
        tracer.call("inner", tracing.SPAN, inner)
        tracer.call("leaf", tracing.AGGREGATE, leaf)

    tracer.call("engine", tracing.SPAN, root)
    totals = tracer.layer_totals()
    assert totals["engine"] == [1, 3.0]     # 8.5 total - 4.5 inner - 1.0 leaf
    assert totals["inner"] == [1, 2.5]      # 4.5 total - 2 leaves
    assert totals["leaf"] == [3, 3.0]
    assert tracer.spans == [("engine", 0.0, 8.5, -1, 3.0),
                            ("inner", 3.0, 7.5, 0, 2.5)]
    # aggregated calls sit under the span that encloses them
    assert tracer.aggregates == {(1, "leaf"): [2, 2.0, 2.0],
                                 (0, "leaf"): [1, 1.0, 1.0]}


def test_trace_file_nests_aggregates_under_their_span(tmp_path):
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.call("engine", tracing.SPAN, lambda: tracer.call(
        "leaf", tracing.AGGREGATE, lambda: clock.tick(1.0)))
    tracer.write(tmp_path / "trace.json")
    spans = json.loads((tmp_path / "trace.json").read_text())["spans"]
    assert spans == [["engine", 0.0, 1.0, -1, 0.0, {"leaf": [1, 1.0, 1.0]}]]


def test_missing_hook_target_is_reported_not_raised():
    tracer = tracing.Tracer()
    original = outputs.digest
    hooks = (tracing.Hook("gone", "outputs", "no_such_function", tracing.SPAN),
             tracing.Hook("gone", "no_such_module_for_perfbench", "f", tracing.SPAN),
             tracing.Hook("digest", "outputs", "digest", tracing.SPAN))
    restore, missing = tracing.install(tracer, hooks)
    try:
        assert missing == ["outputs.no_such_function",
                           "no_such_module_for_perfbench.f"]
        outputs.digest([], "run")
    finally:
        restore()
    assert outputs.digest is original
    assert tracer.layer_totals()["digest"][0] == 1


def test_digest_changes_when_one_record_value_changes(tmp_path):
    base = outputs.digest(_rows(tmp_path, RUN_CSV, "run"), "run")
    changed = RUN_CSV.replace("2,1.5,1.5,0.4,", "2,1.5,1.5,0.4000000000000001,")
    assert outputs.digest(_rows(tmp_path, changed, "run"), "run") != base


def test_digest_ignores_how_values_are_printed(tmp_path):
    run_base = outputs.digest(_rows(tmp_path, RUN_CSV, "run"), "run")
    reformatted = RUN_CSV.replace("1,,,0.0,3,0,", "1.0,,,0,3.0,0,")
    assert outputs.digest(_rows(tmp_path, reformatted, "run"), "run") == run_base
    sweep_base = outputs.digest(_rows(tmp_path, SWEEP_CSV, "sweep"), "sweep")
    renamed = SWEEP_CSV.replace("Mode.DISTRIBUTED_SCA", "distributed_sca")
    assert outputs.digest(_rows(tmp_path, renamed, "sweep"), "sweep") == sweep_base


def test_invariants_hold_on_a_valid_output(tmp_path):
    assert outputs.invariant_problems(_rows(tmp_path, RUN_CSV, "run"), "run",
                                      slots=2, runs=1) == []
    assert outputs.invariant_problems(_rows(tmp_path, SWEEP_CSV, "sweep"), "sweep",
                                      slots=10, runs=1) == []


def test_invariants_flag_more_transmitting_than_active(tmp_path):
    bad = RUN_CSV.replace("0.4,3,2,", "0.4,3,4,")
    problems = outputs.invariant_problems(_rows(tmp_path, bad, "run"), "run",
                                          slots=2, runs=1)
    assert problems == ["slot 2.0: n_transmitting 4.0 > n_active 3.0"]


def test_invariants_flag_missing_records_and_deliveries(tmp_path):
    rows = _rows(tmp_path, RUN_CSV, "run")[:1]
    assert outputs.invariant_problems(rows, "run", slots=2, runs=1) == [
        "1 records for 2 slots", "no deliveries"]


@pytest.mark.parametrize("name, slots", [("central_learning", 40),
                                         ("dist_sca_range10", 20),
                                         ("dist_modes_full", 20)])
def test_traced_runs_repeat_calls_ratios_and_output(tmp_path, name, slots):
    _, workloads = bench.load_spec()
    w = workloads[name]
    reports = []
    for i in range(2):
        report, _, err = bench.run_child(
            "traced", w.cli_argv(0, tmp_path / f"traced{i}.csv", slots=slots),
            tmp_path / f"trace{i}.json")
        assert report is not None, err
        reports.append(report)
    plain, _, err = bench.run_child("plain", w.cli_argv(0, tmp_path / "plain.csv",
                                                        slots=slots))
    assert plain is not None, err

    calls = [{layer: v[0] for layer, v in r["layers"].items()} for r in reports]
    assert calls[0] == calls[1]
    assert reports[0]["ratios"] == reports[1]["ratios"]
    assert reports[0]["missing"] == []
    assert set(calls[0]) == set(tracing.LAYERS)
    assert all(calls[0][layer] == 0 for layer in w.bypasses)
    digests = {outputs.digest(outputs.read_rows(tmp_path / f, w.kind), w.kind)
               for f in ("traced0.csv", "traced1.csv", "plain.csv")}
    assert len(digests) == 1


def test_benchmark_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "central_learning",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
