import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from aoisim import engine
from aoisim.checks import _rate_line
from aoisim.cli import (RECORD_COLUMNS, SUMMARY_COLUMNS, SWEEP_COLUMNS,
                        build_config, main, parse_config_file, write_output,
                        write_run_csv)
from aoisim.engine import ConfigError, Mode, ScenarioConfig, replicate_seed, run
from aoisim.presets import expand_preset, preset_names
from test_goldens import case_config


def _recorded_loops(monkeypatch) -> list[list[ScenarioConfig]]:
    """The config batches every later run_many call is given, in order."""
    loops, real = [], engine.run_many

    def recorded(configs):
        loops.append(list(configs))
        return real(loops[-1])

    monkeypatch.setattr(engine, "run_many", recorded)
    monkeypatch.setattr("aoisim.cli.run_many", recorded)
    return loops


def run_argv(*extra):
    return ["run", "--set", "n_devices=6", "--set", "n_rbs=6",
            "--set", "slots=40", "--set", "v_a=0.5", "--quiet", *extra]


# --- config ingestion ------------------------------------------------------------

def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("# comment\n\nn_devices = 4\nmode=distributed_random\n"
                   "v_a=0.25\nheterogeneous_power=yes\n")
    raw = parse_config_file(str(cfg))
    config = build_config(raw)
    assert config.n_devices == 4
    assert config.mode is Mode.DISTRIBUTED_RANDOM
    assert config.v_a == 0.25
    assert config.heterogeneous_power is True


def test_config_file_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_devices\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_build_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        build_config({"n_device": "4"})


def test_bool_coercion_words():
    assert build_config({"rach_exact": "on"}).rach_exact is True
    assert build_config({"rach_exact": "0"}).rach_exact is False
    with pytest.raises(ConfigError):
        build_config({"rach_exact": "maybe"})


# --- run subcommand ---------------------------------------------------------------

def test_run_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    assert main(run_argv("--out", str(out))) == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any(l == "# n_devices=6" for l in comments)
    header = lines[len(comments)]
    assert header == ",".join(RECORD_COLUMNS)
    assert len(lines) - len(comments) - 1 == 40


def test_run_writes_jsonl(tmp_path):
    out = tmp_path / "run.jsonl"
    assert main(run_argv("--format", "jsonl", "--out", str(out))) == 0
    lines = out.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["config"]["n_devices"] == 6
    assert head["config"]["mode"] == "distributed_sca"
    row = json.loads(lines[1])
    assert set(row) == set(RECORD_COLUMNS)
    assert row["slot"] == 1


# SHA-256 of the file `aoisim run` writes for three golden configs, pinned
# before the writer took each record's cells as one tuple: a dead cell (empty
# CSV cells, JSON nulls), keys past float range ("inf" cells) and multi-RB
# messages under heterogeneous power
WRITTEN = {
    ("central_full_info_beyond_float", "csv"):
        "d49966658e7c6550c5bb43ef1d842e6cd2d694e829a2a5a989ea8da23d833bbf",
    ("central_full_info_beyond_float", "jsonl"):
        "4b96cd8a3d44ff534f05d6df5ce91de340983131f33537f9e069aae5c5e1776a",
    ("central_hetero_window", "csv"):
        "75f7bb8eda0ac0d826ef2963ecbe0958756218e676ee79557c9b22a6907a5c3d",
    ("central_hetero_window", "jsonl"):
        "8980295350dcc4d53562841e2c5f86226badb92ea9de08a5e5849936c8f0bdee",
    ("dead_cell", "csv"):
        "982f54befd8f5e7f988273ee2f21d7dda04bd941287248415250469a1f64dc41",
    ("dead_cell", "jsonl"):
        "5fd7a74c377b7abc912440aa99e531407e87b09e5d321831a7ba92bdc2db7b78",
}


@pytest.mark.parametrize("name, fmt", sorted(WRITTEN))
def test_run_writes_pinned_bytes(tmp_path, name, fmt):
    out = tmp_path / f"run.{fmt}"
    settings = dataclasses.asdict(case_config(name)).items()
    argv = [arg for key, value in settings
            for arg in ("--set", f"{key}={getattr(value, 'value', value)}")]
    assert main(["run", *argv, "--format", fmt, "--out", str(out), "--quiet"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITTEN[name, fmt]


# the central_full_info_beyond_float golden config: in-flight ages pass
# 2**1024, so per-slot means and the summary means read inf
BEYOND_FLOAT = ["--set", "mode=centralized_full_info", "--set", "n_devices=400",
                "--set", "n_rbs=1", "--set", "v_a=0.5", "--set", "preambles=64",
                "--set", "type1_fraction=0.0", "--set", "m2=0.9",
                "--set", "slots=1500", "--set", "seed=11"]


def _strict_json(line: str):
    """json.loads that refuses the non-JSON tokens Infinity, -Infinity, NaN."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(line, parse_constant=refuse)


def test_jsonl_writes_non_finite_floats_as_strings(tmp_path):
    run_jsonl, run_csv = tmp_path / "run.jsonl", tmp_path / "run.csv"
    assert main(["run", *BEYOND_FLOAT, "--format", "jsonl", "--out", str(run_jsonl),
                 "--quiet"]) == 0
    assert main(["run", *BEYOND_FLOAT, "--out", str(run_csv), "--quiet"]) == 0
    rows = [_strict_json(line) for line in run_jsonl.read_text().splitlines()[1:]]
    cells = [line.split(",") for line in run_csv.read_text().splitlines()
             if not line.startswith("#")][1:]
    # a string in a JSON line is the cell the CSV holds for it
    strings = {(i, col): row[col] for i, row in enumerate(rows)
               for col in RECORD_COLUMNS if isinstance(row[col], str)}
    assert "inf" in {row["avg_inst_aoi_cum"] for row in rows}
    assert all(cells[i][RECORD_COLUMNS.index(col)] == text
               for (i, col), text in strings.items())
    sweep = tmp_path / "sweep.jsonl"
    assert main(["sweep", *BEYOND_FLOAT, "--parameter", "seed", "--values", "11",
                 "--format", "jsonl", "--out", str(sweep), "--quiet"]) == 0
    summary = _strict_json(sweep.read_text().splitlines()[-1])
    assert summary["mean_delivery_aoi"] == "inf"
    assert summary["deliveries"] > 0


def test_run_exit_codes():
    assert main(["run", "--set", "nope=1", "--quiet"]) == 1
    assert main(["run", "--set", "v_a=2.0", "--quiet"]) == 1
    assert main(["run", "--set", "oops", "--quiet"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "--format", "xml"])
    assert exc.value.code == 1


def test_flags_apply_before_the_config_is_validated(tmp_path):
    # n_rbs_max > 1 is valid only for the centralized mode that --mode gives
    out = tmp_path / "run.csv"
    assert main(run_argv("--set", "n_rbs_max=5", "--mode", "centralized_learning",
                         "--out", str(out))) == 0
    lines = out.read_text().splitlines()
    assert "# mode=centralized_learning" in lines and "# n_rbs_max=5" in lines
    # the flags win over --set, and a sweep validates the same way
    assert main(run_argv("--set", "mode=distributed_sca", "--set", "n_rbs_max=5",
                         "--mode", "centralized_full_info", "--seed", "3",
                         "--out", str(out))) == 0
    lines = out.read_text().splitlines()
    assert "# mode=centralized_full_info" in lines and "# seed=3" in lines
    assert main(["sweep", "--set", "n_rbs_max=3", "--mode", "centralized_learning",
                 "--slots", "5", "--parameter", "v_a", "--values", "0.2",
                 "--quiet", "--out", str(out)]) == 0
    assert main(run_argv("--set", "n_rbs_max=5", "--mode", "distributed_sca")) == 1


@pytest.mark.parametrize("key", ["rho", "gamma", "eta", "trace"])
def test_removed_keys_are_not_config_keys(key, capsys):
    # no run reads the game payoffs, and every run builds its trace, so
    # none of them is a config field
    assert main(run_argv("--set", f"{key}=5")) == 1
    assert capsys.readouterr().err == f"aoisim: unknown config key: {key}\n"


@pytest.mark.parametrize("settings", [
    ["mean_snr_db=-4000"], ["mean_snr_db=nan"], ["mean_snr_db=inf"],
    ["mean_snr_db=4000"],
    ["heterogeneous_power=yes", "hetero_snr_low_db=-4000"],
    ["heterogeneous_power=yes", "hetero_snr_high_db=nan"]])
def test_run_rejects_unusable_snr(settings, capsys):
    # each of these once crashed in the channel model or ran on NaN outage
    # probabilities
    argv = ["run", "--quiet"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 1
    name = settings[-1].partition("=")[0]
    assert capsys.readouterr().err == (
        f"aoisim: {name} must be a finite dB value whose linear SNR is "
        "positive and finite\n")


@pytest.mark.parametrize("argv", [
    ["run", "--set", "hetero_snr_low_db=22", "--set", "hetero_snr_high_db=17"],
    ["sweep", "--parameter", "hetero_snr_low_db", "--values", "17,25"]])
def test_an_inverted_hetero_snr_range_is_a_config_error(argv, capsys, tmp_path):
    # numpy's uniform draw of the devices' SNRs once raised on it in every
    # mode, and the command died with a traceback
    argv = argv + ["--set", "heterogeneous_power=1", "--slots", "5", "--quiet",
                   "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        "aoisim: hetero_snr_low_db cannot exceed hetero_snr_high_db\n"


def test_hetero_snr_range_is_checked_only_when_used():
    build_config({"hetero_snr_low_db": "nan"})
    with pytest.raises(ConfigError):
        build_config({"hetero_snr_low_db": "nan", "heterogeneous_power": "yes"})


@pytest.mark.parametrize("mode", [m.value for m in Mode if m.centralized])
def test_centralized_modes_run_at_lookahead_past_float_range(mode, tmp_path):
    # beta = 1100 puts every exponential key past 2**1024 from the first slot
    # (this once raised OverflowError in the key computation)
    out = tmp_path / "run.csv"
    assert main(run_argv("--set", f"mode={mode}", "--set", "beta=1100",
                         "--out", str(out))) == 0
    assert out.read_text().splitlines()[-1].startswith("40,")


STARVATION = ["--set", "mode=distributed_sca", "--set", "n_devices=12",
              "--set", "n_rbs=1", "--set", "slots=1500", "--set", "seed=11",
              "--set", "v_a=1.0", "--set", "r_c=15.0"]


def test_run_warns_when_nothing_is_delivered(tmp_path, capsys):
    # the starvation_full golden config livelocks: every slot collides
    out = tmp_path / "starved.csv"
    assert main(["run", *STARVATION, "--quiet", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["aoisim: warning: distributed_sca: no deliveries in 1500 slots"]
    # the warning goes to stderr only: the file is what the writer alone gives
    again = tmp_path / "again.csv"
    write_run_csv(run(build_config(dict(a.split("=") for a in STARVATION[1::2]))),
                  str(again))
    assert out.read_bytes() == again.read_bytes()


def test_normal_run_prints_no_warning(tmp_path, capsys):
    assert main(run_argv("--out", str(tmp_path / "run.csv"))) == 0
    assert capsys.readouterr().err == ""


def test_sweep_warns_once_per_silent_config(tmp_path, capsys):
    code = main(["sweep", "--set", "n_devices=8", "--set", "n_rbs=4",
                 "--set", "slots=30", "--parameter", "v_a",
                 "--values", "0.0,0.6", "--replicates", "2",
                 "--out", str(tmp_path / "sweep.csv"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "aoisim: warning: v_a=0.0 replicate 0: no deliveries in 30 slots",
        "aoisim: warning: v_a=0.0 replicate 1: no deliveries in 30 slots"]


def test_seed_and_slots_flags_override(tmp_path):
    out = tmp_path / "a.csv"
    assert main(run_argv("--seed", "9", "--slots", "12", "--out", str(out))) == 0
    text = out.read_text()
    assert "# seed=9" in text
    assert text.splitlines()[-1].startswith("12,")


# --- sweep subcommand --------------------------------------------------------------

def test_sweep_csv_shape_and_matched_seeds(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--set", "n_devices=8", "--set", "n_rbs=4",
                 "--set", "slots=30", "--parameter", "v_a",
                 "--values", "0.2,0.6", "--replicates", "2",
                 "--out", str(out), "--quiet"])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(("parameter", "value", "replicate", "seed")
                                + SUMMARY_COLUMNS)
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 4
    assert [r[1] for r in rows] == ["0.2", "0.2", "0.6", "0.6"]
    # replicate k reuses one seed across both sweep values
    assert rows[0][3] == rows[2][3]
    assert rows[1][3] == rows[3][3]


def test_sweep_over_modes_writes_readable_values(tmp_path):
    out = tmp_path / "modes.jsonl"
    code = main(["sweep", "--set", "n_devices=6", "--set", "n_rbs=6",
                 "--set", "slots=20", "--parameter", "mode",
                 "--values", "distributed_sca,distributed_random",
                 "--format", "jsonl", "--out", str(out), "--quiet"])
    assert code == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()[1:]]
    assert [Mode(r["value"]) for r in rows] == [Mode.DISTRIBUTED_SCA,
                                                Mode.DISTRIBUTED_RANDOM]
    csv_out = tmp_path / "modes.csv"
    assert main(["sweep", "--set", "slots=5", "--parameter", "mode",
                 "--values", "distributed_random", "--out", str(csv_out),
                 "--quiet"]) == 0
    assert csv_out.read_text().splitlines()[-1].startswith("mode,distributed_random,")


def test_sweep_over_modes_of_both_stacks_equals_one_run_per_config(tmp_path,
                                                                   monkeypatch):
    # each stack's modes and replicates share one slot loop; the file is the
    # one written from a lone run of every config
    loops = _recorded_loops(monkeypatch)
    out = tmp_path / "modes.csv"
    argv = ["--set", "n_devices=9", "--set", "n_rbs=4", "--set", "v_a=0.6",
            "--set", "r_c=6", "--set", "slots=30", "--seed", "5"]
    modes = [m.value for m in Mode]
    assert main(["sweep", *argv, "--parameter", "mode", "--values", ",".join(modes),
                 "--replicates", "2", "--out", str(out), "--quiet"]) == 0
    assert [[c.mode.centralized for c in loop] for loop in loops] == [
        [True] * 6, [False] * 6]
    base = ScenarioConfig(n_devices=9, n_rbs=4, v_a=0.6, r_c=6.0, slots=30, seed=5)
    rows = []
    for mode in Mode:
        for rep in range(2):
            seed = replicate_seed(5, rep)
            result = run(dataclasses.replace(base, mode=mode, seed=seed))
            row = {"parameter": "mode", "value": mode.value, "replicate": rep,
                   "seed": seed} | dataclasses.asdict(result.summary)
            rows.append(tuple(row[col] for col in SWEEP_COLUMNS))
    expected = tmp_path / "expected.csv"
    write_output(str(expected), "csv", base, SWEEP_COLUMNS, rows)
    assert out.read_bytes() == expected.read_bytes()


def test_sweep_rejects_a_bad_value_before_any_batch_runs(tmp_path, monkeypatch,
                                                        capsys):
    # 25 dB exceeds hetero_snr_high_db (21.8): the sweep exits 1 before the
    # batches of 17 and 18 run, and writes nothing
    loops = _recorded_loops(monkeypatch)
    out = tmp_path / "sw.csv"
    assert main(["sweep", "--parameter", "hetero_snr_low_db", "--values", "17,18,25",
                 "--set", "heterogeneous_power=1", "--slots", "5",
                 "--out", str(out)]) == 1
    assert loops == []
    assert not out.exists()
    assert "hetero_snr_low_db cannot exceed" in capsys.readouterr().err


def test_sweep_spread_of_huge_and_infinite_means(monkeypatch, capsys, tmp_path):
    # replicate means near 1e177 once overflowed the squared deviations; an
    # inf mean gets no standard error
    assert main(["sweep", "--parameter", "n_devices", "--values", "400",
                 "--replicates", "4", "--set", "mode=centralized_learning",
                 "--set", "n_rbs=50", "--set", "v_a=0.3", "--slots", "600",
                 "--out", str(tmp_path / "huge.csv")]) == 0
    spread = capsys.readouterr().err.splitlines()[-1]
    assert spread.startswith("n_devices=400: mean delivery age ")
    assert "e+17" in spread and "(se, n=4)" in spread

    real = engine.run_many

    def inflated(configs):
        results = real(configs)
        for result, mean in zip(results, (math.inf, 2.0)):
            result.summary = dataclasses.replace(result.summary,
                                                 mean_delivery_aoi=mean)
        return results

    monkeypatch.setattr(engine, "run_many", inflated)
    assert main(["sweep", "--parameter", "v_a", "--values", "0.5",
                 "--replicates", "2", "--set", "slots=5",
                 "--out", str(tmp_path / "inf.csv")]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == \
        "v_a=0.5: mean delivery age inf (n=2)"


def test_sweep_spread_of_one_delivering_replicate_has_no_se(tmp_path, capsys):
    # replicate 1 delivers nothing, so the value's mean rests on one sample
    assert main(["sweep", "--parameter", "v_a", "--values", "0.02",
                 "--replicates", "2", "--slots", "4", "--set", "n_devices=3",
                 "--seed", "1", "--out", str(tmp_path / "one.csv")]) == 0
    assert capsys.readouterr().err.splitlines()[-1] == \
        "v_a=0.02: mean delivery age 1 (n=1)"


def test_sweep_rejects_unknown_parameter():
    assert main(["sweep", "--parameter", "nope", "--values", "1",
                 "--quiet"]) == 1


@pytest.mark.parametrize("parameter, values", [("v_a", "0.5,0.5,0.50"),
                                               ("v_a", "0.3,0.5,0.50"),
                                               ("n_rbs", "4,04"),
                                               ("mode", "distributed_sca,distributed_sca")])
def test_sweep_rejects_a_value_that_repeats_once_parsed(parameter, values, tmp_path,
                                                        capsys):
    # a repeated value reran the same seeds, and its spread counted each copy
    # as further replicates; nothing is run or written
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--parameter", parameter, "--values", values,
                 "--replicates", "2", "--slots", "5", "--out", str(out)]) == 1
    assert "repeats" in capsys.readouterr().err
    assert not out.exists()


# --- preset subcommand ---------------------------------------------------------------

def test_preset_unknown_name_fails(tmp_path):
    assert main(["preset", "nosuch", "--quiet"]) == 1
    # a bad name anywhere in the list stops the command before any run
    assert main(["preset", "two_device_game", "nosuch", "--out", str(tmp_path),
                 "--slots", "20", "--quiet"]) == 1
    assert list(tmp_path.iterdir()) == []


def test_preset_runs_several_names(tmp_path):
    assert main(["preset", "two_device_game", "convergence", "--out",
                 str(tmp_path), "--slots", "20", "--quiet"]) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["convergence__sca.csv", "two_device_game__sca.csv"]


def test_preset_without_names_runs_every_preset(tmp_path):
    assert main(["preset", "--out", str(tmp_path), "--slots", "2", "--quiet"]) == 0
    ran = {p.name.split("__")[0] for p in tmp_path.iterdir()}
    assert ran == set(preset_names())


def test_preset_writes_labeled_files(tmp_path):
    code = main(["preset", "two_device_game", "--out", str(tmp_path),
                 "--slots", "20", "--quiet"])
    assert code == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["two_device_game__sca.csv"]


def test_preset_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("AOISIM_OUT_DIR", str(tmp_path))
    assert main(["preset", "two_device_game", "--slots", "20", "--quiet"]) == 0
    assert (tmp_path / "two_device_game__sca.csv").exists()


def test_preset_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["preset", "convergence", "--out", str(d),
                     "--slots", "60", "--quiet"]) == 0
    fa, fb = (sorted(d.iterdir())[0] for d in (a, b))
    assert fa.read_bytes() == fb.read_bytes()


@pytest.mark.parametrize("name", ["lookahead", "dist_range"])
def test_preset_files_equal_one_run_per_config(name, tmp_path, monkeypatch):
    # consecutive jobs that differ only in mode and seed share a slot loop
    # (each beta's three modes of a stack, the r_c = 15 tail); every file is
    # still the one its config writes alone
    loops = _recorded_loops(monkeypatch)
    assert main(["preset", name, "--out", str(tmp_path / "batched"),
                 "--slots", "40", "--quiet"]) == 0
    jobs = expand_preset(name)
    assert sum(map(len, loops)) == len(jobs)
    assert len(loops) == {"lookahead": 6, "dist_range": 4}[name]
    for label, config in jobs:
        alone = tmp_path / f"{label}.csv"
        write_run_csv(run(dataclasses.replace(config, slots=40)), str(alone))
        assert (tmp_path / "batched" / f"{name}__{label}.csv").read_bytes() == \
            alone.read_bytes(), label


# --- verify subcommand ---------------------------------------------------------------

def test_verify_reports_one_line_per_check(capsys):
    # reduced scale exercises the wiring; tolerances may legitimately fail here
    code = main(["verify", "--runs", "5", "--slots", "2000", "--seed", "1",
                 "--quiet"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code in (0, 2)
    assert len(lines) == 4
    assert all(l.startswith(("PASS ", "FAIL ")) for l in lines)


@pytest.mark.parametrize("seed", [[], ["--seed", "0"], ["--seed", "7"]])
def test_verify_short_runs_pass_on_sampling_noise(seed, capsys):
    # at 2,000 slots one standard error of the T = R = 2 rate is about 0.011,
    # so a fixed 0.01 tolerance failed the default seed and seed 7
    assert main(["verify", "--runs", "20", "--slots", "2000", *seed, "--quiet"]) == 0
    assert capsys.readouterr().out.split() == [
        "PASS", "payoff-table", "PASS", "random-service-rate",
        "PASS", "sca-convergence", "PASS", "pairwise-priority"]


def test_service_rate_tolerance_follows_the_standard_error():
    rates = np.tile([0.0, 1.0], 1000)          # mean 0.5, se about 0.0112
    se = rates.std(ddof=1) / math.sqrt(len(rates))
    assert _rate_line("x", rates, 0.5, 0.5 + 3 * se)[0]
    good, line = _rate_line("x", rates, 0.5, 0.5 + 10 * se)
    assert not good and line.endswith(f"  EXCEEDS {4 * se:.4f}")
    # a tight sample keeps the 0.01 floor
    flat = np.full(100, 0.3)
    assert _rate_line("x", flat, 0.3, 0.309)[0]
    good, line = _rate_line("x", flat, 0.3, 0.32)
    assert not good and line == ("x: empirical 0.3000 closed-form 0.3200 "
                                 "|delta| 0.0200  EXCEEDS 0.0100")


@pytest.mark.parametrize("argv", [["--runs", "0"], ["--runs", "-1"],
                                  ["--slots", "0"]])
def test_verify_rejects_run_counts_it_cannot_use(argv, capsys):
    assert main(["verify", *argv, "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify needs --runs >= 1 and --slots >= 1" in captured.err


def test_verify_rejects_a_negative_seed(capsys):
    # numpy seeds must be nonnegative; the CLI says so before any check runs
    assert main(["verify", "--seed", "-1", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "aoisim: verify needs --seed >= 0\n"
