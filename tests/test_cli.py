import json

import pytest

from aoisim.cli import (RECORD_COLUMNS, SUMMARY_COLUMNS, build_config, main,
                        parse_config_file, write_run_csv)
from aoisim.engine import ConfigError, Mode, run
from aoisim.presets import preset_names


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


def test_run_exit_codes():
    assert main(["run", "--set", "nope=1", "--quiet"]) == 1
    assert main(["run", "--set", "v_a=2.0", "--quiet"]) == 1
    assert main(["run", "--set", "oops", "--quiet"]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", "--format", "xml"])
    assert exc.value.code == 1


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


def test_sweep_rejects_unknown_parameter():
    assert main(["sweep", "--parameter", "nope", "--values", "1",
                 "--quiet"]) == 1


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


# --- verify subcommand ---------------------------------------------------------------

def test_verify_reports_one_line_per_check(capsys):
    # reduced scale exercises the wiring; tolerances may legitimately fail here
    code = main(["verify", "--runs", "5", "--slots", "2000", "--seed", "1",
                 "--quiet"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code in (0, 2)
    assert len(lines) == 4
    assert all(l.startswith(("PASS ", "FAIL ")) for l in lines)


@pytest.mark.parametrize("argv", [["--runs", "0"], ["--runs", "-1"],
                                  ["--slots", "0"]])
def test_verify_rejects_run_counts_it_cannot_use(argv, capsys):
    assert main(["verify", *argv, "--quiet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify needs --runs >= 1 and --slots >= 1" in captured.err
