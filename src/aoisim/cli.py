"""Command-line front end: single runs, sweeps, canned presets, verification.

Output rows go to --out (or stdout); progress notes go to stderr so the data
stream stays clean. Files carry a commented config echo sufficient to rerun
them and contain nothing volatile, so equal seeds give byte-identical files.

Exit codes: 0 success, 1 configuration or usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

from .checks import run_all
from .engine import (ConfigError, Mode, RunResult, RunSummary, ScenarioConfig,
                     SlotRecord, loop_batches, run, run_many, sweep_iter)
from .presets import expand_preset, preset_description, preset_names

OUT_DIR_ENV = "AOISIM_OUT_DIR"

RECORD_COLUMNS = tuple(f.name for f in fields(SlotRecord))

SUMMARY_COLUMNS = tuple(f.name for f in fields(RunSummary))

SWEEP_COLUMNS = ("parameter", "value", "replicate", "seed") + SUMMARY_COLUMNS

# each config field's annotation ("int", "float", "bool", "Mode") by name
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}

_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Config ingestion
# ---------------------------------------------------------------------------

def _coerce(name: str, annotation: str, raw: str):
    try:
        if annotation == "int":
            return int(raw)
        if annotation == "float":
            return float(raw)
        if annotation == "bool":
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(f"not a boolean: {raw}")
            return _BOOL_WORDS[word]
        if annotation == "Mode":
            return Mode(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are skipped."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def build_config(raw: dict[str, str]) -> ScenarioConfig:
    values = {}
    for key, text in raw.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key: {key}")
        values[key] = _coerce(key, _FIELD_TYPES[key], text)
    config = ScenarioConfig(**values)
    config.validate()
    return config


def _config_from_args(args) -> ScenarioConfig:
    raw = parse_config_file(args.config) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got: {item}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    # the --mode/--seed/--slots flags win, and the config is validated once,
    # with them applied
    for key in ("mode", "seed", "slots"):
        if getattr(args, key, None) is not None:
            raw[key] = str(getattr(args, key))
    return build_config(raw)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _plain(value):
    """Enum members (the mode) are written as their value, which reads back."""
    return value.value if isinstance(value, Enum) else value


def _json_safe(row: dict) -> dict:
    """row with inf, -inf and nan, which JSON has no number for, as the
    strings "inf", "-inf" and "nan" that a CSV cell holds."""
    return {key: repr(value) if isinstance(value, float) and not math.isfinite(value)
            else value for key, value in row.items()}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_output(out: str | None, fmt: str, config: ScenarioConfig,
                 columns, rows) -> None:
    """Config echo, then one line per row dict, as CSV or JSON lines.

    Writes to the path out, or to stdout when out is None.
    """
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        echo = {name: _plain(getattr(config, name)) for name in _FIELD_TYPES}
        if fmt == "csv":
            for key, value in echo.items():
                fh.write(f"# {key}={_cell(value)}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_cell(row[col]) for col in columns) + "\n")
        else:
            fh.write(json.dumps({"config": _json_safe(echo)}, sort_keys=True,
                                allow_nan=False) + "\n")
            for row in rows:
                fh.write(json.dumps(_json_safe(row), sort_keys=True,
                                    allow_nan=False) + "\n")
    finally:
        if out:
            fh.close()


# run/preset output and sweep output reach write_output through these two
# names, at which perfbench/tracer.py times the output layer
def write_run_csv(result: RunResult, out: str | None, fmt: str = "csv") -> None:
    """Per-slot records of one run, CSV unless fmt is "jsonl"."""
    rows = ({col: getattr(rec, col) for col in RECORD_COLUMNS}
            for rec in result.records)
    write_output(out, fmt, result.config, RECORD_COLUMNS, rows)


def _write_sweep(rows, base: ScenarioConfig, out: str | None, fmt: str) -> None:
    write_output(out, fmt, base, SWEEP_COLUMNS, rows)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _warn_if_nothing_delivered(result: RunResult, label: str) -> None:
    """A run with no delivery is degenerate; say so even under --quiet."""
    if result.summary.deliveries == 0:
        print(f"aoisim: warning: {label}: no deliveries in "
              f"{result.summary.slots} slots", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = _config_from_args(args)
    result = run(config)
    write_run_csv(result, args.out, args.format)
    _warn_if_nothing_delivered(result, config.mode.value)
    s = result.summary
    aoi = "n/a" if s.mean_delivery_aoi is None else f"{s.mean_delivery_aoi:.4g}"
    _say(args, f"{config.mode.value}: {s.deliveries} deliveries, "
               f"mean delivery age {aoi}, "
               f"mean service rate {s.mean_service_rate:.4f}")
    return 0


def _parse_values(parameter: str, text: str) -> list:
    annotation = _FIELD_TYPES.get(parameter)
    if annotation is None:
        raise ConfigError(f"unknown sweep parameter: {parameter}")
    return [_coerce(parameter, annotation, part.strip())
            for part in text.split(",") if part.strip()]


def _mean_and_se(values: list[float]) -> tuple[float, float | None]:
    """Mean and standard error of non-negative values, which may be huge or inf.

    Each value is divided by the count before summing, and the deviations by
    the largest before squaring, so no step overflows; the se is None when
    the mean is inf or there is one value.
    """
    n = len(values)
    mean = sum(v / n for v in values)
    if mean == math.inf or n == 1:
        return mean, None
    scale = max(abs(v - mean) for v in values)
    if scale == 0.0:
        return mean, 0.0
    var = sum(((v - mean) / scale) ** 2 for v in values) / (n - 1)
    return mean, scale * math.sqrt(var / n)


def _cmd_sweep(args) -> int:
    base = _config_from_args(args)
    values = _parse_values(args.parameter, args.values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = []
    for value, rep, result in sweep_iter(base, args.parameter, values,
                                         args.replicates):
        row = {"parameter": args.parameter, "value": _plain(value),
               "replicate": rep, "seed": result.config.seed}
        rows.append(row | {col: getattr(result.summary, col)
                           for col in SUMMARY_COLUMNS})
        _warn_if_nothing_delivered(
            result, f"{args.parameter}={row['value']} replicate {rep}")
        _say(args, f"{args.parameter}={row['value']} replicate {rep}: "
                   f"mean service rate "
                   f"{result.summary.mean_service_rate:.4f}")
    _write_sweep(rows, base, args.out, args.format)
    if not args.quiet and args.replicates > 1:
        for value in map(_plain, values):
            group = [r["mean_delivery_aoi"] for r in rows
                     if r["value"] == value and r["mean_delivery_aoi"] is not None]
            if group:
                mean, se = _mean_and_se(group)
                note = (f"{mean:.4g} (n={len(group)})" if se is None
                        else f"{mean:.4g} +- {se:.2g} (se, n={len(group)})")
                _say(args, f"{args.parameter}={value}: mean delivery age {note}")
    return 0


def _cmd_preset(args) -> int:
    names = args.names or preset_names()
    unknown = [name for name in names if name not in preset_names()]
    if unknown:
        print(f"unknown preset: {' '.join(unknown)}", file=sys.stderr)
        print("available: " + " ".join(preset_names()), file=sys.stderr)
        return 1
    out_dir = Path(args.out or os.environ.get(OUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if args.format == "csv" else "jsonl"
    overrides = {key: getattr(args, key) for key in ("seed", "slots")
                 if getattr(args, key) is not None}
    for name in names:
        jobs = [(label, replace(config, **overrides))
                for label, config in expand_preset(name)]
        _say(args, f"{name}: {preset_description(name)} ({len(jobs)} runs)")
        # consecutive jobs that differ only in seed and mode share a slot loop
        for batch in loop_batches(jobs, lambda job: job[1]):
            results = run_many([config for _, config in batch])
            for (label, _), result in zip(batch, results):
                path = out_dir / f"{name}__{label}.{ext}"
                write_run_csv(result, str(path), args.format)
                _warn_if_nothing_delivered(result, f"{name}__{label}")
                s = result.summary
                aoi = ("n/a" if s.mean_delivery_aoi is None
                       else f"{s.mean_delivery_aoi:.4g}")
                _say(args, f"  {path} mean delivery age {aoi} "
                           f"service rate {s.mean_service_rate:.4f}")
    return 0


def _cmd_verify(args) -> int:
    slots = 10_000 if args.slots is None else args.slots
    seed = 2026 if args.seed is None else args.seed
    if args.runs < 1 or slots < 1:
        raise ConfigError("verify needs --runs >= 1 and --slots >= 1")
    if seed < 0:
        raise ConfigError("verify needs --seed >= 0")
    results = run_all(slots=slots, runs=args.runs, seed=seed)
    failed = False
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}")
        if not args.quiet:
            for line in res.lines:
                print(f"    {line}")
        failed |= not res.passed
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, with_config: bool = True):
    if with_config:
        parser.add_argument("--config", help="flat key=value config file")
        parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                            help="override one config key (repeatable)")
        parser.add_argument("--mode", choices=[m.value for m in Mode],
                            help="allocation mode")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--slots", type=int, help="slot-count override")
    parser.add_argument("--out", help="output path (preset: directory)")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress notes")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aoisim",
                     description="slotted uplink RB-allocation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="vary one config field")
    _add_common(p_sweep)
    p_sweep.add_argument("--parameter", required=True,
                         help="ScenarioConfig field to vary")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values")
    p_sweep.add_argument("--replicates", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_preset = sub.add_parser("preset", help="run canned scenario bundles")
    p_preset.add_argument("names", nargs="*", metavar="NAME",
                          help="presets to run (default: all): "
                               + " ".join(preset_names()))
    _add_common(p_preset, with_config=False)
    p_preset.set_defaults(func=_cmd_preset)

    p_verify = sub.add_parser("verify", help="closed-form and convergence checks")
    p_verify.add_argument("--runs", type=int, default=100,
                          help="convergence sample size")
    p_verify.add_argument("--slots", type=int,
                          help="Monte Carlo slots for rate comparisons")
    p_verify.add_argument("--seed", type=int, help="base RNG seed")
    p_verify.add_argument("--quiet", action="store_true",
                          help="one line per check")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"aoisim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
