"""Output checks for one benchmark repetition: digest of the simulated values
and the run invariants.

The digest hashes parsed numbers, not CSV bytes. Each cell of the named
columns is parsed to a float and written back with ``repr``, so a change in
how a value is printed (``1`` or ``1.0``; ``Mode.DISTRIBUTED_SCA`` or
``distributed_sca`` in a text column, which is not hashed) keeps the digest,
while any change to a simulated value changes it.
"""

from __future__ import annotations

import csv
import hashlib

# per-slot records of `aoisim run`
RUN_COLUMNS = ("slot", "avg_inst_aoi_slot", "avg_inst_aoi_cum", "service_rate",
               "n_active", "n_transmitting", "rach_failures",
               "duplicate_failures", "outage_failures")
# per-run summary rows of `aoisim sweep`
SWEEP_COLUMNS = ("replicate", "seed", "slots", "warmup_slots", "deliveries",
                 "deliveries_postwarmup", "mean_delivery_aoi",
                 "mean_delivery_aoi_postwarmup", "mean_service_rate",
                 "mean_service_rate_postwarmup", "rach_failures",
                 "duplicate_failures", "outage_failures")
COLUMNS = {"run": RUN_COLUMNS, "sweep": SWEEP_COLUMNS}


def _number(text: str) -> float | None:
    return None if text == "" else float(text)


def read_rows(path, kind: str) -> list[dict[str, float | None]]:
    """Parse the CSV that `aoisim run` or `aoisim sweep` wrote; comments skipped."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [{col: _number(row[col]) for col in COLUMNS[kind]}
                for row in reader]


def digest(rows, kind: str) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(",".join(repr(row[col]) for col in COLUMNS[kind]).encode())
        h.update(b"\n")
    return h.hexdigest()


def _at_least_one(value) -> bool:
    return value is not None and value >= 1.0


def invariant_problems(rows, kind: str, slots: int, runs: int) -> list[str]:
    """Broken invariants, as messages; an empty list means the output holds."""
    problems = []
    if kind == "run":
        if len(rows) != slots:
            problems.append(f"{len(rows)} records for {slots} slots")
        for row in rows:
            t = row["slot"]
            if not 0.0 <= row["service_rate"] <= 1.0:
                problems.append(f"slot {t}: service_rate {row['service_rate']}")
            if row["n_transmitting"] > row["n_active"]:
                problems.append(f"slot {t}: n_transmitting {row['n_transmitting']}"
                                f" > n_active {row['n_active']}")
            if row["avg_inst_aoi_slot"] is not None \
                    and not _at_least_one(row["avg_inst_aoi_slot"]):
                problems.append(f"slot {t}: delivery age {row['avg_inst_aoi_slot']}")
        if not any(row["avg_inst_aoi_slot"] is not None for row in rows):
            problems.append("no deliveries")
        elif not _at_least_one(rows[-1]["avg_inst_aoi_cum"]):
            problems.append(f"mean delivery age {rows[-1]['avg_inst_aoi_cum']}")
        return problems
    if len(rows) != runs:
        problems.append(f"{len(rows)} summary rows for {runs} runs")
    for i, row in enumerate(rows):
        if row["slots"] != slots:
            problems.append(f"run {i}: {row['slots']} slots, expected {slots}")
        for col in ("mean_service_rate", "mean_service_rate_postwarmup"):
            if not 0.0 <= row[col] <= 1.0:
                problems.append(f"run {i}: {col} {row[col]}")
        if not row["deliveries"] > 0:
            problems.append(f"run {i}: no deliveries")
        elif not _at_least_one(row["mean_delivery_aoi"]):
            problems.append(f"run {i}: mean delivery age {row['mean_delivery_aoi']}")
    return problems


def check(path, kind: str, slots: int, runs: int) -> tuple[str | None, list[str]]:
    """(digest, problems) for one output file; digest None if it cannot be read."""
    try:
        rows = read_rows(path, kind)
        return digest(rows, kind), invariant_problems(rows, kind, slots, runs)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return None, [f"unreadable output: {exc!r}"]
