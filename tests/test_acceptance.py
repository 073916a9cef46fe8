"""End-to-end acceptance gate: one test per study claim, at full stated scale.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
claim. The whole module takes about 50 seconds on a shared 2-core host;
most of it is the 150-run centralized ordering ensemble, whose modes and
replicates at each activation level run as lanes of one slot loop
(``run_many``), and the three modes of a replicate share its draws.
Measured values are printed so a failing bar shows the numbers, not just
the assertion.
"""

from __future__ import annotations

import filecmp
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from aoisim.centralized import TypeLearner, learn_type
from aoisim.channel import epsilon_for_outage, outage_probability, outage_table
from aoisim.checks import (check_pairwise_priority, check_payoff_table,
                           check_random_service_rate, check_sca_convergence)
from aoisim.cli import main as cli_main
from aoisim.devices import TypeId
from aoisim.engine import Mode, ScenarioConfig, replicate_seed, run, run_many
from aoisim.planner import first_parts
from aoisim.presets import preset_names

EPS_1PCT = epsilon_for_outage(0.01, 20.0)


def _show(result):
    for line in result.lines:
        print(line)
    return result.passed


# --- game table and equilibria ----------------------------------------------------

def test_two_device_payoff_table_and_equilibria():
    """All 9 payoff cells of the 2-device 2-RB game, NE set by deviation check."""
    assert _show(check_payoff_table())


# --- random-selection service rate ------------------------------------------------

def test_random_selection_service_rate_closed_form():
    """Empirical rate matches (T/R)((R-1)/R)^(T-1) within 0.01 at four points."""
    assert _show(check_random_service_rate())


# --- crowd-avoidance convergence ---------------------------------------------------

def test_crowd_avoidance_reaches_full_service():
    """SCA at N=R=50, full info, no outage: service rate 1 within 200 slots in
    at least 99/100 runs, terminal vector an equilibrium, unused-RB decay under
    the geometric envelope plus 3 sigma."""
    assert _show(check_sca_convergence(runs=100))


# --- pairwise priority dominance ---------------------------------------------------

def test_lookahead_priority_pairwise_dominance():
    """Exhaustive 2-device comparison: scheduling by look-ahead age never loses
    to scheduling by current age, and wins strictly in every disagreement."""
    assert _show(check_pairwise_priority())


# --- centralized scheduler ordering ------------------------------------------------

_CENTRAL_MODES = (
    ("full", Mode.CENTRALIZED_FULL_INFO),
    ("learn", Mode.CENTRALIZED_LEARNING),
    ("none", Mode.CENTRALIZED_NO_LEARNING),
)


def _mode_means(configs, modes, reps: int) -> dict[str, float]:
    """Mean delivery age per labeled mode over its reps matched-seed replicates.

    configs(mode, rep) gives a replicate's config; every mode and replicate
    is a lane of one slot loop.
    """
    results = iter(run_many([configs(mode, rep) for _, mode in modes
                             for rep in range(reps)]))
    means = {}
    for label, _ in modes:
        total = 0.0
        for _ in range(reps):
            total += next(results).summary.mean_delivery_aoi
        means[label] = total / reps
    return means


def _central_means(v_a: float, reps: int = 10) -> dict[str, float]:
    return _mode_means(lambda mode, rep: ScenarioConfig(
        n_devices=200, n_rbs=50, slots=5000, preambles=384, n_rbs_max=5,
        epsilon=EPS_1PCT, seed=replicate_seed(0, rep), v_a=v_a, mode=mode),
        _CENTRAL_MODES, reps)


def test_centralized_scheduler_ordering():
    """Mean delivery age over 10 matched-seed replicates: full info <= learning
    < no learning at every activation level; learning within 10% of full info
    and at least 15% under no-learning for v_a >= 0.3."""
    grid = (0.1, 0.2, 0.3, 0.4, 0.5)
    rows = {}
    for v_a in grid:
        means = _central_means(v_a)
        rows[v_a] = means
        gap = (means["none"] - means["learn"]) / means["none"]
        print(f"v_a={v_a}: full={means['full']:.4f} learn={means['learn']:.4f} "
              f"none={means['none']:.4f} | learn-full={means['learn'] - means['full']:+.4f} "
              f"| gap={gap * 100:.2f}%")
    for v_a in grid:
        m = rows[v_a]
        assert m["full"] <= m["learn"], f"full info must not trail at v_a={v_a}"
        assert m["learn"] < m["none"], f"learning must beat no-learning at v_a={v_a}"
    for v_a in (0.3, 0.4, 0.5):
        m = rows[v_a]
        assert m["learn"] - m["full"] <= 0.10 * m["full"], \
            f"learning beyond 10% of full info at v_a={v_a}"
        assert m["none"] - m["learn"] >= 0.15 * m["none"], \
            f"learning gain under 15% at v_a={v_a}"


# --- distributed ordering and sensing range ----------------------------------------

def test_distributed_ordering_and_range_effect():
    """Matched seeds: predetermined <= SCA < random in mean delivery age; SCA
    service rate strictly increasing in sensing range, reaching 0.97 +/- 0.02
    at full coverage."""
    order = _mode_means(lambda mode, rep: ScenarioConfig(
        n_devices=200, n_rbs=50, slots=3000, v_a=0.35, r_c=10.0,
        epsilon=EPS_1PCT, seed=replicate_seed(0, rep), mode=mode),
        (("pred", Mode.DISTRIBUTED_PREDETERMINED), ("sca", Mode.DISTRIBUTED_SCA),
         ("random", Mode.DISTRIBUTED_RANDOM)), 5)
    print(f"pred={order['pred']:.4f} sca={order['sca']:.4f} "
          f"random={order['random']:.4g}")

    rates = []
    for r_c in (1.0, 5.0, 10.0, 15.0):
        total = 0.0
        for result in run_many(ScenarioConfig(
                n_devices=50, n_rbs=50, slots=3000, v_a=1.0, r_c=r_c,
                epsilon=EPS_1PCT, seed=replicate_seed(0, rep),
                mode=Mode.DISTRIBUTED_SCA) for rep in range(8)):
            total += result.summary.mean_service_rate_postwarmup
        rates.append(total / 8)
    print("service rate vs range:",
          " ".join(f"{rc}m={sr:.4f}" for rc, sr in zip((1, 5, 10, 15), rates)))

    assert order["pred"] <= order["sca"] < order["random"]
    assert rates == sorted(rates) and len(set(rates)) == len(rates), \
        "service rate must increase with sensing range"
    assert rates[-1] >= 0.97 - 0.02


# --- split planner against brute force ----------------------------------------------

def _cut_compositions(n: int):
    # compositions of n enumerated by cut positions, independent of the
    # planner's own recursive generator
    for mask in range(1 << (n - 1)):
        parts, size = [], 1
        for bit in range(n - 1):
            if mask >> bit & 1:
                parts.append(size)
                size = 1
            else:
                size += 1
        parts.append(size)
        yield tuple(parts)


def _expected_slots(parts, snr, eps) -> float:
    total = 0.0
    for r in parts:
        p = outage_probability(snr, eps, r)
        if p >= 1.0:
            return math.inf
        total += 1.0 / (1.0 - p)
    return total


def test_split_planner_matches_brute_force():
    """The split the engine sends costs the brute-force optimum over every
    composition for n <= 6, epsilon in {0.1, 1, 5, 20}, mean SNR in {10, 100}.
    The per-run table sends the first part of that split, and a message
    with m RBs left sends table[m] of them. The split depends on neither the
    aging kind nor the message age, so one table row per device serves every
    n."""
    cases = 0
    for snr, eps in itertools.product((10.0, 100.0), (0.1, 1.0, 5.0, 20.0)):
        table = first_parts(outage_table(np.array([snr]), eps, 6))
        for n in range(1, 7):
            best = min(_expected_slots(parts, snr, eps)
                       for parts in _cut_compositions(n))
            splits, left = [], n
            while left > 0:
                splits.append(int(table[0, left]))
                assert 1 <= splits[-1] <= left
                left -= splits[-1]
            assert _expected_slots(splits, snr, eps) == pytest.approx(best, abs=1e-12), \
                f"suboptimal split at n={n} eps={eps} snr={snr}"
            cases += 1
    print(f"planner verified on {cases} cases")


# --- type classification accuracy ---------------------------------------------------

def test_type_classification_accuracy():
    """200-device learning run: devices with >= 10 identified observations are
    classified to their latent type with >= 95% accuracy."""
    cfg = ScenarioConfig(
        n_devices=200, n_rbs=50, slots=3000, preambles=384, n_rbs_max=5,
        epsilon=EPS_1PCT, seed=replicate_seed(0, 0), v_a=0.3,
        mode=Mode.CENTRALIZED_LEARNING)
    result = run(cfg)
    counts = result.trace["learner_counts"]
    learner = TypeLearner(n_devices=200)
    for i, k in counts.items():
        learner.counts[i] = k
    latent = result.trace["latent_types"]
    counted = [i for i, k in counts.items() if sum(k) >= 10]
    assert len(counted) >= 100, "too few devices reached 10 observations"
    learned = learn_type(learner, np.array(counted)).tolist()
    correct = sum(1 for i, code in zip(counted, learned) if code == latent[i].value)
    accuracy = correct / len(counted)
    print(f"counted={len(counted)}/200 accuracy={accuracy * 100:.2f}%")
    assert accuracy >= 0.95


# --- preset determinism ---------------------------------------------------------------

def test_preset_reruns_byte_identical(tmp_path: Path):
    """Every preset, re-run with the same seed, writes byte-identical files
    (slot counts truncated to keep the check quick)."""
    for name in preset_names():
        for fmt in ("csv",) if name != "convergence" else ("csv", "jsonl"):
            dirs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}_{fmt}_{attempt}"
                code = cli_main(["preset", name, "--out", str(out),
                                 "--slots", "40", "--format", fmt])
                assert code == 0, f"preset {name} failed"
                dirs.append(out)
            files = sorted(p.name for p in dirs[0].iterdir())
            assert files == sorted(p.name for p in dirs[1].iterdir())
            for fname in files:
                assert filecmp.cmp(dirs[0] / fname, dirs[1] / fname,
                                   shallow=False), f"{name}/{fname} differs"
    print(f"verified {len(preset_names())} presets")
