"""Closed-form and convergence verifications shared by the CLI and the tests.

Each check returns a CheckResult with human-readable detail lines; nothing
here prints or exits, so the CLI and pytest can both consume the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .aging import AgingKind, age_forward
from .centralized import (KIND_EXPONENTIAL, KIND_LINEAR, TypeLearner,
                          priority_key, schedule, tie_class)
from .devices import TypeId
from .distributed import (FullInfoGame, GameParams, random_selection,
                          service_rate_closed_form)
from .engine import Mode, ScenarioConfig, replicate_seed, run, sweep_iter


@dataclass
class CheckResult:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)


def check_payoff_table(params: GameParams | None = None) -> CheckResult:
    """Two active devices on two RBs: every joint-action payoff cell, plus NE set."""
    params = params or GameParams()
    game = FullInfoGame(f_values=(2, 2), active=(True, True), R=2, params=params)
    silent = -(params.gamma + params.eta)   # an active device here never has
    #                                         a below-threshold age, so silence
    #                                         is always the penalized kind
    expected = {}
    for x1 in range(3):
        for x2 in range(3):
            if x1 == 0 and x2 == 0:
                cell = (silent, silent)
            elif x1 == 0:
                cell = (silent, params.rho)
            elif x2 == 0:
                cell = (params.rho, silent)
            elif x1 == x2:
                cell = (-params.gamma, -params.gamma)
            else:
                cell = (params.rho, params.rho)
            expected[(x1, x2)] = cell

    lines = []
    ok = True
    for actions, cell in sorted(expected.items()):
        got = (game.payoff(list(actions), 0), game.payoff(list(actions), 1))
        match = got == cell
        ok &= match
        lines.append(f"x={list(actions)} payoff {got} expected {cell}"
                     f"{'' if match else '  MISMATCH'}")
    equilibria = set(game.enumerate_equilibria())
    ne_ok = equilibria == {(1, 2), (2, 1)}
    ok &= ne_ok
    lines.append(f"equilibria {sorted(equilibria)} expected [(1, 2), (2, 1)]"
                 f"{'' if ne_ok else '  MISMATCH'}")
    return CheckResult("payoff-table", ok, lines)


# the (T, R) points of check_random_service_rate, which the random_rate preset runs
_RATE_POINTS = ((2, 2), (10, 50), (50, 50), (200, 50))


def _rate_line(label: str, rates: np.ndarray, empirical: float,
               expected: float) -> tuple[bool, str]:
    """Compare empirical, the mean of the per-slot service rates, with expected.

    The tolerance is 0.01 or four standard errors of the per-slot mean,
    whichever is larger, so a short run is not failed on sampling noise
    alone.
    """
    se = float(rates.std(ddof=1)) / len(rates) ** 0.5 if len(rates) > 1 else 0.0
    tolerance = max(0.01, 4 * se)
    delta = abs(empirical - expected)
    good = delta <= tolerance
    return good, (f"{label}: empirical {empirical:.4f} closed-form "
                  f"{expected:.4f} |delta| {delta:.4f}"
                  f"{'' if good else f'  EXCEEDS {tolerance:.4f}'}")


def check_random_service_rate(slots: int = 10_000, seed: int = 2026) -> CheckResult:
    """T transmitters picking RBs uniformly vs the closed-form rate.

    The closed form conditions on the transmitter count, so the pick rule is
    driven directly with exactly T picks per slot; a full engine run only
    realizes that premise when every active device clears the transmit
    threshold, which holds at N = R and is checked as an extra anchor line.
    """
    lines = []
    ok = True
    for n, r in _RATE_POINTS:
        rng = np.random.default_rng(np.random.SeedSequence([seed, n, r]))
        u = rng.random((slots, n))
        # RB labels are 1..R; slot s counts its picks in bins s*R..s*R+R-1
        offsets = random_selection(r, u) - 1 + r * np.arange(slots)[:, None]
        counts = np.bincount(offsets.ravel(), minlength=slots * r).reshape(slots, r)
        singles = (counts == 1).sum(axis=1)
        good, line = _rate_line(f"T={n} R={r}", singles / r,
                                float(singles.mean() / r),
                                service_rate_closed_form(n, r))
        ok &= good
        lines.append(line)

    config = ScenarioConfig(n_devices=50, n_rbs=50, slots=slots, v_a=1.0,
                            epsilon=0.0, r_c=15.0,
                            mode=Mode.DISTRIBUTED_RANDOM,
                            seed=replicate_seed(seed, 50))
    result = run(config)
    good, line = _rate_line("engine N=R=50",
                            np.array([rec.service_rate for rec in result.records]),
                            result.summary.mean_service_rate,
                            service_rate_closed_form(50, 50))
    ok &= good
    lines.append(line)
    return CheckResult("random-service-rate", ok, lines)


# the cell of check_sca_convergence, which the convergence preset runs
_CONVERGENCE = ScenarioConfig(n_devices=50, n_rbs=50, slots=200, v_a=1.0, epsilon=0.0,
                              r_c=15.0, mode=Mode.DISTRIBUTED_SCA)


def check_sca_convergence(runs: int = 100, slots: int = 200,
                          seed: int = 2026) -> CheckResult:
    """Crowd avoidance at N=R with permanent reactivation and a clean channel.

    Convergence means a slot with every RB serving exactly one device; the
    terminal action vector must be a Nash equilibrium of the one-slot game,
    and the per-slot mean unused-RB count must stay within the geometric
    decay envelope R*((R-1)/R)^(N*(t-1)) plus three Monte Carlo standard
    deviations. The envelope models collision RBs as fully resolving in one
    slot, so it undershoots the true mean mid-transient; the sample spread
    is the right slack scale, a standard-error slack would shrink to zero
    with more runs while the model gap stays put.
    """
    n, r = _CONVERGENCE.n_devices, _CONVERGENCE.n_rbs
    params = GameParams()
    unused = np.zeros((runs, slots))
    converged_at = []
    ne_failures = []
    stayed = True
    config = replace(_CONVERGENCE, slots=slots)
    # replicate k runs seed replicate_seed(seed, k), batched as a sweep does
    for _, k, result in sweep_iter(config, "seed", [seed], runs):
        rates = [rec.service_rate for rec in result.records]
        unused[k] = result.trace["unused_rbs"]
        first = next((i + 1 for i, sr in enumerate(rates) if sr == 1.0), None)
        if first is not None:
            converged_at.append(first)
            stayed &= all(sr == 1.0 for sr in rates[first - 1:])
            final = result.trace["final"]
            verdict = FullInfoGame(final["future_aoi"], final["active"], r,
                                   params).is_nash_equilibrium(final["actions"])
            if not verdict.is_equilibrium:
                ne_failures.append(k)

    allowed_misses = runs // 100
    n_converged = len(converged_at)
    conv_ok = n_converged >= runs - allowed_misses
    ne_ok = not ne_failures
    mean_u = unused.mean(axis=0)
    std_u = unused.std(axis=0, ddof=1) if runs > 1 else np.zeros(slots)
    bound_ok = True
    worst = None
    for t in range(1, slots + 1):
        bound = r * ((r - 1) / r) ** (n * (t - 1))
        slack = bound + 3 * std_u[t - 1] - mean_u[t - 1]
        if worst is None or slack < worst[1]:
            worst = (t, slack, mean_u[t - 1], bound)
        if slack < 0:
            bound_ok = False

    ok = conv_ok and ne_ok and stayed and bound_ok
    lines = [
        f"converged within {slots} slots: {n_converged}/{runs}"
        f" (allowed misses {allowed_misses}){'' if conv_ok else '  TOO FEW'}",
        f"median convergence slot: "
        f"{int(np.median(converged_at)) if converged_at else 'n/a'}",
        f"full service persists after convergence: {stayed}",
        f"terminal actions are equilibria: "
        f"{'yes' if ne_ok else f'no, runs {ne_failures}'}",
    ]
    for t in (1, 2, 3, 4, 5, 6, 8, 10):
        if t <= slots:
            bound = r * ((r - 1) / r) ** (n * (t - 1))
            lines.append(f"slot {t}: mean unused {mean_u[t - 1]:.3f} "
                         f"bound {bound:.3f} + 3sd {3 * std_u[t - 1]:.3f}")
    if worst is not None:
        lines.append(f"tightest slack {worst[1]:.3f} at slot {worst[0]} "
                     f"(mean {worst[2]:.3f}, bound {worst[3]:.3f})"
                     f"{'' if bound_ok else '  VIOLATED'}")
    return CheckResult("sca-convergence", ok, lines)


def _winner_by_lookahead(exp_age: int, lin_age: int, beta: int) -> str:
    """Which of two single-RB requests the scheduler serves first.

    Device 0 holds the exponential message (a type-2 device), device 1 the
    linear one (type 1); the ages stay far below 2**1024, so no key
    saturates and the exponents are never consulted.
    """
    learner = TypeLearner()
    types = np.array([TypeId.TYPE2.value, TypeId.TYPE1.value])
    keys = priority_key(np.array([exp_age, lin_age], dtype=np.float64),
                        np.array([KIND_EXPONENTIAL, KIND_LINEAR]), types,
                        learner, beta)
    served, _, _ = schedule(np.array([0, 1]), keys, np.zeros(2, dtype=np.int64),
                            tie_class(types, learner),
                            np.ones(2, dtype=np.int64), 1)
    return "exp" if served[0] == 0 else "lin"


def check_pairwise_priority() -> CheckResult:
    """Exhaustive two-device, one-RB comparison of the two priority rules.

    One device holds a linearly aging message (age 1..32), the other an
    exponentially aging one (age in the attainable set up to 32). The winner
    delivers at its current age, the loser beta slots later at its aged
    value; no outage. Look-ahead scheduling must never give a worse delivery
    age sum than highest-current-age scheduling, must be strictly better in
    every disagreement, and each disagreement must have the exponential age
    above beta/(2^beta - 1).
    """
    ok = True
    lines = []
    cases = disagreements = 0
    for beta in (1, 2, 3):
        strict = 0
        for lin_age in range(1, 33):
            for exp_age in (1, 2, 4, 8, 16, 32):
                cases += 1
                # ties prefer the faster-aging message under both rules
                current_picks = "exp" if exp_age >= lin_age else "lin"
                future_picks = _winner_by_lookahead(exp_age, lin_age, beta)

                def delivered_sum(pick: str) -> int:
                    if pick == "exp":
                        return exp_age + age_forward(AgingKind.LINEAR,
                                                     lin_age, beta)
                    return lin_age + age_forward(AgingKind.EXPONENTIAL,
                                                 exp_age, beta)

                cur_total = delivered_sum(current_picks)
                fut_total = delivered_sum(future_picks)
                if fut_total > cur_total:
                    ok = False
                    lines.append(f"lookahead worse at lin={lin_age} "
                                 f"exp={exp_age} beta={beta}")
                if current_picks != future_picks:
                    disagreements += 1
                    if fut_total >= cur_total:
                        ok = False
                        lines.append(f"no strict gain at lin={lin_age} "
                                     f"exp={exp_age} beta={beta}")
                    else:
                        strict += 1
                    if exp_age * ((1 << beta) - 1) <= beta:
                        ok = False
                        lines.append(f"disagreement below age floor at "
                                     f"lin={lin_age} exp={exp_age} beta={beta}")
        lines.append(f"beta={beta}: strict improvements in all "
                     f"{strict} disagreements")
    lines.insert(0, f"{cases} cases, {disagreements} disagreements, "
                    f"lookahead never worse: {ok}")
    return CheckResult("pairwise-priority", ok, lines)


def run_all(slots: int = 10_000, runs: int = 100, seed: int = 2026) -> list[CheckResult]:
    """The whole verification battery in a stable order."""
    return [
        check_payoff_table(),
        check_random_service_rate(slots=slots, seed=seed),
        check_sca_convergence(runs=runs, seed=seed),
        check_pairwise_priority(),
    ]
