"""Ablation studies for the design choices DESIGN.md calls out.

* **A1 — knowledge rollback**: the paper's end-of-day budget-pacing trick;
  disabling it should make the late-day auditor utility collapse.
* **A2 — value of signaling vs budget**: Theorem 2 guarantees the OSSP is
  never worse than the SSE; the gap closes as the budget approaches the
  deterrence threshold.
* **A3 — LP backends**: the pure-Python simplex and SciPy's HiGHS must
  agree on every LP (2) instance of a simulated day; this study also
  compares their speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.sse import GameState, solve_online_sse
from repro.core.theory import ossp_auditor_utility, sse_auditor_utility
from repro.experiments.config import (
    SINGLE_TYPE_ID,
    TABLE1_STATISTICS,
    TABLE2_PAYOFFS,
    paper_costs,
)
from repro.experiments.dataset import build_alert_store
from repro.experiments.figure2 import run_figure2
from repro.experiments.report import render_table
from repro.solvers.registry import warm_up
from repro.stats.diurnal import SECONDS_PER_DAY
from repro.stats.poisson import PoissonReciprocalMoment


@dataclass(frozen=True)
class RollbackAblationResult:
    """Rollback on-vs-off comparison on the single-type workload.

    The paper motivates knowledge rollback with the *late attacker*: without
    it, the end-of-day estimate collapses, the budget model misfires, and an
    attacker striking late faces little or no coverage. The ablation
    therefore reports, over the last hours of each test day:

    * the minimum marginal coverage ``theta`` a late alert received (the
      late attacker's best opening — higher is better for the auditor);
    * the maximum attacker expected utility over late alerts (lower is
      better);
    * mean auditor expected utility over late alerts.

    Runs use the variance-free ``expected`` budget charging so the
    comparison isolates the estimation effect from budget-path sampling
    noise (see :mod:`repro.core.game`).
    """

    late_min_theta_with: float
    late_min_theta_without: float
    late_max_attacker_utility_with: float
    late_max_attacker_utility_without: float
    late_mean_utility_with: float
    late_mean_utility_without: float


def run_rollback_ablation(
    seed: int = 7,
    n_days: int = 48,
    n_test_days: int = 2,
    late_window_hours: float = 2.0,
    spec: "ScenarioSpec | None" = None,
) -> RollbackAblationResult:
    """Compare the late attacker's opportunity with rollback on vs off.

    A :class:`~repro.scenarios.spec.ScenarioSpec` may describe the world
    (seed, dataset size, budget, backend); the legacy keyword arguments
    build the historical default (scipy backend, expected charging).
    """
    from repro.experiments.config import SINGLE_TYPE_ID
    from repro.scenarios.spec import ScenarioSpec

    if spec is None:
        spec = ScenarioSpec(
            name="ablation/rollback",
            seed=seed,
            n_days=n_days,
            backend="scipy",
            budget_charging="expected",
        )
    store = spec.build_store()
    cutoff = SECONDS_PER_DAY - late_window_hours * 3600.0
    payoff = TABLE2_PAYOFFS[SINGLE_TYPE_ID]

    def collect(rollback: bool) -> tuple[float, float, float]:
        result = run_figure2(
            store=store, n_test_days=n_test_days, seed=spec.seed,
            budget=spec.resolved_budget(), backend=spec.backend,
            rollback_enabled=rollback, budget_charging=spec.budget_charging,
        )
        thetas, utilities = [], []
        for day_results in result.series.values():
            ossp = day_results["OSSP"]
            mask = ossp.times >= cutoff
            thetas.extend(ossp.thetas[mask])
            utilities.extend(ossp.values[mask])
        min_theta = float(np.min(thetas)) if thetas else float("nan")
        max_attacker = (
            max(payoff.attacker_utility(t) for t in thetas)
            if thetas else float("nan")
        )
        mean_utility = float(np.mean(utilities)) if utilities else float("nan")
        return min_theta, max_attacker, mean_utility

    with_theta, with_attacker, with_utility = collect(True)
    without_theta, without_attacker, without_utility = collect(False)
    return RollbackAblationResult(
        late_min_theta_with=with_theta,
        late_min_theta_without=without_theta,
        late_max_attacker_utility_with=with_attacker,
        late_max_attacker_utility_without=without_attacker,
        late_mean_utility_with=with_utility,
        late_mean_utility_without=without_utility,
    )


@dataclass(frozen=True)
class ChargingAblationResult:
    """Paper-faithful conditional charging vs variance-free expected charging.

    Conditional charging (the paper's budget update) makes the realized
    budget path a mean-preserving random walk: zero is absorbing, so late
    alerts occasionally face an exhausted budget. Expected charging tracks
    the fluid path exactly. The ablation quantifies the gap.
    """

    final_budget_conditional: float
    final_budget_expected: float
    late_mean_utility_conditional: float
    late_mean_utility_expected: float
    full_mean_utility_conditional: float
    full_mean_utility_expected: float


def run_charging_ablation(
    seed: int = 7,
    n_days: int = 48,
    n_test_days: int = 2,
    late_window_hours: float = 2.0,
) -> ChargingAblationResult:
    """Compare budget-charging policies on the single-type workload."""
    store = build_alert_store(seed=seed, n_days=n_days)
    cutoff = SECONDS_PER_DAY - late_window_hours * 3600.0

    def collect(charging: str) -> tuple[float, float, float]:
        result = run_figure2(
            store=store, n_test_days=n_test_days, seed=seed,
            budget_charging=charging,
        )
        budgets, late, full = [], [], []
        for day_results in result.series.values():
            ossp = day_results["OSSP"]
            budgets.append(ossp.budget_final)
            full.extend(ossp.values)
            late.extend(ossp.values[ossp.times >= cutoff])
        return (
            float(np.mean(budgets)),
            float(np.mean(late)) if late else float("nan"),
            float(np.mean(full)),
        )

    budget_c, late_c, full_c = collect("conditional")
    budget_e, late_e, full_e = collect("expected")
    return ChargingAblationResult(
        final_budget_conditional=budget_c,
        final_budget_expected=budget_e,
        late_mean_utility_conditional=late_c,
        late_mean_utility_expected=late_e,
        full_mean_utility_conditional=full_c,
        full_mean_utility_expected=full_e,
    )


@dataclass(frozen=True)
class BudgetSweepRow:
    """Signaling value at one budget level (single-type, day-start state)."""

    budget: float
    theta: float
    sse_utility: float
    ossp_utility: float
    signaling_gain: float


def run_budget_sweep(
    budgets: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0, 80.0, 120.0, 160.0),
) -> list[BudgetSweepRow]:
    """OSSP-vs-SSE gap at day start for a range of budgets (type 1 only).

    Uses the Table 1 mean as the day-start future-alert estimate, exactly
    the state the first alert of a Figure 2 day is solved in.
    """
    payoff = TABLE2_PAYOFFS[SINGLE_TYPE_ID]
    costs = {SINGLE_TYPE_ID: paper_costs()[SINGLE_TYPE_ID]}
    lam = TABLE1_STATISTICS[SINGLE_TYPE_ID][0]
    moment = PoissonReciprocalMoment()  # one memo across the whole sweep
    rows = []
    for budget in budgets:
        state = GameState(budget=budget, lambdas={SINGLE_TYPE_ID: lam})
        sse = solve_online_sse(
            state, {SINGLE_TYPE_ID: payoff}, costs, moment=moment
        )
        theta = sse.theta_of(SINGLE_TYPE_ID)
        sse_value = sse_auditor_utility(theta, payoff)
        ossp_value = ossp_auditor_utility(theta, payoff)
        rows.append(
            BudgetSweepRow(
                budget=budget,
                theta=theta,
                sse_utility=sse_value,
                ossp_utility=ossp_value,
                signaling_gain=ossp_value - sse_value,
            )
        )
    return rows


def format_budget_sweep(rows: list[BudgetSweepRow]) -> str:
    """Render the budget sweep."""
    return render_table(
        headers=["budget", "theta", "SSE utility", "OSSP utility", "signaling gain"],
        rows=[
            [row.budget, round(row.theta, 4), row.sse_utility, row.ossp_utility, row.signaling_gain]
            for row in rows
        ],
        title="A2 — value of signaling vs budget (type 1, day-start state)",
    )


@dataclass(frozen=True)
class ScopeAblationResult:
    """SAG signaling scope: best-response-only (paper §5.B) vs all alerts.

    The paper applies signaling only to alerts of the attacker's
    best-response type and handles the rest with the online SSE. Applying
    signaling to *every* alert does not change the game value against a
    strategic attacker (Theorem 1 marginals are unchanged) but alters the
    realized budget path and the number of warnings users see.
    """

    mean_game_value_best_only: float
    mean_game_value_all: float
    warnings_best_only: float
    warnings_all: float
    final_budget_best_only: float
    final_budget_all: float


def run_scope_ablation(
    seed: int = 7,
    n_days: int = 48,
    n_test_days: int = 1,
) -> ScopeAblationResult:
    """Compare signaling scopes on the seven-type workload."""
    from repro.audit.cycle import run_cycle
    from repro.audit.evaluation import EvaluationHarness
    from repro.audit.policies import OSSPPolicy
    from repro.core.game import SCOPE_ALL, SCOPE_BEST_RESPONSE
    from repro.experiments.config import MULTI_TYPE_BUDGET

    store = build_alert_store(seed=seed, n_days=n_days)
    harness = EvaluationHarness(
        store,
        payoffs=TABLE2_PAYOFFS,
        costs=paper_costs(),
        budget=MULTI_TYPE_BUDGET,
        type_ids=tuple(sorted(TABLE2_PAYOFFS)),
        seed=seed,
        budget_charging="expected",
    )
    splits = harness.splits(window=min(41, len(store.days) - 1))[:n_test_days]

    def collect(scope: str) -> tuple[float, float, float]:
        values, warnings, budgets = [], [], []
        for split in splits:
            result = run_cycle(
                OSSPPolicy(scope=scope),
                harness.test_alerts(split),
                harness.context_for(split),
                day=split.test_day,
            )
            values.append(result.mean_utility())
            warnings.append(result.warnings_sent)
            budgets.append(result.budget_final)
        return (
            float(np.mean(values)),
            float(np.mean(warnings)),
            float(np.mean(budgets)),
        )

    best_value, best_warnings, best_budget = collect(SCOPE_BEST_RESPONSE)
    all_value, all_warnings, all_budget = collect(SCOPE_ALL)
    return ScopeAblationResult(
        mean_game_value_best_only=best_value,
        mean_game_value_all=all_value,
        warnings_best_only=best_warnings,
        warnings_all=all_warnings,
        final_budget_best_only=best_budget,
        final_budget_all=all_budget,
    )


@dataclass(frozen=True)
class BackendComparisonResult:
    """Agreement and speed of the two LP backends on real LP (2) states."""

    n_states: int
    max_objective_gap: float
    scipy_seconds: float
    simplex_seconds: float


def run_backend_comparison(
    seed: int = 7,
    n_days: int = 48,
    n_states: int = 40,
) -> BackendComparisonResult:
    """Solve the same LP (2) states with both backends and compare."""
    store = build_alert_store(seed=seed, n_days=n_days)
    train_days = store.days[: n_days - 1]
    history = store.times_by_type(train_days, sorted(TABLE2_PAYOFFS))
    payoffs = TABLE2_PAYOFFS
    costs = paper_costs()

    # Sample states across the day and a range of budgets.
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n_states):
        time_of_day = float(rng.uniform(6 * 3600, 20 * 3600))
        budget = float(rng.uniform(5.0, 60.0))
        lambdas = {
            t: float(np.mean([day.size - np.searchsorted(day, time_of_day) for day in days]))
            for t, days in history.items()
        }
        states.append(GameState(budget=budget, lambdas=lambdas))

    gaps = []
    timings = {"scipy": 0.0, "simplex": 0.0}
    for backend in timings:
        warm_up(backend)
    # Shared memo: both backends see identical theta coefficients and the
    # timings compare LP work, not reciprocal-moment recomputation.
    moment = PoissonReciprocalMoment()
    for state in states:
        values = {}
        for backend in ("scipy", "simplex"):
            started = time.perf_counter()
            solution = solve_online_sse(
                state, payoffs, costs, moment=moment, backend=backend
            )
            timings[backend] += time.perf_counter() - started
            values[backend] = solution.auditor_utility
        gaps.append(abs(values["scipy"] - values["simplex"]))
    return BackendComparisonResult(
        n_states=len(states),
        max_objective_gap=float(max(gaps)),
        scipy_seconds=timings["scipy"],
        simplex_seconds=timings["simplex"],
    )
