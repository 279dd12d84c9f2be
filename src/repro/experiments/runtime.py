"""Experiment E5 — per-alert optimization latency, and the engine benchmark.

The paper reports an average of ~0.02 seconds to optimize the SAG for a
single alert (7 types, laptop hardware). This experiment measures the same
quantity: the wall-clock time of the full per-alert pipeline (estimation +
LP (2) multiple-LP + LP (3)/closed form) for the OSSP policy on the
seven-type workload.

:func:`run_engine_comparison` extends the same question to stream scale: it
replays one synthetic alert stream through the per-alert LP path and
through the serving façade's batch path (an :class:`repro.api.v1.AuditSession`
over the analytic solver plus quantized solution cache) and reports the
speedup — the number backing ``benchmarks/bench_engine.py`` and the
``engine`` CLI subcommand.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass

import numpy as np

from repro.api.v1 import AlertEvent, AuditSession, SessionConfig
from repro.engine.cache import DEFAULT_ERROR_BUDGET
from repro.audit.cycle import run_cycle
from repro.audit.evaluation import EvaluationHarness
from repro.audit.policies import OSSPPolicy
from repro.core.game import CHARGE_EXPECTED, SAGConfig, SignalingAuditGame
from repro.core.payoffs import PayoffMatrix
from repro.experiments.config import (
    MULTI_TYPE_BUDGET,
    ROLLBACK_THRESHOLD,
    TABLE2_PAYOFFS,
    paper_costs,
)
from repro.experiments.dataset import build_alert_store
from repro.logstore.store import AlertLogStore
from repro.solvers.registry import warm_up
from repro.stats.diurnal import SECONDS_PER_DAY
from repro.stats.estimator import FutureAlertEstimator, RollbackEstimator

#: The average per-alert latency reported in the paper (seconds).
PAPER_SECONDS_PER_ALERT = 0.02


@dataclass(frozen=True)
class RuntimeResult:
    """Latency statistics for per-alert SAG optimization."""

    n_alerts: int
    mean_seconds: float
    median_seconds: float
    p95_seconds: float
    max_seconds: float
    paper_seconds: float = PAPER_SECONDS_PER_ALERT


def run_runtime(
    store: AlertLogStore | None = None,
    seed: int = 7,
    n_days: int = 48,
    max_alerts: int | None = 400,
    backend: str = "scipy",
    use_engine_cache: bool = False,
) -> RuntimeResult:
    """Measure per-alert OSSP optimization latency on the 7-type workload.

    ``backend`` may be any registered solver backend, including the
    vectorized ``"analytic"`` fast path; ``use_engine_cache`` additionally
    routes the per-alert SSE solves through an exact-mode solution cache.
    """
    if store is None:
        store = build_alert_store(seed=seed, n_days=n_days)
    harness = EvaluationHarness(
        store,
        payoffs=TABLE2_PAYOFFS,
        costs=paper_costs(),
        budget=MULTI_TYPE_BUDGET,
        type_ids=tuple(sorted(TABLE2_PAYOFFS)),
        rollback_threshold=ROLLBACK_THRESHOLD,
        backend=backend,
        seed=seed,
        use_engine_cache=use_engine_cache,
    )
    split = harness.splits(window=min(41, len(store.days) - 1))[0]
    alerts = harness.test_alerts(split)
    if max_alerts is not None:
        alerts = alerts[:max_alerts]
    warm_up(backend)
    result = run_cycle(OSSPPolicy(), alerts, harness.context_for(split))
    latencies = np.asarray(result.solve_seconds)
    return RuntimeResult(
        n_alerts=int(latencies.size),
        mean_seconds=float(np.mean(latencies)),
        median_seconds=float(np.median(latencies)),
        p95_seconds=float(np.percentile(latencies, 95)),
        max_seconds=float(np.max(latencies)),
    )


@dataclass(frozen=True)
class EngineComparisonResult:
    """One stream replayed through the LP path and through the engine.

    ``mean_game_value_gap`` / ``max_game_value_gap`` are the *verified*
    per-decision errors: every game value the engine served is compared
    against an exact per-alert ``baseline_backend`` re-solve at the
    engine's own realized state. This is the gated correctness number —
    it measures exactly what the cache's ``error_budget`` certifies, with
    no budget-path compounding mixed in. ``mean_path_divergence`` /
    ``max_path_divergence`` compare the two independent runs alert by
    alert (the historical definition): that number additionally absorbs
    any budget-path fork between the runs and is reported for context.
    """

    n_types: int
    n_alerts: int
    baseline_backend: str
    baseline_seconds: float
    engine_seconds: float
    cache_hit_rate: float
    sse_solves: int
    cache_entries: int
    budget_step: float
    rate_step: float
    error_budget: float | None
    mean_game_value_gap: float
    max_game_value_gap: float
    mean_path_divergence: float
    max_path_divergence: float
    policy_table: bool = False
    table_hit_rate: float = 0.0
    fallbacks: int = 0
    compile_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        """Wall-clock ratio baseline / engine (higher is better)."""
        return (
            self.baseline_seconds / self.engine_seconds
            if self.engine_seconds > 0
            else float("inf")
        )

    @property
    def decisions_per_second(self) -> float:
        """Engine-side decision throughput (loop wall clock)."""
        return (
            self.n_alerts / self.engine_seconds
            if self.engine_seconds > 0
            else float("inf")
        )


def synthetic_stream_workload(
    n_types: int = 5,
    n_alerts: int = 1000,
    seed: int = 7,
    n_history_days: int = 10,
    daily_mean_per_type: float = 120.0,
) -> tuple[dict[int, PayoffMatrix], dict[int, float], dict, np.ndarray, np.ndarray]:
    """A self-contained stream workload for engine benchmarking.

    Table-2 payoffs/costs for the first ``n_types`` types, light synthetic
    uniform-arrival history (enough to drive the estimator), and one
    chronological test stream of ``n_alerts`` ``(type, time)`` pairs. Kept
    independent of the EMR dataset builder so benchmarks start in
    milliseconds.
    """
    type_ids = sorted(TABLE2_PAYOFFS)[:n_types]
    payoffs = {t: TABLE2_PAYOFFS[t] for t in type_ids}
    costs = {t: paper_costs()[t] for t in type_ids}
    rng = np.random.default_rng(seed)
    history = {
        t: [
            np.sort(
                rng.uniform(0.0, SECONDS_PER_DAY, rng.poisson(daily_mean_per_type))
            )
            for _ in range(n_history_days)
        ]
        for t in type_ids
    }
    times = np.sort(rng.uniform(0.0, SECONDS_PER_DAY, n_alerts))
    types = rng.choice(np.asarray(type_ids), size=n_alerts)
    return payoffs, costs, history, types, times


def run_engine_comparison(
    n_types: int = 5,
    n_alerts: int = 1000,
    seed: int = 7,
    budget: float = 50.0,
    baseline_backend: str = "scipy",
    budget_step: float = 0.5,
    rate_step: float = 1.0,
    error_budget: float | None = DEFAULT_ERROR_BUDGET,
    policy_table: bool = False,
) -> EngineComparisonResult:
    """Replay one stream: per-alert ``baseline_backend`` vs analytic+cache.

    ``policy_table=True`` serves the fast side from a precompiled
    certified policy table (the zero-solve steady-state path) instead of
    the per-alert solve+cache pipeline; the same verification pass then
    re-solves every realized state exactly, so ``max_game_value_gap``
    measures the table's end-to-end certified accuracy. Table compilation
    happens at session open, outside ``engine_seconds`` (the per-cycle
    loop wall); it is reported in ``compile_seconds``.

    Both runs use expected-value budget charging so their budget paths stay
    comparable (conditional charging would fork on sampled signals).
    Under the default certified-adaptive cache policy (``error_budget``
    set) every decision the engine serves is either a full solve or an
    exact single-candidate re-solve under a winner-stability certificate,
    so the verified per-state gap is bounded by ``error_budget`` plus
    backend numerical noise — in practice ~1e-13, against the unbounded
    (mean ~2, max ~135) gaps of the legacy lossy quantized policy
    (``error_budget=None``). ``benchmarks/bench_engine.py`` gates on this.

    After the timed runs, a verification pass re-solves every one of the
    engine's realized states exactly through ``baseline_backend`` and
    recomputes the decision-level game value (LP (3) closed form at the
    equilibrium best response) — the gap fields compare against that
    ground truth; the path-divergence fields compare the two timed runs
    directly.
    """
    payoffs, costs, history, types, times = synthetic_stream_workload(
        n_types=n_types, n_alerts=n_alerts, seed=seed
    )

    def fresh_estimator() -> RollbackEstimator:
        return RollbackEstimator(FutureAlertEstimator(history))

    base_config = SAGConfig(
        payoffs=payoffs,
        costs=costs,
        budget=budget,
        backend=baseline_backend,
        budget_charging=CHARGE_EXPECTED,
    )
    baseline = SignalingAuditGame(
        base_config, fresh_estimator(), rng=np.random.default_rng(seed)
    )
    warm_up(baseline_backend)
    started = _time.perf_counter()
    baseline_values = np.array(
        [
            baseline.process_alert(int(t), float(s)).game_value
            for t, s in zip(types, times)
        ]
    )
    baseline_seconds = _time.perf_counter() - started

    # The fast path goes through the serving façade: one tenant session
    # over the analytic backend with a quantized cache, whole stream in
    # one batched decide call (the engine's stream API under the hood).
    session = AuditSession.open(
        SessionConfig(
            tenant="engine-comparison",
            budget=budget,
            payoffs=payoffs,
            costs=costs,
            backend="analytic",
            seed=seed,
            budget_charging=CHARGE_EXPECTED,
            cache_budget_step=budget_step,
            cache_rate_step=rate_step,
            cache_error_budget=error_budget,
            policy_table=policy_table,
        ),
        history,
    )
    decisions = session.decide_batch(
        [
            AlertEvent(
                tenant="engine-comparison",
                type_id=int(t),
                time_of_day=float(s),
            )
            for t, s in zip(types, times)
        ]
    )
    engine_values = np.array([d.game_value for d in decisions])
    report = session.close_cycle()
    final_stats = session.close()

    verified_gaps = _verified_gaps(
        decisions, payoffs, costs, history, budget, baseline_backend
    )

    return EngineComparisonResult(
        n_types=n_types,
        n_alerts=n_alerts,
        baseline_backend=baseline_backend,
        baseline_seconds=baseline_seconds,
        engine_seconds=report.wall_seconds,
        cache_hit_rate=report.hit_rate,
        sse_solves=report.sse_solves,
        cache_entries=report.cache_entries,
        budget_step=budget_step,
        rate_step=rate_step,
        error_budget=error_budget,
        mean_game_value_gap=float(np.mean(verified_gaps)),
        max_game_value_gap=float(np.max(verified_gaps)),
        mean_path_divergence=float(
            np.mean(np.abs(engine_values - baseline_values))
        ),
        max_path_divergence=float(
            np.max(np.abs(engine_values - baseline_values))
        ),
        policy_table=policy_table,
        table_hit_rate=report.table_hit_rate,
        fallbacks=report.fallbacks,
        compile_seconds=final_stats.compile_seconds,
    )


def _verified_gaps(
    decisions,
    payoffs,
    costs,
    history,
    budget: float,
    baseline_backend: str,
) -> np.ndarray:
    """Per-decision |served - exact| game values at the engine's own states.

    Replays the engine's realized trajectory — each decision's
    pre-decision state is the previous decision's remaining budget plus
    the deterministic estimator's rates at the arrival time — and solves
    it exactly through ``baseline_backend``, deriving the decision-level
    game value exactly as :meth:`SignalingAuditGame.process_alert` does
    (the LP (3) closed form at the equilibrium best response).
    """
    from repro.core.signaling import solve_ossp
    from repro.core.sse import GameState, solve_online_sse
    from repro.stats.poisson import PoissonReciprocalMoment

    estimator = RollbackEstimator(FutureAlertEstimator(history))
    moment = PoissonReciprocalMoment()
    gaps = np.empty(len(decisions))
    remaining = budget
    for index, decision in enumerate(decisions):
        estimator.observe_alert(decision.time_of_day)
        state = GameState(
            budget=remaining,
            lambdas=estimator.remaining_means(decision.time_of_day),
        )
        sse = solve_online_sse(
            state, payoffs, costs, moment=moment, backend=baseline_backend
        )
        best_payoff = payoffs[sse.best_response]
        scheme = solve_ossp(sse.theta_of(sse.best_response), best_payoff)
        gaps[index] = abs(scheme.auditor_utility(best_payoff) - decision.game_value)
        remaining = decision.budget_remaining
    return gaps


def format_engine_comparison(result: EngineComparisonResult) -> str:
    """Render the engine-vs-baseline comparison."""
    fast_label = "compiled table    " if result.policy_table else "analytic + cache  "
    lines = [
        f"Batch engine vs per-alert {result.baseline_backend} "
        f"({result.n_types} types, {result.n_alerts} alerts)",
        f"  per-alert {result.baseline_backend:8s}: "
        f"{result.baseline_seconds:8.3f} s",
        f"  {fast_label}: {result.engine_seconds:8.3f} s",
        f"  speedup           : {result.speedup:8.1f}x",
        f"  cache hit rate    : {result.cache_hit_rate:8.1%} "
        f"({result.sse_solves} solves, {result.cache_entries} entries)",
    ]
    if result.policy_table:
        lines.append(
            f"  table hit rate    : {result.table_hit_rate:8.1%} "
            f"({result.fallbacks} fallbacks, compiled in "
            f"{result.compile_seconds:.2f} s, "
            f"{result.decisions_per_second:,.0f} decisions/s)"
        )
    lines.extend([
        f"  verified gap      : {result.mean_game_value_gap:8.2e} mean / "
        f"{result.max_game_value_gap:.2e} max "
        f"(error_budget={result.error_budget})",
        f"  path divergence   : {result.mean_path_divergence:8.2e} mean / "
        f"{result.max_path_divergence:.2e} max "
        f"(budget_step={result.budget_step}, rate_step={result.rate_step})",
    ])
    return "\n".join(lines)


def format_runtime(result: RuntimeResult) -> str:
    """Render the latency comparison against the paper's figure."""
    return (
        "Per-alert SAG optimization latency "
        f"({result.n_alerts} alerts, 7 types)\n"
        f"  mean   {result.mean_seconds * 1000:8.2f} ms "
        f"(paper: {result.paper_seconds * 1000:.0f} ms)\n"
        f"  median {result.median_seconds * 1000:8.2f} ms\n"
        f"  p95    {result.p95_seconds * 1000:8.2f} ms\n"
        f"  max    {result.max_seconds * 1000:8.2f} ms"
    )
