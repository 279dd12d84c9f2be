"""Benchmark — batch engine (analytic solver + certified cache) vs per-alert LP.

Reproduces: the engine acceptance targets — replaying a 5-type, 1000-alert
stream through the :class:`~repro.engine.stream.BatchAuditEngine` (analytic
SSE backend + error-bounded adaptive solution cache) must be at least 5x
faster than the per-alert scipy/HiGHS path, **and** every game value it
serves must verify against an exact per-state re-solve within
:data:`MAX_GAME_VALUE_GAP` (the cache's certified ``error_budget``
contract — accuracy is gated alongside speed, in quick CI runs too).

A second section replays the identical stream in **policy-table mode**
(the precompiled certified table, the zero-solve steady-state path): its
verified per-state gap is gated by the same :data:`MAX_GAME_VALUE_GAP`
ceiling, its loop wall clock must beat the solve+cache path by at
least :data:`MIN_TABLE_SPEEDUP`, and the traced peak memory of one
table compile must stay under :data:`MAX_COMPILE_PEAK_MIB` — all
enforced in quick CI runs too, because they are invariants, not
machine-speed claims. The absolute ``decisions_per_second`` figure is
recorded (not gated; it tracks the runner's hardware).

The run writes all measurements to ``BENCH_engine.json``, which CI
uploads as an artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.engine.cache import DEFAULT_ERROR_BUDGET
from repro.experiments.runtime import run_engine_comparison

#: Acceptance floor for the full-size run.
MIN_SPEEDUP = 5.0

#: Acceptance floor for the full-size run's cache hit rate.
MIN_HIT_RATE = 0.4

#: Gate on the verified per-state game-value error (quick runs included):
#: the certified adaptive policy promises ``error_budget`` accuracy, so a
#: regression here means the certificates stopped being sound.
MAX_GAME_VALUE_GAP = DEFAULT_ERROR_BUDGET

#: Floor on the compiled table's loop-wall advantage over the solve+cache
#: path (quick runs included). The measured ratio is an order of
#: magnitude higher; the floor only has to survive noisy shared runners.
MIN_TABLE_SPEEDUP = 2.0

#: Timing repeats for the table section's throughput figure (the table
#: loop is fast enough that scheduler noise dominates a single run).
TABLE_REPEATS = 3

#: Ceiling on the ``tracemalloc`` peak of one table compile (quick runs
#: included; memory does not depend on the runner's CPU). The stream's
#: 5,914-column table compiles in about 22 MiB solved in small column
#: blocks, against about 140 MiB when 512-column chunks carried the full
#: breakpoint comparison tensor and dense decision grids.
MAX_COMPILE_PEAK_MIB = 64.0


def run_bench(
    n_alerts: int = 1000,
    n_types: int = 5,
    seed: int = 7,
    baseline_backend: str = "scipy",
    error_budget: float | None = DEFAULT_ERROR_BUDGET,
) -> dict:
    """One engine-vs-baseline comparison as a JSON-ready dict."""
    result = run_engine_comparison(
        n_types=n_types,
        n_alerts=n_alerts,
        seed=seed,
        baseline_backend=baseline_backend,
        error_budget=error_budget,
    )
    return {
        "n_types": result.n_types,
        "n_alerts": result.n_alerts,
        "baseline_backend": result.baseline_backend,
        "baseline_seconds": result.baseline_seconds,
        "engine_seconds": result.engine_seconds,
        "speedup": result.speedup,
        "cache_hit_rate": result.cache_hit_rate,
        "sse_solves": result.sse_solves,
        "cache_entries": result.cache_entries,
        "budget_step": result.budget_step,
        "rate_step": result.rate_step,
        "error_budget": result.error_budget,
        "mean_game_value_gap": result.mean_game_value_gap,
        "max_game_value_gap": result.max_game_value_gap,
        "mean_path_divergence": result.mean_path_divergence,
        "max_path_divergence": result.max_path_divergence,
    }


def _time_table_stream(
    n_alerts: int, seed: int, error_budget: float | None
) -> float:
    """Loop wall seconds for one table-mode replay (no baseline re-run)."""
    from repro.api.v1 import AlertEvent, AuditSession, SessionConfig
    from repro.core.game import CHARGE_EXPECTED
    from repro.experiments.runtime import synthetic_stream_workload

    payoffs, costs, history, types, times = synthetic_stream_workload(
        n_types=5, n_alerts=n_alerts, seed=seed
    )
    session = AuditSession.open(
        SessionConfig(
            tenant="bench-table",
            budget=50.0,
            payoffs=payoffs,
            costs=costs,
            backend="analytic",
            seed=seed,
            budget_charging=CHARGE_EXPECTED,
            cache_error_budget=error_budget,
            policy_table=True,
        ),
        history,
    )
    session.decide_batch([
        AlertEvent(
            tenant="bench-table", type_id=int(t), time_of_day=float(s)
        )
        for t, s in zip(types, times)
    ])
    report = session.close_cycle()
    session.close()
    return report.wall_seconds


def _compile_peak_mib(seed: int, error_budget: float | None) -> float:
    """Traced peak (MiB) of one compile of the stream's policy table."""
    import tracemalloc

    from repro.core.game import CHARGE_EXPECTED, SAGConfig
    from repro.engine.policy_table import PolicyTableCompiler
    from repro.experiments.runtime import synthetic_stream_workload
    from repro.stats.estimator import FutureAlertEstimator, RollbackEstimator

    payoffs, costs, history, _, _ = synthetic_stream_workload(
        n_types=5, n_alerts=1, seed=seed
    )
    compiler = PolicyTableCompiler(
        SAGConfig(
            payoffs=payoffs,
            costs=costs,
            budget=50.0,
            backend="analytic",
            budget_charging=CHARGE_EXPECTED,
        ),
        RollbackEstimator(FutureAlertEstimator(history)),
        error_budget=error_budget,
    )
    tracemalloc.start()
    try:
        compiler.compile()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run_table_bench(
    n_alerts: int,
    seed: int,
    baseline_backend: str,
    error_budget: float | None,
    cache_engine_seconds: float,
) -> dict:
    """The policy-table section: verified accuracy + best-of-N throughput.

    One full comparison run supplies the verified per-state gap (every
    decision re-solved exactly through ``baseline_backend`` at the
    engine's realized state); additional timing-only replays of the same
    stream supply a stable loop-wall figure without paying the per-alert
    LP baseline again. ``speedup_vs_cache`` compares against the
    solve+cache section's loop wall on the identical stream.
    ``compile_peak_mib`` traces one more compile of the same table,
    outside the timed runs.
    """
    result = run_engine_comparison(
        n_types=5,
        n_alerts=n_alerts,
        seed=seed,
        baseline_backend=baseline_backend,
        error_budget=error_budget,
        policy_table=True,
    )
    walls = [result.engine_seconds]
    for _ in range(TABLE_REPEATS - 1):
        walls.append(_time_table_stream(n_alerts, seed, error_budget))
    best_wall = min(walls)
    return {
        "n_alerts": n_alerts,
        "engine_seconds": walls,
        "best_engine_seconds": best_wall,
        "decisions_per_second": n_alerts / best_wall if best_wall > 0 else 0.0,
        "speedup_vs_baseline": (
            result.baseline_seconds / best_wall if best_wall > 0 else 0.0
        ),
        "speedup_vs_cache": (
            cache_engine_seconds / best_wall if best_wall > 0 else 0.0
        ),
        "table_hit_rate": result.table_hit_rate,
        "fallbacks": result.fallbacks,
        "compile_seconds": result.compile_seconds,
        "compile_peak_mib": _compile_peak_mib(seed, error_budget),
        "error_budget": result.error_budget,
        "mean_game_value_gap": result.mean_game_value_gap,
        "max_game_value_gap": result.max_game_value_gap,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced stream (200 alerts) for CI smoke runs",
    )
    parser.add_argument(
        "--out", default="BENCH_engine.json", metavar="PATH",
        help="where to write the JSON measurements",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--baseline-backend", choices=("scipy", "simplex"), default="scipy",
    )
    parser.add_argument(
        "--cache-error-budget", type=float, default=DEFAULT_ERROR_BUDGET,
        dest="error_budget", metavar="EPS",
        help="certified game-value error budget of the adaptive cache "
        f"(default {DEFAULT_ERROR_BUDGET:g})",
    )
    args = parser.parse_args(argv)

    n_alerts = 200 if args.quick else 1000
    payload = run_bench(
        n_alerts=n_alerts,
        seed=args.seed,
        baseline_backend=args.baseline_backend,
        error_budget=args.error_budget,
    )
    payload["policy_table"] = run_table_bench(
        n_alerts=n_alerts,
        seed=args.seed,
        baseline_backend=args.baseline_backend,
        error_budget=args.error_budget,
        cache_engine_seconds=payload["engine_seconds"],
    )
    payload["quick"] = bool(args.quick)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)

    print(_format(payload))
    print(f"wrote {args.out}")
    failed = False
    table = payload["policy_table"]
    # Accuracy is gated in every mode: the verified per-state gap must
    # honor the certified error budget, quick CI runs included — for the
    # solve+cache path and for the compiled table.
    if payload["max_game_value_gap"] > MAX_GAME_VALUE_GAP:
        print(
            f"FAIL: verified game-value gap {payload['max_game_value_gap']:.3e} "
            f"exceeds the gated {MAX_GAME_VALUE_GAP:.0e} ceiling",
            file=sys.stderr,
        )
        failed = True
    if table["max_game_value_gap"] > MAX_GAME_VALUE_GAP:
        print(
            f"FAIL: table-mode verified gap {table['max_game_value_gap']:.3e} "
            f"exceeds the gated {MAX_GAME_VALUE_GAP:.0e} ceiling",
            file=sys.stderr,
        )
        failed = True
    if table["speedup_vs_cache"] < MIN_TABLE_SPEEDUP:
        print(
            f"FAIL: table-vs-cache speedup {table['speedup_vs_cache']:.1f}x "
            f"below the {MIN_TABLE_SPEEDUP:.0f}x acceptance floor",
            file=sys.stderr,
        )
        failed = True
    if table["compile_peak_mib"] > MAX_COMPILE_PEAK_MIB:
        print(
            f"FAIL: table compile peak {table['compile_peak_mib']:.1f} MiB "
            f"above the {MAX_COMPILE_PEAK_MIB:.0f} MiB ceiling",
            file=sys.stderr,
        )
        failed = True
    if not args.quick and payload["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: speedup {payload['speedup']:.1f}x below the "
            f"{MIN_SPEEDUP:.0f}x acceptance floor",
            file=sys.stderr,
        )
        failed = True
    if not args.quick and payload["cache_hit_rate"] < MIN_HIT_RATE:
        print(
            f"FAIL: cache hit rate {payload['cache_hit_rate']:.1%} below the "
            f"{MIN_HIT_RATE:.0%} acceptance floor",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


def _format(payload: dict) -> str:
    table = payload["policy_table"]
    return (
        f"Batch engine vs per-alert {payload['baseline_backend']} "
        f"({payload['n_types']} types, {payload['n_alerts']} alerts)\n"
        f"  baseline     : {payload['baseline_seconds']:.3f} s\n"
        f"  engine       : {payload['engine_seconds']:.3f} s\n"
        f"  speedup      : {payload['speedup']:.1f}x "
        f"(cache hit rate {payload['cache_hit_rate']:.1%})\n"
        f"  verified gap : {payload['max_game_value_gap']:.3e} max "
        f"(gate {MAX_GAME_VALUE_GAP:.0e}, "
        f"error_budget {payload['error_budget']})\n"
        f"  policy table : {table['best_engine_seconds']:.4f} s best of "
        f"{len(table['engine_seconds'])} — "
        f"{table['decisions_per_second']:,.0f} decisions/s, "
        f"{table['speedup_vs_cache']:.1f}x vs cache "
        f"(floor {MIN_TABLE_SPEEDUP:.0f}x), "
        f"hit rate {table['table_hit_rate']:.1%}, "
        f"{table['fallbacks']} fallbacks\n"
        f"  table gap    : {table['max_game_value_gap']:.3e} max "
        f"(gate {MAX_GAME_VALUE_GAP:.0e}, compiled in "
        f"{table['compile_seconds']:.2f} s, peak "
        f"{table['compile_peak_mib']:.1f} MiB of {MAX_COMPILE_PEAK_MIB:.0f})"
    )


if __name__ == "__main__":
    sys.exit(main())
