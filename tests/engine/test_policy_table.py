"""Policy tables: compile validation, recompile triggers, fallback identity."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.core.game import CHARGE_EXPECTED, SAGConfig
from repro.engine import policy_table
from repro.engine.cache import SSESolutionCache
from repro.engine.policy_table import PolicyTableCompiler
from repro.engine.stream import BatchAuditEngine, analytic_config
from repro.experiments.runtime import synthetic_stream_workload
from repro.stats.estimator import FutureAlertEstimator, RollbackEstimator

BUDGET = 30.0

#: Ceiling on the traced peak of one compile of the wide table below
#: (1,630 columns x 7 types x 257 budgets). The blocked compile peaks at
#: about 18 MiB there; solving 512-column chunks at once with the full
#: breakpoint comparison tensor, and keeping the dense per-grid-point
#: decision arrays, peaked at about 145 MiB.
COMPILE_PEAK_MIB = 48


@pytest.fixture(scope="module")
def workload():
    return synthetic_stream_workload(
        n_types=3, n_alerts=100, seed=13, n_history_days=6
    )


def _config(workload):
    payoffs, costs, _, _, _ = workload
    return SAGConfig(
        payoffs=payoffs,
        costs=costs,
        budget=BUDGET,
        backend="analytic",
        budget_charging=CHARGE_EXPECTED,
    )


def _engine(workload, policy_table=False, **options):
    _, _, history, _, _ = workload
    return BatchAuditEngine(
        analytic_config(_config(workload)),
        RollbackEstimator(FutureAlertEstimator(history)),
        rng=np.random.default_rng(5),
        cache=SSESolutionCache(),
        policy_table=policy_table,
        policy_table_options=options or None,
    )


def _decision_key(decision):
    """Every decision field that must match bitwise (timing excluded)."""
    return (
        decision.time_of_day,
        decision.type_id,
        decision.theta,
        decision.game_value,
        decision.ossp_utility,
        decision.sse_utility,
        decision.warned,
        decision.audit_probability,
        decision.budget_before,
        decision.budget_after,
        decision.charged,
        decision.signaling_applied,
    )


class TestCompileValidation:
    def test_requires_analytic_backend(self, workload):
        payoffs, costs, history, _, _ = workload
        config = SAGConfig(
            payoffs=payoffs, costs=costs, budget=BUDGET, backend="scipy"
        )
        with pytest.raises(ExperimentError, match="analytic"):
            BatchAuditEngine(
                config,
                RollbackEstimator(FutureAlertEstimator(history)),
                policy_table=True,
            )

    def test_options_without_table_rejected(self, workload):
        with pytest.raises(ExperimentError, match="policy_table_options"):
            _engine(workload, policy_table=False, budget_floor=1.0)

    def test_budget_floor_must_stay_below_budget(self, workload):
        _, _, history, _, _ = workload
        with pytest.raises(ExperimentError, match="budget_floor"):
            PolicyTableCompiler(
                _config(workload),
                RollbackEstimator(FutureAlertEstimator(history)),
                budget_floor=BUDGET,
            )

    def test_compiled_region_covers_full_budget_by_default(self, workload):
        engine = _engine(workload, policy_table=True)
        region = engine.policy.region
        assert region.budget_floor == 0.0
        assert region.budget_ceiling == BUDGET
        assert not region.truncated
        assert engine.compile_seconds > 0.0
        assert engine.recompiles == 0


class TestRateDriftRecompile:
    """Rates drifting past the compiled trajectory prefix, mid-cycle."""

    def test_truncated_columns_fall_back_then_recompile(self, workload):
        _, _, _, types, times = workload
        engine = _engine(workload, policy_table=True, max_columns=1)
        assert engine.policy.region.truncated
        assert engine.policy.region.columns == 1

        result = engine.process_stream(types, times)
        # Every alert's effective time lands past the one compiled column.
        assert result.stats.table_hits == 0
        assert result.stats.fallbacks == len(types)
        assert engine.recompiles == 0  # marked stale, not yet recompiled

        engine.reset()
        assert engine.recompiles == 1
        region = engine.policy.region
        assert not region.truncated
        assert region.columns == region.total_columns

        again = engine.process_stream(types, times)
        assert again.stats.fallbacks == 0
        assert again.stats.table_hits == len(types)
        assert again.stats.recompiles == 1  # attributed to this cycle

    def test_untruncated_table_never_recompiles(self, workload):
        _, _, _, types, times = workload
        engine = _engine(workload, policy_table=True)
        engine.process_stream(types, times)
        engine.reset()
        assert engine.recompiles == 0


class TestBudgetFloorRecompile:
    """Budget exhaustion below the compiled grid floor, mid-cycle."""

    def test_exhaustion_below_floor_falls_back_then_recompiles(self, workload):
        _, _, _, types, times = workload
        engine = _engine(
            workload, policy_table=True, budget_floor=BUDGET * 0.7
        )
        result = engine.process_stream(types, times)
        assert result.stats.table_hits > 0
        assert result.stats.fallbacks > 0
        assert (
            result.stats.table_hits + result.stats.fallbacks == len(types)
        )
        # The tail below the floor is exactly the fallback count: once the
        # replay spends past the floor it never climbs back.
        below = sum(
            decision.budget_before < BUDGET * 0.7
            for decision in result.decisions
        )
        assert result.stats.fallbacks == below

        engine.reset()
        assert engine.recompiles == 1
        assert engine.policy.region.budget_floor == 0.0
        again = engine.process_stream(types, times)
        assert again.stats.fallbacks == 0


class TestFallbackIdentity:
    def test_all_fallback_stream_is_bit_identical_to_cache_path(self, workload):
        """Out-of-region alerts take the exact solve/cache path, bit for bit.

        ``max_columns=1`` makes every alert miss the table, so the whole
        stream exercises the fallback handoff (estimator anchor sync +
        ledger flush) — and must reproduce the plain cached engine's
        decisions exactly, including the RNG draw sequence.
        """
        _, _, _, types, times = workload
        cached = _engine(workload).process_stream(types, times)
        table = _engine(
            workload, policy_table=True, max_columns=1
        ).process_stream(types, times)
        assert table.stats.fallbacks == len(types)
        for left, right in zip(cached.decisions, table.decisions):
            assert _decision_key(left) == _decision_key(right)
        assert np.array_equal(cached.game_values, table.game_values)
        assert np.array_equal(cached.thetas, table.thetas)
        assert np.array_equal(cached.budget_path, table.budget_path)

    def test_mixed_stream_fallback_tail_matches_cache_replay(self, workload):
        """After the floor is crossed, fallback decisions match the cache
        path within the certified budget (the in-region prefix serves exact
        solutions whose float association differs at the ulp scale, so the
        comparison is tight-tolerance, not bitwise)."""
        _, _, _, types, times = workload
        cached = _engine(workload).process_stream(types, times)
        floored = _engine(
            workload, policy_table=True, budget_floor=BUDGET * 0.7
        ).process_stream(types, times)
        assert floored.stats.fallbacks > 0
        np.testing.assert_allclose(
            floored.game_values, cached.game_values, atol=1e-9
        )
        np.testing.assert_allclose(floored.thetas, cached.thetas, atol=1e-9)


def _wide_compiler():
    payoffs, costs, history, _, _ = synthetic_stream_workload(
        n_types=7, n_alerts=1, seed=3, n_history_days=2
    )
    config = SAGConfig(
        payoffs=payoffs,
        costs=costs,
        budget=BUDGET,
        backend="analytic",
        budget_charging=CHARGE_EXPECTED,
    )
    return PolicyTableCompiler(
        config, RollbackEstimator(FutureAlertEstimator(history))
    )


def _packed(policy):
    """Every packed table field, floats compared bit for bit."""
    floats = (
        policy.g,
        policy.inv_coef,
        policy.a,
        policy.b,
        policy.xs,
        policy.boundaries,
        policy.rates,
        policy.totals,
    )
    return (
        policy.type_ids,
        policy.region,
        policy.feasible_cap,
        policy.valid,
        policy.winner,
        *(np.asarray(field, dtype=float).tobytes() for field in floats),
    )


class TestBlockedCompile:
    @pytest.fixture(scope="class")
    def wide_table(self):
        return _packed(_wide_compiler().compile())

    @pytest.mark.parametrize("block", [1, 7, 100_000])
    def test_block_size_does_not_change_the_table(
        self, wide_table, monkeypatch, block
    ):
        monkeypatch.setattr(policy_table, "_BLOCK_COLUMNS", block)
        assert _packed(_wide_compiler().compile()) == wide_table

    def test_compile_working_set_stays_bounded(self):
        compiler = _wide_compiler()
        tracemalloc.start()
        try:
            policy = compiler.compile()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert policy.region.columns > 1000
        assert peak < COMPILE_PEAK_MIB * 2**20
