"""AuditSession lifecycle, determinism, and accounting."""

import numpy as np
import pytest

from repro.api.v1 import (
    AlertEvent,
    AuditSession,
    InvalidEventError,
    SessionClosedError,
    open_scenario,
)
from repro.core.game import SAGConfig, SignalingAuditGame
from repro.errors import ModelError
from repro.scenarios import ScenarioSpec
from repro.stats.estimator import FutureAlertEstimator, RollbackEstimator

from apihelpers import PAY, make_config, make_events, make_history


class TestDecisionEquivalence:
    def test_decide_matches_raw_game(self):
        """The façade adds no behavior: same config + seed => same pipeline."""
        config = make_config()
        session = AuditSession.open(config, make_history())
        game = SignalingAuditGame(
            SAGConfig(payoffs={1: PAY}, costs={1: 1.0}, budget=5.0,
                      backend="analytic"),
            RollbackEstimator(FutureAlertEstimator(make_history())),
            rng=np.random.default_rng(11),
        )
        for event in make_events():
            api = session.decide(event)
            raw = game.process_alert(event.type_id, event.time_of_day)
            assert api.theta == raw.theta
            assert api.warned == raw.warned
            assert api.audit_probability == raw.audit_probability
            assert api.budget_remaining == raw.budget_after
            assert api.game_value == raw.game_value

    def test_batch_identical_to_single(self):
        events = make_events()
        serial_session = AuditSession.open(make_config(), make_history())
        serial = tuple(serial_session.decide(event) for event in events)
        batch_session = AuditSession.open(make_config(), make_history())
        batch = batch_session.decide_batch(events)
        assert batch == serial

    def test_empty_batch_is_noop(self):
        session = AuditSession.open(make_config(), make_history())
        assert session.decide_batch([]) == ()
        assert session.report().events == 0


class TestHeavyTraffic:
    def test_cache_mode_decides_with_800_alerts_a_day(self):
        """Past ~746 expected alerts of a type a day, the reciprocal
        moment once underflowed to 0 and the solver divided by it."""
        times = np.linspace(100.0, 86000.0, 800)
        history = {1: [times.copy(), times.copy(), times.copy()]}
        config = make_config(
            budget=50.0,
            cache_budget_step=0.5,
            cache_rate_step=1.0,
            cache_error_budget=1e-6,
        )
        session = AuditSession.open(config, history)
        events = [
            AlertEvent(tenant="a", type_id=1, time_of_day=float(t), event_id=i)
            for i, t in enumerate(times[:40])
        ]
        decisions = session.decide_batch(events)
        assert len(decisions) == 40
        assert all(0.0 <= d.audit_probability <= 1.0 for d in decisions)
        assert session.report().events == 40


class TestLifecycle:
    def test_open_decide_close_cycle_report(self):
        session = AuditSession.open(make_config(), make_history())
        assert session.state == "open"
        events = make_events(n=10)
        for event in events[:6]:
            session.decide(event)
        for event in events[6:]:
            session.observe(event)

        report = session.close_cycle()
        assert report.alerts == 10
        assert report.cycle == 0
        assert report.budget_initial == 5.0
        assert report.budget_final < report.budget_initial  # charges landed
        # Counters reconcile exactly like EngineStats.
        assert report.sse_solves + report.cache_hits == report.alerts

        # The next cycle starts with a full budget and fresh sequence.
        assert session.cycle == 1
        assert session.budget_remaining == 5.0
        again = session.decide(events[0])
        assert again.cycle == 1 and again.sequence == 0

        stats = session.close()
        assert stats.events == 11
        assert stats.cycles_closed == 1
        assert stats.state == "closed"

    def test_cache_survives_cycles(self):
        """Replaying the same day is pure cache hits in cycle 2.

        Expected-value charging makes the budget path signal-independent,
        so the second cycle revisits byte-identical states.
        """
        session = AuditSession.open(
            make_config(budget_charging="expected"), make_history()
        )
        events = make_events(n=12)
        session.decide_batch(events)
        first = session.close_cycle()
        session.decide_batch(events)
        second = session.close_cycle()
        assert first.cache_hits == 0
        assert second.cache_hits == second.alerts
        assert second.sse_solves == 0

    def test_decide_after_close_rejected(self):
        session = AuditSession.open(make_config(), make_history())
        session.close()
        with pytest.raises(SessionClosedError):
            session.decide(make_events(n=1)[0])
        with pytest.raises(SessionClosedError):
            session.close_cycle()
        with pytest.raises(SessionClosedError):
            session.close()

    def test_empty_cycle_report(self):
        session = AuditSession.open(make_config(), make_history())
        report = session.close_cycle()
        assert report.alerts == 0
        assert report.mean_game_value == 0.0

    def test_certified_cache_policy_bounds_served_values(self):
        """A session opened with cache_error_budget serves game values
        within the budget of an uncached twin, while actually hitting."""
        error_budget = 1e-6
        certified = AuditSession.open(
            make_config(
                budget_charging="expected",
                cache_budget_step=1.0,
                cache_rate_step=5.0,
                cache_error_budget=error_budget,
            ),
            make_history(),
        )
        uncached = AuditSession.open(
            make_config(budget_charging="expected", cache_enabled=False),
            make_history(),
        )
        events = make_events(n=40)
        served = certified.decide_batch(events)
        exact = uncached.decide_batch(events)
        for a, b in zip(served, exact):
            assert abs(a.game_value - b.game_value) <= error_budget
            assert abs(a.theta - b.theta) <= 1e-6
        report = certified.close_cycle()
        assert report.cache_hits > 0
        assert report.cache_hits + report.sse_solves == report.alerts

    def test_invalid_error_budget_rejected(self):
        import pytest as _pytest

        from repro.errors import InvalidEventError

        with _pytest.raises(InvalidEventError):
            make_config(cache_error_budget=-0.5)
        # Malformed wire payloads must surface as the API's own error
        # type (stable error_code), never a bare TypeError.
        with _pytest.raises(InvalidEventError):
            make_config(cache_error_budget="1e-6")

    def test_cache_disabled_accounting(self):
        session = AuditSession.open(
            make_config(cache_enabled=False), make_history()
        )
        session.decide_batch(make_events(n=5))
        report = session.close_cycle()
        assert report.cache_hits == 0
        assert report.sse_solves == 5
        assert session.report().sse_solves == 5


class TestPolicyTableSession:
    def _open_table_session(self, **overrides):
        overrides.setdefault("budget", 50.0)
        overrides.setdefault("policy_table", True)
        return AuditSession.open(make_config(**overrides), make_history())

    def test_table_session_matches_cache_session(self):
        """Per-event decisions agree with the cache path within the
        certified error budget (exact table cells, ulp-scale association
        differences)."""
        events = make_events(n=16)
        table = self._open_table_session()
        cached = AuditSession.open(make_config(budget=50.0), make_history())
        for event in events:
            left = table.decide(event)
            right = cached.decide(event)
            assert left.theta == pytest.approx(right.theta, abs=1e-9)
            assert left.game_value == pytest.approx(
                right.game_value, abs=1e-6
            )
        report = table.close_cycle()
        assert report.table_hits + report.fallbacks == len(events)
        assert report.table_hits > 0

    def test_recompile_lands_in_the_next_cycle_report(self):
        """A stale region marked mid-cycle recompiles inside close_cycle's
        reset and must be attributed to the *next* cycle, not lost between
        counter snapshots. Drift is simulated by recompiling the engine's
        table over a single trajectory column, as a real rate drift past
        the compiled prefix would leave it."""
        events = make_events(n=8)
        session = self._open_table_session()
        engine = session._engine
        engine._table_options["max_columns"] = 1
        engine._compile_table()
        assert engine.policy.region.truncated

        for event in events:
            session.decide(event)
        first = session.close_cycle()
        assert first.fallbacks == len(events)
        assert first.recompiles == 0  # marked stale, recompile is in reset

        for event in events:
            session.decide(event)
        second = session.close_cycle()
        assert second.recompiles == 1
        assert second.compile_seconds > 0.0
        assert second.fallbacks == 0
        stats = session.report()
        assert stats.recompiles == 1


class TestEventValidation:
    def test_wrong_tenant_rejected(self):
        session = AuditSession.open(make_config(), make_history())
        with pytest.raises(InvalidEventError):
            session.decide(make_events(tenant="b", n=1)[0])

    def test_non_chronological_rejected(self):
        session = AuditSession.open(make_config(), make_history())
        session.decide(AlertEvent(tenant="a", type_id=1, time_of_day=500.0))
        with pytest.raises(InvalidEventError):
            session.decide(AlertEvent(tenant="a", type_id=1, time_of_day=400.0))
        # A new cycle starts a new day, so early times are fine again.
        session.close_cycle()
        session.decide(AlertEvent(tenant="a", type_id=1, time_of_day=400.0))

    def test_unknown_type_surfaces_model_error(self):
        session = AuditSession.open(make_config(), make_history())
        with pytest.raises(ModelError):
            session.decide(AlertEvent(tenant="a", type_id=99, time_of_day=1.0))

    def test_rejected_event_leaves_session_untouched(self):
        """A failed decide must not advance the chronology watermark."""
        session = AuditSession.open(make_config(), make_history())
        with pytest.raises(ModelError):
            session.decide(AlertEvent(tenant="a", type_id=99, time_of_day=900.0))
        assert session.report().events == 0
        # An earlier-timed valid event still goes through.
        session.decide(AlertEvent(tenant="a", type_id=1, time_of_day=100.0))
        assert session.report().events == 1

    def test_rejected_batch_is_all_or_nothing(self):
        session = AuditSession.open(make_config(), make_history())
        bad_order = [
            AlertEvent(tenant="a", type_id=1, time_of_day=200.0),
            AlertEvent(tenant="a", type_id=1, time_of_day=150.0),
        ]
        with pytest.raises(InvalidEventError):
            session.decide_batch(bad_order)
        bad_type = [
            AlertEvent(tenant="a", type_id=1, time_of_day=200.0),
            AlertEvent(tenant="a", type_id=99, time_of_day=300.0),
        ]
        with pytest.raises(ModelError):
            session.decide_batch(bad_type)
        assert session.report().events == 0
        # Nothing was committed, so the original times still work.
        assert len(session.decide_batch(bad_order[::-1])) == 2

    def test_mid_batch_solver_failure_reconciles_accounting(self, monkeypatch):
        """A solver crash mid-batch cannot desync counters from the game."""
        from repro.errors import SolverConvergenceError

        session = AuditSession.open(make_config(), make_history())
        events = make_events(n=5)
        game = session._engine.game
        real = game.process_alert
        processed = []

        def flaky(type_id, time_of_day):
            if len(processed) == 3:
                raise SolverConvergenceError("injected mid-stream failure")
            processed.append(time_of_day)
            return real(type_id, time_of_day)

        monkeypatch.setattr(game, "process_alert", flaky)
        with pytest.raises(SolverConvergenceError):
            session.decide_batch(events)

        # Exactly the landed alerts are accounted; the watermark matches.
        assert session.report().events == 3 == len(game.decisions)
        monkeypatch.setattr(game, "process_alert", real)
        session.decide(events[3])  # not blocked by a stale watermark
        report = session.close_cycle()
        assert report.alerts == 4
        assert report.sse_solves + report.cache_hits == report.alerts


class TestScenarioOpening:
    @pytest.fixture(scope="class")
    def opened(self):
        spec = ScenarioSpec(
            name="api-tiny", n_days=8, training_window=6, n_trials=2,
            normal_daily_mean=400.0,
        )
        return open_scenario(spec)

    def test_events_are_chronological_and_typed(self, opened):
        _session, events = opened
        assert events
        times = [event.time_of_day for event in events]
        assert times == sorted(times)
        assert all(event.tenant == "api-tiny" for event in events)

    def test_session_serves_the_scenario_stream(self, opened):
        session, events = opened
        decisions = session.decide_batch(events[:15])
        assert len(decisions) == 15
        report = session.close_cycle()
        assert report.alerts == 15
