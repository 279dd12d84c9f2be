"""JSON round-trip contract of the v1 API payload types."""

import dataclasses
import json

import pytest

from repro.api.v1 import (
    AlertEvent,
    CycleReport,
    InvalidEventError,
    ServiceStats,
    SessionConfig,
    SessionStats,
    SignalDecision,
)
from repro.api.protocol import ErrorBody, Request, Response
from repro.core.payoffs import PayoffMatrix
from repro.scenarios import ScenarioSpec

PAY = PayoffMatrix(u_dc=100.0, u_du=-400.0, u_ac=-2000.0, u_au=400.0)


def _decision(**overrides):
    payload = dict(
        tenant="a", event_id=4, type_id=1, time_of_day=120.5, cycle=0,
        sequence=9, theta=0.25, warned=True, audit_probability=0.5,
        budget_remaining=12.25, game_value=-40.0, ossp_utility=-40.0,
        sse_utility=-100.0, signaling_applied=True,
    )
    payload.update(overrides)
    return SignalDecision(**payload)


class TestRoundTrips:
    def test_alert_event(self):
        event = AlertEvent(tenant="a", type_id=3, time_of_day=42.5, event_id=7)
        assert AlertEvent.from_json(event.to_json()) == event
        assert AlertEvent.from_dict(event.to_dict()) == event

    def test_signal_decision(self):
        decision = _decision()
        assert SignalDecision.from_json(decision.to_json()) == decision
        assert decision.signaling_gain == pytest.approx(60.0)

    def test_cycle_report(self):
        report = CycleReport(
            tenant="a", cycle=2, alerts=10, warnings_sent=3,
            budget_initial=20.0, budget_final=1.5, mean_game_value=-50.0,
            final_game_value=-80.0, backend="analytic", sse_solves=6,
            cache_hits=4, cache_entries=6, wall_seconds=0.5,
        )
        assert CycleReport.from_json(report.to_json()) == report
        assert report.hit_rate == pytest.approx(0.4)
        assert report.alerts_per_second == pytest.approx(20.0)

    def test_service_stats_nested(self):
        per_tenant = (
            SessionStats(
                tenant="a", state="open", cycle=1, cycles_closed=1,
                events=10, sse_solves=6, cache_hits=4, cache_entries=6,
                wall_seconds=0.25, budget_remaining=3.0,
            ),
            SessionStats(
                tenant="b", state="closed", cycle=0, cycles_closed=0,
                events=2, sse_solves=2, cache_hits=0, cache_entries=2,
                wall_seconds=0.05, budget_remaining=20.0,
            ),
        )
        stats = ServiceStats.from_sessions(per_tenant)
        assert stats.tenants == 2
        assert stats.open_sessions == 1
        assert stats.events == 12
        # The nested tuple survives a full JSON round trip.
        rebuilt = ServiceStats.from_json(stats.to_json())
        assert rebuilt == stats
        assert rebuilt.per_tenant[0].tenant == "a"

    def test_session_config(self):
        config = SessionConfig(
            tenant="a", budget=20.0, payoffs={1: PAY}, costs={1: 1.0},
            seed=3, cache_budget_step=0.5,
        )
        rebuilt = SessionConfig.from_json(config.to_json())
        assert rebuilt == config
        assert rebuilt.payoffs == {1: PAY}
        assert isinstance(next(iter(rebuilt.payoffs)), int)

    def test_payloads_are_json_clean(self):
        # json.dumps of to_dict must not need custom encoders.
        config = SessionConfig(
            tenant="a", budget=20.0, payoffs={1: PAY}, costs={1: 1.0}
        )
        json.dumps(config.to_dict())
        json.dumps(_decision().to_dict())


def _per_tenant():
    return (
        SessionStats(
            tenant="a", state="open", cycle=1, cycles_closed=1,
            events=10, sse_solves=6, cache_hits=4, cache_entries=6,
            wall_seconds=0.25, budget_remaining=3.0, learning_cycles=1,
            regret=0.5,
        ),
        SessionStats(
            tenant="b", state="closed", cycle=0, cycles_closed=0,
            events=2, sse_solves=2, cache_hits=0, cache_entries=2,
            wall_seconds=0.05, budget_remaining=20.0,
        ),
    )


def _payloads():
    decision = _decision()
    return [
        AlertEvent(tenant="a", type_id=3, time_of_day=42.5, event_id=7),
        AlertEvent(tenant="a", type_id=3, time_of_day=42.5),
        decision,
        CycleReport(
            tenant="a", cycle=2, alerts=10, warnings_sent=3,
            budget_initial=20.0, budget_final=1.5, mean_game_value=-50.0,
            final_game_value=-80.0, backend="analytic", sse_solves=6,
            cache_hits=4, cache_entries=6, wall_seconds=0.5, fallbacks=2,
        ),
        _per_tenant()[0],
        ServiceStats.from_sessions(_per_tenant()),
        Request(
            op="decide",
            payload={"event": {"tenant": "a", "type_id": 1, "tags": [1, 2]}},
            seq=3,
        ),
        Request(op="close_cycle", tenant="a", idempotency_key="k-1"),
        Response.success(
            "decide", {"decision": decision.to_dict(), "replayed": False}, seq=3
        ),
        Response(op="decide", ok=False, error=ErrorBody("unknown_tenant", "no b")),
        ErrorBody(code="worker_unavailable", message="shard down"),
    ]


class TestToDict:
    """``to_dict`` builds the dict itself; it must equal ``asdict``."""

    @pytest.mark.parametrize(
        "payload", _payloads(), ids=lambda p: type(p).__name__
    )
    def test_equals_dataclasses_asdict(self, payload):
        converted = payload.to_dict()
        assert converted == dataclasses.asdict(payload)
        assert json.dumps(converted, sort_keys=True) == json.dumps(
            dataclasses.asdict(payload), sort_keys=True
        )

    def test_nested_containers_are_copies(self):
        stats = ServiceStats.from_sessions(_per_tenant())
        converted = stats.to_dict()
        converted["per_tenant"][0]["events"] = -1
        assert stats.per_tenant[0].events == 10
        request = Request(op="decide", payload={"event": {"tags": [1, 2]}})
        converted = request.to_dict()
        converted["payload"]["event"]["tags"].append(3)
        converted["payload"]["extra"] = True
        assert request.payload == {"event": {"tags": [1, 2]}}
        response = Response(op="stats", ok=False, error=ErrorBody("x", "y"))
        converted = response.to_dict()
        converted["error"]["code"] = "changed"
        assert response.error.code == "x"

    def test_session_config_keeps_its_override(self):
        config = SessionConfig(
            tenant="a", budget=20.0, payoffs={1: PAY}, costs={1: 1.0}
        )
        converted = config.to_dict()
        assert converted["payoffs"] == {"1": dataclasses.asdict(PAY)}
        assert converted["costs"] == {"1": 1.0}
        assert SessionConfig.from_dict(converted) == config


class TestValidation:
    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidEventError):
            AlertEvent.from_dict(
                {"tenant": "a", "type_id": 1, "time_of_day": 0.0, "bogus": 1}
            )

    def test_non_object_json_rejected(self):
        with pytest.raises(InvalidEventError):
            AlertEvent.from_json("[1, 2, 3]")

    def test_empty_tenant_rejected(self):
        with pytest.raises(InvalidEventError):
            AlertEvent(tenant="", type_id=1, time_of_day=0.0)
        with pytest.raises(InvalidEventError):
            SessionConfig(tenant="", budget=1.0, payoffs={1: PAY}, costs={1: 1.0})

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidEventError):
            AlertEvent(tenant="a", type_id=1, time_of_day=-1.0)

    def test_unknown_session_attacker_rejected(self):
        with pytest.raises(InvalidEventError):
            SessionConfig(tenant="a", budget=1.0, payoffs={1: PAY},
                          costs={1: 1.0}, attacker="psychic")

    @pytest.mark.parametrize("rate", [0.0, -1.0, "fast", True])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(InvalidEventError):
            SessionConfig(tenant="a", budget=1.0, payoffs={1: PAY},
                          costs={1: 1.0}, learning_rate=rate)

    @pytest.mark.parametrize("iterations", [0, -5, 2.5, "many", True])
    def test_bad_fp_iterations_rejected(self, iterations):
        with pytest.raises(InvalidEventError):
            SessionConfig(tenant="a", budget=1.0, payoffs={1: PAY},
                          costs={1: 1.0}, fp_iterations=iterations)

    def test_fp_iterations_none_and_positive_accepted(self):
        base = dict(tenant="a", budget=1.0, payoffs={1: PAY}, costs={1: 1.0})
        assert SessionConfig(**base).fp_iterations is None
        config = SessionConfig(**base, fp_iterations=50,
                               attacker="no_regret", learning_rate=0.25)
        assert config.fp_iterations == 50
        assert SessionConfig.from_json(config.to_json()) == config


class TestFromScenario:
    def test_config_mirrors_spec(self):
        spec = ScenarioSpec(name="t", setting="multi", budget=33.0, seed=5,
                            backend="scipy", cache_mode="off")
        config = SessionConfig.from_scenario(spec)
        assert config.tenant == "t"
        assert config.budget == 33.0
        assert config.backend == "scipy"
        assert config.seed == 5
        assert config.cache_enabled is False
        assert set(config.payoffs) == set(spec.payoffs())

    def test_default_budget_resolves(self):
        spec = ScenarioSpec(name="t")
        assert SessionConfig.from_scenario(spec).budget == spec.resolved_budget()

    def test_learning_knobs_mirror_spec(self):
        spec = ScenarioSpec(
            name="t", attacker="no_regret", learning_rate=0.25,
            backend="fictitious_play", fp_iterations=77,
        )
        config = SessionConfig.from_scenario(spec)
        assert config.attacker == "no_regret"
        assert config.learning_rate == 0.25
        assert config.fp_iterations == 77

    def test_unsupported_session_attackers_fall_back_to_rational(self):
        # quantal/robust/multi shape Monte Carlo trials, not the decision
        # stream, so sessions run them as rational.
        spec = ScenarioSpec(name="t", attacker="quantal", rationality=3.0)
        assert SessionConfig.from_scenario(spec).attacker == "rational"
