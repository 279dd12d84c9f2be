"""The two workloads and the checks on their outputs.

Each workload is a closed loop with one caller: the load generator sends
its next request only after the previous reply arrived. A run is made of
rounds; every round launches fresh serving processes on a fresh state
directory, sets them up, serves until the round's deadline, checks the
answers, then crashes and recovers the serving state and checks it
again.

* ``warn-routed`` — per-access ``decide`` calls through the cluster
  router (``repro serve --cluster --workers 2``), 4 table-mode tenants
  placed 2 per shard. Per-request layers dominate. Each round crashes
  both shards' workers in turn; the router's supervisor revives them.
* ``onboard-recover`` — a 14-day foreign dump is mapped through
  ``MappedSource`` while the server boots; 7 days train one cache-mode
  tenant, the other 7 are bulk-submitted to ``repro serve --http``,
  week after week. No table is compiled; the submit path, the certified
  cache, analytic solves and WAL replay dominate.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import inputs
from perfbench.harness import Ops, Server
from perfbench.ledger import Round as TracedRound
from perfbench.tracer import Tracer, load

#: Events per ``submit`` call: the onboard tenant's ~1,200-alert days go
#: in thirds, so each run has a hundred or more latency samples.
BATCH_EVENTS = 400

#: Cluster shards of ``warn-routed``, and table-mode tenants per shard.
WORKERS = 2
TENANTS_PER_WORKER = 2

#: Decisions per second of ``--seconds``: a round serves a fixed number
#: of events, ``NOMINAL_RATE * round_seconds``, so every run does the
#: same work and each crash recovers a state of the same size; a faster
#: program finishes the round sooner. When the benchmark was defined the
#: program served about 650 and 4,500 decisions a second on a quiet
#: 2-vCPU host, and less on a busy one.
NOMINAL_RATE = {"warn-routed": 450, "onboard-recover": 2000}

#: Serving days of ``warn-routed`` generated ahead of a round (2,400
#: decisions a day): enough for a nominal round of up to 16 seconds.
HORIZON_DAYS = 3

#: A round stops at this multiple of its nominal time even if its events
#: are not all served, so a much slower program still ends the run.
SAFETY_FACTOR = 3

#: Counters that measure time; they differ between a run and its replay.
_TIMING_FIELDS = ("wall_seconds", "compile_seconds")


@dataclass
class Context:
    """What every round of one run shares."""

    root: Path
    work: Path
    round_seconds: float
    server_cpus: set[int]
    ops: Ops


@dataclass
class RoundResult:
    """Measurements and checks of one round."""

    setup_s: float = math.nan
    serve_s: float = 0.0
    acked: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    #: ``(start, seconds, decisions)`` of every call of the serving phase,
    #: ``start`` counted from its first call; a ``close_cycle`` or a
    #: failed call has no decisions.
    calls: list[tuple[float, float, int]] = field(default_factory=list)
    rss_mb: float = math.nan
    recoveries: list[float] = field(default_factory=list)
    boots: list[float] = field(default_factory=list)
    decisions: list[str] = field(default_factory=list)
    done: list[int] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    traced: TracedRound | None = None


# ----------------------------------------------------------------------
# Schedules: the exact sequence of calls a round makes
# ----------------------------------------------------------------------

def _decide_schedule(seed, tenants, days):
    from repro.api.v1 import AlertEvent

    steps, seq = [], {tenant: 0 for tenant in tenants}
    for day in range(days):
        for time_of_day, tenant, type_id in inputs.serving_day(seed, tenants, day):
            seq[tenant] += 1
            event = AlertEvent(tenant=tenant, type_id=type_id,
                               time_of_day=time_of_day, event_id=len(steps))
            steps.append(("decide", event, seq[tenant]))
        steps.extend(("close", tenant, None) for tenant in tenants)
    return steps


def _submit_schedule(days_of_events, tenant):
    steps = []
    for events in days_of_events:
        # Equal batches of at most ``BATCH_EVENTS``, so no batch is a stub.
        size = math.ceil(len(events) / math.ceil(len(events) / BATCH_EVENTS))
        for start in range(0, len(events), size):
            steps.append(("submit", events[start:start + size], None))
        steps.append(("close", tenant, None))
    return steps


def _run_schedule(ctx: Context, client, steps, result: RoundResult,
                  events: float) -> None:
    """Serve ``steps`` until ``events`` are sent, then close the open day.

    Answers are kept as returned and checked after the timed window, so
    the generator does no checking work while it holds the loop.
    """
    ops = ctx.ops
    calls = []
    # The generator's own bookkeeping (schedules, earlier answers) must
    # not make the client's garbage collections slower round by round.
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    deadline = started + SAFETY_FACTOR * ctx.round_seconds
    sent = 0

    def done() -> bool:
        return sent >= events or time.perf_counter() >= deadline

    stopped = False
    for index, (kind, subject, seq) in enumerate(steps):
        if kind == "close":
            called = time.perf_counter()
            ops.call(1, client.close_cycle, subject)
            result.calls.append((called - started, time.perf_counter() - called, 0))
            result.done.append(index)
            day_closed = index + 1 == len(steps) or steps[index + 1][0] != "close"
            if day_closed and (stopped or done()):
                break
            continue
        if stopped or done():
            stopped = True
            continue
        called = time.perf_counter()
        if kind == "decide":
            decision = ops.call(1, client.decide, subject, seq=seq)
            answers = (decision,) if decision is not None else ()
            expected = (subject,)
        else:
            answers = ops.call(len(subject), client.submit, subject) or ()
            expected = subject
        elapsed = time.perf_counter() - called
        elapsed_ms = elapsed * 1e3
        result.calls.append((called - started, elapsed, len(answers)))
        # A failed call is slower than every success; a batch reports
        # the share of its latency that falls on one decision.
        result.latencies_ms.append(elapsed_ms / len(expected) if answers else math.inf)
        result.done.append(index)
        calls.append((expected, answers))
        sent += len(expected)
    result.serve_s = time.perf_counter() - started
    gc.unfreeze()
    result.checks["answered_once_in_order"] = all(
        _answers_match(expected, answers) for expected, answers in calls
    )
    for _expected, answers in calls:
        result.acked += len(answers)
        result.decisions.extend(answer.to_json() for answer in answers)


def _answers_match(events, decisions) -> bool:
    if len(events) != len(decisions):
        return False
    return all(
        decision.event_id == event.event_id
        and decision.tenant == event.tenant
        and decision.type_id == event.type_id
        and decision.time_of_day == float(event.time_of_day)
        for event, decision in zip(events, decisions)
    )


def replay_in_process(service, steps, upto: int) -> list[str]:
    """Feed the first ``upto`` steps to an in-process ``AuditService``."""
    decisions = []
    for kind, subject, seq in steps[:upto]:
        if kind == "decide":
            decision, _replayed = service.decide_idempotent(subject, seq=seq)
            decisions.append(decision.to_json())
        elif kind == "submit":
            decisions.extend(d.to_json() for d in service.submit(subject))
        else:
            service.close_cycle(subject)
    return decisions


def digest(decisions: list[str]) -> str:
    """sha256 of a decision stream in its canonical JSON form."""
    return hashlib.sha256("\n".join(decisions).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Checks shared by the workloads
# ----------------------------------------------------------------------

def _sequences_ok(decisions: list[str]) -> bool:
    """Each tenant's decisions count 0, 1, 2, ... within every cycle."""
    expected: dict[tuple[str, int], int] = {}
    for line in decisions:
        document = json.loads(line)
        key = (document["tenant"], document["cycle"])
        if document["sequence"] != expected.get(key, 0):
            return False
        expected[key] = document["sequence"] + 1
    return True


def _stats_checks(result: RoundResult, stats: dict, steps, mode: str) -> None:
    done = [steps[index] for index in result.done]
    sent: dict[str, int] = {}
    closes = 0
    for kind, subject, _seq in done:
        if kind == "decide":
            sent[subject.tenant] = sent.get(subject.tenant, 0) + 1
        elif kind == "submit":
            for event in subject:
                sent[event.tenant] = sent.get(event.tenant, 0) + 1
        else:
            closes += 1
    per_tenant = {entry["tenant"]: entry["events"] for entry in stats["per_tenant"]}
    result.checks["stats_events_match_sent"] = (
        stats["events"] == result.acked == sum(sent.values())
        and all(per_tenant.get(tenant) == count for tenant, count in sent.items())
        and stats["cycles_closed"] == closes
    )
    if mode == "table":
        result.checks["table_hits_plus_fallbacks"] = (
            stats["table_hits"] + stats["fallbacks"] == stats["events"]
        )
    else:
        result.checks["solves_plus_cache_hits"] = (
            stats["sse_solves"] + stats["cache_hits"] == stats["events"]
        )
    result.checks["sequences_in_order"] = _sequences_ok(result.decisions)


def _comparable(stats: dict) -> dict:
    """``/stats`` without its timing fields, tenants in name order."""
    def strip(entry):
        return {k: v for k, v in entry.items() if k not in _TIMING_FIELDS}

    document = strip(stats)
    document["per_tenant"] = sorted(
        (strip(entry) for entry in stats["per_tenant"]), key=lambda e: e["tenant"]
    )
    return document


# ----------------------------------------------------------------------
# Tracing of one round
# ----------------------------------------------------------------------

class _RoundTrace:
    """Client-side wrappers plus one trace directory per launch."""

    def __init__(self, round_dir: Path) -> None:
        from perfbench import layers

        self.root = round_dir / "trace"
        self.client = Tracer(self.root / "client", "client")
        layers.install(self.client, layers.CLIENT_TARGETS)
        self.launches = 0

    def launch_dir(self) -> Path:
        self.launches += 1
        return self.root / f"launch-{self.launches - 1}"

    def finish(self, result: RoundResult, stats: dict, split_pids=None,
               access_rows: int = 0) -> None:
        self.client.uninstall()
        self.client.dump()
        launches = [load(self.root / f"launch-{i}") for i in range(self.launches)]
        if split_pids is not None:
            # A worker revived inside one launch: its replay is a restart.
            first = launches[0]
            launches = [
                [d for d in first if d["pid"] in split_pids],
                [d for d in first if d["pid"] not in split_pids],
            ]
        result.traced = TracedRound(
            client=load(self.root / "client"), launches=launches,
            events=result.acked, stats=stats, boots=result.boots,
            access_rows=access_rows,
        )


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------

class RoutedWorkload:
    """``warn-routed``: 4 table-mode tenants behind the cluster router."""

    def __init__(self, seed: int) -> None:
        self.tenants = inputs.placed_tenants(WORKERS, TENANTS_PER_WORKER)
        self.configs = [
            inputs.table_config(tenant, seed * 16 + index)
            for index, tenant in enumerate(self.tenants)
        ]
        self.histories = [
            inputs.training_history(seed, index) for index in range(len(self.tenants))
        ]
        self.steps = _decide_schedule(seed, self.tenants, HORIZON_DAYS)

    def round(self, ctx: Context, index: int, traced: bool) -> RoundResult:
        from repro.api import ReproClient

        result = RoundResult()
        round_dir = ctx.work / f"round-{index}"
        round_dir.mkdir(parents=True)
        trace = _RoundTrace(round_dir) if traced else None
        server = Server(ctx.root, ["--cluster", "--workers", str(WORKERS)],
                        round_dir / "state", round_dir, ctx.server_cpus,
                        trace.launch_dir() if trace else None)
        try:
            launched = server.start()
            server.wait_ready()
            result.boots.append(server.boot_s)
            client = ReproClient.connect(server.url)
            for config, history in zip(self.configs, self.histories):
                ctx.ops.call(1, client.open_session, config, history)
            result.setup_s = time.perf_counter() - launched
            _run_schedule(ctx, client, self.steps, result,
                          events=NOMINAL_RATE["warn-routed"] * ctx.round_seconds)
            result.rss_mb = server.peak_rss_mb()
            stats = server.stats()
            _stats_checks(result, stats, self.steps, "table")
            serving_pids = set(server.pids())
            for worker in range(WORKERS):
                self._crash_worker(ctx, server, worker, stats, result)
            if trace is not None:
                server.stop()
                trace.finish(result, stats, split_pids=serving_pids)
        finally:
            server.stop()
            if trace is not None:
                trace.client.uninstall()
        return result

    def _crash_worker(self, ctx, server, worker, before, result) -> None:
        """SIGKILL one shard's worker; the router revives it from its WAL.

        The revive is one restart of the failure accounting; ``GET
        /stats`` through the router triggers it and must then equal the
        pre-crash counters.
        """
        import os
        import signal

        pid = int((server.state_dir / f"shard-{worker}" / "worker.pid").read_text())
        server.flush_trace()
        crashed = time.perf_counter()
        os.kill(pid, signal.SIGKILL)
        after = ctx.ops.call(1, server.stats)
        result.recoveries.append(time.perf_counter() - crashed)
        result.checks[f"recovered_stats_equal.shard-{worker}"] = (
            after is not None and _comparable(after) == _comparable(before)
        )

    def reference(self, upto: int) -> list[str]:
        from repro.api.v1 import AuditService

        service = AuditService()
        for config, history in zip(self.configs, self.histories):
            service.open_session(config, history)
        return replay_in_process(service, self.steps, upto)


def _relaunched_stats(relaunch: Server) -> dict:
    relaunch.start()
    relaunch.wait_ready()
    return relaunch.stats()


def _crash_and_relaunch(ctx, server, relaunch, before, result) -> None:
    """SIGKILL the server, relaunch it on its state directory, verify.

    The restart is one operation of the failure accounting.
    """
    server.flush_trace()
    crashed = time.perf_counter()
    server.kill()
    after = ctx.ops.call(1, _relaunched_stats, relaunch)
    result.recoveries.append(time.perf_counter() - crashed)
    if after is not None:
        result.boots.append(relaunch.boot_s)
    result.checks["recovered_stats_equal"] = (
        after is not None and _comparable(after) == _comparable(before)
    )


class OnboardWorkload:
    """``onboard-recover``: map a foreign dump, train, bulk-submit, crash.

    The dump's seven serving days are submitted as a week that repeats,
    with fresh event ids every week, for as long as a round needs.
    """

    tenant = "onboard"

    def __init__(self, seed: int, work: Path) -> None:
        self.dump_dir = work / "dump"
        self.access_rows = inputs.write_dump(self.dump_dir, seed)
        self.config = inputs.cache_config(self.tenant, seed)
        self.steps = None
        self.history = None

    def _ingest(self, events: float):
        """Map the dump: the training history and the submit schedule of
        at least ``events`` events."""
        from repro.api.v1 import AlertEvent
        from repro.ingest import MappedSource

        store = MappedSource.open(self.dump_dir).build_store()
        history = {type_id: [] for type_id in inputs.TABLE2_PAYOFFS}
        for day in range(inputs.DUMP_TRAIN_DAYS):
            by_type = {type_id: [] for type_id in inputs.TABLE2_PAYOFFS}
            for record in store.day_alerts(day):
                by_type[record.type_id].append(record.time_of_day)
            for type_id, times in by_type.items():
                history[type_id].append(times)
        week = [store.day_alerts(day)
                for day in range(inputs.DUMP_TRAIN_DAYS, inputs.DUMP_DAYS)]
        weeks = math.ceil(events / sum(len(records) for records in week))
        id_stride = 1 + max(record.alert_id for records in week for record in records)
        days = [
            [
                AlertEvent(tenant=self.tenant, type_id=record.type_id,
                           time_of_day=record.time_of_day,
                           event_id=repeat * id_stride + record.alert_id)
                for record in records
            ]
            for repeat in range(weeks)
            for records in week
        ]
        return history, _submit_schedule(days, self.tenant)

    def round(self, ctx: Context, index: int, traced: bool) -> RoundResult:
        from repro.api import ReproClient

        result = RoundResult()
        round_dir = ctx.work / f"round-{index}"
        round_dir.mkdir(parents=True)
        trace = _RoundTrace(round_dir) if traced else None
        state = round_dir / "state"
        server = Server(ctx.root, ["--http"], state, round_dir, ctx.server_cpus,
                        trace.launch_dir() if trace else None)
        relaunch = None
        events = NOMINAL_RATE["onboard-recover"] * ctx.round_seconds
        try:
            launched = server.start()
            # The ingest runs on the generator's CPU while the server boots.
            history, steps = self._ingest(events)
            if self.steps is None:
                self.history, self.steps = history, steps
            server.wait_ready()
            result.boots.append(server.boot_s)
            client = ReproClient.connect(server.url)
            ctx.ops.call(1, client.open_session, self.config, history)
            result.setup_s = time.perf_counter() - launched
            _run_schedule(ctx, client, steps, result, events=events)
            result.rss_mb = server.peak_rss_mb()
            stats = server.stats()
            _stats_checks(result, stats, steps, "cache")
            relaunch = Server(ctx.root, ["--http"], state, round_dir, ctx.server_cpus,
                              trace.launch_dir() if trace else None)
            _crash_and_relaunch(ctx, server, relaunch, stats, result)
            if trace is not None:
                relaunch.stop()
                trace.finish(result, stats, access_rows=self.access_rows)
        finally:
            server.stop()
            if relaunch is not None:
                relaunch.stop()
            if trace is not None:
                trace.client.uninstall()
        return result

    def reference(self, upto: int) -> list[str]:
        from repro.api.v1 import AuditService

        service = AuditService()
        service.open_session(self.config, self.history)
        return replay_in_process(service, self.steps, upto)


def build(name: str, seed: int, work: Path):
    """The workload object for ``name``."""
    if name == "onboard-recover":
        return OnboardWorkload(seed, work)
    return RoutedWorkload(seed)
