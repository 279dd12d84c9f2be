"""Per-layer metrics from the spans of one traced round.

The helpers at the top — :func:`percentile`, :func:`window_rates`,
:func:`self_times` and :func:`join` — carry the arithmetic and have unit
tests; the rest maps spans onto the metric names of ``BENCHMARK.json``.
Self time is a span's duration minus the part of it covered by its child
spans. Spans of one request are joined across processes by request id:
``(tenant, seq)`` for a ``decide``, the batch index for a ``submit``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from perfbench.layers import absent_names


def percentile(values, q: float):
    """The ``q``-th percentile (0–100) by linear interpolation; None if empty."""
    ordered = sorted(values)
    if not ordered:
        return None
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    fraction = position - low
    if fraction == 0:
        # Exact rank: no interpolation, so an infinite neighbour (a failed
        # call) cannot turn the result into NaN.
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * fraction


def window_rates(calls, min_seconds: float) -> list[float]:
    """Decisions per second of consecutive windows of calls.

    ``calls`` are ``(start, seconds, decisions)`` in call order. A window
    opens at a call's start and closes at the end of the first call that
    ends at least ``min_seconds`` later, so it holds the gaps between
    its calls too. Calls left over at the end join the last window, or
    make the only one when all of them span less than ``min_seconds``.
    """
    windows: list[list[float]] = []  # [opened, closed, decisions]
    for start, seconds, decisions in calls:
        if windows and windows[-1][1] - windows[-1][0] < min_seconds:
            windows[-1][1] = start + seconds
            windows[-1][2] += decisions
        else:
            windows.append([start, start + seconds, decisions])
    if len(windows) > 1 and windows[-1][1] - windows[-1][0] < min_seconds:
        _opened, closed, decisions = windows.pop()
        windows[-1][1] = closed
        windows[-1][2] += decisions
    return [held / (closed - opened) for opened, closed, held in windows]


@dataclass(frozen=True)
class Span:
    """One recorded span (times in nanoseconds)."""

    name: str
    start: int
    end: int
    sid: int
    parent: int | None
    rid: tuple | None
    attrs: dict | None
    counts: dict | None
    pid: int

    @property
    def duration(self) -> int:
        return self.end - self.start

    def count(self, tally: str, index: int = 0) -> int:
        return (self.counts or {}).get(tally, [0, 0])[index]


def spans_of(document: dict) -> list[Span]:
    """The spans of one process's trace file."""
    pid = document["pid"]
    return [
        Span(name, start, end, sid, parent,
             tuple(rid) if rid is not None else None, attrs, counts, pid)
        for name, start, end, sid, parent, rid, attrs, counts in document["spans"]
    ]


def self_times(spans: list[Span]) -> dict[tuple[int, int], int]:
    """Self time of every span: duration minus the union of its children.

    Children are spans of the same process naming it as parent; their
    intervals are clipped to the parent's and merged before subtracting,
    so overlapping children (threads) are not counted twice.
    """
    children: dict[tuple[int, int], list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append(span)
    result = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for child in sorted(
            children.get((span.pid, span.sid), ()), key=lambda c: c.start
        ):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[(span.pid, span.sid)] = span.duration - covered
    return result


def join(left: list[Span], right: list[Span]) -> list[tuple[Span, Span]]:
    """Pairs of spans with equal request ids, one from each side.

    When a side holds several spans of one request (a retried forward),
    the longest stands for it.
    """
    def by_rid(spans):
        table: dict[tuple, Span] = {}
        for span in spans:
            if span.rid is None:
                continue
            known = table.get(span.rid)
            if known is None or span.duration > known.duration:
                table[span.rid] = span
        return table

    right_table = by_rid(right)
    return [
        (span, right_table[rid])
        for rid, span in by_rid(left).items()
        if rid in right_table
    ]


def _us(ns) -> float:
    return ns / 1000.0


@dataclass
class Round:
    """What the ledger needs from one traced round."""

    client: list[dict]
    launches: list[list[dict]]
    events: int
    stats: dict
    boots: list[float]
    access_rows: int = 0


def layer_metrics(traced: Round) -> dict[str, float]:
    """Every per-layer metric of one traced round, by name.

    A layer the workload bypasses reads 0. A metric whose wrap target no
    longer exists in the program is left out, so it shows as absent.
    """
    serving = traced.launches[0]
    restarts = [doc for launch in traced.launches[1:] for doc in launch]
    missing = absent_names(traced.client + serving + restarts)
    client_spans = [s for doc in traced.client for s in spans_of(doc)]
    server_spans = [s for doc in serving for s in spans_of(doc)]
    restart_spans = [s for doc in restarts for s in spans_of(doc)]
    own = self_times(server_spans)
    events = max(traced.events, 1)

    def named(name, spans=server_spans):
        return [s for s in spans if s.name == name]

    def self_p50_us(name):
        values = [own[(s.pid, s.sid)] for s in named(name)]
        return _us(percentile(values, 50)) if values else 0.0

    def self_sum_us(name):
        return _us(sum(own[(s.pid, s.sid)] for s in named(name)))

    def dur_p50(name, spans=server_spans):
        values = [s.duration for s in named(name, spans)]
        return percentile(values, 50) if values else 0.0

    def tally(name, index, documents=serving):
        return sum(doc["tallies"].get(name, [0, 0, 0])[index] for doc in documents)

    calls = [s for s in named("client.call", client_spans) if s.rid]
    routed = [s for s in named("router.conn") if s.rid]
    forwards = named("router.forward")
    answered = [s for s in named("http.request") if s.rid]
    front = routed if routed else answered

    m: dict[str, float] = {}
    m["client.self_us"] = _us(percentile(
        [c.duration - s.duration for c, s in join(calls, front)], 50) or 0)
    m["client.conns_per_call"] = (
        sum(s.count("net.connect") for s in calls) / len(calls) if calls else 0.0
    )
    by_rid = {s.rid: s for s in forwards if s.rid}
    m["router.self_us"] = _us(percentile(
        [s.duration - by_rid[s.rid].duration for s in routed if s.rid in by_rid],
        50) or 0)
    m["router.forward_us"] = _us(percentile(
        [f.duration - w.duration for f, w in join(forwards, answered)], 50) or 0)
    m["router.conns_per_forward"] = (
        sum(s.count("net.connect") for s in forwards if s.rid)
        / max(1, sum(1 for s in forwards if s.rid))
    )
    # Retries of serving requests: ensure() calls beyond one per forward.
    serving_forwards = [s for s in forwards if s.rid]
    forward_ids = {(s.pid, s.sid) for s in serving_forwards}
    m["router.retries"] = float(max(0, sum(
        (s.pid, s.parent) in forward_ids for s in named("router.ensure")
    ) - len(serving_forwards)))
    # The HTTP layer's work on a submit includes its streaming body.
    streamed = {(s.pid, s.parent): s for s in named("http.submit")}

    def http_parts(span):
        body = streamed.get((span.pid, span.sid))
        return (span, body) if body is not None else (span,)

    m["http.self_us"] = _us(percentile(
        [sum(own[(p.pid, p.sid)] for p in http_parts(s)) for s in answered],
        50) or 0)
    m["http.writes_per_decision"] = sum(
        p.count("http.write") for s in answered for p in http_parts(s)
    ) / events
    m["http.bytes_per_event"] = sum(
        p.count("http.write", 1) + p.count("http.bytes_in", 1)
        for s in answered for p in http_parts(s)
    ) / events
    handles = named("protocol.handle")
    decides = [s for s in handles if s.rid]
    m["protocol.handle_us"] = _us(percentile(
        [own[(s.pid, s.sid)] for s in (decides or handles)], 50) or 0)
    m["codec.decode_us_per_event"] = _us(tally("codec.decode", 1)) / events
    m["codec.encode_us_per_event"] = _us(tally("codec.encode", 1)) / events
    m["service.decide_us"] = self_p50_us("service.decide")
    m["service.submit_us_per_event"] = self_sum_us("service.submit") / events
    m["service.stacked_check_us_per_event"] = _us(sum(
        s.duration for s in named("service.stacked_check"))) / events
    restores = named("service.restore", restart_spans)
    m["service.restore_s"] = (
        statistics.median(s.duration for s in restores) / 1e9 if restores else 0.0
    )
    appends = [
        s for s in named("wal.append")
        if (s.attrs or {}).get("kind") in ("decision", "submit")
    ]
    m["wal.appends_per_event"] = len(appends) / events
    m["wal.append_us"] = _us(percentile([s.duration for s in appends], 50) or 0)
    m["wal.bytes_per_event"] = sum(s.attrs["bytes"] for s in appends) / events
    m["wal.scan_s"] = (
        sum(s.duration for s in named("wal.scan", restart_spans)) / 1e9 / len(restores)
        if restores else 0.0
    )
    m["session.decide_us"] = self_p50_us("session.decide")
    m["session.batch_us_per_event"] = self_sum_us("session.batch") / events
    m["engine.stream_us_per_event"] = self_sum_us("engine.stream") / events
    m["engine.stream_calls_per_event"] = len(named("engine.stream")) / events
    m["table.compile_s"] = dur_p50("table.compile") / 1e9
    m["table.compiles"] = float(len(named("table.compile")))
    stats = traced.stats
    m["table.hit_ratio"] = stats["table_hits"] / stats["events"] if stats["events"] else 0.0
    m["table.fallbacks"] = float(stats["fallbacks"])
    lookups = stats["cache_hits"] + stats["sse_solves"]
    m["cache.hit_ratio"] = stats["cache_hits"] / lookups if lookups else 0.0
    refinements: dict[tuple, int] = {}
    for span in named("cache.lookup"):
        key = (span.pid, span.attrs["cache"])
        refinements[key] = max(refinements.get(key, 0), span.attrs["refinements"])
    m["cache.refinements"] = float(sum(refinements.values()))
    m["cache.lookup_us"] = self_p50_us("cache.lookup")
    m["solver.solves_per_event"] = len(named("solver.solve")) / events
    m["solver.solve_us"] = _us(dur_p50("solver.solve"))
    m["game.process_alert_us"] = _us(dur_p50("game.process_alert"))

    reads = named("ingest.read", client_spans)
    builds = named("ingest.build", client_spans)
    read_s = sum(s.duration for s in reads) / 1e9
    build_s = sum(s.duration for s in builds) / 1e9
    classify_s = tally("ingest.classify", 1, traced.client) / 1e9
    m["ingest.read_s"] = read_s
    m["ingest.map_s"] = max(build_s - classify_s, 0.0) if builds else 0.0
    m["ingest.classify_s"] = classify_s
    m["ingest.classify_calls_per_row"] = (
        tally("ingest.classify", 0, traced.client) / traced.access_rows
        if traced.access_rows else 0.0
    )
    m["ingest.rows_per_s"] = (
        traced.access_rows / (read_s + build_s) if builds and reads else 0.0
    )
    m["boot_s"] = statistics.median(traced.boots)

    return {
        name: value for name, value in m.items()
        if not (_NEEDS.get(name, set()) & missing)
    }


#: Unit of every per-layer metric the ledger computes.
UNITS: dict[str, str] = {
    "client.self_us": "us",
    "client.conns_per_call": "count",
    "router.self_us": "us",
    "router.forward_us": "us",
    "router.conns_per_forward": "count",
    "router.retries": "count",
    "http.self_us": "us",
    "http.writes_per_decision": "count",
    "http.bytes_per_event": "B/event",
    "protocol.handle_us": "us",
    "codec.decode_us_per_event": "us/event",
    "codec.encode_us_per_event": "us/event",
    "service.decide_us": "us",
    "service.submit_us_per_event": "us/event",
    "service.stacked_check_us_per_event": "us/event",
    "service.restore_s": "s",
    "wal.appends_per_event": "count/event",
    "wal.append_us": "us",
    "wal.bytes_per_event": "B/event",
    "wal.scan_s": "s",
    "session.decide_us": "us",
    "session.batch_us_per_event": "us/event",
    "engine.stream_us_per_event": "us/event",
    "engine.stream_calls_per_event": "count/event",
    "table.compile_s": "s",
    "table.compiles": "count",
    "table.hit_ratio": "ratio",
    "table.fallbacks": "count",
    "cache.hit_ratio": "ratio",
    "cache.refinements": "count",
    "cache.lookup_us": "us",
    "solver.solves_per_event": "count/event",
    "solver.solve_us": "us",
    "game.process_alert_us": "us",
    "ingest.read_s": "s",
    "ingest.map_s": "s",
    "ingest.classify_s": "s",
    "ingest.classify_calls_per_row": "count/row",
    "ingest.rows_per_s": "rows/s",
    "boot_s": "s",
}


#: The span and tally names each metric is computed from.
_NEEDS: dict[str, set[str]] = {
    "client.self_us": {"client.call", "router.conn", "http.request", "protocol.handle", "http.submit"},
    "client.conns_per_call": {"client.call", "net.connect"},
    "router.self_us": {"router.conn", "router.route", "router.forward"},
    "router.forward_us": {"router.forward", "http.request", "protocol.handle"},
    "router.conns_per_forward": {"router.forward", "net.connect"},
    "router.retries": {"router.forward", "router.ensure"},
    "http.self_us": {"http.request", "protocol.handle", "http.submit"},
    "http.writes_per_decision": {"http.request", "http.write"},
    "http.bytes_per_event": {"http.request", "http.write", "http.bytes_in"},
    "protocol.handle_us": {"protocol.handle"},
    "codec.decode_us_per_event": {"codec.decode"},
    "codec.encode_us_per_event": {"codec.encode"},
    "service.decide_us": {"service.decide"},
    "service.submit_us_per_event": {"service.submit"},
    "service.stacked_check_us_per_event": {"service.stacked_check"},
    "service.restore_s": {"service.restore"},
    "wal.appends_per_event": {"wal.append"},
    "wal.append_us": {"wal.append"},
    "wal.bytes_per_event": {"wal.append"},
    "wal.scan_s": {"wal.scan", "service.restore"},
    "session.decide_us": {"session.decide"},
    "session.batch_us_per_event": {"session.batch"},
    "engine.stream_us_per_event": {"engine.stream"},
    "engine.stream_calls_per_event": {"engine.stream"},
    "table.compile_s": {"table.compile"},
    "table.compiles": {"table.compile"},
    "cache.refinements": {"cache.lookup"},
    "cache.lookup_us": {"cache.lookup"},
    "solver.solves_per_event": {"solver.solve"},
    "solver.solve_us": {"solver.solve"},
    "game.process_alert_us": {"game.process_alert"},
    "ingest.read_s": {"ingest.read"},
    "ingest.map_s": {"ingest.build", "ingest.classify"},
    "ingest.classify_s": {"ingest.classify"},
    "ingest.classify_calls_per_row": {"ingest.classify"},
    "ingest.rows_per_s": {"ingest.read", "ingest.build"},
}
