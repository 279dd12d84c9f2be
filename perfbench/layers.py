"""Where the traced run wraps the program: one entry per layer boundary.

Each entry names a function by ``module:Qualified.name`` — a method on
its class, or a module function at the import site the program calls it
through — the span or tally it feeds, and how to read a request id or
attributes from the call. The ledger (:mod:`perfbench.ledger`) turns the
recorded spans into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json

from perfbench.tracer import Tracer

SPAN, TALLY = "span", "tally"


def _decide_rid(tenant, seq):
    return ["decide", tenant, seq]


def _client_decide(args, kwargs):
    seq = kwargs.get("seq", args[2] if len(args) > 2 else None)
    return _decide_rid(args[1].tenant, seq)


def _body_rid(path, body):
    if path != "/v1/decide":
        return None
    try:
        document = json.loads(body)
        return _decide_rid(document["payload"]["event"]["tenant"], document.get("seq"))
    except (ValueError, KeyError, TypeError):
        return None


def _route_rid(args, _kwargs):
    return _body_rid(args[2], args[3])


def _forward_rid(args, _kwargs):
    return _body_rid(args[2], args[3])


def _handle_rid(args, _kwargs):
    request = args[1]
    if request.op != "decide":
        return None
    return _decide_rid(request.payload.get("event", {}).get("tenant"), request.seq)


def _batch_counter():
    """Numbers submit batches in the order this process sees them."""
    counter = itertools.count()
    return lambda _args, _kwargs: ["submit", next(counter)]


def _size_attr(span, args, _result):
    span.attrs = {"n": len(args[1])}


def _wal_attrs(span, args, result):
    span.attrs = {"kind": args[1], "bytes": len(result.to_line()) + 1}


def _cache_attrs(span, args, _result):
    cache = args[0]
    span.attrs = {"cache": id(cache), "refinements": cache.refinements}


def _result_len(_args, result):
    return len(result)


def _arg_len(args, _result):
    return len(args[1])


#: (target, kind, name, request id, span ``after`` or tally ``size``) for
#: the load generator.
CLIENT_TARGETS = (
    ("repro.api.client:ReproClient.decide_idempotent", SPAN, "client.call", _client_decide, None),
    ("repro.api.client:ReproClient.submit", SPAN, "client.call", _batch_counter, None),
    ("repro.api.client:ReproClient.open_session", SPAN, "client.open", None, None),
    ("repro.api.client:ReproClient.close_cycle", SPAN, "client.close_cycle", None, None),
    ("http.client:HTTPConnection.connect", TALLY, "net.connect", None, None),
    ("repro.ingest.mapping:read_dump", SPAN, "ingest.read", None, None),
    ("repro.ingest.mapping:MappedSource.build_store", SPAN, "ingest.build", None, None),
    ("repro.emr.engine:AlertDetectionEngine.classify_pair", TALLY, "ingest.classify", None, None),
)

#: The same for every serving process: router, HTTP server, workers.
SERVER_TARGETS = (
    ("repro.api.cluster:AuditCluster._handle_connection", SPAN, "router.conn", None, None),
    ("repro.api.cluster:AuditCluster._route", SPAN, "router.route", _route_rid, None),
    ("repro.api.cluster:AuditCluster._forward", SPAN, "router.forward", _forward_rid, None),
    ("repro.api.supervisor:WorkerSupervisor.ensure", SPAN, "router.ensure", None, None),
    ("http.client:HTTPConnection.connect", TALLY, "net.connect", None, None),
    ("repro.api.http:_ApiRequestHandler.handle_one_request", SPAN, "http.request", None, None),
    ("repro.api.http:_ApiRequestHandler._do_submit", SPAN, "http.submit", _batch_counter, None),
    ("repro.api.http:_ApiRequestHandler._read_body", TALLY, "http.bytes_in", None, _result_len),
    ("socketserver:_SocketWriter.write", TALLY, "http.write", None, _arg_len),
    ("repro.api.protocol:ProtocolHandler.handle", SPAN, "protocol.handle", _handle_rid, None),
    ("repro.api.v1.types:_Payload.from_json", TALLY, "codec.decode", None, None),
    ("repro.api.v1.types:_Payload.from_dict", TALLY, "codec.decode", None, None),
    ("repro.api.v1.types:_Payload.to_json", TALLY, "codec.encode", None, None),
    ("repro.api.v1.types:_Payload.to_dict", TALLY, "codec.encode", None, None),
    ("repro.api.v1.service:AuditService.decide_idempotent", SPAN, "service.decide", None, None),
    ("repro.api.v1.service:AuditService.submit", SPAN, "service.submit", None, _size_attr),
    ("repro.api.v1.service:AuditService._stacked_ossp_check", SPAN, "service.stacked_check", None, None),
    ("repro.api.v1.service:AuditService.restore", SPAN, "service.restore", None, None),
    ("repro.api.v1.service:AuditService.open_session", SPAN, "service.open", None, None),
    ("repro.api.v1.service:AuditService.close_cycle", SPAN, "service.close_cycle", None, None),
    ("repro.api.v1.service:AuditService.stats", SPAN, "service.stats", None, None),
    ("repro.logstore.wal:WriteAheadLog.append", SPAN, "wal.append", None, _wal_attrs),
    ("repro.logstore.wal:scan_records", SPAN, "wal.scan", None, None),
    ("repro.api.v1.session:AuditSession.decide", SPAN, "session.decide", None, None),
    ("repro.api.v1.session:AuditSession._decide_batch_stream", SPAN, "session.batch", None, _size_attr),
    ("repro.engine.stream:BatchAuditEngine.process_stream", SPAN, "engine.stream", None, _size_attr),
    ("repro.engine.policy_table:PolicyTableCompiler.compile", SPAN, "table.compile", None, None),
    ("repro.engine.cache:SSESolutionCache.get_or_solve", SPAN, "cache.lookup", None, _cache_attrs),
    ("repro.core.game:solve_online_sse", SPAN, "solver.solve", None, None),
    ("repro.engine.analytic:refine_candidate_solution", SPAN, "solver.refine", None, None),
    ("repro.core.game:SignalingAuditGame.process_alert", SPAN, "game.process_alert", None, None),
)


def install(tracer: Tracer, targets) -> None:
    """Wrap every target; a target that no longer exists is noted absent."""
    for target, kind, name, rid, extra in targets:
        if kind == TALLY:
            tracer.patch(target, lambda f, n=name, s=extra: tracer.tally(f, n, size=s))
        else:
            # A factory gives each process its own batch counter.
            rid_fn = rid() if rid is _batch_counter else rid
            tracer.patch(target, lambda f, n=name, r=rid_fn, a=extra: tracer.span(f, n, r, a))


def absent_names(documents) -> set[str]:
    """Span and tally names whose wrap target was missing in any process."""
    missing = {target for document in documents for target in document["absent"]}
    return {
        name
        for target, _kind, name, _rid, _extra in CLIENT_TARGETS + SERVER_TARGETS
        if target in missing
    }
