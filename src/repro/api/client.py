"""One client, swappable transports: the caller-side of the serving plane.

:class:`ReproClient` speaks the wire protocol of :mod:`repro.api.protocol`
against either transport:

* :class:`InProcessTransport` — dispatches envelopes straight into a
  :class:`~repro.api.protocol.ProtocolHandler` in this process (no
  sockets, no serialization of the transport itself — but the *same*
  envelope round-trip, so behavior matches the wire exactly);
* :class:`HttpTransport` — stdlib ``http.client`` against a
  :func:`repro.api.http.serve_http` server or a cluster router, over
  persistent connections from a :class:`~repro.api.http.ConnectionPool`;
  ``submit`` posts ndjson and consumes the streamed ndjson decision lines.

Because both transports route through the identical handler → service hot
path, a fixed per-tenant event order produces **bit-identical** decision
streams and cycle reports on either — the equivalence contract the
transport tests pin down.

Server-reported failures re-raise client-side under their stable codes:
codes owned by a local :class:`~repro.errors.ApiError` class raise that
class; any other code raises :class:`~repro.errors.RemoteApiError`
carrying the code, so ``error_code(exc)`` round-trips across the wire.
"""

from __future__ import annotations

import http.client
import json
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro import errors
from repro.errors import ProtocolError, RemoteApiError, TransportError
from repro.api.http import SUBMIT_CHUNK, ConnectionPool
from repro.api.protocol import (
    OP_CLOSE,
    OP_CLOSE_CYCLE,
    OP_DECIDE,
    OP_HEALTHZ,
    OP_OBSERVE,
    OP_OPEN,
    OP_REPORT,
    OP_STATS,
    ProtocolHandler,
    Request,
    Response,
    encode_history,
    encode_ndjson,
)
from repro.api.v1.types import (
    AlertEvent,
    CycleReport,
    ServiceStats,
    SessionConfig,
    SessionStats,
    SignalDecision,
)

def _build_code_map() -> dict[str, type]:
    """Invert the stable-code tables: wire code → local exception class.

    ``ApiError`` subclasses own their codes directly; the rest of the
    hierarchy inverts :data:`repro.api.v1.service.ERROR_CODES` (codes are
    unique, so the inversion is unambiguous). Anything the server reports
    outside both tables raises :class:`RemoteApiError` with the code kept.
    """
    from repro.api.v1.service import ERROR_CODES

    mapping: dict[str, type] = {
        code: klass for klass, code in ERROR_CODES
    }
    mapping.update({
        klass.code: klass
        for klass in vars(errors).values()
        if isinstance(klass, type)
        and issubclass(klass, errors.ApiError)
        and "code" in vars(klass)
    })
    return mapping


#: Stable code → local exception class, for re-raising wire errors.
CODE_TO_ERROR: dict[str, type] = _build_code_map()


def raise_for(error_code: str, message: str):
    """Raise the local exception for a wire error code."""
    klass = CODE_TO_ERROR.get(error_code)
    if klass is not None:
        raise klass(message)
    raise RemoteApiError(message, code=error_code)


class InProcessTransport:
    """Envelope dispatch into a handler living in this process."""

    def __init__(self, service=None, state_dir=None) -> None:
        if service is None:
            from repro.api.v1 import AuditService

            service = AuditService(state_dir=state_dir)
        self._handler = ProtocolHandler(service)

    @property
    def service(self):
        """The in-process service (for tests and lifecycle management)."""
        return self._handler.service

    def call(self, request: Request) -> Response:
        """Dispatch one envelope and return the reply envelope."""
        return self._handler.handle(request)

    def submit(
        self, events: Sequence[AlertEvent]
    ) -> tuple[SignalDecision, ...]:
        """The streaming hot path (same chunking as the HTTP endpoint)."""
        return tuple(self._handler.submit_stream(events, SUBMIT_CHUNK))

    def close(self) -> None:
        """Nothing to release for an in-process transport."""


class HttpTransport:
    """The wire transport: stdlib HTTP against a ``serve_http`` server.

    Requests travel on persistent HTTP/1.1 connections; the transport
    keeps one idle connection per thread that has called it at once.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self._base = base_url.rstrip("/")
        self._pool = ConnectionPool(timeout)

    @property
    def base_url(self) -> str:
        """The server base URL this transport targets."""
        return self._base

    def call(self, request: Request) -> Response:
        """POST one envelope to ``/v1/<op>`` and decode the reply.

        Error statuses still carry a protocol ``Response`` body.
        """
        path = f"/v1/{request.op}"
        try:
            _status, _ctype, body = self._pool.post(
                self._base,
                path,
                request.to_json().encode("utf-8"),
                "application/json",
            )
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(
                f"cannot reach {self._base}{path}: {exc}"
            ) from exc
        try:
            return Response.from_json(body.decode("utf-8"))
        except Exception as exc:
            raise TransportError(
                f"server reply to {request.op!r} is not a protocol "
                f"response: {exc}"
            ) from exc

    def submit(
        self, events: Sequence[AlertEvent]
    ) -> tuple[SignalDecision, ...]:
        """POST ndjson events, consume the streamed ndjson decisions.

        The response is decoded line by line as the server streams it —
        decisions arrive (and deserialize) while later chunks are still
        being decided server-side, never buffering the raw body whole.
        """
        connection = self._pool.checkout(self._base)
        decisions: list[SignalDecision] = []
        try:
            connection.request(
                "POST",
                "/v1/submit",
                body=encode_ndjson(events).encode("utf-8"),
                headers={"Content-Type": "application/x-ndjson"},
            )
            reply = connection.getresponse()
            if reply.status == 200:
                for raw in reply:
                    line = raw.decode("utf-8").strip()
                    if line:
                        self._collect_submit_line(line, decisions)
            # Iterating leaves a sized reply unfinished for http.client;
            # read() reaches its end, so the connection can be reused.
            body = reply.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise TransportError(
                f"cannot reach {self._base}/v1/submit: {exc}"
            ) from exc
        except BaseException:
            connection.close()
            raise
        self._pool.checkin(self._base, connection, reply)
        if reply.status != 200:
            self._raise_rejection(reply.status, body)
        return tuple(decisions)

    @staticmethod
    def _raise_rejection(status: int, body: bytes) -> None:
        # Pre-stream rejections (bad ndjson body) carry a Response — but
        # an intermediary (reverse proxy, stdlib error page) may answer
        # with something else entirely.
        text = body.decode("utf-8", errors="replace")
        try:
            error = Response.from_json(text).error
        except Exception as exc:
            raise TransportError(
                f"server reply to submit is not a protocol response "
                f"(HTTP {status}): {text[:200]!r}"
            ) from exc
        raise_for(error.code, error.message)

    @staticmethod
    def _collect_submit_line(
        line: str, decisions: list[SignalDecision]
    ) -> None:
        document = json.loads(line)
        if isinstance(document, dict) and "ok" in document and "op" in document:
            # The server's mid-stream failure trailer.
            error = Response.from_dict(document).error
            raise_for(error.code, error.message)
        decisions.append(SignalDecision.from_dict(document))

    def close(self) -> None:
        """Close the connections kept open between requests."""
        self._pool.close()


class ReproClient:
    """The one client for the serving plane, on any transport.

    Mirrors the :class:`~repro.api.v1.AuditService` lifecycle verbs; every
    call round-trips through protocol envelopes, so in-process and HTTP
    usage are interchangeable::

        client = ReproClient.in_process()            # embedded
        client = ReproClient.connect("http://…")     # over the wire

        client.open_session(config, history)
        decision = client.decide(event, seq=1)       # idempotent retry-safe
        decisions = client.submit(events)            # streaming hot path
        report = client.close_cycle("tenant-a")
    """

    def __init__(self, transport) -> None:
        self._transport = transport

    @classmethod
    def in_process(cls, service=None, state_dir=None) -> "ReproClient":
        """A client over a service in this process (optionally durable)."""
        return cls(InProcessTransport(service=service, state_dir=state_dir))

    @classmethod
    def connect(cls, url: str, timeout: float = 30.0) -> "ReproClient":
        """A client over HTTP against a ``repro serve --http`` server."""
        return cls(HttpTransport(url, timeout=timeout))

    @property
    def transport(self):
        """The underlying transport."""
        return self._transport

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open_session(
        self,
        config: SessionConfig,
        history: Mapping[int, Iterable],
    ) -> dict[str, Any]:
        """Open a tenant session from its config and training history."""
        payload = {
            "config": config.to_dict(),
            "history": encode_history(history),
        }
        return self._call(OP_OPEN, payload=payload)

    def open_scenario(self, spec) -> tuple[AlertEvent, ...]:
        """Open a session for a scenario; returns its test-day events."""
        reply = self._call(OP_OPEN, payload={"scenario": spec.to_dict()})
        return tuple(
            AlertEvent.from_dict(entry) for entry in reply.get("events", ())
        )

    def observe(self, event: AlertEvent) -> None:
        """Run one background event (no decision payload returned)."""
        self._call(OP_OBSERVE, payload={"event": event.to_dict()})

    def decide(
        self,
        event: AlertEvent,
        seq: int | None = None,
        idempotency_key: str | None = None,
    ) -> SignalDecision:
        """Decide one event (retry-safe when ``seq``/key is supplied)."""
        decision, _replayed = self.decide_idempotent(
            event, seq=seq, idempotency_key=idempotency_key
        )
        return decision

    def decide_idempotent(
        self,
        event: AlertEvent,
        seq: int | None = None,
        idempotency_key: str | None = None,
    ) -> tuple[SignalDecision, bool]:
        """Decide one event; also report whether it was an idempotent replay."""
        reply = self._call(
            OP_DECIDE,
            payload={"event": event.to_dict()},
            seq=seq,
            idempotency_key=idempotency_key,
        )
        return (
            SignalDecision.from_dict(reply["decision"]),
            bool(reply.get("replayed", False)),
        )

    def submit(
        self, events: Sequence[AlertEvent]
    ) -> tuple[SignalDecision, ...]:
        """The hot path: decide many events through the stream endpoint."""
        return self._transport.submit(events)

    def close_cycle(self, tenant: str) -> CycleReport:
        """End the tenant's audit cycle and return its report."""
        reply = self._call(OP_CLOSE_CYCLE, tenant=tenant)
        return CycleReport.from_dict(reply["report"])

    def report(self, tenant: str) -> SessionStats:
        """The tenant's cumulative session stats."""
        reply = self._call(OP_REPORT, tenant=tenant)
        return SessionStats.from_dict(reply["stats"])

    def close_session(self, tenant: str) -> SessionStats:
        """Retire the tenant's session; returns its final stats."""
        reply = self._call(OP_CLOSE, tenant=tenant)
        return SessionStats.from_dict(reply["stats"])

    def stats(self) -> ServiceStats:
        """Service-wide aggregate stats."""
        reply = self._call(OP_STATS)
        return ServiceStats.from_dict(reply["stats"])

    def healthz(self) -> dict[str, Any]:
        """Liveness: protocol version and open tenants."""
        return self._call(OP_HEALTHZ)

    def close(self) -> None:
        """Release the transport."""
        self._transport.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _call(
        self,
        op: str,
        tenant: str | None = None,
        payload: dict[str, Any] | None = None,
        seq: int | None = None,
        idempotency_key: str | None = None,
    ) -> dict[str, Any]:
        response = self._transport.call(Request(
            op=op,
            tenant=tenant,
            payload=payload or {},
            seq=seq,
            idempotency_key=idempotency_key,
        ))
        if not response.ok:
            raise_for(response.error.code, response.error.message)
        if response.payload is None:
            raise ProtocolError(f"successful {op!r} reply carried no payload")
        return response.payload


__all__ = [
    "CODE_TO_ERROR",
    "HttpTransport",
    "InProcessTransport",
    "ReproClient",
    "raise_for",
]
