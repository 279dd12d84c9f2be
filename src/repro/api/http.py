"""A dependency-free HTTP binding of the wire protocol.

:func:`serve_http` exposes one :class:`~repro.api.v1.AuditService` over a
stdlib :class:`~http.server.ThreadingHTTPServer`. Every operation of the
protocol plane maps to one endpoint:

====================  ======  ==============================================
path                  method  body
====================  ======  ==============================================
``/v1/open``          POST    :class:`~repro.api.protocol.Request` JSON
``/v1/observe``       POST    Request JSON
``/v1/decide``        POST    Request JSON (``seq``/``idempotency_key`` honored)
``/v1/submit``        POST    ndjson stream of ``AlertEvent`` lines; the
                              response streams ``SignalDecision`` lines back
                              (chunked) while later events are still deciding
``/v1/close_cycle``   POST    Request JSON (envelope ``tenant``)
``/v1/report``        POST    Request JSON (envelope ``tenant``)
``/v1/close``         POST    Request JSON (envelope ``tenant``)
``/v1/stats``         POST    Request JSON
``/healthz``          GET     — liveness + protocol version + open tenants
``/stats``            GET     — service-wide ``ServiceStats``
====================  ======  ==============================================

Non-``submit`` responses are :class:`~repro.api.protocol.Response` JSON with
an HTTP status derived from the stable error code (:data:`STATUS_BY_CODE`).
All requests funnel through one :class:`~repro.api.protocol.ProtocolHandler`
— the same object the in-process transport calls — so the service hot path
and the per-tenant determinism contract are shared, not reimplemented.
Thread safety comes from the handler's dispatch lock; the threading server
only parallelizes socket I/O.

Connections are persistent HTTP/1.1: a connection stays open across
requests, ``submit`` included, until the peer closes it or the server
shuts down. :class:`ConnectionPool` is the calling side of that — the
client transport and the cluster router both draw pooled connections
from it.
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import threading
import urllib.parse
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.errors import ProtocolError
from repro.api.protocol import (
    OP_STATS,
    OPS,
    OP_SUBMIT,
    ProtocolHandler,
    Request,
    Response,
    decode_ndjson,
)
from repro.api.v1.types import AlertEvent

#: HTTP status for each stable error code (default 500 for the rest).
STATUS_BY_CODE: dict[str, int] = {
    "unknown_tenant": HTTPStatus.NOT_FOUND,
    "invalid_event": HTTPStatus.BAD_REQUEST,
    "protocol_error": HTTPStatus.BAD_REQUEST,
    "idempotency_conflict": HTTPStatus.CONFLICT,
    "session_state": HTTPStatus.CONFLICT,
    "session_closed": HTTPStatus.CONFLICT,
    "model_invalid": HTTPStatus.UNPROCESSABLE_ENTITY,
    "model_payoff": HTTPStatus.UNPROCESSABLE_ENTITY,
    "model_budget": HTTPStatus.UNPROCESSABLE_ENTITY,
    "experiment_invalid": HTTPStatus.UNPROCESSABLE_ENTITY,
    "data_invalid": HTTPStatus.UNPROCESSABLE_ENTITY,
    "data_query": HTTPStatus.UNPROCESSABLE_ENTITY,
    "cluster_error": HTTPStatus.INTERNAL_SERVER_ERROR,
    "worker_unavailable": HTTPStatus.SERVICE_UNAVAILABLE,
}

#: Events decided per streamed ``submit`` chunk.
SUBMIT_CHUNK = 256


def _status_for(response: Response) -> int:
    if response.ok:
        return int(HTTPStatus.OK)
    return int(STATUS_BY_CODE.get(
        response.error.code, HTTPStatus.INTERNAL_SERVER_ERROR
    ))


class ConnectionPool:
    """Idle persistent HTTP/1.1 connections, kept per base URL.

    A caller checks a connection out, sends one request, reads the reply
    to its end and checks the connection back in, so the pool never
    holds more idle connections than callers ever ran at once.

    The never-sent rule the cluster's retries rest on holds for pooled
    connections too. An idle connection is probed before reuse; one
    whose peer has closed it (a server that restarted, shut down or was
    killed) is discarded before anything is written to it. Only a fresh
    connection can be refused, so ``ConnectionRefusedError`` still means
    the request never left this process.
    """

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        self._idle: dict[str, list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()

    def checkout(self, base_url: str) -> http.client.HTTPConnection:
        """A live idle connection to ``base_url``, else a new unopened one."""
        with self._lock:
            idle = self._idle.get(base_url, [])
            while idle:
                connection = idle.pop()
                # An idle connection has nothing to read: if it polls
                # readable, the peer closed it (or sent unasked bytes).
                readable, _, _ = select.select([connection.sock], [], [], 0)
                if not readable:
                    return connection
                connection.close()
        parts = urllib.parse.urlsplit(base_url)
        return http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=self._timeout
        )

    def checkin(
        self,
        base_url: str,
        connection: http.client.HTTPConnection,
        reply: http.client.HTTPResponse,
    ) -> None:
        """Keep ``connection`` for reuse if ``reply`` left it reusable.

        ``http.client`` marks a reply finished only once ``read()`` has
        reached its end; anything else — an unread tail, or a server that
        announced it will close — ends the connection here.
        """
        if reply.will_close or not reply.isclosed():
            connection.close()
            return
        with self._lock:
            self._idle.setdefault(base_url, []).append(connection)

    def post(
        self, base_url: str, path: str, body: bytes, content_type: str
    ) -> tuple[int, str, bytes]:
        """POST on a pooled connection; ``(status, content type, body)``."""
        connection = self.checkout(base_url)
        try:
            connection.request(
                "POST", path, body=body, headers={"Content-Type": content_type}
            )
            reply = connection.getresponse()
            data = reply.read()
        except BaseException:
            connection.close()
            raise
        self.checkin(base_url, connection, reply)
        return (
            reply.status,
            reply.getheader("Content-Type", "application/json"),
            data,
        )

    def close_idle(self, base_url: str) -> None:
        """Close the idle connections to one base URL."""
        with self._lock:
            idle = self._idle.pop(base_url, [])
        for connection in idle:
            connection.close()

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle = [c for group in self._idle.values() for c in group]
            self._idle.clear()
        for connection in idle:
            connection.close()


class _ApiRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange → one protocol dispatch."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-api/1"
    # On a kept-alive connection a reply's small write would otherwise
    # wait, under Nagle's algorithm, for the peer's delayed ACK of the
    # previous one.
    disable_nagle_algorithm = True

    # The ProtocolHandler is attached to the server object by ReproHttpServer.

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # GET: liveness and stats
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        handler: ProtocolHandler = self.server.protocol_handler
        if self.path == "/healthz":
            response = handler.handle(Request(op="healthz"))
        elif self.path == "/stats":
            response = handler.handle(Request(op=OP_STATS))
        else:
            self._send_json(
                int(HTTPStatus.NOT_FOUND),
                {"ok": False, "error": {"code": "protocol_error",
                                        "message": f"no such path {self.path}"}},
            )
            return
        body = (
            response.payload if response.ok
            else {"ok": False, "error": response.error.to_dict()}
        )
        self._send_json(_status_for(response), body)

    # ------------------------------------------------------------------
    # POST: the protocol operations
    # ------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        op = self._path_op()
        if op is None:
            self._read_body()  # consumed, so the connection can carry on
            self._send_json(
                int(HTTPStatus.NOT_FOUND),
                {"ok": False, "error": {
                    "code": "protocol_error",
                    "message": (f"no such endpoint {self.path!r}; "
                                f"POST /v1/<op> with op in {OPS}"),
                }},
            )
            return
        if op == OP_SUBMIT:
            self._do_submit()
            return
        try:
            request = Request.from_json(self._read_body().decode("utf-8"))
            if request.op != op:
                raise ProtocolError(
                    f"envelope op {request.op!r} does not match endpoint "
                    f"/v1/{op}"
                )
        except ProtocolError as exc:
            self._send_response(Response.failure(op, exc))
            return
        except Exception as exc:
            self._send_response(Response.failure(
                op, ProtocolError(f"request body is not a valid envelope: {exc}")
            ))
            return
        handler: ProtocolHandler = self.server.protocol_handler
        self._send_response(handler.handle(request))

    def _do_submit(self) -> None:
        """The streaming hot path: ndjson events in, ndjson decisions out."""
        handler: ProtocolHandler = self.server.protocol_handler
        try:
            body = self._read_body().decode("utf-8")
            events = tuple(decode_ndjson(body, AlertEvent))
        except Exception as exc:
            self._send_response(Response.failure(
                OP_SUBMIT,
                exc if isinstance(exc, ProtocolError)
                else ProtocolError(f"submit body is not ndjson events: {exc}"),
            ))
            return
        self.send_response(int(HTTPStatus.OK))
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for decision in handler.submit_stream(events, SUBMIT_CHUNK):
                self._write_chunk(decision.to_json() + "\n")
        except OSError:
            # The client went away mid-stream; there is nobody to tell.
            self.close_connection = True
            return
        except Exception as exc:
            # Headers are gone; surface the failure as a trailer line the
            # client-side codec reports with its stable code.
            error = Response.failure(OP_SUBMIT, exc)
            try:
                self._write_chunk(error.to_json() + "\n")
            except OSError:
                self.close_connection = True
                return
        # The zero-length chunk ends a well-framed reply, so the
        # connection stays open for the peer's next request.
        try:
            self._write_chunk("")
        except OSError:
            self.close_connection = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _path_op(self) -> str | None:
        prefix = "/v1/"
        if not self.path.startswith(prefix):
            return None
        op = self.path[len(prefix):].strip("/")
        return op if op in OPS else None

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0))
        return self.rfile.read(length) if length > 0 else b""

    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(
            f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"
        )

    def _send_response(self, response: Response) -> None:
        self._send_bytes(
            _status_for(response), response.to_json().encode("utf-8")
        )

    def _send_json(self, status: int, body: dict) -> None:
        self._send_bytes(
            status, json.dumps(body, sort_keys=True).encode("utf-8")
        )

    def _send_bytes(self, status: int, data: bytes) -> None:
        """Status line, headers and JSON body in a single write."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        # end_headers() would write the head on its own; append the blank
        # line and the body to the buffered head and flush them together.
        self._headers_buffer.append(b"\r\n" + data)
        self.flush_headers()


class _ConnectionTrackingServer(ThreadingHTTPServer):
    """A threading HTTP server that can end the connections it holds.

    Each kept-alive connection parks a handler thread on its next
    request line; :meth:`close_connections` wakes them all with a socket
    shutdown, which also tells every peer the connection is gone.
    """

    daemon_threads = True

    def __init__(self, address, handler_class) -> None:
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler_class)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler


class ReproHttpServer:
    """A running (or startable) HTTP binding of one audit service.

    Use :func:`serve_http` to construct. ``serve_forever`` blocks;
    ``start_background`` runs the accept loop on a daemon thread and
    returns immediately — tests and the loopback benchmark use that mode,
    then ``shutdown``.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.handler = ProtocolHandler(service)
        self._httpd = _ConnectionTrackingServer(
            (host, port), _ApiRequestHandler
        )
        self._httpd.protocol_handler = self.handler
        self._httpd.verbose = verbose
        self._thread: threading.Thread | None = None
        self._started = False

    @property
    def service(self):
        """The audit service behind this server."""
        return self.handler.service

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port is concrete even for port 0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL clients should connect to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def write_ready_file(self, path: str | Path) -> None:
        """Write the bound URL to ``path`` (for shell/CI orchestration)."""
        Path(path).write_text(self.url + "\n", encoding="utf-8")

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown`."""
        self._started = True
        self._httpd.serve_forever()

    def start_background(self) -> "ReproHttpServer":
        """Serve on a daemon thread; returns self once accepting."""
        self._started = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the accept loop (if running) and release the sockets.

        The listening socket closes first, then every connection a client
        still holds open, so no request is answered after shutdown. Safe
        on a server whose accept loop never started —
        ``BaseServer.shutdown`` would otherwise wait forever on an event
        only ``serve_forever`` sets.
        """
        if self._started:
            self._httpd.shutdown()
            self._started = False
        self._httpd.server_close()
        self._httpd.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ReproHttpServer":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.shutdown()


def serve_http(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ReproHttpServer:
    """Bind ``service`` to an HTTP socket (port 0 = ephemeral).

    Returns the unstarted server; call ``serve_forever()`` to block (the
    CLI's ``repro serve --http``) or ``start_background()`` for an
    in-process loopback (tests, benchmarks)::

        with serve_http(service).start_background() as server:
            client = ReproClient.connect(server.url)
    """
    return ReproHttpServer(service, host=host, port=port, verbose=verbose)


__all__ = [
    "STATUS_BY_CODE",
    "SUBMIT_CHUNK",
    "ConnectionPool",
    "ReproHttpServer",
    "serve_http",
]
