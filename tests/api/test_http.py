"""The HTTP binding: endpoints, status mapping, streaming submit,
persistent connections."""

import http.client
import json
import os
import socket
import subprocess
import sys
import textwrap
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.api import ReproClient, serve_cluster, serve_http
from repro.api.http import STATUS_BY_CODE, ConnectionPool
from repro.api.protocol import (
    ProtocolHandler,
    Request,
    Response,
    encode_history,
    encode_ndjson,
)
from repro.api.v1 import AlertEvent, AuditService
from repro.errors import TransportError

from apihelpers import make_config, make_events, make_history


@pytest.fixture()
def server():
    service = AuditService()
    service.open_session(make_config(), make_history())
    with serve_http(service).start_background() as running:
        yield running


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


def _post(url: str, body: bytes, content_type="application/json"):
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": content_type}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, reply.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestGetEndpoints:
    def test_healthz(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["tenants"] == ["a"]

    def test_stats(self, server):
        status, body = _get(server.url + "/stats")
        assert status == 200
        assert body["stats"]["open_sessions"] == 1

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404

    def test_stats_export_matches_in_process_snapshot(self, server):
        # A table-mode tenant lands alongside the fixture's cache-mode one,
        # so the wire export must carry the policy-table counters — and the
        # whole body must be exactly the in-process ServiceStats snapshot,
        # not a hand-maintained projection that can drift.
        service = server.service
        service.open_session(
            make_config(tenant="tbl", budget=50.0, policy_table=True),
            make_history(),
        )
        service.submit(make_events(tenant="tbl", n=12))
        status, body = _get(server.url + "/stats")
        assert status == 200
        snapshot = service.stats().to_dict()
        assert body["stats"] == json.loads(json.dumps(snapshot))
        assert body["stats"]["table_hits"] + body["stats"]["fallbacks"] == 12
        assert body["stats"]["compile_seconds"] > 0.0
        by_tenant = {
            entry["tenant"]: entry for entry in body["stats"]["per_tenant"]
        }
        assert by_tenant["tbl"]["table_hits"] == body["stats"]["table_hits"]
        assert by_tenant["a"]["table_hits"] == 0


class TestPostEndpoints:
    def test_decide(self, server):
        event = make_events(n=1)[0]
        request = Request(op="decide", payload={"event": event.to_dict()})
        status, body = _post(
            server.url + "/v1/decide", request.to_json().encode()
        )
        assert status == 200
        response = Response.from_json(body)
        assert response.ok
        assert response.payload["decision"]["type_id"] == 1

    def test_unknown_tenant_maps_to_404(self, server):
        event = AlertEvent(tenant="ghost", type_id=1, time_of_day=0.0)
        request = Request(op="decide", payload={"event": event.to_dict()})
        status, body = _post(
            server.url + "/v1/decide", request.to_json().encode()
        )
        assert status == STATUS_BY_CODE["unknown_tenant"] == 404
        assert Response.from_json(body).error.code == "unknown_tenant"

    def test_malformed_body_maps_to_400(self, server):
        status, body = _post(server.url + "/v1/decide", b"not json at all")
        assert status == 400
        assert Response.from_json(body).error.code == "protocol_error"

    def test_mismatched_endpoint_op_rejected(self, server):
        request = Request(op="stats")
        status, body = _post(
            server.url + "/v1/decide", request.to_json().encode()
        )
        assert status == 400
        assert Response.from_json(body).error.code == "protocol_error"

    def test_unknown_endpoint_rejected(self, server):
        # Unknown paths are 404 (same as GET), not 400 — clients and load
        # balancers distinguish "no such endpoint" from "bad request".
        for path in ("/v1/frobnicate", "/v2/decide", "/decide"):
            status, body = _post(server.url + path, b"{}")
            assert status == 404, path
            assert json.loads(body)["error"]["code"] == "protocol_error"

    def test_lifecycle_over_the_wire(self, server):
        events = make_events(n=3)
        for event in events:
            request = Request(op="decide", payload={"event": event.to_dict()})
            status, _ = _post(
                server.url + "/v1/decide", request.to_json().encode()
            )
            assert status == 200
        status, body = _post(
            server.url + "/v1/close_cycle",
            Request(op="close_cycle", tenant="a").to_json().encode(),
        )
        assert status == 200
        assert Response.from_json(body).payload["report"]["alerts"] == 3
        status, body = _post(
            server.url + "/v1/close",
            Request(op="close", tenant="a").to_json().encode(),
        )
        assert status == 200
        assert Response.from_json(body).payload["stats"]["state"] == "closed"


class TestServerLifecycle:
    def test_shutdown_without_start_does_not_hang(self):
        # BaseServer.shutdown waits on an event only serve_forever sets;
        # an unstarted server must still close cleanly (and quickly).
        unstarted = serve_http(AuditService())
        unstarted.shutdown()

    def test_shutdown_is_idempotent(self):
        running = serve_http(AuditService()).start_background()
        running.shutdown()
        running.shutdown()


class TestStreamingSubmit:
    def test_ndjson_in_ndjson_out(self, server):
        from repro.api.protocol import encode_ndjson
        from repro.api.v1 import SignalDecision

        events = make_events(n=6)
        status, body = _post(
            server.url + "/v1/submit",
            encode_ndjson(events).encode(),
            content_type="application/x-ndjson",
        )
        assert status == 200
        decisions = [
            SignalDecision.from_dict(json.loads(line))
            for line in body.splitlines() if line.strip()
        ]
        assert [decision.sequence for decision in decisions] == list(range(6))

    def test_bad_event_line_rejected(self, server):
        status, body = _post(
            server.url + "/v1/submit",
            b'{"tenant": "a"}\n',
            content_type="application/x-ndjson",
        )
        assert status == 400
        assert Response.from_json(body).error.code == "protocol_error"

    def test_mid_stream_failure_emits_error_trailer(self, server):
        # An unknown tenant fails validation inside the hot path after
        # headers are sent for a large enough stream; with a small stream
        # the submit is validated atomically, so the error arrives as a
        # trailer response line.
        events = make_events(n=2) + [
            AlertEvent(tenant="ghost", type_id=1, time_of_day=90000.0)
        ]
        from repro.api.protocol import encode_ndjson

        status, body = _post(
            server.url + "/v1/submit",
            encode_ndjson(events).encode(),
            content_type="application/x-ndjson",
        )
        assert status == 200  # headers were already committed
        lines = [json.loads(line) for line in body.splitlines() if line.strip()]
        assert lines[-1]["ok"] is False
        assert lines[-1]["error"]["code"] == "unknown_tenant"


def _exchange(connection, path, body, content_type="application/json"):
    connection.request(
        "POST", path, body=body, headers={"Content-Type": content_type}
    )
    reply = connection.getresponse()
    return reply.status, reply.read().decode("utf-8")


class TestReplyBytes:
    def test_reply_body_is_the_response_envelope(self, server):
        # The body on the wire is Response.to_json() itself — the same
        # bytes an in-process handler produces for the same call.
        twin_service = AuditService()
        twin_service.open_session(make_config(), make_history())
        twin = ProtocolHandler(twin_service)
        requests = [
            Request(op="decide", payload={"event": event.to_dict()}, seq=seq)
            for seq, event in enumerate(make_events(n=3), start=1)
        ]
        ghost = AlertEvent(tenant="ghost", type_id=1, time_of_day=0.0)
        requests.append(
            Request(op="decide", payload={"event": ghost.to_dict()})
        )
        for request in requests:
            _status, body = _post(
                server.url + "/v1/decide", request.to_json().encode()
            )
            assert body == twin.handle(request).to_json()


class TestKeepAlive:
    def test_submit_then_close_cycle_on_one_connection(self, server):
        # A streamed submit ends with a well-framed zero-length chunk, so
        # the connection must carry the next request.
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            status, body = _exchange(
                connection,
                "/v1/submit",
                encode_ndjson(make_events(n=4)).encode(),
                "application/x-ndjson",
            )
            assert status == 200
            assert len(body.splitlines()) == 4
            opened = connection.sock
            status, body = _exchange(
                connection,
                "/v1/close_cycle",
                Request(op="close_cycle", tenant="a").to_json().encode(),
            )
            assert status == 200
            assert Response.from_json(body).payload["report"]["alerts"] == 4
            assert connection.sock is opened
        finally:
            connection.close()

    def test_unknown_endpoint_leaves_the_connection_usable(self, server):
        # The rejected request's body is consumed, not parsed as the
        # connection's next request line.
        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            status, _body = _exchange(
                connection, "/v1/frobnicate", b'{"op": "stats"}'
            )
            assert status == 404
            status, body = _exchange(
                connection, "/v1/stats", Request(op="stats").to_json().encode()
            )
            assert status == 200
            assert Response.from_json(body).ok
        finally:
            connection.close()

    def test_router_submit_then_close_cycle_on_one_connection(
        self, tmp_path, monkeypatch
    ):
        # The same through the cluster router: a submit fanned out to both
        # shards, then close_cycle, on one client connection — and the
        # router reuses one connection per shard for all of it.
        connects = []
        connect = http.client.HTTPConnection.connect

        def counting_connect(self):
            connects.append(self.port)
            return connect(self)

        monkeypatch.setattr(
            http.client.HTTPConnection, "connect", counting_connect
        )
        with serve_cluster(
            workers=2, state_dir=tmp_path / "cluster"
        ).start_background() as cluster:
            owners = {}
            for index in range(100):
                owners.setdefault(cluster.owner_of(f"t{index}"), f"t{index}")
            tenants = sorted(owners.values())
            host, port = cluster.url.rsplit("/", 1)[1].split(":")
            connection = http.client.HTTPConnection(
                host, int(port), timeout=60
            )
            try:
                for tenant in tenants:
                    opened = Request(op="open", payload={
                        "config": make_config(tenant=tenant).to_dict(),
                        "history": encode_history(make_history()),
                    })
                    status, body = _exchange(
                        connection, "/v1/open", opened.to_json().encode()
                    )
                    assert status == 200, body
                for _cycle in range(2):
                    streams = [make_events(tenant=t, n=3) for t in tenants]
                    events = [e for pair in zip(*streams) for e in pair]
                    status, body = _exchange(
                        connection,
                        "/v1/submit",
                        encode_ndjson(events).encode(),
                        "application/x-ndjson",
                    )
                    assert status == 200
                    assert len(body.splitlines()) == 6
                    for tenant in tenants:
                        closing = Request(op="close_cycle", tenant=tenant)
                        status, body = _exchange(
                            connection,
                            "/v1/close_cycle",
                            closing.to_json().encode(),
                        )
                        assert status == 200, body
                        report = Response.from_json(body).payload["report"]
                        assert report["alerts"] == 3
            finally:
                connection.close()
        assert connects.count(int(port)) == 1
        assert len(connects) == 1 + 2

    def test_shutdown_ends_connections_clients_still_hold(self):
        service = AuditService()
        service.open_session(make_config(), make_history())
        server = serve_http(service).start_background()
        client = ReproClient.connect(server.url)
        try:
            events = make_events(n=2)
            client.decide(events[0], seq=1)
            server.shutdown()
            with pytest.raises(TransportError):
                client.decide(events[1], seq=2)
        finally:
            client.close()
            server.shutdown()

    def test_with_block_closes_the_client_connection(self):
        script = textwrap.dedent("""
            import gc
            from repro.api import ReproClient, serve_cluster, serve_http
            from repro.api.v1 import AuditService

            with serve_http(AuditService()).start_background() as server:
                with ReproClient.connect(server.url) as client:
                    client.healthz()
                    client.stats()
                del client
                gc.collect()
        """)
        source_root = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join(
            [source_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        completed = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert completed.returncode == 0, completed.stderr
        assert "ResourceWarning" not in completed.stderr, completed.stderr


class TestConnectionPool:
    def test_connection_the_peer_closed_is_discarded_before_reuse(self):
        """A listener answers each connection once with keep-alive
        framing, then half-closes it and records anything written after.
        The pool must notice the close and reconnect, never writing the
        second request into the dead connection."""
        listener = socket.create_server(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        after_close: list[bytes] = []
        first_closed = threading.Event()

        def answer_once(connection):
            with connection:
                request = b""
                while b"\r\n\r\n" not in request:
                    request += connection.recv(65536)
                head, _, body = request.partition(b"\r\n\r\n")
                length = int(
                    head.lower().split(b"content-length:")[1].split(b"\r\n")[0]
                )
                while len(body) < length:
                    body += connection.recv(65536)
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 2\r\n\r\n{}"
                )
                connection.shutdown(socket.SHUT_WR)
                first_closed.set()
                rest = b""
                while chunk := connection.recv(65536):
                    rest += chunk
                after_close.append(rest)

        def serve():
            for _ in range(2):
                connection, _address = listener.accept()
                answer_once(connection)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        pool = ConnectionPool(timeout=10)
        try:
            first = pool.post(url, "/v1/healthz", b"{}", "application/json")
            assert first == (200, "application/json", b"{}")
            assert first_closed.wait(timeout=10)
            second = pool.post(url, "/v1/healthz", b"{}", "application/json")
            assert second == first
        finally:
            pool.close()
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()
        assert after_close == [b"", b""]
