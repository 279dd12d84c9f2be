"""Fault injection for the sharded serving tier.

The co-headline acceptance criterion of the cluster PR: SIGKILL a worker
process — between decides and mid-cycle — and prove the supervisor
restarts it, WAL replay restores its exact state, idempotent retries
return bit-identical decisions, and no budget is double-charged. Every
assertion compares the survivor against an *uninterrupted* single-process
:class:`~repro.api.v1.AuditService` twin driving the same events, so
"recovered" means indistinguishable, not merely alive.

SIGKILL (not SIGTERM) is deliberate: the worker gets no chance to flush
or clean up, exactly like a crashed machine. Determinism comes from the
WAL's flush-per-append contract — everything acknowledged is on disk —
so these tests are exact, not timing-dependent.
"""

import dataclasses
import http.client
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import WorkerUnavailableError
from repro.api import ReproClient, serve_cluster
from repro.api.cluster import AuditCluster
from repro.api.v1 import AuditService

from apihelpers import make_config, make_events, make_history


def _pin_tenants(cluster, count_per_shard=1):
    """Deterministic tenant names, ``count_per_shard`` per shard."""
    pinned = {worker: [] for worker in cluster.worker_ids}
    index = 0
    while any(len(names) < count_per_shard for names in pinned.values()):
        name = f"tenant-{index}"
        owner = cluster.owner_of(name)
        if len(pinned[owner]) < count_per_shard:
            pinned[owner].append(name)
        index += 1
    return pinned


def _strip_wall(report):
    return dataclasses.replace(report, wall_seconds=0.0)


@pytest.fixture()
def rig(tmp_path):
    """A 2-worker cluster + client + uninterrupted reference service."""
    with serve_cluster(
        workers=2, state_dir=tmp_path / "cluster"
    ).start_background() as cluster:
        client = ReproClient.connect(cluster.url)
        reference = AuditService()
        yield cluster, client, reference


def _open_everywhere(cluster, client, reference, budget=20.0):
    pinned = _pin_tenants(cluster)
    tenants = [name for names in pinned.values() for name in names]
    for tenant in tenants:
        for target in (client, reference):
            target.open_session(
                make_config(tenant=tenant, budget=budget), make_history()
            )
    return tenants


class TestKillBetweenDecides:
    def test_sigkill_then_idempotent_retry_is_bit_identical(self, rig):
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference)
        victim_tenant = tenants[0]
        victim_shard = cluster.owner_of(victim_tenant)
        events = make_events(tenant=victim_tenant, n=10)

        for seq, event in enumerate(events[:4], start=1):
            lived, _ = client.decide_idempotent(event, seq=seq)
            expected, _ = reference.decide_idempotent(event, seq=seq)
            assert lived == expected

        cluster.supervisor.kill(victim_shard)

        # The client never saw seq 4 fail, but a real client whose reply
        # got lost in the crash would retry it: the revived worker must
        # answer from its replayed idempotency window, not re-decide.
        replay, replayed = client.decide_idempotent(events[3], seq=4)
        expected_replay, _ = reference.decide_idempotent(events[3], seq=4)
        assert replayed
        assert replay == expected_replay

        # And the stream continues exactly where the crash interrupted it.
        for seq, event in enumerate(events[4:], start=5):
            lived, _ = client.decide_idempotent(event, seq=seq)
            expected, _ = reference.decide_idempotent(event, seq=seq)
            assert lived == expected
        assert cluster.supervisor.restarts(victim_shard) == 1

    def test_no_budget_double_charge_across_the_crash(self, rig):
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference, budget=5.0)
        victim_tenant = tenants[0]
        events = make_events(tenant=victim_tenant, n=8)
        for seq, event in enumerate(events[:5], start=1):
            client.decide_idempotent(event, seq=seq)
            reference.decide_idempotent(event, seq=seq)
        cluster.supervisor.kill(cluster.owner_of(victim_tenant))
        # Retry every already-consumed sequence — each must replay, and
        # none may burn budget or re-count events.
        for seq, event in enumerate(events[:5], start=1):
            decision, replayed = client.decide_idempotent(event, seq=seq)
            expected, _ = reference.decide_idempotent(event, seq=seq)
            assert replayed and decision == expected
        lived = _strip_wall(client.report(victim_tenant))
        expected = _strip_wall(reference.session(victim_tenant).report())
        assert lived == expected  # events, audits, budget — everything


class TestKillMidCycle:
    def test_sigkill_mid_cycle_recovers_to_identical_reports(self, rig):
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference)
        per_tenant = {
            tenant: make_events(tenant=tenant, n=12) for tenant in tenants
        }
        for tenant in tenants:
            client.submit(per_tenant[tenant][:7])
            reference.submit(per_tenant[tenant][:7])

        victim_shard = cluster.owner_of(tenants[0])
        cluster.supervisor.kill(victim_shard)

        # Finish the cycle through the revived worker: the tail events,
        # the cycle report, and the final stats must all match the twin.
        for tenant in tenants:
            lived = client.submit(per_tenant[tenant][7:])
            expected = reference.submit(per_tenant[tenant][7:])
            assert list(lived) == list(expected)
        for tenant in tenants:
            assert _strip_wall(client.close_cycle(tenant)) == _strip_wall(
                reference.close_cycle(tenant)
            )
        merged = client.stats()
        expected = reference.stats()
        assert merged.events == expected.events
        assert merged.cycles_closed == expected.cycles_closed
        assert merged.tenants == expected.tenants

    def test_submit_spanning_shards_survives_a_dead_worker(self, rig):
        """A submit whose fan-out hits a dead shard: the connection is
        refused (provably never sent), so the router revives the worker
        and retries — the caller sees nothing but correct decisions."""
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference)
        per_tenant = {
            tenant: make_events(tenant=tenant, n=6) for tenant in tenants
        }
        cluster.supervisor.kill(cluster.owner_of(tenants[0]))
        mixed = [
            per_tenant[tenant][index]
            for index in range(6)
            for tenant in tenants
        ]
        assert list(client.submit(mixed)) == list(reference.submit(mixed))


class TestSupervisionLimits:
    def test_restart_budget_exhaustion_surfaces_worker_unavailable(
        self, tmp_path
    ):
        with serve_cluster(
            workers=2, state_dir=tmp_path / "cluster", max_restarts=1
        ).start_background() as cluster:
            client = ReproClient.connect(cluster.url)
            tenant = next(
                name for name in (f"tenant-{i}" for i in range(100))
                if cluster.owner_of(name) == cluster.worker_ids[0]
            )
            client.open_session(make_config(tenant=tenant), make_history())
            event = make_events(tenant=tenant, n=2)[0]

            victim = cluster.owner_of(tenant)
            cluster.supervisor.kill(victim)
            decision, _ = client.decide_idempotent(event, seq=1)  # revives
            assert cluster.supervisor.restarts(victim) == 1

            cluster.supervisor.kill(victim)  # budget now exhausted
            with pytest.raises(WorkerUnavailableError):
                client.decide_idempotent(event, seq=1)
            # The cluster degrades, it does not lie: healthz reports the
            # dead shard and flips unhealthy.
            request = urllib.request.Request(cluster.url + "/healthz")
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request)
            health = json.load(caught.value)
            assert caught.value.code == 503
            assert not health["ok"]
            assert not health["workers"][victim]["ok"]

    def test_worker_breadcrumb_files_track_the_live_process(self, rig):
        """Each shard dir carries worker.pid / worker.url for shell
        orchestration (the CI chaos smoke kills through them); a revived
        worker rewrites both."""
        cluster, client, reference = rig
        tenants = _open_everywhere(cluster, client, reference)
        victim = cluster.owner_of(tenants[0])
        shard_dir = cluster.shard_dir(victim)
        pid_before = int((shard_dir / "worker.pid").read_text())
        assert pid_before == cluster.supervisor.pid(victim)

        cluster.supervisor.kill(victim)
        client.decide_idempotent(
            make_events(tenant=tenants[0], n=1)[0], seq=1
        )
        pid_after = int((shard_dir / "worker.pid").read_text())
        assert pid_after == cluster.supervisor.pid(victim)
        assert pid_after != pid_before
        url = (shard_dir / "worker.url").read_text().strip()
        assert json.load(
            urllib.request.urlopen(url + "/healthz")
        )["ok"]


class TestPersistentConnections:
    """Both hops keep their connections; a dead one is never reused."""

    def test_decides_reuse_one_connection_per_hop(self, tmp_path, monkeypatch):
        # The client connects through http.client, the router through its
        # connect helper: one client connection plus exactly one per shard.
        client_connects = []
        router_connects = []
        connect = http.client.HTTPConnection.connect
        router_connect = AuditCluster._connect

        def counting_connect(self):
            client_connects.append(self.port)
            return connect(self)

        async def counting_router_connect(self, url):
            router_connects.append(url)
            return await router_connect(self, url)

        monkeypatch.setattr(
            http.client.HTTPConnection, "connect", counting_connect
        )
        monkeypatch.setattr(AuditCluster, "_connect", counting_router_connect)
        with serve_cluster(
            workers=2, state_dir=tmp_path / "cluster"
        ).start_background() as cluster:
            with ReproClient.connect(cluster.url) as client:
                pinned = _pin_tenants(cluster)
                tenants = [names[0] for names in pinned.values()]
                streams = {}
                for tenant in tenants:
                    config = make_config(tenant=tenant)
                    client.open_session(config, make_history())
                    streams[tenant] = make_events(tenant=tenant, n=100)
                for index in range(100):
                    for tenant in tenants:
                        client.decide(streams[tenant][index], seq=index + 1)
            router_port = int(cluster.url.rsplit(":", 1)[1])
            worker_urls = [
                (cluster.shard_dir(worker) / "worker.url").read_text().strip()
                for worker in cluster.worker_ids
            ]
            assert client_connects == [router_port]
            assert sorted(router_connects) == sorted(worker_urls)

    def test_non_idempotent_ops_after_a_kill_match_the_twin(self, tmp_path):
        """The router held a connection to the killed worker; a request
        that is not retry-safe must still reach the revived one."""
        reference = AuditService()
        with serve_cluster(
            workers=2, state_dir=tmp_path / "cluster"
        ).start_background() as cluster, ReproClient.connect(
            cluster.url
        ) as client:
            tenants = _open_everywhere(cluster, client, reference)
            tenant = tenants[0]
            victim = cluster.owner_of(tenant)
            events = make_events(tenant=tenant, n=10)
            head, tail = events[:4], events[4:]
            assert list(client.submit(head)) == list(reference.submit(head))

            cluster.supervisor.kill(victim)
            assert _strip_wall(client.close_cycle(tenant)) == _strip_wall(
                reference.close_cycle(tenant)
            )
            cluster.supervisor.kill(victim)
            assert list(client.submit(tail)) == list(reference.submit(tail))
            assert cluster.supervisor.restarts(victim) == 2


class TestRouterNeverBlocks:
    """Forwards run on the router's event loop; what blocks — a hung
    worker, a revive holding the supervisor lock — stalls only the
    requests that wait on it."""

    def test_hung_worker_times_out_while_the_other_shard_answers(
        self, tmp_path
    ):
        timeout = 2.0
        with serve_cluster(
            workers=2, state_dir=tmp_path / "cluster", request_timeout=timeout
        ).start_background() as cluster, ReproClient.connect(
            cluster.url
        ) as client:
            pinned = _pin_tenants(cluster)
            hung_tenant, live_tenant = (names[0] for names in pinned.values())
            for tenant in (hung_tenant, live_tenant):
                client.open_session(make_config(tenant=tenant), make_history())
            hung_pid = cluster.supervisor.pid(cluster.owner_of(hung_tenant))
            outcome = {}

            def close_hung_cycle():
                started = time.monotonic()
                with ReproClient.connect(cluster.url) as other:
                    try:
                        other.close_cycle(hung_tenant)
                    except WorkerUnavailableError as exc:
                        outcome["error"] = exc
                outcome["elapsed"] = time.monotonic() - started

            os.kill(hung_pid, signal.SIGSTOP)
            try:
                closer = threading.Thread(target=close_hung_cycle)
                closer.start()
                time.sleep(0.2)  # the close_cycle is now waiting on the worker
                for seq, event in enumerate(
                    make_events(tenant=live_tenant, n=10), start=1
                ):
                    client.decide(event, seq=seq)
                assert closer.is_alive(), "decides waited for the hung worker"
                closer.join(timeout=30.0)
                assert not closer.is_alive()
            finally:
                os.kill(hung_pid, signal.SIGCONT)
            assert isinstance(outcome.get("error"), WorkerUnavailableError)
            assert timeout <= outcome["elapsed"] < timeout + 5.0

    def test_revive_of_one_shard_does_not_stall_the_other(
        self, tmp_path, monkeypatch
    ):
        reference = AuditService()
        with serve_cluster(
            workers=2, state_dir=tmp_path / "cluster"
        ).start_background() as cluster, ReproClient.connect(
            cluster.url
        ) as client:
            victim, live = cluster.worker_ids
            pinned = _pin_tenants(cluster, count_per_shard=2)
            # Table-mode tenants give the victim a deep WAL to replay.
            for tenant in pinned[victim]:
                config = make_config(tenant=tenant, budget=50.0, policy_table=True)
                for target in (client, reference):
                    target.open_session(config, make_history())
                for seq, event in enumerate(make_events(tenant=tenant), start=1):
                    lived, _ = client.decide_idempotent(event, seq=seq)
                    assert lived == reference.decide_idempotent(event, seq=seq)[0]
            live_tenant = pinned[live][0]
            client.open_session(make_config(tenant=live_tenant), make_history())

            # Hold the revive, with the supervisor's lock taken, until the
            # other shard has answered.
            reviving = threading.Event()
            release = threading.Event()
            revived = threading.Event()
            restart = cluster.supervisor._restart

            def held_restart(handle):
                reviving.set()
                release.wait(timeout=10.0)
                try:
                    return restart(handle)
                finally:
                    revived.set()

            monkeypatch.setattr(cluster.supervisor, "_restart", held_restart)
            victim_tenant = pinned[victim][0]
            next_event = make_events(tenant=victim_tenant, n=40)[-1]
            outcome = {}

            def decide_on_victim():
                with ReproClient.connect(cluster.url, timeout=120.0) as other:
                    outcome["decision"] = other.decide_idempotent(
                        next_event, seq=31
                    )

            cluster.supervisor.kill(victim)
            caller = threading.Thread(target=decide_on_victim)
            caller.start()
            try:
                assert reviving.wait(timeout=30.0)
                for seq, event in enumerate(
                    make_events(tenant=live_tenant, n=10), start=1
                ):
                    client.decide(event, seq=seq)
                assert not revived.is_set(), "the live shard waited for the revive"
            finally:
                release.set()
                caller.join(timeout=120.0)
            assert not caller.is_alive()
            assert outcome["decision"] == reference.decide_idempotent(
                next_event, seq=31
            )
            assert cluster.supervisor.restarts(victim) == 1
