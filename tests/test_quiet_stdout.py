"""The library writes nothing to standard output.

A program that embeds ``repro`` owns its standard output: the serving
benchmark's load generator, for one, prints its result as the last line
there. So the surface such a program drives in-process (a durable
service, the client over both transports, mapped ingestion and the hash
ring) must leave stdout empty, through interpreter exit.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SCRIPT = textwrap.dedent("""
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.api import ReproClient, serve_http
    from repro.api.client import InProcessTransport
    from repro.api.hashring import HashRing
    from repro.api.v1 import AlertEvent, AuditService, SessionConfig
    from repro.core.payoffs import PayoffMatrix
    from repro.ingest import (
        GeneratorConfig,
        MappedSource,
        foreign_mapping,
        generate_tables,
        small_population,
        write_dump,
    )

    pay = PayoffMatrix(u_dc=100.0, u_du=-400.0, u_ac=-2000.0, u_au=400.0)
    times = np.linspace(1000, 80000, 60)
    history = {1: [times.copy(), times.copy(), times.copy()]}
    modes = {
        "table": dict(policy_table=True),
        "cache": dict(cache_budget_step=0.5, cache_rate_step=1.0,
                      cache_error_budget=1e-6),
    }

    def config(tenant):
        return SessionConfig(tenant=tenant, budget=50.0, payoffs={1: pay},
                             costs={1: 1.0}, backend="analytic",
                             **modes[tenant])

    def events(tenant):
        return [
            AlertEvent(tenant=tenant, type_id=1, time_of_day=float(t),
                       event_id=index)
            for index, t in enumerate(np.linspace(1000, 80000, 12))
        ]

    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp) / "state"
        service = AuditService(state_dir=state)
        for tenant in modes:
            service.open_session(config(tenant), history)
            stream = events(tenant)
            for seq, event in enumerate(stream[:4], start=1):
                service.decide_idempotent(event, seq=seq)
            service.submit(stream[4:])
            service.close_cycle(tenant)
        restored = AuditService.restore(state)
        assert restored.stats().events == service.stats().events == 24

        for client in (
            ReproClient(InProcessTransport()),
            ReproClient(InProcessTransport(state_dir=Path(tmp) / "client")),
        ):
            client.open_session(config("table"), history)
            stream = events("table")
            client.decide_idempotent(stream[0], seq=1)
            client.submit(stream[1:])
            client.close_cycle("table")
            client.stats()
            client.close()

        with serve_http(AuditService()).start_background() as server:
            with ReproClient.connect(server.url) as client:
                client.open_session(config("cache"), history)
                client.decide_idempotent(events("cache")[0], seq=1)

        dump = Path(tmp) / "dump"
        write_dump(
            generate_tables(GeneratorConfig(
                seed=3, n_days=2, daily_accesses=300, daily_suspicious=20,
                population=small_population(),
            )),
            dump,
            mapping=foreign_mapping(),
        )
        assert MappedSource.open(dump).build_store().days

    ring = HashRing(["shard-0", "shard-1"])
    assert ring.with_worker("shard-2").owner("hospital-0") in (
        "shard-0", "shard-1", "shard-2"
    )
""")


def test_embedding_program_keeps_stdout():
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    path = os.pathsep.join(
        [source_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == ""
