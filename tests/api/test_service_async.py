"""The asyncio streaming path: determinism, backpressure, errors.

The PR-2 determinism contract extended to the serving layer: for a fixed
per-tenant event order, the async streaming interface must produce
decisions bit-identical to serial per-session runs — interleaving across
tenants, queue bounds, and concurrent streams never change a decision.
"""

import asyncio
import contextlib

import pytest

from repro.api.v1 import (
    AuditService,
    AuditSession,
    UnknownTenantError,
)
from apihelpers import make_config, make_events, make_history

SEEDS = {"a": 11, "b": 29, "c": 47}


def open_tenants(service, tenants):
    for tenant in tenants:
        service.open_session(
            make_config(tenant=tenant, seed=SEEDS[tenant]), make_history()
        )


def serial_reference(events):
    """Fresh per-tenant sessions, events decided strictly in order."""
    sessions = {}
    decisions = []
    for event in events:
        if event.tenant not in sessions:
            sessions[event.tenant] = AuditSession.open(
                make_config(tenant=event.tenant, seed=SEEDS[event.tenant]),
                make_history(),
            )
        decisions.append(sessions[event.tenant].decide(event))
    return tuple(decisions)


def interleaved(tenants, n=12):
    events = [e for t in tenants for e in make_events(tenant=t, n=n)]
    events.sort(key=lambda event: (event.time_of_day, event.tenant))
    return events


async def drain(service, events, **kwargs):
    decisions = []
    async for decision in service.stream(events, **kwargs):
        decisions.append(decision)
    return decisions


class TestStreamDeterminism:
    def test_stream_identical_to_serial_runs(self):
        events = interleaved(("a", "b"))
        reference = serial_reference(events)

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b"))
            return await drain(service, events)

        assert tuple(asyncio.run(go())) == reference

    def test_stream_identical_to_sync_submit(self):
        events = interleaved(("a", "b"))

        def submit():
            service = AuditService()
            open_tenants(service, ("a", "b"))
            return service.submit(events)

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b"))
            return await drain(service, events)

        assert tuple(asyncio.run(go())) == submit()

    def test_concurrent_streams_over_disjoint_tenants(self):
        """Two live streams (one service) cannot perturb each other."""
        events_ab = interleaved(("a", "b"))
        events_c = make_events(tenant="c", n=12)
        reference = serial_reference(events_ab) + serial_reference(events_c)

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b", "c"))
            got_ab, got_c = await asyncio.gather(
                drain(service, events_ab), drain(service, events_c)
            )
            return tuple(got_ab) + tuple(got_c)

        assert asyncio.run(go()) == reference

    def test_tight_backpressure_bound_changes_nothing(self):
        events = interleaved(("a", "b"))
        reference = serial_reference(events)

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b"))
            collected = []
            async for decision in service.stream(events, max_pending=1):
                # A deliberately slow consumer: the producer must block on
                # the full queue, not buffer ahead unboundedly.
                await asyncio.sleep(0)
                collected.append(decision)
            return collected

        assert tuple(asyncio.run(go())) == reference

    def test_async_event_source(self):
        events = interleaved(("a", "b"))
        reference = serial_reference(events)

        async def event_source():
            for event in events:
                await asyncio.sleep(0)
                yield event

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b"))
            return await drain(service, event_source())

        assert tuple(asyncio.run(go())) == reference


class TestStreamFailureModes:
    def test_unknown_tenant_propagates_mid_stream(self):
        events = make_events(tenant="a", n=3) + make_events(tenant="ghost", n=1)

        async def go():
            service = AuditService()
            open_tenants(service, ("a",))
            collected = []
            async for decision in service.stream(events):
                collected.append(decision)
            return collected

        with pytest.raises(UnknownTenantError):
            asyncio.run(go())

    def test_consumer_can_break_early(self):
        events = interleaved(("a", "b"))

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b"))
            collected = []
            async for decision in service.stream(events, max_pending=2):
                collected.append(decision)
                if len(collected) == 5:
                    break
            return collected

        assert len(asyncio.run(go())) == 5

    def test_invalid_max_pending(self):
        async def go():
            service = AuditService()
            async for _ in service.stream([], max_pending=0):
                pass

        # A programming error, not an API condition: plain ValueError.
        with pytest.raises(ValueError):
            asyncio.run(go())


class TestStreamCancellation:
    """Cancelling a consumer mid-stream must not leak the backpressure
    machinery or corrupt per-tenant session state (follow-up to the
    async-equivalence contract)."""

    def test_closing_the_stream_cancels_the_producer(self):
        events = interleaved(("a", "b"))

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b"))
            before = asyncio.all_tasks()
            stream = service.stream(events, max_pending=2)
            collected = []
            async for decision in stream:
                collected.append(decision)
                if len(collected) == 4:
                    break
            await stream.aclose()
            # The producer task must be gone: nothing beyond the tasks
            # that existed before the stream opened is still pending.
            leaked = {
                task for task in asyncio.all_tasks() - before if not task.done()
            }
            return collected, leaked

        collected, leaked = asyncio.run(go())
        assert len(collected) == 4
        assert leaked == set()

    def test_cancelled_consumer_task_leaves_no_pending_tasks(self):
        events = interleaved(("a", "b"))

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b"))

            started = asyncio.Event()

            async def consume():
                async for _ in service.stream(events, max_pending=1):
                    started.set()
                    await asyncio.sleep(3600)  # a stalled consumer

            consumer = asyncio.create_task(consume())
            await started.wait()
            consumer.cancel()
            with pytest.raises(asyncio.CancelledError):
                await consumer
            # Let the generator's finally block finish cancelling the
            # producer, then ensure nothing is left running.
            remaining = {
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            }
            if remaining:
                done, pending = await asyncio.wait(remaining, timeout=1.0)
                return pending
            return set()

        assert asyncio.run(go()) == set()

    def test_cancel_with_producer_parked_on_full_queue_does_not_hang(self):
        """One decision consumed, one buffered, a third decided: the
        producer is parked on the full queue when the consumer is
        cancelled, and the cancellation must end it rather than park it
        again handing the error to a consumer that is gone."""
        events = interleaved(("a", "b"))

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b"))
            before = asyncio.all_tasks()
            received = asyncio.Event()

            async def consume():
                stream = service.stream(events, max_pending=1)
                async with contextlib.aclosing(stream):
                    async for _ in stream:
                        received.set()
                        await asyncio.sleep(3600)  # a stalled consumer

            consumer = asyncio.create_task(consume())
            await asyncio.wait_for(received.wait(), timeout=5.0)
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while service.stats().events < 3 and loop.time() < deadline:
                await asyncio.sleep(0.001)
            decided = service.stats().events
            consumer.cancel()
            await asyncio.wait({consumer}, timeout=5.0)
            leaked = {
                task for task in asyncio.all_tasks() - before if not task.done()
            }
            return decided, consumer.cancelled(), leaked

        decided, cancelled, leaked = asyncio.run(go())
        assert decided == 3
        assert cancelled
        assert leaked == set()

    def test_session_state_survives_cancellation(self):
        """A cancelled stream leaves every session consistent: counters
        reconcile with what actually landed, and later events on the same
        tenants are decided normally."""
        events = interleaved(("a", "b"))

        async def go():
            service = AuditService()
            open_tenants(service, ("a", "b"))
            stream = service.stream(events, max_pending=2)
            collected = []
            async for decision in stream:
                collected.append(decision)
                if len(collected) == 5:
                    break
            await stream.aclose()
            return service, collected

        service, collected = asyncio.run(go())
        landed = service.stats().events
        # Everything the consumer saw landed; a few more may have been
        # decided into the (bounded) queue before the cancellation.
        assert len(collected) <= landed <= len(collected) + 2 + 1

        for tenant in ("a", "b"):
            session = service.session(tenant)
            report = session.report()
            assert report.state == "open"
            assert report.sse_solves + report.cache_hits == report.events
            # The tenant still serves fresh (chronologically later) events.
            late = make_events(tenant=tenant, n=1)[0]
            late = type(late)(
                tenant=tenant, type_id=1, time_of_day=86000.0, event_id=999
            )
            decision = session.decide(late)
            assert decision.tenant == tenant
        assert service.stats().events == landed + 2
