"""The long-lived multi-tenant serving front end.

:class:`AuditService` routes :class:`AlertEvent` payloads to per-tenant
:class:`AuditSession` objects and offers three decision interfaces:

* :meth:`AuditService.decide` — one event, one decision (request/response);
* :meth:`AuditService.submit` — the synchronous hot path: each tenant's
  events form one engine-stream batch (however interleaved they arrive),
  same-config tenants share one stacked closed-form OSSP pass, and
  decisions return in input order;
* :meth:`AuditService.stream` — an ``asyncio`` generator
  (``async for decision in service.stream(events)``) with bounded
  backpressure: a producer task decides events off the event loop while
  the consumer drains a size-capped queue, so a slow consumer throttles
  the producer instead of buffering unboundedly.

Every interface runs the identical per-alert pipeline, so for a fixed
per-tenant event order all three produce bit-identical decisions — the
contract the async-equivalence tests pin down.

The module also owns the error-code mapping: :func:`error_code` projects
the whole :class:`~repro.errors.ReproError` hierarchy onto the stable
string codes the v1 API promises (table in ``docs/api.md``).
"""

from __future__ import annotations

import asyncio
import urllib.parse
from collections.abc import AsyncIterable, Iterable, Sequence
from pathlib import Path
from typing import Any, AsyncIterator, Union

from repro import errors
from repro.errors import DataError, SessionStateError, UnknownTenantError
from repro.api.v1.session import AuditSession, History, open_scenario, open_source
from repro.api.v1.types import (
    SESSION_OPEN,
    AlertEvent,
    CycleReport,
    ServiceStats,
    SessionConfig,
    SessionStats,
    SignalDecision,
)

#: Stable API error codes, most specific class first. ``ApiError``
#: subclasses carry their own ``code`` attribute; everything else in the
#: ``ReproError`` hierarchy maps through this table.
ERROR_CODES: tuple[tuple[type[BaseException], str], ...] = (
    (errors.InfeasibleProblemError, "solver_infeasible"),
    (errors.UnboundedProblemError, "solver_unbounded"),
    (errors.SolverConvergenceError, "solver_convergence"),
    (errors.SolverError, "solver_error"),
    (errors.PayoffError, "model_payoff"),
    (errors.BudgetError, "model_budget"),
    (errors.ModelError, "model_invalid"),
    (errors.EstimationError, "estimation_failed"),
    (errors.QueryError, "data_query"),
    (errors.DataError, "data_invalid"),
    (errors.ExperimentError, "experiment_invalid"),
    (errors.ReproError, "internal"),
)

#: Code reported for exceptions outside the ``ReproError`` hierarchy.
UNHANDLED_CODE = "unhandled"


def error_code(exc: BaseException) -> str:
    """The stable v1 API code for any exception.

    ``ApiError`` subclasses carry their code directly; other
    ``ReproError`` subclasses map by most-specific match in
    :data:`ERROR_CODES`; anything else is :data:`UNHANDLED_CODE`. Codes
    are part of the versioned contract — clients dispatch on them, never
    on Python class names.
    """
    if isinstance(exc, errors.ApiError):
        return exc.code
    for klass, code in ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return UNHANDLED_CODE


#: Event sources the async interface accepts.
EventSource = Union[Iterable[AlertEvent], AsyncIterable[AlertEvent]]

#: Default bound on decisions buffered ahead of a slow stream consumer.
DEFAULT_MAX_PENDING = 64

#: Agreement bound for the stacked cross-tenant OSSP re-derivation in
#: :meth:`AuditService.submit`. Cache-path decisions match the stacked
#: closed form bit for bit; the compiled-table fast loop reaches the
#: attacker utility via ``U_au + theta*(U_ac - U_au)`` instead of
#: ``theta*U_ac + (1-theta)*U_au`` — algebraically equal, a few ulps
#: apart — so the gate allows that rounding and nothing more.
_STACKED_OSSP_TOL = 1e-9

#: Queue sentinel marking the end of a stream.
_DONE = object()


class AuditService:
    """Routes events from many organizations to their audit sessions.

    One service instance is the intended long-lived process-level object:
    sessions open and close under it, and :meth:`stats` keeps aggregating
    retired tenants alongside live ones.

    With a ``state_dir`` the service is **durable**: session-opening
    configs (with training history), every decided event, and every cycle
    boundary append to a per-tenant write-ahead log
    (:class:`~repro.logstore.wal.WriteAheadLog`) under that directory, and
    :meth:`restore` rebuilds the exact service state — game state, budget
    ledgers, cycle counters, and the seeded randomness streams — by
    deterministic replay after a crash. ``fsync=True`` additionally forces
    every append to disk before acknowledging.
    """

    def __init__(
        self,
        state_dir: str | Path | None = None,
        fsync: bool = False,
    ) -> None:
        from repro.api.protocol import SequenceTracker

        self._sessions: dict[str, AuditSession] = {}
        self._retired: list[SessionStats] = []
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._fsync = fsync
        self._wals: dict[str, Any] = {}
        self._tracker = SequenceTracker()
        self._replaying = False
        self._truncated: tuple[str, ...] = ()
        if self._state_dir is not None:
            self._state_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        """Whether this service journals to a write-ahead log."""
        return self._state_dir is not None

    @property
    def state_dir(self) -> Path | None:
        """The write-ahead-log directory (None when not durable)."""
        return self._state_dir

    @property
    def recovered_truncated(self) -> tuple[str, ...]:
        """Tenants whose WAL ended in a torn record at :meth:`restore`."""
        return self._truncated

    def _wal(self, tenant: str):
        from repro.logstore.wal import WAL_SUFFIX, WriteAheadLog

        if tenant not in self._wals:
            name = urllib.parse.quote(tenant, safe="") + WAL_SUFFIX
            self._wals[tenant] = WriteAheadLog(
                self._state_dir / name, fsync=self._fsync
            )
        return self._wals[tenant]

    @property
    def _journaling(self) -> bool:
        """Whether operations should append to the WAL right now.

        Hot call sites check this before building record payloads, so a
        non-durable service never pays per-event serialization cost.
        """
        return self._state_dir is not None and not self._replaying

    def _journal(self, tenant: str, kind: str, payload: dict) -> None:
        if not self._journaling:
            return
        try:
            self._wal(tenant).append(kind, payload)
        except OSError as exc:
            self._quarantine(tenant, exc)

    def _quarantine(self, tenant: str, exc: OSError) -> None:
        """Retire a session whose WAL can no longer be appended to.

        A decision that processed but could not be journaled must not
        keep serving: later journaled records would replay against a log
        missing one event and :meth:`restore` would refuse the divergence.
        Closing the session keeps the on-disk log exactly replayable —
        the unjournaled decision is simply never acknowledged, like a
        crash between processing and append.
        """
        wal = self._wals.pop(tenant, None)
        if wal is not None:
            try:
                wal.close()
            except OSError:
                pass
        session = self._sessions.pop(tenant, None)
        if session is not None and session.state == SESSION_OPEN:
            self._retired.append(session.close())
        self._tracker.forget(tenant)
        raise DataError(
            f"tenant {tenant!r}: write-ahead log append failed; the "
            f"session was quarantined to keep the log replayable "
            f"(restore {self._state_dir} to resume): {exc}"
        ) from exc

    @staticmethod
    def _history_payload(history: History) -> dict[str, list[list[float]]]:
        from repro.api.protocol import encode_history

        return encode_history(history)

    def snapshot(self) -> dict[str, Any]:
        """Flush the write-ahead logs and describe the durable state.

        Returns a JSON-compatible manifest of every open session's
        position (cycle, events, budget) plus retired-tenant counts. The
        WAL itself *is* the snapshot — every acknowledged operation is
        already on disk — so this is a flush + inventory, cheap enough to
        call per request.
        """
        if self._state_dir is None:
            raise SessionStateError(
                "snapshot() requires a durable service (pass state_dir=...)"
            )
        for wal in self._wals.values():
            wal.flush()
        from repro.api.protocol import PROTOCOL_VERSION

        return {
            "protocol": PROTOCOL_VERSION,
            "state_dir": str(self._state_dir),
            "retired": len(self._retired),
            "tenants": {
                tenant: {
                    "state": session.state,
                    "cycle": session.cycle,
                    "events": session.report().events,
                    "budget_remaining": session.budget_remaining,
                }
                for tenant, session in self._sessions.items()
            },
        }

    @classmethod
    def restore(
        cls, state_dir: str | Path, fsync: bool = False
    ) -> "AuditService":
        """Rebuild a durable service from its write-ahead logs.

        Replays every tenant's log through the normal pipeline: sessions
        re-open from their journaled config + training history, decided
        events re-run through the engine (the session seed makes replay
        bit-identical — a divergence raises :class:`DataError`), cycle
        boundaries re-close, and the idempotency index is re-seeded so
        in-flight client retries still answer from the recorded decision.
        A torn final record (crash mid-append) is dropped; the affected
        tenants are listed in :attr:`recovered_truncated`.
        """
        from repro.logstore.wal import WAL_SUFFIX, scan_records

        service = cls(state_dir=state_dir, fsync=fsync)
        service._replaying = True
        truncated: list[str] = []
        try:
            for path in sorted(service._state_dir.glob(f"*{WAL_SUFFIX}")):
                tenant = urllib.parse.unquote(path.name[: -len(WAL_SUFFIX)])
                records, torn = scan_records(path)
                if torn:
                    truncated.append(tenant)
                for record in records:
                    service._replay(tenant, record)
        finally:
            service._replaying = False
        service._truncated = tuple(truncated)
        return service

    def _replay(self, tenant: str, record) -> None:
        payload = record.payload
        if record.kind == "open":
            from repro.api.protocol import decode_history

            config = SessionConfig.from_dict(payload["config"])
            self.open_session(config, decode_history(payload["history"]))
        elif record.kind == "observe":
            self.observe(AlertEvent.from_dict(payload["event"]))
        elif record.kind == "decision":
            event = AlertEvent.from_dict(payload["event"])
            decision = self.session(event.tenant).decide(event)
            self._verify_replay(tenant, payload["decision"], decision)
            self._tracker.record(
                event.tenant,
                decision,
                seq=payload.get("seq"),
                key=payload.get("key"),
            )
        elif record.kind == "submit":
            events = tuple(
                AlertEvent.from_dict(entry) for entry in payload["events"]
            )
            decisions = self.submit(events)
            for recorded, decision in zip(payload["decisions"], decisions):
                self._verify_replay(tenant, recorded, decision)
        elif record.kind == "close_cycle":
            self.close_cycle(tenant)
        elif record.kind == "close":
            self.close_session(tenant)
        else:
            raise DataError(
                f"tenant {tenant!r}: unknown WAL record kind {record.kind!r}"
            )

    @staticmethod
    def _verify_replay(
        tenant: str, recorded: dict, decision: SignalDecision
    ) -> None:
        if decision.to_dict() != recorded:
            raise DataError(
                f"tenant {tenant!r}: WAL replay diverged from the recorded "
                f"decision at cycle {recorded.get('cycle')} sequence "
                f"{recorded.get('sequence')} — the log does not match this "
                "build's deterministic pipeline"
            )

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------

    def open_session(self, config: SessionConfig, history: History) -> AuditSession:
        """Open (and register) a session for ``config.tenant``."""
        if config.tenant in self._sessions:
            raise SessionStateError(
                f"tenant {config.tenant!r} already has an open session"
            )
        session = AuditSession.open(config, history)
        self._sessions[config.tenant] = session
        self._journal(config.tenant, "open", {
            "config": config.to_dict(),
            "history": self._history_payload(session.training_history),
        })
        return session

    def open_scenario(self, spec) -> tuple[AuditSession, tuple[AlertEvent, ...]]:
        """Open a session for a scenario; returns it plus its test-day events."""
        if spec.name in self._sessions:
            raise SessionStateError(
                f"tenant {spec.name!r} already has an open session"
            )
        session, events = open_scenario(spec)
        self._sessions[session.tenant] = session
        # Journal the resolved config + history (not the spec), so replay
        # never rebuilds the scenario world: restore is deterministic even
        # if scenario presets change between runs.
        self._journal(session.tenant, "open", {
            "config": session.config.to_dict(),
            "history": self._history_payload(session.training_history),
        })
        return session, events

    def open_source(self, spec, source) -> tuple[AuditSession, tuple[AlertEvent, ...]]:
        """Open a session over a live alert source (see :func:`open_source`).

        The spec supplies the game configuration and tenant name; the
        :class:`~repro.ingest.source.AlertSource` supplies the alert log.
        Journaled exactly like :meth:`open_scenario` — the resolved config
        and history, never the source — so durable restore replays the
        session without re-ingesting anything.
        """
        if spec.name in self._sessions:
            raise SessionStateError(
                f"tenant {spec.name!r} already has an open session"
            )
        session, events = open_source(spec, source)
        self._sessions[session.tenant] = session
        self._journal(session.tenant, "open", {
            "config": session.config.to_dict(),
            "history": self._history_payload(session.training_history),
        })
        return session, events

    def session(self, tenant: str) -> AuditSession:
        """The open session serving ``tenant``."""
        try:
            return self._sessions[tenant]
        except KeyError:
            raise UnknownTenantError(
                f"no open session for tenant {tenant!r}"
            ) from None

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenants with an open session, in registration order."""
        return tuple(self._sessions)

    def close_session(self, tenant: str) -> SessionStats:
        """Close and unregister ``tenant``'s session (stats are retained)."""
        stats = self.session(tenant).close()
        del self._sessions[tenant]
        self._retired.append(stats)
        self._journal(tenant, "close", {})
        self._tracker.forget(tenant)
        wal = self._wals.pop(tenant, None)
        if wal is not None:
            wal.close()
        return stats

    def close_cycle(self, tenant: str) -> CycleReport:
        """End ``tenant``'s audit cycle (journaled on durable services).

        The service-level twin of :meth:`AuditSession.close_cycle`:
        durable deployments must route cycle boundaries through here so
        :meth:`restore` replays them in order.
        """
        report = self.session(tenant).close_cycle()
        self._journal(tenant, "close_cycle", {"cycle": report.cycle})
        return report

    def close(self) -> ServiceStats:
        """Close every open session and return the final aggregate."""
        for tenant in list(self._sessions):
            self.close_session(tenant)
        return self.stats()

    # ------------------------------------------------------------------
    # Decision interfaces
    # ------------------------------------------------------------------

    def decide(self, event: AlertEvent) -> SignalDecision:
        """Route one event to its tenant's session and decide it."""
        decision = self.session(event.tenant).decide(event)
        if self._journaling:
            self._journal(event.tenant, "decision", {
                "event": event.to_dict(), "decision": decision.to_dict(),
            })
        return decision

    def decide_idempotent(
        self,
        event: AlertEvent,
        seq: int | None = None,
        idempotency_key: str | None = None,
    ) -> tuple[SignalDecision, bool]:
        """Decide one event at most once per ``(tenant, seq)`` / key.

        Returns ``(decision, replayed)``. A sequence or key already
        recorded for the tenant answers from the recorded decision
        without touching the session — no budget re-charge, no advanced
        randomness — which makes client retries safe (the wire
        idempotency contract; see :class:`repro.api.protocol.Request`).
        Sequence numbers must be strictly monotonic per tenant.
        """
        recorded = self._tracker.lookup(
            event.tenant, seq=seq, key=idempotency_key
        )
        if recorded is not None:
            return recorded, True
        decision = self.session(event.tenant).decide(event)
        if self._journaling:
            payload = {
                "event": event.to_dict(), "decision": decision.to_dict(),
            }
            if seq is not None:
                payload["seq"] = seq
            if idempotency_key is not None:
                payload["key"] = idempotency_key
            # Journal before recording the idempotency entry: a decision
            # must never be replayable from the tracker without being on
            # disk.
            self._journal(event.tenant, "decision", payload)
        self._tracker.record(
            event.tenant, decision, seq=seq, key=idempotency_key
        )
        return decision, False

    def observe(self, event: AlertEvent) -> None:
        """Route one background event (no decision payload built)."""
        self.session(event.tenant).observe(event)
        if self._journaling:
            self._journal(event.tenant, "observe", {"event": event.to_dict()})

    def submit(self, events: Sequence[AlertEvent]) -> tuple[SignalDecision, ...]:
        """The hot path: decide many events, batched per tenant then stacked.

        *All* events of one tenant form a single engine-stream batch —
        interleaved round-robin traffic no longer degrades to per-event
        batches, which is where the old consecutive-run grouping lost an
        order of magnitude. Per-tenant event order is preserved, so each
        tenant's decisions are bit-identical to calling :meth:`decide`
        event by event; decisions come back in input order, and one WAL
        record journals per tenant group.

        After the per-tenant sequential passes land, tenants whose
        sessions share a payoff configuration are stacked: one
        :func:`~repro.engine.stream.batch_closed_form_ossp` evaluation
        over the concatenated marginals re-derives every applied OSSP
        value in a single NumPy pass per alert type, and each tenant's
        slice is fanned back against its recorded decisions (the engine's
        per-cycle vectorized cross-check, run once for the whole
        submission instead of once per tenant — see
        :meth:`_stacked_ossp_check`).

        The whole submission is validated before any event is processed
        (every tenant resolved, every per-tenant subsequence checked by
        :meth:`AuditSession.validate_events`), so a malformed submission
        is rejected atomically — no session is left with a half-committed
        budget or advanced randomness. A *solver* failure mid-submission
        is not rolled back: tenant groups decided earlier (first-appearance
        order) stay committed and the error propagates.
        """
        if not events:
            return ()
        per_tenant: dict[str, list[AlertEvent]] = {}
        slots: dict[str, list[int]] = {}
        for index, event in enumerate(events):
            per_tenant.setdefault(event.tenant, []).append(event)
            slots.setdefault(event.tenant, []).append(index)
        for tenant, group in per_tenant.items():
            self.session(tenant).validate_events(group)

        decisions: list[SignalDecision | None] = [None] * len(events)
        landed: list[tuple[str, AuditSession, Any]] = []
        for tenant, group in per_tenant.items():
            # Validation already covered the full per-tenant sequences, so
            # groups go straight to the engine without a second walk. Each
            # group journals as one WAL record the moment it lands, so a
            # solver failure in a later tenant's group never loses
            # committed groups on replay.
            session = self.session(tenant)
            wrapped, result = session._decide_batch_stream(
                group, batched_ossp=False
            )
            for slot, decision in zip(slots[tenant], wrapped):
                decisions[slot] = decision
            if self._journaling:
                self._journal(tenant, "submit", {
                    "events": [event.to_dict() for event in group],
                    "decisions": [decision.to_dict() for decision in wrapped],
                })
            landed.append((tenant, session, result))
        self._stacked_ossp_check(landed)
        return tuple(decisions)

    def _stacked_ossp_check(
        self, landed: Sequence[tuple[str, AuditSession, Any]]
    ) -> None:
        """One stacked closed-form OSSP pass across same-config tenants.

        Groups the submission's tenants by payoff configuration, evaluates
        the Theorem-3 closed form over the *stacked* marginals — one
        :func:`~repro.engine.stream.batch_closed_form_ossp` call per alert
        type per configuration, covering every tenant in the group — and
        fans each tenant's slice back against its recorded decisions. The
        stacked derivation is bit-identical to the sequential solve path
        (the expressions match term for term; pinned by tests); the
        compiled-table pipeline reaches the attacker utility through an
        algebraically equal but differently associated expression, hence
        the few-ulp tolerance. A divergence beyond it means the
        sequential pipeline and the vectorized closed form disagree — a
        correctness failure surfaced as :class:`DataError` naming the
        tenant, before the submission is acknowledged.
        """
        import numpy as np

        from repro.engine.stream import batch_closed_form_ossp

        groups: dict[tuple, list[tuple[str, Any]]] = {}
        for tenant, session, result in landed:
            config = session.config
            if (
                result is None
                or not config.signaling_enabled
                or config.robust_margin > 0
                or config.signaling_method != "closed_form"
            ):
                continue
            signature = tuple(
                (type_id, p.u_dc, p.u_du, p.u_ac, p.u_au)
                for type_id, p in sorted(config.payoffs.items())
            )
            groups.setdefault(signature, []).append((tenant, result))

        for members in groups.values():
            payoffs = None
            for tenant, _result in members:
                payoffs = self.session(tenant).config.payoffs
                break
            type_ids = np.concatenate([r.type_ids for _, r in members])
            thetas = np.concatenate([r.thetas for _, r in members])
            recorded = np.concatenate([r.ossp_utilities for _, r in members])
            applied = np.concatenate([
                np.fromiter(
                    (d.signaling_applied for d in r.decisions),
                    dtype=bool,
                    count=len(r.decisions),
                )
                for _, r in members
            ])
            stacked = recorded.copy()
            for type_id in np.unique(type_ids):
                payoff = payoffs[int(type_id)]
                if not payoff.satisfies_theorem3_condition():
                    continue
                mask = (type_ids == type_id) & applied
                if not np.any(mask):
                    continue
                _p1, _q1, p0, q0 = batch_closed_form_ossp(thetas[mask], payoff)
                stacked[mask] = p0 * payoff.u_dc + q0 * payoff.u_du
            gaps = np.abs(stacked - recorded)
            worst = int(np.argmax(gaps)) if gaps.size else 0
            if gaps.size and gaps[worst] > _STACKED_OSSP_TOL:
                sizes = [r.type_ids.size for _, r in members]
                offsets = np.cumsum([0] + sizes)
                slot = int(np.searchsorted(offsets, worst, side="right") - 1)
                tenant = members[slot][0]
                raise DataError(
                    f"tenant {tenant!r}: stacked closed-form OSSP diverged "
                    f"from the sequential pipeline by "
                    f"{float(gaps[worst]):.3e} (> {_STACKED_OSSP_TOL:.0e}) "
                    "— submission refused"
                )

    async def stream(
        self,
        events: EventSource,
        max_pending: int = DEFAULT_MAX_PENDING,
    ) -> AsyncIterator[SignalDecision]:
        """Decide an event stream asynchronously, with bounded backpressure.

        ``events`` may be any (a)synchronous iterable of
        :class:`AlertEvent`. Decisions are computed in arrival order on a
        worker thread (``asyncio.to_thread``), so the event loop stays
        responsive and per-tenant determinism is preserved; at most
        ``max_pending`` decisions are buffered ahead of the consumer —
        when the buffer is full the producer blocks instead of growing it.
        Concurrent ``stream`` calls are safe as long as no tenant appears
        in more than one live stream (sessions are not thread-safe).
        """
        if max_pending < 1:
            # A plain programming error, not an API-contract condition —
            # deliberately outside the stable error-code table.
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        queue: asyncio.Queue = asyncio.Queue(maxsize=max_pending)

        async def produce() -> None:
            try:
                async for event in _ensure_async(events):
                    decision = await asyncio.to_thread(self.decide, event)
                    await queue.put(decision)
            except asyncio.CancelledError:
                # The consumer is gone: nothing will drain a full queue.
                raise
            except BaseException as exc:  # propagated to the consumer
                await queue.put(exc)
            else:
                await queue.put(_DONE)

        producer = asyncio.create_task(produce())
        try:
            while True:
                item = await queue.get()
                if item is _DONE:
                    break
                if isinstance(item, BaseException):
                    raise item
                yield item
            await producer
        finally:
            if not producer.done():
                producer.cancel()
                try:
                    await producer
                except asyncio.CancelledError:
                    pass

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Service-wide aggregate: open sessions plus retired ones."""
        snapshots = tuple(
            session.report() for session in self._sessions.values()
        ) + tuple(self._retired)
        return ServiceStats.from_sessions(snapshots)


async def _ensure_async(events: EventSource) -> AsyncIterator[AlertEvent]:
    """Adapt a sync or async event source into one async iterator."""
    if isinstance(events, AsyncIterable):
        async for event in events:
            yield event
    else:
        for event in events:
            yield event
            # Let the consumer run between purely synchronous events.
            await asyncio.sleep(0)


__all__ = [
    "AuditService",
    "DEFAULT_MAX_PENDING",
    "ERROR_CODES",
    "UNHANDLED_CODE",
    "error_code",
]
