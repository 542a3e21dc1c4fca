"""Async event broker: per-run FIFO mailboxes with admission control.

Events of a hosted run are applied in a total order, one at a time,
against its current instance — the paper's run semantics.  A submit to
an idle run (nothing queued, nothing in flight, no fault plan) is
applied in the submitting task, with no ``await`` between the idleness
check and the outcome, so nothing can interleave with it.  Events that
must wait — behind a busy run, in a retry's backoff, through crash
recovery under a fault plan, or in a ``submit_many`` batch — go
through a bounded per-run mailbox drained by a single worker task,
created the first time one of the run's events must wait.  Distinct
runs progress concurrently — the asyncio analogue of a shard-per-core
event loop.

Admission control happens *before* an event is applied or enqueued, so
an overloaded or budget-exhausted service answers immediately instead
of buffering unboundedly:

* **backpressure** — a full mailbox rejects the event with
  ``rejected_backpressure`` (the client retries; nothing was applied);
* **budget** — an exhausted :class:`~repro.runtime.budget.Budget`
  (wall-clock or step cap over the whole service) rejects with
  ``rejected_budget``.

Application reuses the supervisor's resilience semantics
(:mod:`repro.runtime.supervisor`): transient faults are retried with
exponential backoff (async sleeps — the loop keeps serving other runs
while one backs off), deterministic rejections are quarantined with a
journaled diagnostic after bounded retries, and an injected
:class:`~repro.runtime.faults.CrashFault` kills the hosted run's
in-memory state, which is then recovered from its journal before the
event is retried — the full crash/recover/resume story, inline in the
serving path.
"""

from __future__ import annotations

import asyncio
import dataclasses
import weakref
import zlib
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple as PyTuple

from ..obs.metrics import METRICS
from ..runtime.budget import Budget
from ..runtime.faults import (
    CrashFault,
    DiskFault,
    FaultInjector,
    FaultPlan,
    TransientFault,
)
from ..runtime.supervisor import POISON_ERRORS, RetryPolicy
from ..workflow.events import Event
from .errors import ServiceError, UnknownRunError
from .registry import HostedRun, ShardedRunRegistry

__all__ = ["EventBroker", "SubmitOutcome"]

#: Submission statuses reported to clients.
APPLIED = "applied"
QUARANTINED = "quarantined"
REJECTED_BACKPRESSURE = "rejected_backpressure"
REJECTED_BUDGET = "rejected_budget"

_SUBMISSIONS = METRICS.counter(
    "repro_broker_submissions_total",
    "Event submissions resolved by the broker, by status",
    labelnames=("status",),
)
#: Each status's child, resolved once instead of per submission.
_RESOLVED = {
    status: _SUBMISSIONS.labels(status=status)
    for status in (APPLIED, QUARANTINED, REJECTED_BACKPRESSURE, REJECTED_BUDGET)
}
_BROKER_RETRIES = METRICS.counter(
    "repro_broker_retries_total",
    "Event applications retried by broker workers",
)
_BROKER_RECOVERIES = METRICS.counter(
    "repro_broker_crash_recoveries_total",
    "Crash/recover cycles performed while an event was in flight",
)
_BROKER_DISK_FAULTS = METRICS.counter(
    "repro_broker_disk_faults_total",
    "Storage disk faults absorbed (retried or quarantined) by workers",
)

#: Live brokers, tracked weakly for the mailbox-depth gauge.
_live_brokers: "weakref.WeakSet[EventBroker]" = weakref.WeakSet()


def _collect_broker_gauges(metrics) -> None:
    gauge = metrics.gauge(
        "repro_broker_queued_events",
        "Events waiting in per-run mailboxes, summed over live brokers",
    )
    gauge.set(
        sum(
            mailbox.queue.qsize()
            for broker in _live_brokers
            for mailbox in broker._mailboxes.values()
        )
    )


METRICS.register_collector(_collect_broker_gauges)


@dataclass(frozen=True)
class SubmitOutcome:
    """The broker's verdict on one submitted event.

    ``seq`` is the event's position in the run when applied (-1
    otherwise); ``attempts`` counts application attempts including
    retries; ``recovered`` flags that a crash/recovery happened while
    this event was in flight.
    """

    run_id: str
    status: str
    seq: int = -1
    attempts: int = 0
    reason: Optional[str] = None
    recovered: bool = False
    #: True when the event's ``expected_seq`` idempotency key showed it
    #: was already applied, so the ack was repeated without re-applying.
    deduped: bool = False
    #: The acting peer's view version immediately after this event
    #: applied — captured at commit time so batched drains report the
    #: same per-event versions a one-at-a-time drain would.
    version: Optional[int] = None

    @property
    def applied(self) -> bool:
        return self.status == APPLIED

    @property
    def rejected(self) -> bool:
        return self.status in (REJECTED_BACKPRESSURE, REJECTED_BUDGET)


class _Pending(NamedTuple):
    """A queued submission awaiting the run's worker."""

    event: Event
    expected_seq: Optional[int]
    future: asyncio.Future
    #: Attempts already made in the submitting task (0 or 1): the
    #: worker backs off from the last of them and continues after it.
    attempts: int = 0


@dataclass
class _Mailbox:
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    worker: Optional[asyncio.Task] = None
    #: Nonzero while the worker is applying dequeued events (quiesce
    #: must wait for them: in flight but no longer in the queue).
    in_flight: int = 0
    #: Set while the queue is empty and nothing is in flight, so
    #: quiesce can wait for a drain without polling.
    idle: asyncio.Event = field(default_factory=asyncio.Event)

    def put(self, item: _Pending) -> None:
        self.queue.put_nowait(item)
        self.idle.clear()


class EventBroker:
    """Admission control + per-run ordered application over a registry."""

    def __init__(
        self,
        registry: ShardedRunRegistry,
        queue_capacity: int = 64,
        retry: Optional[RetryPolicy] = None,
        budget: Optional[Budget] = None,
        fault_plan: Optional[FaultPlan] = None,
        batch_size: int = 1,
    ) -> None:
        if queue_capacity < 1:
            raise ServiceError("mailbox capacity must be at least 1")
        if batch_size < 1:
            raise ServiceError("batch size must be at least 1")
        self.registry = registry
        self.queue_capacity = queue_capacity
        self.batch_size = batch_size
        self.retry = retry if retry is not None else RetryPolicy(initial_backoff=0.001)
        self.budget = budget
        self.fault_plan = fault_plan
        # One injector per run: the injector's attempt/crash bookkeeping
        # is per submission index, so sharing one across runs would let
        # run A's crash at index i suppress run B's.  The per-run seed
        # keeps schedules deterministic yet varied across runs.
        self._injectors: Dict[str, FaultInjector] = {}
        self._mailboxes: Dict[str, _Mailbox] = {}
        self.counters: Dict[str, int] = {
            APPLIED: 0,
            QUARANTINED: 0,
            REJECTED_BACKPRESSURE: 0,
            REJECTED_BUDGET: 0,
            "retries": 0,
            "crash_recoveries": 0,
            "disk_faults": 0,
        }
        _live_brokers.add(self)

    # ------------------------------------------------------------------
    # Submission (the client-facing edge)
    # ------------------------------------------------------------------

    async def submit(
        self, run_id: str, event: Event, expected_seq: Optional[int] = None
    ) -> SubmitOutcome:
        """Submit one event to *run_id* and await its outcome.

        FIFO per run: outcomes resolve in submission order.  Concurrent
        submitters interleave at the mailbox, but each submitter's own
        awaited submissions keep their relative order.

        When the run is idle and no fault plan is set, the event is
        applied right here, without an ``await`` between the idleness
        check and the outcome; its first failed attempt hands it to
        the run's worker, which backs off and continues at attempt 2.
        Otherwise it queues behind the run's pending events.

        *expected_seq* is the protocol's idempotency key: when given
        and the run has already applied that sequence number, the
        event is acknowledged again (``deduped=True``) instead of being
        re-applied — the exactly-once contract retries through the
        cluster router rely on.  An *expected_seq* ahead of the run is
        a gap and raises :class:`ServiceError`.
        """
        hosted = await self.registry.get(run_id)  # raises UnknownRunError
        if self.budget is not None and self.budget.exhausted():
            return self._reject_budget(run_id)
        hosted.submitted += 1
        mailbox = self._mailboxes.get(run_id)
        if self.fault_plan is None and (
            mailbox is None or (mailbox.queue.empty() and not mailbox.in_flight)
        ):
            outcome = self._attempt(run_id, hosted, event, expected_seq, 1, False)
            if outcome is not None:
                self._count(outcome)
                return outcome
            attempts = 1  # failed retryably: the worker backs off first
        else:
            attempts = 0
        mailbox = self._mailbox(run_id)
        if mailbox.queue.qsize() >= self.queue_capacity:
            self.counters[REJECTED_BACKPRESSURE] += 1
            _RESOLVED[REJECTED_BACKPRESSURE].inc()
            return SubmitOutcome(
                run_id,
                REJECTED_BACKPRESSURE,
                reason=f"mailbox full ({self.queue_capacity} events queued)",
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        mailbox.put(_Pending(event, expected_seq, future, attempts))
        return await future

    async def submit_many(
        self, run_id: str, entries: "list[PyTuple[Event, Optional[int]]]"
    ) -> "list[SubmitOutcome]":
        """Submit several events to *run_id* in one enqueue; await them all.

        *entries* holds ``(event, expected_seq)`` pairs; the returned
        outcomes are positional.  Admission control runs per entry with
        the same checks as :meth:`submit` — a rejected entry gets its
        rejection outcome without being enqueued, and the rest of the
        batch proceeds.  Because all entries enter the mailbox before
        any is awaited, the drain worker can apply them as one batch
        (``batch_size`` permitting); sequential :meth:`submit` calls
        find the run idle and apply inline.

        One admission-time divergence from N sequential submits: the
        budget is read when the batch is admitted, so a budget that
        would exhaust mid-batch rejects later entries only at the next
        batch.
        """
        if not entries:
            return []
        hosted = await self.registry.get(run_id)  # raises UnknownRunError
        mailbox = self._mailbox(run_id)
        outcomes: "list[Optional[SubmitOutcome]]" = []
        pending: "list[PyTuple[int, asyncio.Future]]" = []
        loop = asyncio.get_running_loop()
        for event, expected_seq in entries:
            if self.budget is not None and self.budget.exhausted():
                outcomes.append(self._reject_budget(run_id))
                continue
            hosted.submitted += 1
            if mailbox.queue.qsize() >= self.queue_capacity:
                self.counters[REJECTED_BACKPRESSURE] += 1
                _RESOLVED[REJECTED_BACKPRESSURE].inc()
                outcomes.append(
                    SubmitOutcome(
                        run_id,
                        REJECTED_BACKPRESSURE,
                        reason=f"mailbox full ({self.queue_capacity} events queued)",
                    )
                )
                continue
            future = loop.create_future()
            mailbox.put(_Pending(event, expected_seq, future))
            pending.append((len(outcomes), future))
            outcomes.append(None)
        for index, future in pending:
            outcomes[index] = await future
        return outcomes  # type: ignore[return-value]

    def queue_depth(self, run_id: str) -> int:
        mailbox = self._mailboxes.get(run_id)
        return mailbox.queue.qsize() if mailbox is not None else 0

    def _reject_budget(self, run_id: str) -> SubmitOutcome:
        self.counters[REJECTED_BUDGET] += 1
        _RESOLVED[REJECTED_BUDGET].inc()
        return SubmitOutcome(
            run_id,
            REJECTED_BUDGET,
            reason=self.budget.violation() or "budget exhausted",
        )

    def _count(self, outcome: SubmitOutcome) -> None:
        """Count a settled outcome and tick the service budget."""
        self.counters[outcome.status] = self.counters.get(outcome.status, 0) + 1
        _RESOLVED[outcome.status].inc()
        if self.budget is not None:
            # Tick the service budget per settled event without raising
            # out of the applier; admission sees the result.
            self.budget.steps += 1

    # ------------------------------------------------------------------
    # Per-run workers
    # ------------------------------------------------------------------

    def _mailbox(self, run_id: str) -> _Mailbox:
        """The run's mailbox, created with its worker on first need."""
        mailbox = self._mailboxes.get(run_id)
        if mailbox is None:
            mailbox = _Mailbox()
            mailbox.worker = asyncio.get_running_loop().create_task(
                self._drain(run_id, mailbox), name=f"broker:{run_id}"
            )
            self._mailboxes[run_id] = mailbox
        return mailbox

    async def _drain(self, run_id: str, mailbox: _Mailbox) -> None:
        while True:
            if mailbox.queue.empty():
                mailbox.idle.set()
            items = [await mailbox.queue.get()]
            while len(items) < self.batch_size:
                try:
                    items.append(mailbox.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            items = [item for item in items if not item.future.cancelled()]
            if not items:
                continue
            mailbox.in_flight = len(items)
            try:
                if len(items) == 1 or self._injector(run_id) is not None:
                    # batch_size=1, or fault injection active: the
                    # injector's per-submission crash/retry schedule
                    # needs the one-event application loop.
                    for item in items:
                        await self._settle(run_id, *item)
                else:
                    await self._apply_batched(run_id, items)
            except asyncio.CancelledError:
                # Worker cancelled mid-apply (run closed / shutdown):
                # resolve every dequeued submitter instead of leaving
                # them hanging (queued ones are failed by the canceller).
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(
                            UnknownRunError(
                                f"run {run_id!r} closed while its event "
                                "was in flight"
                            )
                        )
                raise
            finally:
                mailbox.in_flight = 0

    async def _settle(
        self,
        run_id: str,
        event: Event,
        expected_seq: Optional[int],
        future: asyncio.Future,
        attempts: int = 0,
    ) -> None:
        """Apply one dequeued submission and resolve its future."""
        try:
            outcome = await self._apply(run_id, event, expected_seq, attempts)
        except asyncio.CancelledError:
            if not future.done():
                future.set_exception(
                    UnknownRunError(
                        f"run {run_id!r} closed while its event was in flight"
                    )
                )
            raise
        except UnknownRunError as exc:
            future.set_exception(exc)
            return
        except Exception as exc:  # defensive: never kill the worker silently
            future.set_exception(exc)
            return
        self._count(outcome)
        future.set_result(outcome)

    async def _apply_batched(
        self,
        run_id: str,
        items: "list[_Pending]",
    ) -> None:
        """Apply a dequeued batch through :meth:`HostedRun.apply_batch`.

        The fast path handles the clean case — fresh events, no faults:
        the hosted run commits them in one amortized pass and every
        future resolves ``applied`` with its sequential ack.  Anything
        irregular (idempotent replays, seq gaps, a failing event, a
        disk fault) falls back to the per-event path for the affected
        suffix, which preserves the retry/quarantine/dedup semantics of
        sequential draining exactly.
        """
        try:
            hosted = await self.registry.get(run_id)
        except UnknownRunError as exc:
            for item in items:
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        base = hosted.applied
        # An event handed over after a failed inline attempt must back
        # off and resume at its next attempt: per-event path too.
        clean = all(
            item.attempts == 0
            and (item.expected_seq is None or item.expected_seq == base + offset)
            for offset, item in enumerate(items)
        )
        if not clean:
            for item in items:
                await self._settle(run_id, *item)
            return
        try:
            results = hosted.apply_batch([item.event for item in items])
        except asyncio.CancelledError:
            raise
        except DiskFault as exc:
            self.counters["disk_faults"] += 1
            _BROKER_DISK_FAULTS.inc()
            results = list(getattr(exc, "batch_results", ()))
        except Exception as exc:
            # The committed prefix is acked below; the failing event
            # re-derives its error (and its retry/quarantine verdict)
            # in the per-event fallback.
            results = list(getattr(exc, "batch_results", ()))
        committed = hosted.applied - base
        for offset in range(committed):
            outcome = SubmitOutcome(
                run_id,
                APPLIED,
                seq=base + offset,
                attempts=1,
                version=results[offset][2] if offset < len(results) else None,
            )
            self._count(outcome)
            future = items[offset].future
            if not future.done():
                future.set_result(outcome)
        # The failing event (if any) and everything behind it re-enter
        # the per-event loop against the committed prefix — the same
        # state a sequential drain would retry them from.
        for item in items[committed:]:
            await self._settle(run_id, *item)

    def _injector(self, run_id: str) -> Optional[FaultInjector]:
        if self.fault_plan is None:
            return None
        injector = self._injectors.get(run_id)
        if injector is None:
            plan = dataclasses.replace(
                self.fault_plan,
                seed=self.fault_plan.seed ^ zlib.crc32(run_id.encode("utf-8")),
            )
            injector = FaultInjector(plan)
            self._injectors[run_id] = injector
        return injector

    async def _apply(
        self,
        run_id: str,
        event: Event,
        expected_seq: Optional[int] = None,
        attempts: int = 0,
    ) -> SubmitOutcome:
        """Apply one event with the supervisor's retry/quarantine policy.

        *attempts* counts the attempts already made in the submitting
        task; the event backs off from the last of them first, so the
        engine sees it at most ``retry.max_attempts`` times in all.
        """
        attempt = attempts
        recovered = False
        injector = self._injector(run_id)
        if attempt:
            await asyncio.sleep(self.retry.backoff(attempt))
        while True:
            attempt += 1
            hosted = await self.registry.get(run_id)
            try:
                outcome = self._attempt(
                    run_id, hosted, event, expected_seq, attempt, recovered, injector
                )
            except CrashFault:
                await self.registry.crash_and_recover(run_id)
                self.counters["crash_recoveries"] += 1
                _BROKER_RECOVERIES.inc()
                recovered = True
                # The injector only crashes once per index: retry resumes
                # against the journal-recovered instance.
                continue
            if outcome is not None:
                return outcome
            await asyncio.sleep(self.retry.backoff(attempt))

    def _attempt(
        self,
        run_id: str,
        hosted: HostedRun,
        event: Event,
        expected_seq: Optional[int],
        attempt: int,
        recovered: bool,
        injector: Optional[FaultInjector] = None,
    ) -> Optional[SubmitOutcome]:
        """Make attempt number *attempt* at applying *event* to *hosted*.

        Returns the settled outcome — applied, deduped, or quarantined
        once the event has had ``retry.max_attempts`` attempts — or
        ``None`` when the attempt failed retryably; the caller then
        backs off ``retry.backoff(attempt)`` and tries again.  An
        injected :class:`CrashFault` propagates to the caller, which
        recovers the run.  Nothing here awaits, so the submitting task
        can run it between its idleness check and its outcome.
        """
        if expected_seq is not None:
            # Checked by whoever applies the event (not at admission),
            # so the comparison is race-free against this run's other
            # pending events.
            if expected_seq < hosted.applied:
                return SubmitOutcome(
                    run_id,
                    APPLIED,
                    seq=expected_seq,
                    attempts=attempt,
                    recovered=recovered,
                    deduped=True,
                )
            if expected_seq > hosted.applied:
                raise ServiceError(
                    f"submit seq {expected_seq} is ahead of run "
                    f"{run_id!r} (applied {hosted.applied}): "
                    "an acknowledged event is missing"
                )
        try:
            if injector is not None:
                # Index by events *attempted* (applied + quarantined),
                # which is stable across retries and crash recovery —
                # the supervisor's submission-index semantics.
                injector.before_apply(hosted.applied + hosted.quarantined, event)
            seq, _ = hosted.apply(event)
            return SubmitOutcome(
                run_id,
                APPLIED,
                seq=seq,
                attempts=attempt,
                recovered=recovered,
                version=hosted.view_version(event.peer),
            )
        except DiskFault as exc:
            # The journal refused the record *before* any in-memory
            # mutation: the event is unacknowledged and the store
            # self-heals (truncate-and-recover) on the next append, so
            # retrying is safe and duplicates are impossible.
            self.counters["disk_faults"] += 1
            _BROKER_DISK_FAULTS.inc()
            diagnostic = f"disk fault persisted ({exc.kind}): {exc}"
        except TransientFault as exc:
            diagnostic = f"transient fault persisted: {exc}"
        except POISON_ERRORS as exc:
            diagnostic = f"{type(exc).__name__}: {exc}"
        if attempt >= self.retry.max_attempts:
            hosted.record_quarantine(event, diagnostic, attempt)
            return SubmitOutcome(
                run_id,
                QUARANTINED,
                attempts=attempt,
                reason=diagnostic,
                recovered=recovered,
            )
        self.counters["retries"] += 1
        _BROKER_RETRIES.inc()
        return None

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    async def quiesce(self, run_id: Optional[str] = None) -> None:
        """Wait until the given run's mailbox (or every mailbox) drains.

        A run without a mailbox has nothing pending: the inline path
        settles its events before the submitting task yields.
        """
        if run_id is None:
            boxes = list(self._mailboxes.values())
        else:
            mailbox = self._mailboxes.get(run_id)
            boxes = [] if mailbox is None else [mailbox]
        for mailbox in boxes:
            await mailbox.idle.wait()

    def _fail_pending(self, run_id: str, mailbox: _Mailbox) -> None:
        """Resolve still-queued submissions of a dying mailbox."""
        while not mailbox.queue.empty():
            future = mailbox.queue.get_nowait().future
            if not future.done():
                future.set_exception(
                    UnknownRunError(
                        f"run {run_id!r} closed before its event was applied"
                    )
                )
        mailbox.idle.set()

    async def release(self, run_id: str) -> None:
        """Drop one run's mailbox (used when the run is closed)."""
        mailbox = self._mailboxes.pop(run_id, None)
        if mailbox is not None and mailbox.worker is not None:
            mailbox.worker.cancel()
            try:
                await mailbox.worker
            except (asyncio.CancelledError, Exception):
                pass
            self._fail_pending(run_id, mailbox)

    async def shutdown(self) -> None:
        """Cancel every worker task; pending submissions resolve with errors."""
        for mailbox in self._mailboxes.values():
            if mailbox.worker is not None:
                mailbox.worker.cancel()
        for run_id, mailbox in self._mailboxes.items():
            if mailbox.worker is not None:
                try:
                    await mailbox.worker
                except (asyncio.CancelledError, Exception):
                    pass
            self._fail_pending(run_id, mailbox)
        self._mailboxes.clear()

    def stats(self) -> Dict[str, object]:
        return {
            "queue_capacity": self.queue_capacity,
            "batch_size": self.batch_size,
            "active_mailboxes": len(self._mailboxes),
            "queued_events": sum(m.queue.qsize() for m in self._mailboxes.values()),
            **self.counters,
        }
