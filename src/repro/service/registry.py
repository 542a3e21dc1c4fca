"""The registry of hosted runs over pluggable storage.

The registry is the service's ownership map: one table from run id to
hosted run — one live instance of the collaborative workflow model,
with its journal, its dataflow graph (which owns the materialized peer
views) and its lazily-wired explainers.  Its structural mutations
(open/close/lookup) never await, so on the service's one event loop
each is atomic without a lock; the *per-run* event order is enforced
one level up by the broker's per-run mailboxes.

Durability is delegated to a :class:`~repro.storage.StorageBackend`:
every hosted run appends its begin/event/snapshot/quarantine/end
records through a :class:`~repro.storage.RecordJournal`, and opening a
run id whose records already exist *recovers* it — via
:func:`repro.runtime.checkpoint.fast_recover`, so the engine replays
only the events since the last checkpoint regardless of run length.
The default backend keeps records in memory (the pre-storage
semantics: nothing touches disk, a process death loses unjournaled
runs); ``storage="file:DIR"`` selects the flat-file journal layout; the
segment backend adds CRC framing, torn-write recovery and injected
disk-fault tolerance (see ``docs/STORAGE.md``).

Because every hosted run has a record history, the registry can also
bound its resident set: with ``max_resident=N``, the least-recently
used runs beyond N are *evicted* — their RAM-heavy live state (the
instance, the materialized views, the explainers) dropped after a final
snapshot — and transparently *rehydrated* from their records on next
access.  Evicted runs stay addressable: ``get``/``close``/``submit``
on them work unchanged, just with a one-time O(events since last
snapshot) rehydration cost.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple as PyTuple, Union

from ..core.incremental import IncrementalExplainer
from ..obs.metrics import METRICS
from ..obs.provenance import ProvenanceLog
from ..obs.trace import current_span_id
from ..runtime.checkpoint import fast_recover
from ..runtime.faults import DiskFault
from ..runtime.journal import end_record
from ..storage.backend import (
    MemoryBackend,
    RecordJournal,
    StorageBackend,
    open_backend,
)
from ..dataflow.graph import DeltaEffect, DeltaGraph
from ..workflow.engine import apply_event_with_delta, apply_events
from ..workflow.errors import EventError
from ..workflow.eventindex import ApplicableEventIndex
from ..workflow.events import Event
from ..workflow.instance import Instance
from ..workflow.program import WorkflowProgram
from .errors import DuplicateRunError, ServiceError, UnknownRunError
from .viewcache import CachedPeerView

__all__ = ["HostedRun", "ShardedRunRegistry"]

_VIEW_READS = METRICS.counter(
    "repro_registry_view_reads_total",
    "Peer-view reads served from the run's materialized views",
    labelnames=("source",),
).labels(source="cached")
_RECOVERIES = METRICS.counter(
    "repro_registry_recoveries_total",
    "Runs recovered by replaying their journal",
)
_EVICTIONS = METRICS.counter(
    "repro_registry_evictions_total",
    "Idle hosted runs evicted to their record store (LRU, max_resident)",
)
_REHYDRATIONS = METRICS.counter(
    "repro_registry_rehydrations_total",
    "Evicted runs transparently rehydrated from their record store",
)

#: Live registries, tracked weakly so the hosted-runs gauge can be
#: collected at scrape time without keeping closed services alive.
_live_registries: "weakref.WeakSet[ShardedRunRegistry]" = weakref.WeakSet()


def _collect_registry_gauges(metrics) -> None:
    gauge = metrics.gauge(
        "repro_registry_hosted_runs",
        "Runs currently hosted, summed over live registries",
    )
    gauge.set(sum(registry.hosted_count() for registry in _live_registries))
    resident = metrics.gauge(
        "repro_registry_resident_runs",
        "Hosted runs currently resident in memory (not evicted)",
    )
    resident.set(sum(registry.resident_count() for registry in _live_registries))


METRICS.register_collector(_collect_registry_gauges)


class HostedRun:
    """One live run hosted by the service.

    Holds the current global instance, the applied event log (events
    determine runs, so this is enough to rebuild anything), the run's
    journal writer, the per-run :class:`~repro.dataflow.graph.DeltaGraph`
    that owns the run's derived state — it adopts each transition's
    successor as its instance, keeps at most one materialized view per
    peer (read by both ``view`` and the applicable-event index), and
    fans each delta out to the provenance recorder — and
    one :class:`~repro.core.incremental.IncrementalExplainer` per peer
    that has asked for explanations, advanced in lockstep with the run
    by the run's own transitions so explanation queries never replay
    and no event is applied twice.
    """

    def __init__(
        self,
        run_id: str,
        program: WorkflowProgram,
        initial: Instance,
        instance: Optional[Instance] = None,
        events: Optional[List[Event]] = None,
        journal: Optional[RecordJournal] = None,
        journal_file: Optional[Path] = None,
    ) -> None:
        self.run_id = run_id
        self.program = program
        self.initial = initial
        self.instance = instance if instance is not None else initial
        self.events: List[Event] = list(events or [])
        self.journal = journal
        self.journal_file = journal_file
        #: The run's dataflow graph: one fused observation pass per
        #: event, fanned out to every subscriber; its instance is always
        #: this run's instance.
        self.dataflow = DeltaGraph(program.schema, self.instance)
        self.dataflow.subscribe(self._record_provenance, name="provenance")
        self._explainers: Dict[str, IncrementalExplainer] = {}
        self._event_index: Optional[ApplicableEventIndex] = None
        self.submitted = len(self.events)
        self.quarantined = 0
        self.recoveries = 0
        #: Warnings surfaced while reading this run's records back
        #: (torn trailing records truncated away, etc.).
        self.recovery_warnings: List[str] = []
        #: Per-event provenance, recorded at application time.  A run
        #: constructed over an existing event history (recovery,
        #: rehydration, a promoted replica) starts with a log missing
        #: that prefix; :meth:`provenance_log` rebuilds it by replay on
        #: first read, so provenance answers are identical whether the
        #: run lived in one process or was recovered — events determine
        #: runs, and they determine provenance too.
        self.provenance = ProvenanceLog(run_id)
        self._provenance_complete = not self.events

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------

    @property
    def applied(self) -> int:
        return len(self.events)

    def _record_provenance(self, effect: DeltaEffect) -> None:
        """Provenance as a dataflow subscriber: one record per pushed event.

        Reads the application context (``seq``, ``event``, ``span_id``)
        off the effect; pushes without an event context (none today)
        record nothing.  The changed peers come from the graph's fused
        observation pass, so recording is exact whether or not any view
        has been materialized.
        """
        event = effect.context.get("event")
        if event is None:
            return
        visible_to = set(effect.changed_peers)
        visible_to.add(event.peer)
        self.provenance.record(
            effect.context["seq"],
            event.rule.name,
            event.peer,
            effect,
            visible_to,
            span_id=effect.context.get("span_id"),
        )

    def apply(self, event: Event) -> PyTuple[int, DeltaEffect]:
        """Apply one event; journal it; push its delta through the graph.

        Returns ``(seq, effect)`` where *seq* is the event's position in
        the run and *effect* the :class:`~repro.dataflow.graph.DeltaEffect`
        of the push (it exposes the full delta surface).  The push
        patches the materialized views and records provenance in one
        O(|delta|) pass; the applicable-event index and the explainers
        advance right after.  Raises the engine's :class:`EventError`/
        :class:`ChaseFailure` unchanged when the event does not apply —
        classification (retry/quarantine) is the broker's job.  A
        :class:`~repro.runtime.faults.DiskFault` from the journal also
        propagates *before* any in-memory state changes: the event was
        not acknowledged and a retry observes a self-healed store.
        """
        result, delta = apply_event_with_delta(
            self.program.schema, self.instance, event, forbidden_fresh=None
        )
        seq = len(self.events)
        if self.journal is not None:
            self.journal.record_event(seq, event, result)
        self.instance = result
        self.events.append(event)
        effect = self.dataflow.push(
            delta, result, seq=seq, event=event, span_id=current_span_id()
        )
        if self._event_index is not None:
            self._event_index.advance(effect, result)
        for explainer in self._explainers.values():
            explainer.advance(event, delta, result)
        return seq, effect

    def apply_batch(
        self, events: List[Event]
    ) -> List[PyTuple[int, DeltaEffect, int]]:
        """Apply a batch of events, amortizing per-event overhead.

        Returns one ``(seq, effect, version)`` triple per applied event,
        where *version* is the acting peer's view version immediately
        after that event (what a one-at-a-time drain would have acked).

        Observable-state-equivalent to folding :meth:`apply`: the
        journal receives the same per-event records and cadence
        snapshots, each event's delta is pushed through the dataflow
        graph (so views and provenance advance identically),
        and the same citations are recorded.  What the batch amortizes
        is the per-event tracing span
        (:func:`~repro.workflow.engine.apply_events`) and the
        applicable-event index's stale-rule sweep
        (:meth:`~repro.workflow.eventindex.ApplicableEventIndex.advance_many`).

        Failure semantics match the sequential fold: on an
        :class:`EventError` (bad event) or a journal
        :class:`~repro.runtime.faults.DiskFault`, everything *before*
        the failing event is committed — journaled, pushed, recorded —
        and the error is re-raised, leaving the failing event and its
        successors unapplied and unacknowledged.
        """
        if not events:
            return []
        error: Optional[BaseException] = None
        try:
            pairs = apply_events(
                self.program.schema, self.instance, events, forbidden_fresh=None
            )
        except EventError as exc:
            pairs = list(getattr(exc, "batch_prefix", ()))
            error = exc
        results: List[PyTuple[int, DeltaEffect, int]] = []
        committed: List[PyTuple[DeltaEffect, Instance]] = []
        span_id = current_span_id()
        try:
            for event, (result, delta) in zip(events, pairs):
                seq = len(self.events)
                if self.journal is not None:
                    # A DiskFault here aborts the loop: this event and
                    # the rest of the batch stay unacknowledged, the
                    # committed prefix matches the journaled prefix.
                    self.journal.record_event(seq, event, result)
                self.instance = result
                self.events.append(event)
                effect = self.dataflow.push(
                    delta, result, seq=seq, event=event, span_id=span_id
                )
                for explainer in self._explainers.values():
                    explainer.advance(event, delta, result)
                committed.append((effect, result))
                results.append((seq, effect, self.view_version(event.peer)))
        except BaseException as exc:
            # The committed prefix's acks still need per-event versions;
            # hand them to the broker on the error, mirroring the
            # batch_prefix convention of apply_events.
            exc.batch_results = results
            raise
        finally:
            if self._event_index is not None and committed:
                self._event_index.advance_many(committed)
        if error is not None:
            error.batch_results = results
            raise error
        return results

    def provenance_log(self) -> ProvenanceLog:
        """The run's provenance log, complete over its full history.

        A run hosted over pre-existing events (recovery, rehydration, a
        promoted replica) is missing the provenance of that prefix; the
        first read replays the event history through a fresh
        :class:`~repro.dataflow.graph.DeltaGraph` — the same fused
        observation pass :meth:`apply` records with — so the rebuilt
        records equal what live recording would have produced.  Span
        ids are the one exception: they capture which tracing span
        covered the original application, which a replay cannot
        recover, so a rebuilt log carries none.
        """
        if not self._provenance_complete:
            log = ProvenanceLog(self.run_id)
            instance = self.initial
            graph = DeltaGraph(self.program.schema, instance)
            for seq, event in enumerate(self.events):
                instance, delta = apply_event_with_delta(
                    self.program.schema, instance, event, forbidden_fresh=None
                )
                effect = graph.push(delta, instance)
                visible_to = set(effect.changed_peers)
                visible_to.add(event.peer)
                log.record(seq, event.rule.name, event.peer, effect, visible_to)
            self.provenance = log
            self._provenance_complete = True
        return self.provenance

    def record_quarantine(self, event: Event, error: str, attempts: int) -> None:
        self.quarantined += 1
        if self.journal is not None:
            try:
                self.journal.quarantine(len(self.events), event, error, attempts)
            except DiskFault:
                # Quarantine records are best-effort evidence: the event
                # is already rejected either way, and the store
                # self-heals on its next append.
                pass

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def view_instance(self, peer: str) -> Instance:
        """``I@p`` of the current instance, read from the run's graph.

        The first read of a peer's view materializes it (O(|I|)); every
        applied event thereafter patches it in O(|delta|).
        """
        _VIEW_READS.inc()
        return CachedPeerView(self.dataflow, peer).instance()

    def view_version(self, peer: str) -> int:
        """Every peer's view version: one more than the events applied.

        Read-your-writes clients key on versions never going backwards;
        a count of applied events survives eviction, rehydration and
        crash recovery unchanged.
        """
        return self.applied + 1

    def event_index(self) -> ApplicableEventIndex:
        """The run's applicable-event index, created (and kept) lazily.

        The index reads the acting peers' views from the run's graph
        (materializing each on its first read); every applied event
        thereafter advances it in O(|delta|), so repeated ``applicable``
        queries re-evaluate only the rules the traffic actually touches.
        """
        if self._event_index is None:
            self._event_index = ApplicableEventIndex(
                self.program, self.instance, graph=self.dataflow
            )
        return self._event_index

    def applicable(self, peer: Optional[str] = None) -> List[Event]:
        """The events currently applicable (optionally for one peer)."""
        return list(self.event_index().events(peer=peer))

    def explainer(self, peer: str) -> IncrementalExplainer:
        """The peer's incremental explainer, created (and caught up) lazily.

        The first explanation query for a (run, peer) pays one replay of
        the event log; every later query is served from the maintained
        closure state without replay.
        """
        explainer = self._explainers.get(peer)
        if explainer is None:
            explainer = IncrementalExplainer(self.program, peer, initial=self.initial)
            for event in self.events:
                explainer.extend(event)
            self._explainers[peer] = explainer
        return explainer

    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "run_id": self.run_id,
            "applied": self.applied,
            "submitted": self.submitted,
            "quarantined": self.quarantined,
            "recoveries": self.recoveries,
            "instance_tuples": self.instance.size(),
            "explainers": sorted(self._explainers),
            "view_versions": {
                peer: self.view_version(peer) for peer in self.program.schema.peers
            },
            "dataflow": self.dataflow.stats(),
        }
        if self.recovery_warnings:
            out["recovery_warnings"] = list(self.recovery_warnings)
        return out


@dataclass
class _EvictedRun:
    """The counters an evicted run carries while its state lives on disk."""

    submitted: int
    quarantined: int
    recoveries: int
    dataflow_pushes: int


class ShardedRunRegistry:
    """Run-id → :class:`HostedRun`, resident or evicted to storage."""

    def __init__(
        self,
        program: WorkflowProgram,
        snapshot_every: Optional[int] = 10,
        storage: Union[str, StorageBackend, None] = None,
        max_resident: Optional[int] = None,
        compact_every: int = 4,
    ) -> None:
        if max_resident is not None and max_resident < 1:
            raise ServiceError("max_resident must be at least 1")
        self.program = program
        self.storage = MemoryBackend() if storage is None else open_backend(storage)
        self.snapshot_every = snapshot_every
        self.max_resident = max_resident
        self.compact_every = compact_every
        self._runs: Dict[str, HostedRun] = {}
        self._evicted: Dict[str, _EvictedRun] = {}
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        self.recoveries = 0
        self.evictions = 0
        self.rehydrations = 0
        _live_registries.add(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def open(
        self,
        run_id: str,
        initial: Optional[Instance] = None,
        recover: bool = True,
    ) -> PyTuple[HostedRun, bool]:
        """Host *run_id*, recovering it from its records if any exist.

        Returns ``(hosted, recovered)``.  Opening an id that is already
        hosted (resident or evicted) raises :class:`DuplicateRunError`;
        opening an id whose records exist replays them
        (``recover=True``) or refuses (``recover=False``) — it never
        silently truncates durable state.
        """
        if run_id in self._runs or run_id in self._evicted:
            raise DuplicateRunError(f"run {run_id!r} is already hosted")
        hosted = self._materialize(run_id, initial)
        recovered = hosted.recoveries > 0
        if not recover and recovered:
            if hosted.journal is not None:
                hosted.journal.close()
            raise ServiceError(
                f"run {run_id!r} has records at "
                f"{hosted.journal_file or self.storage.name}; "
                "open with recovery or choose a new id"
            )
        self._runs[run_id] = hosted
        if recovered:
            self.recoveries += 1
            _RECOVERIES.inc()
        self._touch(run_id)
        self._maybe_evict(protect=run_id)
        return hosted, recovered

    def _materialize(self, run_id: str, initial: Optional[Instance]) -> HostedRun:
        start = (
            initial
            if initial is not None
            else Instance.empty(self.program.schema.schema)
        )
        backend = self.storage
        if backend.exists(run_id):
            store = backend.store(run_id)
            try:
                records, warnings = store.read()
                resumed = fast_recover(self.program, records)
            except Exception:
                store.close()
                raise
            journal = RecordJournal(
                store,
                snapshot_every=self.snapshot_every,
                compact_every=self.compact_every,
            )
            has_snapshot = any(r.get("type") == "snapshot" for r in records)
            journal.resume(
                len(resumed.events),
                resumed.snapshot_position if has_snapshot else None,
            )
            hosted = HostedRun(
                run_id,
                self.program,
                resumed.initial,
                instance=resumed.instance,
                events=resumed.events,
                journal=journal,
                journal_file=store.path,
            )
            hosted.recoveries = 1
            hosted.quarantined = len(resumed.quarantined)
            hosted.recovery_warnings = list(warnings)
            return hosted
        store = backend.store(run_id)
        journal = RecordJournal(
            store,
            snapshot_every=self.snapshot_every,
            compact_every=self.compact_every,
        )
        # Disk faults are self-healing (the torn record is repaired on
        # the next append), so a failed begin write is retried before
        # the open is refused.  A refused open leaves nothing behind:
        # none of its records was acknowledged, and a store without a
        # begin record would make every later open of the id fail.
        for attempt in range(3):
            try:
                journal.begin(start, meta={"run_id": run_id})
                break
            except DiskFault:
                if attempt == 2:
                    journal.close()
                    backend.delete(run_id)
                    raise
        return HostedRun(
            run_id,
            self.program,
            start,
            journal=journal,
            journal_file=store.path,
        )

    async def get(self, run_id: str) -> HostedRun:
        hosted = self._runs.get(run_id)
        if hosted is None and run_id in self._evicted:
            hosted = self._rehydrate(run_id)
            self._maybe_evict(protect=run_id)
        elif hosted is not None:
            self._touch(run_id)
        if hosted is None:
            raise UnknownRunError(f"run {run_id!r} is not hosted")
        return hosted

    @staticmethod
    def _seal(emit, attempts: int = 3) -> None:
        """Run a sealing write, retrying through self-healing disk faults.

        A :class:`DiskFault` means the record was not acknowledged and
        the store repairs itself on the next append, so retrying is
        safe; a duplicate ``end`` record from a sync-failed-after-append
        race is harmless (recovery takes the last one, compaction drops
        the rest).  After *attempts* failures the seal is abandoned:
        losing the unsynced tail is precisely what a failing-fsync disk
        is allowed to do, and the event history itself was acknowledged
        under the backend's durability policy.
        """
        for _ in range(attempts):
            try:
                emit()
                return
            except DiskFault:
                continue

    async def close(self, run_id: str, status: str = "completed") -> HostedRun:
        """Stop hosting *run_id*, sealing its records with *status*."""
        hosted = self._runs.pop(run_id, None)
        if hosted is None and run_id in self._evicted:
            # Seal without full rehydration: the live state is not
            # needed to close, only the record history.
            evicted = self._evicted.pop(run_id)
            store = self.storage.store(run_id)
            records, _ = store.read()
            resumed = fast_recover(self.program, records)
            hosted = HostedRun(
                run_id,
                self.program,
                resumed.initial,
                instance=resumed.instance,
                events=resumed.events,
            )
            hosted.submitted = evicted.submitted
            hosted.quarantined = evicted.quarantined
            hosted.recoveries = evicted.recoveries
            hosted.dataflow.pushes = evicted.dataflow_pushes
            self._seal(lambda: (store.append(end_record(status)), store.sync()))
            store.close()
            self._lru.pop(run_id, None)
            if not self.storage.durable:
                self.storage.delete(run_id)
            return hosted
        self._lru.pop(run_id, None)
        if hosted is None:
            raise UnknownRunError(f"run {run_id!r} is not hosted")
        if hosted.journal is not None:
            self._seal(lambda: hosted.journal.end(status))
            hosted.journal.close()
        if not self.storage.durable:
            self.storage.delete(run_id)
        return hosted

    async def crash_and_recover(self, run_id: str) -> HostedRun:
        """Simulate a process death of one run and recover it from storage.

        The in-memory :class:`HostedRun` — instance, views, explainers
        — is abandoned; the records (appended *before* each event was
        acknowledged) survive, and the run is re-materialized from its
        latest checkpoint.  On a non-durable backend the state is
        genuinely lost and :class:`ServiceError` is raised.
        """
        hosted = self._runs.pop(run_id, None)
        evicted = self._evicted.pop(run_id, None)
        if hosted is None and evicted is None:
            raise UnknownRunError(f"run {run_id!r} is not hosted")
        prior_recoveries = (
            hosted.recoveries if hosted is not None else evicted.recoveries
        )
        if hosted is not None and hosted.journal is not None:
            sealed = hosted
            self._seal(lambda: sealed.journal.end("crashed"))
            hosted.journal.close()
        elif evicted is not None and self.storage.durable:
            store = self.storage.store(run_id)
            self._seal(
                lambda: (store.append(end_record("crashed")), store.sync())
            )
            store.close()
        if not self.storage.durable:
            self._lru.pop(run_id, None)
            self.storage.delete(run_id)
            raise ServiceError(
                f"run {run_id!r} crashed without durable storage; "
                "state is lost"
            )
        recovered = self._materialize(run_id, None)
        recovered.recoveries = prior_recoveries + 1
        self._runs[run_id] = recovered
        self.recoveries += 1
        _RECOVERIES.inc()
        self._touch(run_id)
        self._maybe_evict(protect=run_id)
        return recovered

    async def sync_all(self) -> int:
        """Force a durability barrier on every resident run's store.

        Returns how many runs were synced.  The ``shutdown`` op calls
        this after draining the broker, so its response acknowledges a
        fully-persisted service — the contract the cluster supervisor's
        graceful restarts rely on.  A :class:`DiskFault` from an
        injected failing fsync is absorbed: the unsynced tail is
        exactly what such a disk is allowed to lose.
        """
        synced = 0
        for hosted in self._runs.values():
            try:
                hosted.journal.store.sync()
                synced += 1
            except DiskFault:
                pass
        return synced

    # ------------------------------------------------------------------
    # Eviction and rehydration
    # ------------------------------------------------------------------

    def _touch(self, run_id: str) -> None:
        self._lru.pop(run_id, None)
        self._lru[run_id] = None

    def _maybe_evict(self, protect: Optional[str] = None) -> None:
        """Evict LRU resident runs until at most ``max_resident`` remain.

        Runs synchronously (no awaits), so it is atomic with respect to
        the event loop.
        """
        if self.max_resident is None:
            return
        while self.resident_count() > self.max_resident:
            victim = next(
                (
                    rid
                    for rid in self._lru
                    if rid != protect and rid in self._runs
                ),
                None,
            )
            if victim is None or not self._evict(victim):
                break

    def _evict(self, run_id: str) -> bool:
        """Drop one run's live state, keeping its records rehydratable.

        Returns False — and leaves the run resident — when the records
        could not be checkpointed and synced despite retries: evicting
        then would hand rehydration a store missing acknowledged state.
        """
        hosted = self._runs.pop(run_id, None)
        if hosted is None:
            return False
        journal = hosted.journal
        persisted = False
        for _ in range(4):
            try:
                if journal.last_snapshot_at != journal.events_recorded:
                    # A parting checkpoint so rehydration replays O(1)
                    # events, not O(events since the last cadence
                    # snapshot).
                    journal.snapshot(len(hosted.events) - 1, hosted.instance)
                journal.store.sync()
                persisted = True
                break
            except DiskFault:
                continue  # the store self-heals; a new fault draw each try
        if not persisted:
            self._runs[run_id] = hosted
            return False
        journal.close()
        self._evicted[run_id] = _EvictedRun(
            submitted=hosted.submitted,
            quarantined=hosted.quarantined,
            recoveries=hosted.recoveries,
            dataflow_pushes=hosted.dataflow.pushes,
        )
        self._lru.pop(run_id, None)
        self.evictions += 1
        _EVICTIONS.inc()
        return True

    def _rehydrate(self, run_id: str) -> HostedRun:
        """Re-materialize an evicted run from its records."""
        evicted = self._evicted.pop(run_id)
        hosted = self._materialize(run_id, None)
        hosted.submitted = evicted.submitted
        hosted.quarantined = evicted.quarantined
        hosted.recoveries = evicted.recoveries
        # The graph was rebuilt over the recovered instance; its push
        # counter resumes where the evicted incarnation left off so
        # eviction stays invisible in stats.
        hosted.dataflow.pushes = evicted.dataflow_pushes
        self._runs[run_id] = hosted
        self.rehydrations += 1
        _REHYDRATIONS.inc()
        self._touch(run_id)
        return hosted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def run_ids(self) -> List[str]:
        return sorted([*self._runs, *self._evicted])

    def hosted_count(self) -> int:
        """Runs the registry is responsible for, resident or evicted."""
        return self.resident_count() + len(self._evicted)

    def resident_count(self) -> int:
        return len(self._runs)

    def evicted_count(self) -> int:
        return len(self._evicted)

    def stats(self) -> Dict[str, object]:
        return {
            "hosted_runs": self.hosted_count(),
            "resident_runs": self.resident_count(),
            "evicted_runs": self.evicted_count(),
            "recoveries": self.recoveries,
            "evictions": self.evictions,
            "rehydrations": self.rehydrations,
            "max_resident": self.max_resident,
            "storage": self.storage.stats(),
        }
