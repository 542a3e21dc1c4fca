"""The pluggable storage layer beneath hosted runs.

A :class:`StorageBackend` owns the durable record history of every run
the service hosts — the same begin/event/snapshot/quarantine/end
records :mod:`repro.runtime.journal` defines — behind two small
interfaces:

* :class:`StorageBackend` — the per-service object: run id → record
  store, existence/listing/deletion, aggregate stats;
* :class:`RunStore` — the per-run handle: append one record, read them
  all back (with torn-tail warnings), force a durability barrier,
  compact.

Two implementations ship: :class:`MemoryBackend` (records in RAM —
the default, preserving the pre-storage semantics where a process death
loses unjournaled runs) and
:class:`~repro.storage.segment.SegmentBackend` (one CRC-framed log file
per run, ``<root>/<quoted run id>.journal``, with torn-write
truncate-and-recover and rename-atomic compaction).  Both are proven
bit-identical over random workloads by
``tests/storage/test_backend_equivalence.py``.

:class:`RecordJournal` is the one writer of journal records: hosted
runs, the supervisor, :func:`~repro.runtime.journal.journal_run` and
``repro run --journal`` all append through it.  It spaces snapshots by
the size of the instance they save, so superseded snapshots never hold
more tuples than the events after them: a store grows O(events + one
instance) while it is written, and is only ever appended to.

Compaction, the offline ``repro compact``, is a pure record transform
(:func:`compact_records`): all events and quarantines survive — they
are the run's replayable evidence and the substrate of explanations —
while superseded snapshots are dropped, keeping only the latest.
Recovery costs O(events since the last checkpoint) of engine work via
:func:`repro.runtime.checkpoint.fast_recover` either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple as PyTuple, Union

from ..obs.metrics import METRICS
from ..runtime.faults import DiskFault
from ..runtime.journal import (
    begin_record,
    end_record,
    event_record,
    quarantine_record,
    snapshot_record,
)
from ..workflow.errors import WorkflowError
from ..workflow.events import Event
from ..workflow.instance import Instance

__all__ = [
    "CompactionStats",
    "DurabilityPolicy",
    "MemoryBackend",
    "RecordJournal",
    "RunStore",
    "StorageBackend",
    "StorageCorruptionError",
    "StorageError",
    "compact_records",
    "file_store",
    "kept_positions",
    "open_backend",
]


class StorageError(WorkflowError):
    """A storage backend failed or was misused."""


class StorageCorruptionError(StorageError):
    """A record failed its integrity check somewhere other than the tail.

    Trailing damage (a torn or corrupted final record) is *recovered*,
    not raised — the crash interrupted a write that was never
    acknowledged.  Interior damage means acknowledged history is gone,
    which no amount of truncation can hide; it must surface loudly.
    """


# ----------------------------------------------------------------------
# Shared metrics (one family per phenomenon, labelled by backend)
# ----------------------------------------------------------------------

COMPACTIONS = METRICS.counter(
    "repro_storage_compactions_total",
    "Journal compactions performed, by backend",
    labelnames=("backend",),
)
COMPACTION_RECLAIMED = METRICS.counter(
    "repro_storage_compaction_reclaimed_records_total",
    "Records dropped by compaction (superseded snapshots, stale markers)",
    labelnames=("backend",),
)
FSYNC_SECONDS = METRICS.histogram(
    "repro_storage_fsync_seconds",
    "Latency of storage fsync barriers",
    buckets=(0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0),
)
DISK_FAULTS = METRICS.counter(
    "repro_storage_disk_faults_total",
    "Injected disk faults surfaced by storage backends, by kind",
    labelnames=("kind",),
)
TAIL_RECOVERIES = METRICS.counter(
    "repro_storage_tail_recoveries_total",
    "Torn/corrupt trailing records truncated away on read or repair",
    labelnames=("backend",),
)


# ----------------------------------------------------------------------
# Durability policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DurabilityPolicy:
    """When a backend fsyncs — the knob of the crash-consistency contract.

    ``mode`` is one of:

    * ``"flush"`` (default) — every record is flushed to the OS before
      the event is acknowledged: a process crash loses nothing, an
      OS/power crash may lose the unsynced tail;
    * ``"fsync"`` — every record is fsynced: acknowledged events survive
      power loss, at one disk round-trip per event;
    * ``"interval"`` — flush per record, fsync every ``interval``
      appends *and* at every barrier (snapshot, seal, compaction): a
      power crash loses at most ``interval`` acknowledged events.

    See ``docs/STORAGE.md`` for the durability matrix.
    """

    mode: str = "flush"
    interval: int = 8

    _MODES = ("flush", "interval", "fsync")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise StorageError(
                f"unknown durability mode {self.mode!r} "
                f"(expected one of {', '.join(self._MODES)})"
            )
        if self.mode == "interval" and self.interval < 1:
            raise StorageError("durability interval must be at least 1")

    @classmethod
    def parse(cls, spec: Union[str, "DurabilityPolicy", None]) -> "DurabilityPolicy":
        """``"fsync"``, ``"interval:32"``, … → a policy (None → default)."""
        if spec is None:
            return cls()
        if isinstance(spec, DurabilityPolicy):
            return spec
        mode, _, arg = spec.partition(":")
        if mode == "interval" and arg:
            try:
                return cls(mode="interval", interval=int(arg))
            except ValueError:
                raise StorageError(f"bad durability interval in {spec!r}") from None
        return cls(mode=mode)

    def wants_fsync(self, appends_since_sync: int, barrier: bool) -> bool:
        if self.mode == "fsync":
            return True
        if self.mode == "interval":
            return barrier or appends_since_sync >= self.interval
        return False


# ----------------------------------------------------------------------
# Compaction (a pure record transform)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompactionStats:
    """What one compaction pass accomplished."""

    records_before: int
    records_after: int
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def records_reclaimed(self) -> int:
        return self.records_before - self.records_after

    @property
    def bytes_reclaimed(self) -> int:
        return self.bytes_before - self.bytes_after

    def to_dict(self) -> Dict[str, int]:
        return {
            "records_before": self.records_before,
            "records_after": self.records_after,
            "records_reclaimed": self.records_reclaimed,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "bytes_reclaimed": self.bytes_reclaimed,
        }


def kept_positions(kinds: List[Optional[str]]) -> List[int]:
    """The positions compaction keeps, decided from record types alone.

    *kinds* is the ``type`` of each record in order.  Kept: the begin
    record, every event and quarantine record (the replayable evidence —
    explanations and provenance need the full history), the *latest*
    snapshot, and the final end record when the journal is sealed (an
    ``end`` as its last record).  Dropped: superseded snapshots and
    stale end markers left behind by crash/recover cycles.
    """
    last_snapshot = None
    for position, kind in enumerate(kinds):
        if kind == "snapshot":
            last_snapshot = position
    last = len(kinds) - 1
    return [
        position
        for position, kind in enumerate(kinds)
        if (kind != "snapshot" or position == last_snapshot)
        and (kind != "end" or position == last)
    ]


def compact_records(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The compacted form of a journal's records (see :func:`kept_positions`).

    Replaying the compacted records yields a state bit-identical to
    replaying the originals, and
    :func:`~repro.runtime.checkpoint.fast_recover` on them does
    O(events since the kept snapshot) engine work.
    """
    return [records[i] for i in kept_positions([r.get("type") for r in records])]


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------


class RunStore:
    """The per-run record handle a backend hands out.

    Subclasses implement the five storage verbs; the base class only
    fixes the contract:

    * :meth:`append` makes *record* part of the run's history per the
      backend's durability policy, raising
      :class:`~repro.runtime.faults.DiskFault` when an injected fault
      fires — in which case the record is NOT acknowledged and the
      store self-heals on the next append (truncate-and-recover);
    * :meth:`read` returns ``(records, warnings)``, dropping torn or
      corrupted *trailing* records with a warning and raising
      :class:`StorageCorruptionError` for interior damage;
    * :meth:`sync` is an explicit durability barrier (a no-op when no
      record was appended since the last one);
    * :meth:`compact` rewrites the history as :func:`compact_records`
      (the offline ``repro compact``; a served store only appends);
    * :meth:`close` releases the handle (the records stay).
    """

    run_id: str

    def append(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def read(self) -> PyTuple[List[Dict[str, Any]], List[str]]:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def compact(self) -> CompactionStats:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def record_count(self) -> int:
        raise NotImplementedError

    def size_bytes(self) -> int:
        return 0

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    #: Where the records live on disk, when they do (diagnostics only).
    path: Optional[Path] = None


class StorageBackend:
    """Run id → :class:`RunStore`; the service's durable substrate."""

    #: Short name used in metrics labels and ``--storage`` specs.
    name: str = "abstract"
    #: Whether records survive a process death.  The registry refuses to
    #: simulate crash recovery on non-durable backends (the state would
    #: genuinely be lost), and only durable backends make eviction a
    #: RAM-for-disk trade rather than a RAM-for-RAM one.
    durable: bool = False

    def exists(self, run_id: str) -> bool:
        raise NotImplementedError

    def store(self, run_id: str) -> RunStore:
        """The run's record store, created empty if it does not exist."""
        raise NotImplementedError

    def read_records(self, run_id: str) -> PyTuple[List[Dict[str, Any]], List[str]]:
        store = self.store(run_id)
        try:
            return store.read()
        finally:
            store.close()

    def run_ids(self) -> List[str]:
        raise NotImplementedError

    def delete(self, run_id: str) -> None:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        return {"backend": self.name, "durable": self.durable}

    def close(self) -> None:
        pass

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Record-level journal (the writer hosted runs hold)
# ----------------------------------------------------------------------


class RecordJournal:
    """The journal writer: the record format of
    :mod:`repro.runtime.journal`, emitted into a :class:`RunStore`.

    ``begin`` / ``record_event`` / ``snapshot`` / ``quarantine`` /
    ``end`` append one record each; encoding, framing and durability
    are the store's business.  Given the instance, ``record_event``
    also snapshots once the events since the last checkpoint (the begin
    record's initial instance, then each snapshot) number at least
    ``max(snapshot_every, tuples in that checkpoint)``.  Each
    superseded snapshot is then followed by at least as many event
    records as it holds tuples, so a store stays within about twice its
    compacted size and nothing is compacted while it is written
    (``snapshot_every=None`` writes no snapshots).
    """

    def __init__(self, store: RunStore, snapshot_every: Optional[int] = 10) -> None:
        self.store = store
        self.snapshot_every = snapshot_every
        self.events_recorded = 0
        #: ``events_recorded`` as of the last checkpoint, and the tuples
        #: it holds: what the snapshot cadence counts from.
        self.checkpoint_at = 0
        self.checkpoint_tuples = 0
        self._closed = False

    def resume(
        self, events_recorded: int, checkpoint_at: int, checkpoint_tuples: int
    ) -> None:
        """Adopt the position of an existing journal being reopened.

        Keeps the snapshot cadence continuous across rehydration and
        recovery: the next snapshot is due where it was before the
        journal was closed.
        """
        self.events_recorded = events_recorded
        self.checkpoint_at = checkpoint_at
        self.checkpoint_tuples = checkpoint_tuples

    def _emit(self, record: Dict[str, Any]) -> None:
        if self._closed:
            raise StorageError("record journal is closed")
        self.store.append(record)

    def begin(self, initial: Instance, meta: Optional[Dict[str, Any]] = None) -> None:
        self._emit(begin_record(initial, meta))
        self.checkpoint_tuples = initial.size()

    def record_event(
        self, index: int, event: Event, instance: Optional[Instance] = None
    ) -> None:
        self._emit(event_record(index, event))
        self.events_recorded += 1
        if (
            instance is not None
            and self.snapshot_every
            and self.events_recorded - self.checkpoint_at
            >= max(self.snapshot_every, self.checkpoint_tuples)
        ):
            try:
                self.snapshot(index, instance)
            except DiskFault:
                # The event record above is already acknowledged; a
                # snapshot is a recovery-cost optimization, not part of
                # the ack.  Raising here would make the caller retry an
                # acknowledged append and duplicate the event record.
                # The checkpoint stays put, so the next event retries.
                pass

    def snapshot(self, index: int, instance: Instance) -> None:
        self._emit(snapshot_record(index, self.events_recorded, instance))
        self.checkpoint_at = self.events_recorded
        self.checkpoint_tuples = instance.size()

    def quarantine(self, index: int, event: Event, error: str, attempts: int) -> None:
        self._emit(quarantine_record(index, event, error, attempts))

    def end(self, status: str = "completed", reason: Optional[str] = None) -> None:
        self._emit(end_record(status, reason))
        self.store.sync()

    def observer(self) -> Callable[[int, Event, Instance], None]:
        """An observer for :func:`repro.workflow.runs.execute`: journals
        each event (with cadence snapshots) as the engine applies it."""

        def observe(index: int, event: Event, instance: Instance) -> None:
            self.record_event(index, event, instance)

        return observe

    def close(self) -> None:
        if not self._closed:
            self.store.close()
        self._closed = True

    def __enter__(self) -> "RecordJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Memory backend (the default: pre-storage semantics, records in RAM)
# ----------------------------------------------------------------------


class _MemoryStore(RunStore):
    def __init__(self, backend: "MemoryBackend", run_id: str) -> None:
        self.backend = backend
        self.run_id = run_id
        self._records = backend._records.setdefault(run_id, [])
        self._closed = False

    def append(self, record: Dict[str, Any]) -> None:
        if self._closed:
            raise StorageError(f"store for run {self.run_id!r} is closed")
        self._records.append(record)

    def read(self) -> PyTuple[List[Dict[str, Any]], List[str]]:
        return list(self._records), []

    def sync(self) -> None:
        pass

    def compact(self) -> CompactionStats:
        before = len(self._records)
        kept = compact_records(self._records)
        self._records[:] = kept
        COMPACTIONS.labels(backend=self.backend.name).inc()
        COMPACTION_RECLAIMED.labels(backend=self.backend.name).inc(before - len(kept))
        self.backend.compactions += 1
        return CompactionStats(records_before=before, records_after=len(kept))

    def close(self) -> None:
        self._closed = True

    def record_count(self) -> int:
        return len(self._records)

    def size_bytes(self) -> int:
        return sum(len(json.dumps(r, sort_keys=True)) for r in self._records)


class MemoryBackend(StorageBackend):
    """Records held in process memory — the default backend.

    Hosted-run semantics are bit-identical to the pre-storage service:
    nothing touches disk, and a (real or simulated) process death loses
    any run that was only hosted here.  What the records buy within the
    process is LRU eviction: an idle run's live state (instance, caches,
    explainers — the RAM-heavy part) can be dropped and transparently
    rehydrated from its records on next access.
    """

    name = "memory"
    durable = False

    def __init__(self) -> None:
        self._records: Dict[str, List[Dict[str, Any]]] = {}
        self.compactions = 0

    def exists(self, run_id: str) -> bool:
        return bool(self._records.get(run_id))

    def store(self, run_id: str) -> _MemoryStore:
        return _MemoryStore(self, run_id)

    def run_ids(self) -> List[str]:
        return sorted(run_id for run_id, records in self._records.items() if records)

    def delete(self, run_id: str) -> None:
        self._records.pop(run_id, None)

    def stats(self) -> Dict[str, Any]:
        return {
            **super().stats(),
            "runs": len(self._records),
            "records": sum(len(r) for r in self._records.values()),
            "compactions": self.compactions,
        }


def file_store(path: Union[str, Path]) -> RunStore:
    """The durable store over the log at *path*, whatever its name.

    The :class:`~repro.storage.segment.SegmentStore` format outside the
    ``<root>/<quoted run id>.journal`` layout: what ``repro run
    --journal FILE`` writes.
    """
    from .segment import SegmentBackend, SegmentStore

    path = Path(path)
    return SegmentStore(SegmentBackend(path.parent), path.name, path)


# ----------------------------------------------------------------------
# Backend spec parsing (the CLI's --storage flag)
# ----------------------------------------------------------------------


def open_backend(
    spec: Union[str, StorageBackend],
    durability: Union[str, DurabilityPolicy, None] = None,
    fault_injector: Optional[Any] = None,
) -> StorageBackend:
    """``"memory"`` / ``"segment:DIR"`` → a backend.

    *durability* and *fault_injector* (a
    :class:`~repro.runtime.faults.DiskFaultInjector`) apply to the
    segment backend, the durable one.
    """
    if isinstance(spec, StorageBackend):
        return spec
    kind, _, arg = spec.partition(":")
    if kind == "memory":
        if arg:
            raise StorageError("the memory backend takes no argument")
        return MemoryBackend()
    if not arg:
        raise StorageError(
            f"storage spec {spec!r} needs an argument, e.g. {kind}:<path>"
        )
    if kind == "segment":
        from .segment import SegmentBackend

        return SegmentBackend(arg, durability=durability, fault_injector=fault_injector)
    raise StorageError(
        f"unknown storage backend {kind!r} "
        "(expected memory or segment:<dir>)"
    )
