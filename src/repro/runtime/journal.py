"""Append-only run journals: durable, replayable execution records.

A journal is a sequence of JSON records describing one execution
of a workflow program, in the spirit of ProvDB's versioned lifecycle
store: a ``begin`` record with the initial instance, one ``event``
record per applied event (the event encoding of
:mod:`repro.workflow.serialization`), periodic ``snapshot`` records
with the full instance, optional ``quarantine`` records for events the
supervisor set aside, and an ``end`` record with the final status.

This module defines the record format and reads it back; one writer,
:class:`repro.storage.RecordJournal`, emits it into a
:class:`~repro.storage.RunStore` — memory, or a file of CRC-framed
lines, one per record (:mod:`repro.storage.segment`).  A torn or
corrupt final line (a crash interrupted a write) is detected and
dropped on read.  :func:`recover_run` replays
the journaled events through the engine — validity is re-checked at
every step — and verifies every snapshot against the replayed
instance, turning the journal into a recovery mechanism and not merely
a log; :func:`repro.runtime.checkpoint.fast_recover` shares its record
scan and replays only the tail after the latest snapshot.

The crash-consistency contract is the store's
:class:`~repro.storage.DurabilityPolicy`: ``flush`` (the default)
survives a process crash, ``fsync`` survives power loss at one disk
round-trip per record; see ``docs/STORAGE.md`` for the full matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple as PyTuple,
    Union,
)

from ..workflow.errors import JournalError, RecoveryError, RunError
from ..workflow.events import Event
from ..workflow.instance import Instance
from ..workflow.program import WorkflowProgram
from ..workflow.runs import Run, execute
from ..workflow.serialization import (
    event_from_dict,
    event_to_dict,
    instance_from_dict,
    instance_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - the storage layer imports this module
    from ..storage.backend import RunStore

__all__ = [
    "JOURNAL_SUFFIX",
    "JOURNAL_VERSION",
    "JournalScan",
    "RecoveredRun",
    "begin_record",
    "end_record",
    "event_record",
    "journal_path",
    "journal_run",
    "quarantine_record",
    "read_journal",
    "read_journal_ex",
    "recover_run",
    "run_id_from_path",
    "scan_journal",
    "snapshot_record",
]

#: Bumped when the record format changes incompatibly.
JOURNAL_VERSION = 1

#: File suffix of on-disk run journals in a store's root directory.
JOURNAL_SUFFIX = ".journal"

#: What the readers accept: a journal file, its lines, or parsed records.
JournalSource = Union[str, Path, Iterable[str], List[Dict[str, Any]]]


# ----------------------------------------------------------------------
# Journal directory layout
# ----------------------------------------------------------------------
#
# The segment backend maps run ids to journal files through these
# functions, so the layout is defined in exactly one place:
# ``<dir>/<quoted run id>.journal``, with the run id percent-encoded so
# arbitrary ids stay one flat file per run.


def journal_path(journal_dir: Union[str, Path], run_id: str) -> Path:
    """The canonical journal file for *run_id* under *journal_dir*."""
    from urllib.parse import quote

    if not run_id:
        raise JournalError("run id must be non-empty")
    return Path(journal_dir) / (quote(run_id, safe="") + JOURNAL_SUFFIX)


def run_id_from_path(path: Union[str, Path]) -> str:
    """Invert :func:`journal_path` on a journal file name."""
    from urllib.parse import unquote

    name = Path(path).name
    if not name.endswith(JOURNAL_SUFFIX):
        raise JournalError(f"{name!r} is not a journal file (missing {JOURNAL_SUFFIX})")
    return unquote(name[: -len(JOURNAL_SUFFIX)])


# ----------------------------------------------------------------------
# Record constructors
# ----------------------------------------------------------------------
#
# The journal format is defined by these five builders; the one writer
# (:class:`repro.storage.RecordJournal`) goes through them, so the
# format has exactly one authority.


def begin_record(initial: Instance, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "type": "begin",
        "version": JOURNAL_VERSION,
        "initial": instance_to_dict(initial),
    }
    if meta:
        record["meta"] = meta
    return record


def event_record(index: int, event: Event) -> Dict[str, Any]:
    return {"type": "event", "index": index, "event": event_to_dict(event)}


def snapshot_record(index: int, events: int, instance: Instance) -> Dict[str, Any]:
    return {
        "type": "snapshot",
        "index": index,
        "events": events,
        "instance": instance_to_dict(instance),
    }


def quarantine_record(index: int, event: Event, error: str, attempts: int) -> Dict[str, Any]:
    return {
        "type": "quarantine",
        "index": index,
        "event": event_to_dict(event),
        "error": error,
        "attempts": attempts,
    }


def end_record(status: str = "completed", reason: Optional[str] = None) -> Dict[str, Any]:
    record: Dict[str, Any] = {"type": "end", "status": status}
    if reason:
        record["reason"] = reason
    return record


def journal_run(
    run: Run,
    sink: Union[str, Path, "RunStore"],
    snapshot_every: Optional[int] = 10,
    status: str = "completed",
) -> None:
    """Journal an already-executed run (e.g. for archival or transport).

    *sink* is a :class:`~repro.storage.RunStore`, or a path that gets a
    file store (:func:`~repro.storage.backend.file_store`).  Every
    snapshot stays for :func:`recover_run` to verify.
    """
    from ..storage.backend import RecordJournal, file_store

    owned = isinstance(sink, (str, Path))
    journal = RecordJournal(
        file_store(sink) if owned else sink, snapshot_every=snapshot_every
    )
    journal.begin(run.initial)
    for index, event in enumerate(run.events):
        journal.record_event(index, event, run.instances[index])
    journal.end(status)
    if owned:
        journal.close()


# ----------------------------------------------------------------------
# Reading and recovery
# ----------------------------------------------------------------------


def read_journal(source: Union[str, Path, Iterable[str]]) -> List[Dict[str, Any]]:
    """Parse a journal into its records.

    *source* is a path or an iterable of CRC-framed lines, the format
    every :class:`~repro.storage.RunStore` on disk writes.  A torn or
    corrupt final line (a crash interrupted the write) is dropped; damage
    anywhere else raises
    :class:`~repro.storage.StorageCorruptionError`.  Use
    :func:`read_journal_ex` to also see what was dropped.
    """
    return read_journal_ex(source)[0]


def read_journal_ex(
    source: Union[str, Path, Iterable[str]],
) -> PyTuple[List[Dict[str, Any]], List[str]]:
    """:func:`read_journal`, plus warnings about dropped trailing garbage.

    Returns ``(records, warnings)``, with the store's own scan
    (:func:`repro.storage.segment.read_log`); the file is never written.
    """
    from ..storage.segment import read_log

    if isinstance(source, (str, Path)):
        path = Path(source)
        return read_log(path.read_text(encoding="utf-8", errors="replace"), path.name)
    return read_log("".join(source), "journal")


@dataclass
class JournalScan:
    """One decoding pass over a journal, shared by both recovery paths.

    The begin record is checked (present, first, a known version) and
    every event decoded; snapshots are kept as ``(events before them,
    record)`` pairs and decoded only by the reader that needs them.
    """

    initial: Instance
    events: List[Event] = field(default_factory=list)
    snapshots: List[PyTuple[int, Dict[str, Any]]] = field(default_factory=list)
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    status: Optional[str] = None
    warnings: List[str] = field(default_factory=list)


def scan_journal(program: WorkflowProgram, source: JournalSource) -> JournalScan:
    """Check and decode a journal's records (see :class:`JournalScan`)."""
    warnings: List[str] = []
    if isinstance(source, list) and (not source or isinstance(source[0], dict)):
        records = source  # pre-parsed
    else:
        records, warnings = read_journal_ex(source)
    if not records or records[0].get("type") != "begin":
        raise RecoveryError("journal has no begin record")
    begin = records[0]
    if begin.get("version", JOURNAL_VERSION) != JOURNAL_VERSION:
        raise RecoveryError(f"unsupported journal version {begin.get('version')!r}")
    scan = JournalScan(
        instance_from_dict(program, begin.get("initial", {})), warnings=warnings
    )
    for record in records[1:]:
        kind = record.get("type")
        if kind == "event":
            scan.events.append(event_from_dict(program, record["event"]))
        elif kind == "snapshot":
            scan.snapshots.append((len(scan.events), record))
        elif kind == "quarantine":
            scan.quarantined.append(record)
        elif kind == "end":
            scan.status = record.get("status")
        elif kind == "begin":
            raise RecoveryError("journal contains a second begin record")
        else:
            raise RecoveryError(f"unknown journal record type {kind!r}")
    return scan


@dataclass
class RecoveredRun:
    """The result of replaying a journal through the engine.

    ``complete`` is True when the journal carries an ``end`` record with
    status ``completed`` — otherwise the process died (or was budget-
    killed) mid-run and *run* is the validated prefix it had finished.
    """

    run: Run
    complete: bool
    status: Optional[str]
    events_replayed: int
    snapshots_verified: int
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    #: Non-fatal recovery diagnostics, e.g. a torn trailing journal line
    #: that was dropped (the crash interrupted its write).
    warnings: List[str] = field(default_factory=list)

    @property
    def final_instance(self) -> Instance:
        return self.run.final_instance


def recover_run(
    program: WorkflowProgram,
    source: JournalSource,
    verify_snapshots: bool = True,
) -> RecoveredRun:
    """Replay a journal against *program*, re-checking validity stepwise.

    The journaled events are re-executed through the engine (so every
    body/applicability/chase condition is re-checked — a corrupted
    journal cannot smuggle in an invalid state) and, when
    *verify_snapshots* is set, each snapshot record is compared against
    the replayed instance at the same point, raising
    :class:`RecoveryError` on divergence.

    >>> # recovered = recover_run(program, "run.journal")
    >>> # recovered.run.final_instance  # isomorphic to the crashed run's
    """
    scan = scan_journal(program, source)
    try:
        run = execute(program, scan.events, initial=scan.initial, check_freshness=False)
    except RunError as exc:
        raise RecoveryError(f"journal replay failed: {exc}") from exc
    verified = 0
    if verify_snapshots:
        for events_seen, record in scan.snapshots:
            expected = run.instances[events_seen - 1] if events_seen else run.initial
            if instance_from_dict(program, record.get("instance", {})) != expected:
                raise RecoveryError(
                    f"snapshot after {events_seen} events diverges from replay"
                )
            verified += 1
    return RecoveredRun(
        run=run,
        complete=scan.status == "completed",
        status=scan.status,
        events_replayed=len(scan.events),
        snapshots_verified=verified,
        quarantined=scan.quarantined,
        warnings=scan.warnings,
    )
