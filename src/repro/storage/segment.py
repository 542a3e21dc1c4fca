"""The durable storage backend: one CRC-framed log file per run.

A run is its initial instance plus its events, so its durable record is
one append-only log: a run's log is one segment, at the path
:func:`~repro.runtime.journal.journal_path` defines::

    <root>/<quoted run id>.journal    one record per line: <crc32:8 hex> <json>

``repro run --journal FILE`` writes the same format to a file of any
name (:func:`~repro.storage.backend.file_store`), and
:func:`~repro.runtime.journal.read_journal` reads it back with the scan
the store uses (:func:`read_log`), without ever writing to it.

**Framing.**  Every record line carries the crc32 of its JSON payload.
A record is valid only if the line is newline-terminated, the CRC
parses, and it matches the payload — so a torn write (crash or injected
short write mid-record) and a corrupted trailing record are both
detectable, and both are *recovered*: when the store opens, and when it
repairs itself after a write fault, the log is truncated back to its
last valid record, with a warning.  Invalid records anywhere else mean
acknowledged history was damaged and raise
:class:`~repro.storage.backend.StorageCorruptionError`.

**Durability.**  Appends flush/fsync per the backend's
:class:`~repro.storage.backend.DurabilityPolicy`; snapshots, seals and
compactions are barriers.  An injected fsync failure models ``EIO``
from ``fsync(2)`` in a still-running process: the data is intact but
the barrier did not happen, so acknowledged records never silently
disappear under the live process — the unsynced window only matters
across a power cut, exactly as the durability matrix in
``docs/STORAGE.md`` states.  A served run's store is only appended to
(its snapshot cadence bounds its size): from its open to its close it
creates one file and frees none.

**Compaction** is the offline ``repro compact``.  The store keeps a
type index: the ``type`` of every record in its log, in order, built
when the store opens and extended by each acknowledged append.  (The
records that open-time scan decodes go to the first :meth:`read`, so
recovery decodes each line once.)
``compact()`` decides what to keep from those types alone
(:func:`~repro.storage.backend.kept_positions`, the rule behind
:func:`~repro.storage.backend.compact_records`), then copies the kept
lines verbatim into ``<log>.tmp``, checking each against its CRC, so
the compacted log holds exactly the bytes a decode-and-re-encode would
write; it never decodes or re-encodes a record.  The copy still reads
and writes O(history) bytes per compaction.  Damage anywhere in the
log, or a record count on disk that differs from the type index, raises
before the copy starts.  The copy is fsynced, then ``os.replace``
swaps it over the log: the rename is the commit point.  A crash before
it leaves the old log and a ``.tmp`` orphan, which the next open
sweeps; a crash after it leaves the compacted log.  Either way every
acknowledged record survives — the property
``tests/storage/test_compaction_crash.py`` kills the process at every
step to prove.  The directory is not fsynced.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple as PyTuple, Union

from ..runtime.faults import DiskFault, DiskFaultInjector
from ..runtime.journal import JOURNAL_SUFFIX, journal_path, run_id_from_path
from .backend import (
    COMPACTIONS,
    COMPACTION_RECLAIMED,
    CompactionStats,
    DISK_FAULTS,
    DurabilityPolicy,
    FSYNC_SECONDS,
    RunStore,
    StorageBackend,
    StorageCorruptionError,
    StorageError,
    TAIL_RECOVERIES,
    kept_positions,
)

__all__ = ["SegmentBackend", "SegmentStore", "read_log"]


def _frame(payload: str) -> str:
    return f"{zlib.crc32(payload.encode('utf-8')):08x} {payload}\n"


def _corrupt(line: str) -> str:
    """A deterministically damaged copy of a framed line (payload bytes
    flipped, newline kept) — what an injected ``corrupt`` fault writes."""
    body, newline = line[:-1], line[-1]
    middle = len(body) // 2
    flipped = chr((ord(body[middle]) % 94) + 33)
    return body[:middle] + flipped + body[middle + 1 :] + newline


def _located(problem: str, data: str, end: int) -> str:
    """*problem* with a mid-log mark when any data follows *end*.

    Only a *final* damaged record is recoverable tail damage.  Anything
    after it means acknowledged history was damaged mid-log — the mark
    lets callers refuse to heal.
    """
    if end < len(data):
        return f"{problem} (mid-log, valid data follows)"
    return problem


def _scan_segment(
    data: str,
) -> PyTuple[List[PyTuple[int, int]], int, Optional[str]]:
    """``(lines, valid_bytes, tail_problem)``: the framing check for a
    log's bytes, shared by every reader.

    *lines* holds the ``(start, end)`` span of each valid line — newline
    terminated, framed, its CRC matching its payload — with *end* just
    past the newline.  *valid_bytes* is the offset just past the last
    valid line; *tail_problem* describes why scanning stopped early
    (None when the whole log is valid).
    """
    lines: List[PyTuple[int, int]] = []
    offset = 0
    while offset < len(data):
        newline = data.find("\n", offset)
        if newline < 0:
            return lines, offset, "torn final record (no newline)"
        problem = None
        if newline - offset < 10 or data[offset + 8] != " ":
            problem = "unframed record line"
        else:
            try:
                expected = int(data[offset : offset + 8], 16)
            except ValueError:
                problem = "unparseable CRC"
            else:
                payload = data[offset + 9 : newline]
                if zlib.crc32(payload.encode("utf-8")) != expected:
                    problem = "CRC mismatch"
        if problem is not None:
            return lines, offset, _located(problem, data, newline + 1)
        lines.append((offset, newline + 1))
        offset = newline + 1
    return lines, offset, None


def _parse_segment(
    data: str,
) -> PyTuple[List[Dict[str, Any]], int, Optional[str]]:
    """``(records, valid_bytes, tail_problem)``: :func:`_scan_segment`
    plus JSON decoding and the typed-record check."""
    lines, valid_bytes, problem = _scan_segment(data)
    records: List[Dict[str, Any]] = []
    for start, end in lines:
        try:
            record = json.loads(data[start + 9 : end - 1])
        except json.JSONDecodeError:
            problem = _located("CRC-valid but undecodable payload", data, end)
            return records, start, problem
        if not isinstance(record, dict) or "type" not in record:
            return records, start, _located("not a typed record", data, end)
        records.append(record)
    return records, valid_bytes, problem


def _damaged(name: str, problem: str) -> StorageCorruptionError:
    return StorageCorruptionError(f"log {name} is damaged: {problem}")


def read_log(data: str, name: str) -> PyTuple[List[Dict[str, Any]], List[str]]:
    """``(records, warnings)`` from a log's text, named *name* in messages.

    A torn or corrupt final line is dropped with a warning; damage
    anywhere else raises
    :class:`~repro.storage.backend.StorageCorruptionError`.
    """
    records, _, problem = _parse_segment(data)
    if problem is None:
        return records, []
    if "mid-log" in problem:
        raise _damaged(name, problem)
    return records, [f"dropped invalid tail of {name}: {problem}"]


class SegmentStore(RunStore):
    """One run's log, a single file (see the module docstring)."""

    def __init__(self, backend: "SegmentBackend", run_id: str, path: Path) -> None:
        self.backend = backend
        self.run_id = run_id
        self.path = path
        self._appends_since_sync = 0
        self._needs_repair = False
        if not path.parent.is_dir():
            path.parent.mkdir(parents=True)
        if self._tmp_path.exists():
            self._tmp_path.unlink()  # a compaction that died before its rename
        #: The ``type`` of every record in the log, in order: what
        #: :meth:`compact` decides from.  Built by the open-time scan.
        self._kinds: List[str] = []
        #: The records the open-time scan decoded, handed to the first
        #: :meth:`read` and dropped by the first write, so recovery
        #: decodes each line once and a served run keeps no copy.
        self._decoded: Optional[List[Dict[str, Any]]] = None
        #: Tail repairs performed when the store was opened; surfaced by
        #: the next :meth:`read` so recovery paths can report them.
        self._open_warnings: List[str] = self._recover_tail()
        self._sink = open(path, "a", encoding="utf-8")

    @property
    def _tmp_path(self) -> Path:
        return self.path.with_name(self.path.name + ".tmp")

    def _text(self) -> str:
        return self.path.read_text(encoding="utf-8", errors="replace")

    # ------------------------------------------------------------------
    # Tail recovery (torn/corrupt trailing records)
    # ------------------------------------------------------------------

    def _recover_tail(self) -> List[str]:
        """Rebuild the type index and cut a damaged final line off the
        log; the warnings."""
        data = self._text() if self.path.exists() else ""
        records, valid_bytes, problem = _parse_segment(data)
        self._kinds = [record["type"] for record in records]
        if problem is not None and "mid-log" in problem:
            raise _damaged(self.path.name, problem)
        self._decoded = records
        if problem is None:
            return []
        with open(self.path, "r+", encoding="utf-8") as handle:
            handle.truncate(len(data[:valid_bytes].encode("utf-8")))
        TAIL_RECOVERIES.labels(backend=self.backend.name).inc()
        return [
            f"truncated {self.path.name} to {valid_bytes} valid bytes: {problem}"
        ]

    def _repair(self) -> None:
        """Self-heal after a write fault: re-validate and reopen the tail."""
        self._sink.close()
        self._recover_tail()
        self._sink = open(self.path, "a", encoding="utf-8")
        self._needs_repair = False

    # ------------------------------------------------------------------
    # The storage verbs
    # ------------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        if self._sink.closed:
            raise StorageError(f"store for run {self.run_id!r} is closed")
        if self._needs_repair:
            self._repair()
        self._decoded = None
        line = _frame(json.dumps(record, sort_keys=True))
        injector = self.backend.fault_injector
        fault = injector.on_append() if injector is not None else None
        if fault == "enospc":
            DISK_FAULTS.labels(kind="enospc").inc()
            raise DiskFault("enospc", f"injected ENOSPC appending to {self.run_id!r}")
        if fault == "short_write":
            self._sink.write(line[: max(1, len(line) // 2)])
            self._sink.flush()
            self._needs_repair = True
            DISK_FAULTS.labels(kind="short_write").inc()
            raise DiskFault(
                "short_write", f"injected short write appending to {self.run_id!r}"
            )
        if fault == "corrupt":
            self._sink.write(_corrupt(line))
            self._sink.flush()
            self._needs_repair = True
            DISK_FAULTS.labels(kind="corrupt").inc()
            raise DiskFault(
                "corrupt", f"injected corrupt trailing record in {self.run_id!r}"
            )
        self._sink.write(line)
        self._sink.flush()
        kind = record.get("type")
        self._kinds.append(kind)
        self._appends_since_sync += 1
        barrier = kind in ("snapshot", "end")
        if self.backend.durability.wants_fsync(self._appends_since_sync, barrier):
            try:
                self.sync()
            except DiskFault:
                # The record is written and flushed — acknowledged —
                # only the durability barrier failed.  The fault is
                # counted, the store stays unsynced, and the next
                # successful sync covers this record too; raising here
                # would force a retry of an already-applied append.
                pass

    def sync(self) -> None:
        """Fsync the log (a durability barrier).

        A no-op when nothing was appended since the last successful
        barrier.  An injected fsync failure models ``EIO`` from
        ``fsync(2)`` in a process that keeps running: the written bytes
        are intact (the page cache does not vanish on a failed sync),
        but the barrier was *not* achieved — the store stays unsynced
        and :class:`~repro.runtime.faults.DiskFault` is raised so
        callers that need the barrier (sealing, eviction, compaction)
        retry.  Only an actual power cut would lose the unsynced tail;
        the durability matrix in ``docs/STORAGE.md`` spells out which
        policies accept that window.
        """
        if self._sink.closed or not self._appends_since_sync:
            return  # the last barrier already covers every record
        self._sink.flush()
        injector = self.backend.fault_injector
        if injector is not None and injector.on_fsync():
            DISK_FAULTS.labels(kind="fsync").inc()
            raise DiskFault(
                "fsync",
                f"injected fsync failure on {self.run_id!r}; "
                "barrier not achieved, data intact",
            )
        started = time.perf_counter()
        os.fsync(self._sink.fileno())
        FSYNC_SECONDS.observe(time.perf_counter() - started)
        self._appends_since_sync = 0

    def read(self) -> PyTuple[List[Dict[str, Any]], List[str]]:
        if not self._sink.closed:
            self._sink.flush()
            if self._needs_repair:
                self._repair()
        if self._decoded is not None:
            records, warnings = self._decoded, []
            self._decoded = None
        else:
            records, warnings = read_log(self._text(), self.path.name)
        warnings = self._open_warnings + warnings
        self._open_warnings = []
        return records, warnings

    def compact(self) -> CompactionStats:
        if self._needs_repair:
            self._repair()
        self._decoded = None
        kinds = self._kinds
        kept = kept_positions(kinds)
        bytes_before = self.size_bytes()
        data = self._text()
        lines, _, problem = _scan_segment(data)
        if problem is not None:
            raise _damaged(self.path.name, problem)
        if len(lines) != len(kinds):
            raise StorageError(
                f"run {self.run_id!r} has {len(lines)} records on disk but "
                f"{len(kinds)} in its type index; compaction refused"
            )
        # Copy the kept lines verbatim (each CRC-checked above), then
        # make the copy durable before it can replace anything.
        with open(self._tmp_path, "w", encoding="utf-8") as sink:
            for position in kept:
                start, end = lines[position]
                sink.write(data[start:end])
            sink.flush()
            os.fsync(sink.fileno())
        self._sink.close()
        # The commit point: a crash before this rename keeps the old log
        # (the copy is an orphan, swept on reopen); a crash after it
        # keeps the compacted one.  Either way every acknowledged record
        # survives.
        os.replace(self._tmp_path, self.path)
        self._sink = open(self.path, "a", encoding="utf-8")
        self._appends_since_sync = 0
        self._kinds = [kinds[i] for i in kept]
        COMPACTIONS.labels(backend=self.backend.name).inc()
        COMPACTION_RECLAIMED.labels(backend=self.backend.name).inc(
            len(kinds) - len(kept)
        )
        self.backend.compactions += 1
        return CompactionStats(
            records_before=len(kinds),
            records_after=len(kept),
            bytes_before=bytes_before,
            bytes_after=self.size_bytes(),
        )

    def close(self) -> None:
        if not self._sink.closed:
            self._sink.flush()
            self._sink.close()

    def record_count(self) -> int:
        return len(self._kinds)

    def size_bytes(self) -> int:
        if not self._sink.closed:
            self._sink.flush()
        return self.path.stat().st_size


class SegmentBackend(StorageBackend):
    """One CRC-framed log file per run under one root directory."""

    name = "segment"
    durable = True

    def __init__(
        self,
        root: Union[str, Path],
        durability: Union[str, DurabilityPolicy, None] = None,
        fault_injector: Optional[DiskFaultInjector] = None,
    ) -> None:
        self.root = Path(root)
        self.durability = DurabilityPolicy.parse(durability)
        self.fault_injector = fault_injector
        self.compactions = 0

    def exists(self, run_id: str) -> bool:
        return journal_path(self.root, run_id).exists()

    def store(self, run_id: str) -> SegmentStore:
        return SegmentStore(self, run_id, journal_path(self.root, run_id))

    def run_ids(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            run_id_from_path(path) for path in self.root.glob("*" + JOURNAL_SUFFIX)
        )

    def delete(self, run_id: str) -> None:
        journal_path(self.root, run_id).unlink(missing_ok=True)

    def stats(self) -> Dict[str, Any]:
        return {
            **super().stats(),
            "root": str(self.root),
            "runs": len(self.run_ids()),
            "compactions": self.compactions,
            "durability": self.durability.mode,
            "faults_injected": (
                dict(self.fault_injector.injected) if self.fault_injector else {}
            ),
        }
