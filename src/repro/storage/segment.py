"""Segmented-log storage backend: CRC-framed, crash-safe, compactable.

Each run owns a directory of append-only segment files plus a
``MANIFEST`` naming the live segments in order::

    <root>/<quoted run id>/
        MANIFEST                 {"version": 1, "segments": ["seg-..."]}
        seg-00000001.log         one record per line: <crc32:8 hex> <json>
        seg-00000002.log

**Framing.**  Every record line carries the crc32 of its JSON payload.
A record is valid only if the line is newline-terminated, the CRC
parses, and it matches the payload — so a torn write (crash or injected
short write mid-record) and a corrupted trailing record are both
detectable, and both are *recovered*: the tail of the last segment is
truncated back to the last valid record, with a warning.  Invalid
records anywhere else mean acknowledged history was damaged and raise
:class:`~repro.storage.backend.StorageCorruptionError`.

**Durability.**  Appends flush/fsync per the backend's
:class:`~repro.storage.backend.DurabilityPolicy`; snapshots, seals and
compactions are barriers.  An injected fsync failure models ``EIO``
from ``fsync(2)`` in a still-running process: the data is intact but
the barrier did not happen, so acknowledged records never silently
disappear under the live process — the unsynced window only matters
across a power cut, exactly as the durability matrix in
``docs/STORAGE.md`` states.

**The MANIFEST.**  A new store writes its MANIFEST once, naming its
first segment; only a segment roll or a compaction replaces it.  A
served run's store is only appended to (its snapshot cadence bounds
its size), so between its open and its close it frees no file unless
it outgrows a segment.

**Compaction** is the offline ``repro compact``.  The store keeps a
type index: the ``type`` of every record in its live segments, in
order, extended by each acknowledged append.  ``compact()`` decides
what to keep from those types alone
(:func:`~repro.storage.backend.kept_positions`, the rule behind
:func:`~repro.storage.backend.compact_records`), then copies the kept
lines verbatim into a fresh segment, checking each against its CRC, so
the compacted segment holds exactly the bytes a decode-and-re-encode
would write.  Only when the types are unknown (a store just reopened,
or offline ``repro compact``) or a fault repair is pending does it read
— and decode — the history first; it never re-encodes a record.  The
copy still reads and writes O(history) bytes per compaction.  Damage
found while copying raises
:class:`~repro.storage.backend.StorageCorruptionError` before the
MANIFEST swap.  After the copy, the compacted segment is fsynced, then
the MANIFEST is atomically replaced and the old segments deleted.  A
crash in any window leaves either the old manifest (new segment is an
orphan) or the new one (old segments are orphans); orphans are swept
on the next open, so acknowledged records are never lost — the
property ``tests/storage/test_compaction_crash.py`` kills the process
at every step to prove.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple as PyTuple, Union

from ..runtime.faults import DiskFault, DiskFaultInjector
from ..runtime.journal import _quote_run_id
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

__all__ = ["SegmentBackend", "SegmentStore"]

MANIFEST_NAME = "MANIFEST"
MANIFEST_VERSION = 1
SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".log"

#: Roll to a new segment once the active one crosses this many bytes.
DEFAULT_SEGMENT_BYTES = 256 * 1024


def _segment_name(index: int) -> str:
    return f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"


def _segment_index(name: str) -> int:
    return int(name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])


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
    """*problem* with a mid-segment mark when any data follows *end*.

    Only a *final* damaged record is recoverable tail damage.  Anything
    after it means acknowledged history was damaged mid-log — the mark
    lets callers refuse to heal.
    """
    if end < len(data):
        return f"{problem} (mid-segment, valid data follows)"
    return problem


def _scan_segment(
    data: str,
) -> PyTuple[List[PyTuple[int, int]], int, Optional[str]]:
    """``(lines, valid_bytes, tail_problem)``: the framing check for one
    segment's bytes, shared by every reader.

    *lines* holds the ``(start, end)`` span of each valid line — newline
    terminated, framed, its CRC matching its payload — with *end* just
    past the newline.  *valid_bytes* is the offset just past the last
    valid line; *tail_problem* describes why scanning stopped early
    (None when the whole segment is valid).
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


class SegmentStore(RunStore):
    """One run's segmented log (see the module docstring)."""

    def __init__(self, backend: "SegmentBackend", run_id: str) -> None:
        self.backend = backend
        self.run_id = run_id
        self.path = backend.root / _quote_run_id(run_id)
        self.path.mkdir(parents=True, exist_ok=True)
        self._segments: List[str] = []
        self._sink = None
        self._appends_since_sync = 0
        self._synced_offset = 0
        self._needs_repair = False
        self._load_manifest()
        self._sweep_orphans()
        #: The ``type`` of every record in the live segments, in order:
        #: what :meth:`compact` decides from.  None (unknown) for an
        #: existing store until the first :meth:`read` builds it.
        self._kinds: Optional[List[Optional[str]]] = (
            None if self._segments else []
        )
        #: Tail repairs performed when the store was opened; surfaced by
        #: the next :meth:`read` so recovery paths can report them.
        self._open_warnings: List[str] = self._recover_tail()
        self._open_active()

    # ------------------------------------------------------------------
    # Manifest and segment bookkeeping
    # ------------------------------------------------------------------

    @property
    def _manifest_path(self) -> Path:
        return self.path / MANIFEST_NAME

    def _load_manifest(self) -> None:
        if self._manifest_path.exists():
            try:
                manifest = json.loads(self._manifest_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise StorageCorruptionError(
                    f"unreadable manifest for run {self.run_id!r}: {exc}"
                ) from exc
            if manifest.get("version") != MANIFEST_VERSION:
                raise StorageError(
                    f"unsupported manifest version {manifest.get('version')!r}"
                )
            self._segments = list(manifest.get("segments", []))

    def _write_manifest(self) -> None:
        tmp = self._manifest_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as sink:
            json.dump(
                {
                    "version": MANIFEST_VERSION,
                    "run_id": self.run_id,
                    "segments": self._segments,
                },
                sink,
            )
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(tmp, self._manifest_path)

    def _sweep_orphans(self) -> None:
        """Delete segment/tmp files a crashed compaction left behind."""
        live = set(self._segments)
        for entry in self.path.iterdir():
            name = entry.name
            if name == MANIFEST_NAME:
                continue
            if name.endswith(".tmp") or (
                name.startswith(SEGMENT_PREFIX)
                and name.endswith(SEGMENT_SUFFIX)
                and name not in live
            ):
                entry.unlink()

    def _next_segment_index(self) -> int:
        highest = 0
        for name in self._segments:
            highest = max(highest, _segment_index(name))
        for entry in self.path.glob(SEGMENT_PREFIX + "*" + SEGMENT_SUFFIX):
            highest = max(highest, _segment_index(entry.name))
        return highest + 1

    def _open_active(self) -> None:
        if not self._segments:
            self._roll()
            return
        active = self.path / self._segments[-1]
        self._sink = open(active, "a", encoding="utf-8")
        self._synced_offset = active.stat().st_size
        self._appends_since_sync = 0

    def _roll(self) -> None:
        """Finish the active segment and start a fresh one."""
        if self._sink is not None and not self._sink.closed:
            self._sink.flush()
            os.fsync(self._sink.fileno())
            self._sink.close()
        name = _segment_name(self._next_segment_index())
        self._segments.append(name)
        self._sink = open(self.path / name, "a", encoding="utf-8")
        self._write_manifest()
        self._synced_offset = 0
        self._appends_since_sync = 0

    # ------------------------------------------------------------------
    # Tail recovery (torn/corrupt trailing records)
    # ------------------------------------------------------------------

    def _recover_tail(self) -> List[str]:
        """Truncate the last segment to its valid prefix; the warnings."""
        if not self._segments:
            return []
        last = self.path / self._segments[-1]
        if not last.exists():
            return []
        data = last.read_text(encoding="utf-8", errors="replace")
        _, valid_bytes, problem = _parse_segment(data)
        if problem is None:
            return []
        if "mid-segment" in problem:
            raise StorageCorruptionError(
                f"segment {last.name} of run {self.run_id!r} is damaged: {problem}"
            )
        encoded_valid = len(data[:valid_bytes].encode("utf-8"))
        with open(last, "r+", encoding="utf-8") as handle:
            handle.truncate(encoded_valid)
        TAIL_RECOVERIES.labels(backend=self.backend.name).inc()
        return [
            f"truncated segment {last.name} to {valid_bytes} valid bytes: {problem}"
        ]

    def _repair(self) -> None:
        """Self-heal after a write fault: re-validate and reopen the tail."""
        if self._sink is not None and not self._sink.closed:
            self._sink.close()
        self._recover_tail()
        active = self.path / self._segments[-1]
        self._sink = open(active, "a", encoding="utf-8")
        self._synced_offset = min(self._synced_offset, active.stat().st_size)
        self._needs_repair = False

    # ------------------------------------------------------------------
    # The storage verbs
    # ------------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        if self._sink is None or self._sink.closed:
            raise StorageError(f"store for run {self.run_id!r} is closed")
        if self._needs_repair:
            self._repair()
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
        if self._kinds is not None:
            self._kinds.append(kind)
        self._appends_since_sync += 1
        barrier = kind in ("snapshot", "end")
        if self.backend.durability.wants_fsync(self._appends_since_sync, barrier):
            try:
                self.sync()
            except DiskFault:
                # The record is written and flushed — acknowledged —
                # only the durability barrier failed.  The fault is
                # counted, ``_synced_offset`` stays behind, and the next
                # successful sync covers this record too; raising here
                # would force a retry of an already-applied append.
                pass
        if self._sink.tell() >= self.backend.segment_bytes:
            self._roll()

    def sync(self) -> None:
        """Fsync the active segment (a durability barrier).

        A no-op when nothing was appended since the last successful
        barrier.  An injected fsync failure models ``EIO`` from
        ``fsync(2)`` in a process that keeps running: the written bytes
        are intact (the page cache does not vanish on a failed sync),
        but the barrier was *not* achieved — the store stays unsynced,
        ``_synced_offset`` stays behind and
        :class:`~repro.runtime.faults.DiskFault` is raised so callers
        that need the barrier (sealing, eviction, compaction) retry.
        Only an actual power cut would lose the unsynced tail; the
        durability matrix in ``docs/STORAGE.md`` spells out which
        policies accept that window.
        """
        if self._sink is None or self._sink.closed or not self._appends_since_sync:
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
        self._synced_offset = self._sink.tell()
        self._appends_since_sync = 0

    def read(self) -> PyTuple[List[Dict[str, Any]], List[str]]:
        records, warnings = self._read_segments()
        warnings = self._open_warnings + warnings
        self._open_warnings = []
        return records, warnings

    def _read_segments(self) -> PyTuple[List[Dict[str, Any]], List[str]]:
        """Decode every live segment and rebuild the type index from it.

        The warnings are the segments' own; the open-time tail repairs
        stay for :meth:`read` to hand out.
        """
        if self._sink is not None and not self._sink.closed:
            self._sink.flush()
        if self._needs_repair:
            self._repair()
        records: List[Dict[str, Any]] = []
        warnings: List[str] = []
        for position, name in enumerate(self._segments):
            parsed, _, problem = _parse_segment(self._segment_text(name))
            if problem is not None:
                if position != len(self._segments) - 1 or "mid-segment" in problem:
                    raise self._damaged(name, problem)
                warnings.append(f"dropped invalid tail of {name}: {problem}")
            records.extend(parsed)
        self._kinds = [record["type"] for record in records]
        return records, warnings

    def _segment_text(self, name: str) -> str:
        try:
            return (self.path / name).read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            raise StorageCorruptionError(
                f"manifest names missing segment {name} for run {self.run_id!r}"
            ) from None

    def _damaged(self, name: str, problem: str) -> StorageCorruptionError:
        return StorageCorruptionError(
            f"segment {name} of run {self.run_id!r} is damaged mid-log: {problem}"
        )

    def compact(self) -> CompactionStats:
        if self._kinds is None or self._needs_repair:
            self.read()
        kinds = self._kinds
        kept = kept_positions(kinds)
        keep = set(kept)
        bytes_before = self.size_bytes()
        old_segments = list(self._segments)
        name = _segment_name(self._next_segment_index())
        compacted = self.path / name
        # Copy the kept lines verbatim, each checked against its CRC.
        # Damage raises before the commit point below, leaving the
        # compacted file an orphan for the next open to sweep.
        position = 0
        with open(compacted, "w", encoding="utf-8") as sink:
            for old in old_segments:
                data = self._segment_text(old)
                lines, _, problem = _scan_segment(data)
                if problem is not None:
                    raise self._damaged(old, problem)
                for start, end in lines:
                    if position in keep:
                        sink.write(data[start:end])
                    position += 1
            if position != len(kinds):
                raise StorageError(
                    f"run {self.run_id!r} has {position} records on disk but "
                    f"{len(kinds)} in its type index; compaction refused"
                )
            sink.flush()
            os.fsync(sink.fileno())
        if self._sink is not None and not self._sink.closed:
            self._sink.close()
        # The commit point: a crash before this replace keeps the old
        # manifest (the compacted file is an orphan, swept on reopen); a
        # crash after it keeps the new one (the old segments are the
        # orphans).  Either way every acknowledged record survives.
        self._segments = [name]
        self._write_manifest()
        for old in old_segments:
            try:
                (self.path / old).unlink()
            except OSError:  # pragma: no cover - sweep gets it later
                pass
        self._sink = open(compacted, "a", encoding="utf-8")
        self._synced_offset = compacted.stat().st_size
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
        if self._sink is not None and not self._sink.closed:
            self._sink.flush()
            self._sink.close()

    def record_count(self) -> int:
        if self._kinds is None:
            self._read_segments()
        return len(self._kinds)

    def size_bytes(self) -> int:
        if self._sink is not None and not self._sink.closed:
            self._sink.flush()
        total = 0
        for name in self._segments:
            segment = self.path / name
            if segment.exists():
                total += segment.stat().st_size
        return total


class SegmentBackend(StorageBackend):
    """Segmented CRC-framed logs under one root directory."""

    name = "segment"
    durable = True

    def __init__(
        self,
        root: Union[str, Path],
        durability: Union[str, DurabilityPolicy, None] = None,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fault_injector: Optional[DiskFaultInjector] = None,
    ) -> None:
        if segment_bytes < 1024:
            raise StorageError("segments smaller than 1KiB are pointless")
        self.root = Path(root)
        self.durability = DurabilityPolicy.parse(durability)
        self.segment_bytes = segment_bytes
        self.fault_injector = fault_injector
        self.compactions = 0

    def exists(self, run_id: str) -> bool:
        run_dir = self.root / _quote_run_id(run_id)
        if not run_dir.is_dir():
            return False
        return any(
            run_dir.glob(SEGMENT_PREFIX + "*" + SEGMENT_SUFFIX)
        ) or (run_dir / MANIFEST_NAME).exists()

    def store(self, run_id: str) -> SegmentStore:
        return SegmentStore(self, run_id)

    def run_ids(self) -> List[str]:
        from urllib.parse import unquote

        if not self.root.is_dir():
            return []
        return sorted(
            unquote(entry.name)
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / MANIFEST_NAME).exists()
        )

    def delete(self, run_id: str) -> None:
        run_dir = self.root / _quote_run_id(run_id)
        if not run_dir.is_dir():
            return
        for entry in run_dir.iterdir():
            entry.unlink()
        run_dir.rmdir()

    def stats(self) -> Dict[str, Any]:
        return {
            **super().stats(),
            "root": str(self.root),
            "runs": len(self.run_ids()),
            "compactions": self.compactions,
            "durability": self.durability.mode,
            "segment_bytes": self.segment_bytes,
            "faults_injected": (
                dict(self.fault_injector.injected) if self.fault_injector else {}
            ),
        }
