"""Pluggable run-record storage beneath the hosted-run service.

See :mod:`repro.storage.backend` for the protocol, the one journal
writer (:class:`RecordJournal`) and the memory backend, and
:mod:`repro.storage.segment` for the durable backend: one CRC-framed
log file per run.
``docs/STORAGE.md`` documents the record format, the compaction and
eviction lifecycles, and the durability matrix.
"""

from __future__ import annotations

from .backend import (
    CompactionStats,
    DurabilityPolicy,
    MemoryBackend,
    RecordJournal,
    RunStore,
    StorageBackend,
    StorageCorruptionError,
    StorageError,
    compact_records,
    open_backend,
)
from .segment import SegmentBackend

__all__ = [
    "CompactionStats",
    "DurabilityPolicy",
    "MemoryBackend",
    "RecordJournal",
    "RunStore",
    "SegmentBackend",
    "StorageBackend",
    "StorageCorruptionError",
    "StorageError",
    "compact_records",
    "open_backend",
]
