"""Journal replication: primary shards ship records to a follower.

The cluster replication contract (``docs/CLUSTER.md``) in one
paragraph: a primary acknowledges a client write only after *local*
durability (the PR 6 storage backend's policy), then ships the same
journal/segment records, FIFO, to its follower shard over the ordinary
JSON-lines protocol (the ``replicate`` op).  The follower appends them
into its own storage backend — so when the primary dies, the follower
already holds a *prefix* of every run's acknowledged history, the
supervisor tops the prefix up from the dead primary's surviving store
(a process kill does not take the disk with it), and promotion is just
repointing the router: the follower recovers the runs from its own
records through the ordinary open-with-recovery path.

Three pieces live here:

* :class:`ReplicationShipper` — the primary-side asyncio shipping loop:
  an in-order queue of ``(run, position, record)``, batched sends, a
  count-query resync cursor that makes redelivery after any failure
  exactly-once, and reconnect-with-backoff when the follower is down;
* :class:`ReplicatingBackend` / :class:`ReplicatingStore` — a
  transparent :class:`~repro.storage.backend.StorageBackend` wrapper:
  ``append`` appends locally first (the ack path is untouched) and then
  enqueues the record for shipping;
* :func:`reconcile_with_follower` — the supervisor's failover step:
  read a dead shard's store, ask the follower how much of each run it
  holds, ship the missing suffix.

Replicated stores are append-only, as every served store is: a
served run's journal is never compacted (its snapshot cadence bounds
its size), so nothing rewrites history underneath the shipper's
position cursor; compaction is the offline ``repro compact`` command.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple as PyTuple, Union

from ..storage.backend import (
    CompactionStats,
    RunStore,
    StorageBackend,
    StorageError,
    open_backend,
)
from ..service.protocol import decode_line, encode_message

__all__ = [
    "ReconcileReport",
    "ReplicatingBackend",
    "ReplicatingStore",
    "ReplicationShipper",
    "parse_address",
    "reconcile_with_follower",
]

#: Encoded-batch budget, well under the follower's request-line cap.
_BATCH_BYTES = 256 * 1024
_BATCH_RECORDS = 32


def parse_address(target: str) -> PyTuple[str, int]:
    """``"host:port"`` → ``(host, port)``."""
    host, _, port = target.rpartition(":")
    if not host or not port.isdigit():
        raise StorageError(f"bad replication target {target!r} (want host:port)")
    return host, int(port)


class ReplicationShipper:
    """Primary-side record shipping with an exactly-once resync cursor.

    Every enqueued record carries its absolute *position* in the run's
    store.  On any delivery failure the shipper asks the follower how
    many records it holds for the run (``replicate`` + ``count``) and
    drops the already-delivered prefix before retrying — so a batch
    that died mid-append is completed, never duplicated.
    """

    def __init__(
        self,
        target: str,
        batch_records: int = _BATCH_RECORDS,
        batch_bytes: int = _BATCH_BYTES,
        retry_backoff: float = 0.05,
        max_backoff: float = 1.0,
    ) -> None:
        self.target = target
        self.host, self.port = parse_address(target)
        self.batch_records = batch_records
        self.batch_bytes = batch_bytes
        self.retry_backoff = retry_backoff
        self.max_backoff = max_backoff
        self._pending: Deque[PyTuple[str, int, Dict[str, Any]]] = deque()
        self._in_flight = 0  # pulled off the queue but not yet delivered
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task] = None
        self._connection: Optional[
            PyTuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = None
        self._closed = False
        self.shipped = 0
        self.batches = 0
        self.reconnects = 0
        self.resyncs = 0

    # ------------------------------------------------------------------
    # Producer side (called synchronously from store appends)
    # ------------------------------------------------------------------

    def enqueue(self, run_id: str, position: int, record: Dict[str, Any]) -> None:
        if self._closed:
            return
        self._pending.append((run_id, position, record))
        self._wake.set()
        self._ensure_started()

    def _ensure_started(self) -> None:
        if self._task is not None and not self._task.done():
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:  # no loop yet: the first in-loop append starts us
            return
        self._task = loop.create_task(self._run(), name=f"replicate:{self.target}")

    @property
    def pending(self) -> int:
        return len(self._pending) + self._in_flight

    # ------------------------------------------------------------------
    # Shipping loop
    # ------------------------------------------------------------------

    async def _run(self) -> None:
        backoff = self.retry_backoff
        while not self._closed:
            if not self._pending:
                self._wake.clear()
                await self._wake.wait()
                continue
            batch = self._next_batch()
            self._in_flight = len(batch)
            while batch:
                try:
                    batch = await self._deliver(batch)
                    self._in_flight = len(batch)
                    backoff = self.retry_backoff
                except asyncio.CancelledError:
                    raise
                except Exception:
                    # Follower down or mid-failover: drop the
                    # connection, back off, resync, try again.  The
                    # batch stays ours — order is preserved because the
                    # loop does not pull new work until it lands.
                    await self._disconnect()
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, self.max_backoff)

    def _next_batch(self) -> List[PyTuple[str, int, Dict[str, Any]]]:
        """The longest same-run prefix of the queue within batch bounds."""
        batch: List[PyTuple[str, int, Dict[str, Any]]] = []
        size = 0
        while self._pending and len(batch) < self.batch_records:
            run_id, position, record = self._pending[0]
            if batch and run_id != batch[0][0]:
                break
            encoded = len(encode_message(record))
            if batch and size + encoded > self.batch_bytes:
                break
            batch.append(self._pending.popleft())
            size += encoded
        return batch

    async def _deliver(
        self, batch: List[PyTuple[str, int, Dict[str, Any]]]
    ) -> List[PyTuple[str, int, Dict[str, Any]]]:
        """Ship one batch; returns the records still owed (after resync)."""
        run_id = batch[0][0]
        have = await self._request(op="replicate", run=run_id, count=True)
        cursor = int(have.get("records", 0))
        remaining = [entry for entry in batch if entry[1] >= cursor]
        if len(remaining) != len(batch):
            self.resyncs += 1
        if not remaining:
            return []
        response = await self._request(
            op="replicate",
            run=run_id,
            records=[record for _, _, record in remaining],
        )
        if not response.get("ok"):
            raise StorageError(
                f"follower refused replicated records for {run_id!r}: "
                f"{response.get('error')}: {response.get('message')}"
            )
        self.shipped += len(remaining)
        self.batches += 1
        return []

    async def _request(self, **message: Any) -> Dict[str, Any]:
        if self._connection is None:
            self._connection = await asyncio.open_connection(
                self.host, self.port, limit=1 << 22
            )
            self.reconnects += 1
        reader, writer = self._connection
        writer.write(encode_message(message))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise StorageError("follower closed the replication connection")
        return decode_line(line)

    async def _disconnect(self) -> None:
        if self._connection is None:
            return
        _, writer = self._connection
        self._connection = None
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Barriers and teardown
    # ------------------------------------------------------------------

    async def drain(self, timeout: float = 5.0) -> bool:
        """Wait until the backlog is delivered (False on timeout).

        Called by the ``shutdown`` op so a graceful stop hands the
        follower a complete prefix; a dead follower bounds the wait
        instead of wedging shutdown.
        """
        deadline = asyncio.get_running_loop().time() + timeout
        while self.pending:
            if asyncio.get_running_loop().time() >= deadline:
                return False
            self._ensure_started()
            await asyncio.sleep(0.01)
        return True

    async def aclose(self) -> None:
        self._closed = True
        self._wake.set()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, Exception):
                pass
        await self._disconnect()

    def stats(self) -> Dict[str, Any]:
        return {
            "target": self.target,
            "pending": self.pending,
            "shipped": self.shipped,
            "batches": self.batches,
            "reconnects": self.reconnects,
            "resyncs": self.resyncs,
        }


# ----------------------------------------------------------------------
# The transparent backend wrapper
# ----------------------------------------------------------------------


class ReplicatingStore(RunStore):
    """Append locally (the ack path), then enqueue for shipping."""

    def __init__(self, inner: RunStore, shipper: ReplicationShipper) -> None:
        self.inner = inner
        self.run_id = inner.run_id
        self.shipper = shipper
        self._position = inner.record_count()

    @property
    def path(self) -> Optional[Path]:  # type: ignore[override]
        return self.inner.path

    def append(self, record: Dict[str, Any]) -> None:
        # A DiskFault here propagates before the enqueue: an
        # unacknowledged record is never shipped.
        self.inner.append(record)
        self.shipper.enqueue(self.run_id, self._position, record)
        self._position += 1

    def read(self) -> PyTuple[List[Dict[str, Any]], List[str]]:
        return self.inner.read()

    def sync(self) -> None:
        self.inner.sync()

    def compact(self) -> CompactionStats:
        raise StorageError(
            "replicated stores are append-only: compaction would move the "
            "shipper's position cursor; run 'repro compact' offline instead"
        )

    def close(self) -> None:
        self.inner.close()

    def record_count(self) -> int:
        return self.inner.record_count()

    def size_bytes(self) -> int:
        return self.inner.size_bytes()


class ReplicatingBackend(StorageBackend):
    """A :class:`StorageBackend` whose appends are shipped to a follower.

    Everything else — existence, listing, reads, durability class —
    delegates to the wrapped backend; replica records *received* from
    another primary are appended to :attr:`inner` directly (by the
    server's ``replicate`` op) so they are never re-shipped onward.
    """

    def __init__(self, inner: StorageBackend, shipper: ReplicationShipper) -> None:
        self.inner = inner
        self.shipper = shipper
        self.name = f"replicated+{inner.name}"
        self.durable = inner.durable

    def exists(self, run_id: str) -> bool:
        return self.inner.exists(run_id)

    def store(self, run_id: str) -> ReplicatingStore:
        return ReplicatingStore(self.inner.store(run_id), self.shipper)

    def run_ids(self) -> List[str]:
        return self.inner.run_ids()

    def delete(self, run_id: str) -> None:
        self.inner.delete(run_id)

    def stats(self) -> Dict[str, Any]:
        return {
            **self.inner.stats(),
            "backend": self.name,
            "replication": self.shipper.stats(),
        }

    def close(self) -> None:
        self.inner.close()


# ----------------------------------------------------------------------
# Failover reconciliation (the supervisor's promotion/restart step)
# ----------------------------------------------------------------------


@dataclass
class ReconcileReport:
    """What topping the follower up from a dead primary's store did."""

    runs: int = 0
    shipped_records: int = 0
    already_complete: int = 0
    warnings: List[str] = field(default_factory=list)


async def reconcile_with_follower(
    primary_storage: Union[str, StorageBackend],
    follower: str,
    run_ids: Optional[List[str]] = None,
    batch_records: int = _BATCH_RECORDS,
) -> ReconcileReport:
    """Ship each run's missing record suffix from a dead primary's store.

    Asynchronous replication may die with an acknowledged-but-unshipped
    tail; a *process* kill leaves the primary's local store intact, so
    this reads it back and completes the follower's prefix before the
    router is repointed — the step that makes "no acknowledged event is
    lost across a process kill" true end to end.
    """
    report = ReconcileReport()
    backend = (
        open_backend(primary_storage)
        if isinstance(primary_storage, str)
        else primary_storage
    )
    host, port = parse_address(follower)
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 22)

    async def request(**message: Any) -> Dict[str, Any]:
        writer.write(encode_message(message))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise StorageError("follower closed the reconciliation connection")
        response = decode_line(line)
        if not response.get("ok"):
            raise StorageError(
                f"follower refused reconciliation: "
                f"{response.get('error')}: {response.get('message')}"
            )
        return response

    try:
        for run_id in run_ids if run_ids is not None else backend.run_ids():
            records, warnings = backend.read_records(run_id)
            report.warnings.extend(f"{run_id}: {w}" for w in warnings)
            have = await request(op="replicate", run=run_id, count=True)
            cursor = int(have.get("records", 0))
            if cursor > len(records):
                report.warnings.append(
                    f"{run_id}: follower holds {cursor} records, primary "
                    f"store only {len(records)} — was the primary compacted?"
                )
                continue
            missing = records[cursor:]
            report.runs += 1
            if not missing:
                report.already_complete += 1
                continue
            for start in range(0, len(missing), batch_records):
                chunk = missing[start : start + batch_records]
                await request(op="replicate", run=run_id, records=chunk)
                report.shipped_records += len(chunk)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass
        if isinstance(primary_storage, str):
            backend.close()
    return report
