"""The cluster front door: a consistent-hash router over shard servers.

Clients speak the ordinary JSON-lines protocol to the router exactly as
they would to a single :class:`~repro.service.server.ServiceServer`;
the router owns no runs itself.  Placement is the
:class:`~repro.cluster.ring.HashRing`'s job and is deliberately
decoupled from *addressing*: the ring maps a run id to a stable node
**name**, and a separate address table maps the name to whatever
``host:port`` currently serves it — so failover (restart or follower
promotion) repoints an address without moving a single key, which is
what keeps cluster placement bit-identical across kills.

Per-op behaviour:

* run-scoped ops (``open``/``submit``/``view``/``explain``/
  ``applicable``/``provenance``/``stats`` with ``run``/``replicate``/
  ``close``) are proxied to the owning shard over a pooled connection
  and the shard's response line is passed through byte-for-byte;
* ``stats``/``metrics`` without a run fan out to every shard and come
  back merged under per-node keys, plus the router's own counters;
* ``ping`` is answered locally; ``shutdown`` is broadcast (each shard
  drains per the protocol v3 contract) and then stops the router;
* the router-only ``cluster`` op reports topology (``status``) and —
  when a supervisor is attached — injects faults (``kill``) for the
  cluster load generator.

Retries: reads and *idempotent* submits (those carrying the ``seq``
key) are retried with backoff against the current address until
``retry_timeout``, re-resolving the address each attempt so an
in-flight failover is survived; a non-idempotent submit is never
retried (an ``unavailable`` error surfaces instead, because a blind
resend could double-apply).  A shard answering ``unknown_run`` for a
run the router knows was opened triggers a transparent re-open — that
is how a freshly promoted follower (or restarted primary) is lazily
re-populated with its runs.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from ..service.errors import ProtocolError, ServiceError
from ..service.protocol import (
    MAX_LINE_BYTES,
    MAX_REPLY_BYTES,
    LineConnection,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    parse_request,
    start_line_server,
)
from .ring import HashRing

__all__ = ["ClusterRouter", "RouterServer"]

class _NodePool:
    """A small pool of JSON-lines connections to one shard address.

    Concurrency is bounded by a semaphore counting *checked-out* slots,
    not by counting live sockets: an idle connection holds no slot, so
    dropping a dead idle connection can never swallow a wakeup meant
    for a blocked acquirer.  (An earlier open-socket-count design lost
    exactly that race — when a shard died, one woken waiter's cleanup
    loop consumed every closed connection queued to wake the *others*,
    stranding them forever on a pool the router had already repointed
    away from.)  Every acquire eventually returns or raises: a holder's
    release/discard frees a slot, and a dial to a dead address raises
    out to the caller's retry loop.
    """

    def __init__(self, host: str, port: int, size: int = 4) -> None:
        self.host = host
        self.port = port
        self.size = size
        self._slots = asyncio.Semaphore(size)
        self._idle: List[LineConnection] = []

    async def acquire(self) -> LineConnection:
        await self._slots.acquire()
        try:
            while self._idle:
                connection = self._idle.pop()
                if not connection.is_closing():
                    return connection
                connection.close()
            return await LineConnection.connect(self.host, self.port, MAX_REPLY_BYTES)
        except BaseException:
            self._slots.release()
            raise

    def release(self, connection: LineConnection) -> None:
        self._idle.append(connection)
        self._slots.release()

    def discard(self, connection: LineConnection) -> None:
        connection.close()
        self._slots.release()

    async def close(self) -> None:
        while self._idle:
            self._idle.pop().close()


class ClusterRouter:
    """Route protocol requests to the owning shard; merge fan-out ops."""

    def __init__(
        self,
        nodes: Dict[str, Tuple[str, int]],
        vnodes: int = 64,
        pool_size: int = 4,
        retry_timeout: float = 10.0,
        retry_backoff: float = 0.05,
        supervisor: Optional[Any] = None,
    ) -> None:
        if not nodes:
            raise ServiceError("a cluster needs at least one shard node")
        self.ring = HashRing(nodes, vnodes=vnodes)
        self.addresses: Dict[str, Tuple[str, int]] = dict(nodes)
        self.pool_size = pool_size
        self.retry_timeout = retry_timeout
        self.retry_backoff = retry_backoff
        self.supervisor = supervisor
        self._pools: Dict[str, _NodePool] = {}
        self.opened: Set[str] = set()
        self.shutdown_requested = asyncio.Event()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "forwarded": 0,
            "retries": 0,
            "reopens": 0,
            "unavailable": 0,
            "repoints": 0,
        }

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def owner(self, run_id: str) -> str:
        return self.ring.owner(run_id)

    def repoint(self, node: str, address: Tuple[str, int]) -> None:
        """Point *node*'s name at a new ``(host, port)`` (failover).

        The ring is untouched — placement never moves — only the
        address table and the now-stale connection pool change.
        """
        if node not in self.addresses:
            raise ServiceError(f"unknown cluster node {node!r}")
        self.addresses[node] = address
        stale = self._pools.pop(node, None)
        if stale is not None:
            # Close what is idle; checked-out connections error on use
            # and their holders discard them (freeing the slots any
            # blocked acquirer is waiting on — it then dials the dead
            # address, gets a connection error, and the caller's retry
            # loop re-resolves to this new address).
            while stale._idle:
                stale._idle.pop().close()
        self.counters["repoints"] += 1

    def _pool(self, node: str) -> _NodePool:
        address = self.addresses[node]
        pool = self._pools.get(node)
        if pool is None or (pool.host, pool.port) != address:
            pool = _NodePool(address[0], address[1], self.pool_size)
            self._pools[node] = pool
        return pool

    # ------------------------------------------------------------------
    # One round trip to one shard
    # ------------------------------------------------------------------

    async def _roundtrip(self, node: str, message: Dict[str, Any]) -> bytes:
        pool = self._pool(node)
        connection = await pool.acquire()
        try:
            line = await connection.roundtrip(encode_message(message))
        except ProtocolError as exc:  # a reply over the cap, drained: still framed
            pool.release(connection)
            return encode_message(
                error_response(message.get("id"), "service", f"shard {node}: {exc}")
            )
        except BaseException:
            pool.discard(connection)
            raise
        pool.release(connection)
        return line

    async def _forward(self, op: str, message: Dict[str, Any]) -> bytes:
        """Proxy a run-scoped request to its owner, retrying when safe."""
        run_id = message["run"]
        request_id = message.get("id")
        if op == "submit":
            retriable = message.get("seq") is not None
        elif op == "submit_batch":
            # A batch is replayable only when every entry carries its
            # idempotency key (a keyless entry could double-apply).
            retriable = all(
                isinstance(entry, dict) and entry.get("seq") is not None
                for entry in message.get("events", [])
            )
        else:
            retriable = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.retry_timeout
        backoff = self.retry_backoff
        reopened = False
        while True:
            node = self.ring.owner(run_id)
            try:
                line = await self._roundtrip(node, message)
            except OSError:
                if not retriable or loop.time() >= deadline:
                    self.counters["unavailable"] += 1
                    return encode_message(
                        error_response(
                            request_id,
                            "unavailable",
                            f"shard {node} serving run {run_id!r} is unreachable",
                        )
                    )
                self.counters["retries"] += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 1.0)
                continue
            response = decode_line(line)
            if (
                response.get("ok") is False
                and response.get("error") == "unknown_run"
                and op not in ("open", "close")
                and run_id in self.opened
                and not reopened
            ):
                # A failed-over shard does not host the run until it is
                # re-opened (recovery from its records); do that for the
                # client transparently, once.
                reopened = True
                self.counters["reopens"] += 1
                reopen = decode_line(
                    await self._roundtrip(node, {"op": "open", "run": run_id})
                )
                if reopen.get("ok") or reopen.get("error") == "duplicate_run":
                    continue
            if response.get("ok"):
                if op == "open":
                    self.opened.add(run_id)
                elif op == "close":
                    self.opened.discard(run_id)
            return line

    # ------------------------------------------------------------------
    # Fan-out ops
    # ------------------------------------------------------------------

    async def _fanout(
        self, message_for: Callable[[str], Dict[str, Any]]
    ) -> Dict[str, Dict[str, Any]]:
        async def one(node: str) -> Tuple[str, Dict[str, Any]]:
            try:
                return node, decode_line(await self._roundtrip(node, message_for(node)))
            except OSError as exc:
                return node, error_response(None, "unavailable", str(exc))

        results = await asyncio.gather(*(one(node) for node in sorted(self.addresses)))
        return dict(results)

    @staticmethod
    def _body(response: Dict[str, Any]) -> Dict[str, Any]:
        return {
            key: value
            for key, value in response.items()
            if key not in ("ok", "protocol", "id")
        }

    async def _merged_stats(self, request_id: Optional[Any]) -> Dict[str, Any]:
        shards = await self._fanout(lambda node: {"op": "stats"})
        return ok_response(
            request_id,
            cluster=self.status(),
            shards={node: self._body(response) for node, response in shards.items()},
        )

    async def _merged_metrics(self, request_id: Optional[Any]) -> Dict[str, Any]:
        shards = await self._fanout(lambda node: {"op": "metrics"})
        text = "\n".join(
            response.get("text", "")
            for _, response in sorted(shards.items())
            if response.get("ok")
        )
        return ok_response(
            request_id,
            text=text,
            shards={node: self._body(response) for node, response in shards.items()},
        )

    async def _broadcast_shutdown(self, request_id: Optional[Any]) -> Dict[str, Any]:
        if self.supervisor is not None:
            # A broadcast shutdown is not a failure: stop the health
            # loop before the workers exit or it would "fail them over".
            self.supervisor.stopping = True
        shards = await self._fanout(lambda node: {"op": "shutdown"})
        self.shutdown_requested.set()
        return ok_response(
            request_id,
            shutting_down=True,
            shards={node: self._body(response) for node, response in shards.items()},
        )

    # ------------------------------------------------------------------
    # The router-only ``cluster`` op
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        info: Dict[str, Any] = {
            "nodes": {
                name: {"host": host, "port": port}
                for name, (host, port) in sorted(self.addresses.items())
            },
            "vnodes": self.ring.vnodes,
            "opened_runs": len(self.opened),
            "router": dict(self.counters),
        }
        if self.supervisor is not None:
            info["supervisor"] = self.supervisor.status()
        return info

    async def _op_cluster(self, message: Dict[str, Any]) -> Dict[str, Any]:
        request_id = message.get("id")
        action = message.get("action", "status")
        if action == "status":
            return ok_response(request_id, cluster=self.status())
        if action == "kill":
            if self.supervisor is None:
                return error_response(
                    request_id, "service", "no supervisor attached to this router"
                )
            node = message.get("node")
            if not isinstance(node, str):
                return error_response(
                    request_id, "protocol", "cluster kill requires a 'node' name"
                )
            try:
                killed = await self.supervisor.kill_shard(node)
            except ServiceError as exc:
                return error_response(request_id, "service", str(exc))
            return ok_response(request_id, node=node, killed=killed)
        return error_response(
            request_id, "protocol", f"unknown cluster action {action!r}"
        )

    # ------------------------------------------------------------------
    # Request dispatch (shared by RouterServer and in-process tests)
    # ------------------------------------------------------------------

    async def handle_line(self, line: bytes) -> bytes:
        """One request line in, one response line out."""
        self.counters["requests"] += 1
        message: Dict[str, Any] = {}
        try:
            message = decode_line(line)
            if message.get("op") == "cluster":
                return encode_message(await self._op_cluster(message))
            op, message = parse_request(message)
        except ProtocolError as exc:
            return encode_message(
                error_response(message.get("id") if message else None, "protocol", str(exc))
            )
        request_id = message.get("id")
        if op == "ping":
            return encode_message(ok_response(request_id, pong=True, role="router"))
        if op == "shutdown":
            return encode_message(await self._broadcast_shutdown(request_id))
        if op == "metrics":
            return encode_message(await self._merged_metrics(request_id))
        if op == "stats" and not isinstance(message.get("run"), str):
            return encode_message(await self._merged_stats(request_id))
        self.counters["forwarded"] += 1
        return await self._forward(op, message)

    async def aclose(self) -> None:
        for pool in self._pools.values():
            await pool.close()
        self._pools.clear()


class RouterServer:
    """The asyncio TCP front end wrapping a :class:`ClusterRouter`."""

    def __init__(
        self,
        router: ClusterRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.max_line_bytes = max_line_bytes
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        self._server = await start_line_server(
            self.router.handle_line,
            self.host,
            self.port,
            self.max_line_bytes,
            stop=self.router.shutdown_requested,
        )

    async def serve_until_shutdown(self) -> None:
        assert self._server is not None, "call start() first"
        await self.router.shutdown_requested.wait()
        await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.router.aclose()
