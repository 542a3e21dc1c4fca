"""Shard worker lifecycle: spawn, health-check, failover.

The supervisor owns N shard *worker processes*, each an ordinary
``repro serve`` instance (the PR 5 :class:`ServiceServer`) bound to its
own port and its own storage directory — the cluster reuses the
single-process server byte for byte rather than forking a second
server implementation.  Replication pairs each shard with the next one
on the ring (``shard-i`` ships to ``shard-(i+1) mod N``); a served
store is never compacted, so a follower's records stay a strict
count-prefix of its primary's (see ``docs/CLUSTER.md``).

When a worker dies the health loop runs one of two failover modes:

``restart``
    Reconcile the follower from the dead worker's surviving store
    (:func:`~repro.cluster.replicate.reconcile_with_follower`), then
    respawn the worker over the same storage directory and port — the
    PR 6 ``fast_recover`` path brings its runs back on first touch
    (the router re-opens lazily on ``unknown_run``).

``promote``
    Reconcile the follower the same way, then repoint the dead shard's
    ring *name* at the follower's address: the follower already holds
    every acknowledged record, so it recovers the promoted runs from
    its own disk.  Placement never changes — only addressing does.

Either way, the reconcile step is what upgrades "acknowledged events
survive" from per-process durability to a cluster-level guarantee.
"""

from __future__ import annotations

import asyncio
import os
import socket
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..service.errors import ServiceError
from ..service.protocol import decode_line, encode_message
from .replicate import ReconcileReport, reconcile_with_follower

__all__ = ["ShardSpec", "ShardProcess", "ShardSupervisor", "free_ports"]


def free_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """*count* currently-free TCP ports (picked by binding port 0)."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@dataclass
class ShardSpec:
    """Everything needed to (re)spawn one shard worker."""

    name: str
    host: str
    port: int
    storage: str
    follower: Optional[str] = None  # the follower's "host:port", if any


@dataclass
class ShardProcess:
    spec: ShardSpec
    process: Optional[subprocess.Popen] = None
    restarts: int = 0
    promoted_to: Optional[str] = None  # shard name now serving this name
    log_path: Optional[Path] = None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class ShardSupervisor:
    """Spawn N shard workers, watch them, fail them over when they die."""

    def __init__(
        self,
        program_text: str,
        cluster_dir: Path,
        shard_count: int = 2,
        host: str = "127.0.0.1",
        durability: str = "flush",
        snapshot_every: int = 10,
        replicate: bool = True,
        failover: str = "restart",
        health_interval: float = 0.2,
        max_line_bytes: int = 8 * 1024 * 1024,
        queue_capacity: int = 64,
        ready_timeout: float = 15.0,
    ) -> None:
        if shard_count < 1:
            raise ServiceError("a cluster needs at least one shard")
        if failover not in ("restart", "promote"):
            raise ServiceError(f"unknown failover mode {failover!r}")
        self.cluster_dir = Path(cluster_dir)
        self.cluster_dir.mkdir(parents=True, exist_ok=True)
        self.program_path = self.cluster_dir / "program.wf"
        self.program_path.write_text(program_text)
        self.host = host
        self.durability = durability
        self.snapshot_every = snapshot_every
        self.replicate = replicate and shard_count >= 2
        self.failover = failover
        self.health_interval = health_interval
        self.max_line_bytes = max_line_bytes
        self.queue_capacity = queue_capacity
        self.ready_timeout = ready_timeout
        self.router: Optional[Any] = None  # a ClusterRouter, when attached
        self.stopping = False
        self.counters: Dict[str, int] = {
            "spawns": 0,
            "restarts": 0,
            "promotions": 0,
            "failovers": 0,
            "reconciled_records": 0,
        }
        ports = free_ports(shard_count, host)
        self.shards: Dict[str, ShardProcess] = {}
        names = [f"shard-{index}" for index in range(shard_count)]
        for index, name in enumerate(names):
            follower = None
            if self.replicate:
                follower_port = ports[(index + 1) % shard_count]
                follower = f"{host}:{follower_port}"
            self.shards[name] = ShardProcess(
                ShardSpec(
                    name=name,
                    host=host,
                    port=ports[index],
                    storage=f"segment:{self.cluster_dir / name}",
                    follower=follower,
                )
            )
        self._health_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Topology the router consumes
    # ------------------------------------------------------------------

    def node_addresses(self) -> Dict[str, Tuple[str, int]]:
        return {
            name: (shard.spec.host, shard.spec.port)
            for name, shard in self.shards.items()
        }

    def attach_router(self, router: Any) -> None:
        self.router = router

    def follower_of(self, name: str) -> Optional[str]:
        """The shard *name* whose worker is the follower of *name*."""
        target = self.shards[name].spec.follower
        if target is None:
            return None
        for other, shard in self.shards.items():
            if f"{shard.spec.host}:{shard.spec.port}" == target:
                return other
        return None

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    def _spawn(self, shard: ShardProcess) -> None:
        spec = shard.spec
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(self.program_path),
            "--host",
            spec.host,
            "--port",
            str(spec.port),
            "--storage",
            spec.storage,
            "--durability",
            self.durability,
            "--snapshot-every",
            str(self.snapshot_every),
            "--queue-capacity",
            str(self.queue_capacity),
            "--max-line-bytes",
            str(self.max_line_bytes),
        ]
        if spec.follower is not None:
            command += ["--replicate-to", spec.follower]
        # The worker must import the same repro package we are running
        # from, regardless of its cwd (a relative PYTHONPATH like "src"
        # would not survive the cwd change).
        package_root = str(Path(__file__).resolve().parent.parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        shard.log_path = self.cluster_dir / f"{spec.name}.log"
        log = open(shard.log_path, "ab")
        try:
            shard.process = subprocess.Popen(
                command,
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=str(self.cluster_dir),
                env=env,
            )
        finally:
            log.close()
        self.counters["spawns"] += 1

    async def _wait_ready(self, shard: ShardProcess) -> None:
        spec = shard.spec
        deadline = asyncio.get_running_loop().time() + self.ready_timeout
        while True:
            if not shard.alive:
                raise ServiceError(
                    f"shard {spec.name} exited during startup "
                    f"(see {shard.log_path})"
                )
            try:
                reader, writer = await asyncio.open_connection(spec.host, spec.port)
                writer.write(encode_message({"op": "ping"}))
                await writer.drain()
                response = decode_line(await reader.readline())
                writer.close()
                await writer.wait_closed()
                if response.get("ok"):
                    return
            except (ConnectionError, OSError):
                pass
            if asyncio.get_running_loop().time() >= deadline:
                raise ServiceError(
                    f"shard {spec.name} did not become ready on "
                    f"{spec.host}:{spec.port} (see {shard.log_path})"
                )
            await asyncio.sleep(0.1)

    async def start(self) -> None:
        for shard in self.shards.values():
            self._spawn(shard)
        for shard in self.shards.values():
            await self._wait_ready(shard)
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop(), name="cluster-health"
        )

    # ------------------------------------------------------------------
    # Health and failover
    # ------------------------------------------------------------------

    async def _health_loop(self) -> None:
        while not self.stopping:
            for shard in list(self.shards.values()):
                if self.stopping:
                    return
                if shard.promoted_to is not None or shard.alive:
                    continue
                try:
                    await self._failover(shard)
                except Exception as exc:  # keep watching the others
                    if shard.log_path is not None:
                        with open(shard.log_path, "a") as log:
                            log.write(f"supervisor failover error: {exc}\n")
            await asyncio.sleep(self.health_interval)

    async def _failover(self, shard: ShardProcess) -> None:
        self.counters["failovers"] += 1
        spec = shard.spec
        if self.replicate and spec.follower is not None:
            report = await self._reconcile(shard)
            self.counters["reconciled_records"] += report.shipped_records
        if self.failover == "promote" and self.replicate and spec.follower is not None:
            follower_name = self.follower_of(spec.name)
            shard.promoted_to = follower_name
            self.counters["promotions"] += 1
            if self.router is not None:
                host, port = spec.follower.rsplit(":", 1)
                self.router.repoint(spec.name, (host, int(port)))
            return
        shard.restarts += 1
        self.counters["restarts"] += 1
        self._spawn(shard)
        await self._wait_ready(shard)

    async def _reconcile(self, shard: ShardProcess) -> ReconcileReport:
        """Top the follower up from the dead worker's surviving store."""
        spec = shard.spec
        assert spec.follower is not None
        try:
            return await reconcile_with_follower(spec.storage, spec.follower)
        except Exception as exc:
            report = ReconcileReport()
            report.warnings.append(f"reconcile of {spec.name} failed: {exc}")
            if shard.log_path is not None:
                with open(shard.log_path, "a") as log:
                    log.write(f"supervisor: {report.warnings[-1]}\n")
            return report

    async def kill_shard(self, name: str) -> bool:
        """SIGKILL one worker (fault injection; failover follows)."""
        shard = self.shards.get(name)
        if shard is None:
            raise ServiceError(f"unknown shard {name!r}")
        if shard.promoted_to is not None:
            raise ServiceError(f"shard {name!r} was already promoted away")
        if not shard.alive:
            return False
        assert shard.process is not None
        shard.process.kill()
        shard.process.wait()
        return True

    # ------------------------------------------------------------------
    # Teardown and status
    # ------------------------------------------------------------------

    async def stop(self) -> None:
        self.stopping = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except (asyncio.CancelledError, Exception):
                pass
        for shard in self.shards.values():
            if shard.alive and shard.process is not None:
                shard.process.terminate()
        for shard in self.shards.values():
            if shard.process is not None:
                try:
                    shard.process.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    shard.process.kill()
                    shard.process.wait()

    def status(self) -> Dict[str, Any]:
        return {
            "failover": self.failover,
            "replicate": self.replicate,
            "counters": dict(self.counters),
            "shards": {
                name: {
                    "port": shard.spec.port,
                    "storage": shard.spec.storage,
                    "follower": shard.spec.follower,
                    "alive": shard.alive,
                    "pid": shard.process.pid if shard.process else None,
                    "restarts": shard.restarts,
                    "promoted_to": shard.promoted_to,
                }
                for name, shard in sorted(self.shards.items())
            },
        }
