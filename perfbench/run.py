"""The service-path benchmark: family event streams through ``repro serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each workload runs one phase per workflow family.  A phase starts a
``repro serve`` process (and, for ``routed-small``, a router process in
front of it), opens one run to time set-up, warms up, reads the ``stats``
op, drives a closed loop from this one process over one connection for
its share of ``--seconds``, reads ``stats`` again, and shuts the stack
down.  Every peer's client waits for each ack before acting again.  Event streams come from ``WorkflowFamily.run`` before any
server starts, seeded by ``--seed``; the server sees only wire requests.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it makes an untraced round and a traced round (half the
seconds each) and reports the per-layer metrics of :mod:`metrics`, read
from the timer ledgers the traced processes write (:mod:`tracing`).

After the timed window every answer is checked against an offline
replay: acks must be ``applied`` with ``seq`` 0, 1, 2, ... per run,
every peer's final served view must equal ``execute`` of the acked
events, and every ``explain`` answer must equal an offline
``IncrementalExplainer`` over the same prefix.  A violation exits with
status 1 and prints no result.  The last line of standard output is the
JSON result; the line before it is a JSON record of the environment,
tail percentiles, sample counts and ``stats`` counter deltas.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import metrics as metric_defs

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

#: The seed runs use by default, and the one later gain claims must
#: also hold on without having been used while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009

#: Extra start-up probes per family, beside each phase's own start;
#: ``setup_s`` is the median of them all.
SETUP_PROBES = 4
#: Read-mix adds an explain and a provenance request every this many events.
EXPLAIN_EVERY = 5

#: With two or more CPUs the load generator gets one and the server (with
#: the router, which waits on it) another, so the scheduler cannot put
#: client and server on one CPU in some runs and apart in others.
_CPUS = sorted(os.sched_getaffinity(0))
CPU_PLAN: Dict[str, int] = (
    {"client": _CPUS[0], "router": _CPUS[-1], "server": _CPUS[-1]} if len(_CPUS) > 1 else {}
)

#: Every timing is scaled to the machine speed at which one pass of
#: ``reference_loop`` takes ``REFERENCE_S`` (see :class:`Speedometer`).
REFERENCE_S = 0.0015
#: Inside a run the loop is timed again once this much time has passed.
PROBE_EVERY_S = 0.05


@dataclass(frozen=True)
class Workload:
    """One traffic mix; BENCHMARK.json and README.md say why each exists."""

    families: Tuple[str, ...]
    steps: int
    pool: int
    batch: int
    segment_storage: bool = False
    reads: bool = False
    routed: bool = False


WORKLOADS: Dict[str, Workload] = {
    "submit-small": Workload(
        families=("ecommerce", "healthcare"),
        steps=120,
        pool=12,
        batch=1,
    ),
    "batch-large": Workload(
        families=("cicd", "procurement"),
        steps=600,
        pool=2,
        batch=64,
        segment_storage=True,
    ),
    "read-mix": Workload(
        families=("healthcare", "ecommerce"),
        steps=120,
        pool=6,
        batch=1,
        reads=True,
    ),
    "routed-small": Workload(
        families=("ecommerce", "healthcare"),
        steps=120,
        pool=12,
        batch=1,
        routed=True,
    ),
}


class BenchFailure(Exception):
    """A correctness violation: the run reports no metrics."""


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass(repr=False)
class Stream:
    events: List[Any]
    wire: List[Dict[str, Any]]


#: The large records below have no generated repr: ``asyncio.run``
#: formats its main task, result included, when it restores SIGINT.
@dataclass(repr=False)
class World:
    """One family's program and seeded event streams."""

    name: str
    program: Any
    observer: str
    peers: Tuple[str, ...]
    streams: List[Stream]
    _views: Dict[Tuple[int, int], Dict[str, Any]] = field(default_factory=dict)
    #: per stream: the offline explainer and its scenario after each prefix
    _explained: Dict[int, Tuple[Any, List[List[int]]]] = field(default_factory=dict)

    @classmethod
    def build(cls, name: str, seed: int, workload: Workload) -> "World":
        from repro.workflow.serialization import event_to_dict
        from repro.workloads import get_family

        family = get_family(name)
        program = family.program()
        streams = []
        for index in range(workload.pool):
            run = family.run(seed=seed * 1000 + index, steps=workload.steps, program=program)
            if run.initial.size() or not run.events:
                raise RuntimeError(f"{name} stream {index} does not start empty")
            streams.append(Stream(list(run.events), [event_to_dict(e) for e in run.events]))
        return cls(name, program, family.observer, tuple(program.schema.peers), streams)

    def expected_views(self, stream: int, prefix: int) -> Dict[str, Any]:
        """Canonical per-peer views after *prefix* events, by offline replay."""
        key = (stream, prefix)
        if key not in self._views:
            from repro.workflow.runs import execute
            from repro.workflow.serialization import instance_to_dict

            run = execute(
                self.program, self.streams[stream].events[:prefix], check_freshness=False
            )
            self._views[key] = {
                peer: canonical(
                    instance_to_dict(self.program.schema.view_instance(run.final_instance, peer))
                )
                for peer in self.peers
            }
        return self._views[key]

    def expected_scenario(self, stream: int, prefix: int) -> List[int]:
        """The observer's minimal scenario after *prefix* events, offline."""
        if stream not in self._explained:
            from repro.core.incremental import IncrementalExplainer
            from repro.workflow.instance import Instance

            explainer = IncrementalExplainer(
                self.program,
                self.observer,
                initial=Instance.empty(self.program.schema.schema),
            )
            self._explained[stream] = (explainer, [list(explainer.minimal_scenario())])
        explainer, scenarios = self._explained[stream]
        events = self.streams[stream].events
        while len(scenarios) <= prefix:
            explainer.extend(events[len(scenarios) - 1])
            scenarios.append(list(explainer.minimal_scenario()))
        return scenarios[prefix]


def canonical(data: Dict[str, Any]) -> Dict[str, frozenset]:
    """An order-insensitive form of an ``instance_to_dict`` payload."""
    return {
        relation: frozenset(
            frozenset((attr, repr(value)) for attr, value in row.items()) for row in rows
        )
        for relation, rows in data.items()
        if rows
    }


# ----------------------------------------------------------------------
# The serving stack
# ----------------------------------------------------------------------


class Stack:
    """A ``repro serve`` process, and a router process when routed."""

    def __init__(self, world: World, workload: Workload, tmp: str, tag: str, traced: bool) -> None:
        self.speed = Speedometer()
        self.speed.probe()
        self.tmp = tmp
        self.tag = tag
        self.ledgers: Dict[str, str] = {}
        self.processes: List[subprocess.Popen] = []
        self.store = os.path.join(tmp, f"store-{tag}") if workload.segment_storage else None
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        serve = [
            "--workload", world.name, "--host", "127.0.0.1", "--port", "0",
            "--batch-size", str(workload.batch),
        ]
        if self.store is not None:
            serve += ["--storage", f"segment:{self.store}", "--durability", "flush"]
        self.started = time.perf_counter()
        if traced:
            server_cmd = self._launcher("server") + ["serve", *serve]
        else:
            server_cmd = [sys.executable, "-m", "repro", "serve", *serve]
        try:
            self.address = self._spawn(server_cmd, "serving on ", CPU_PLAN.get("server"))
            if workload.routed:
                host, port = self.address
                router_cmd = self._launcher("router" if traced else None) + [
                    "router", "--shard", f"{host}:{port}",
                ]
                self.address = self._spawn(router_cmd, "routing on ", CPU_PLAN.get("router"))
        except BaseException:
            self.stop(kill=True)
            raise

    def _launcher(self, ledger: Optional[str]) -> List[str]:
        command = [sys.executable, os.path.join(HERE, "launch.py")]
        if ledger is not None:
            path = os.path.join(self.tmp, f"ledger-{ledger}-{self.tag}.json")
            self.ledgers[ledger] = path
            command += ["--ledger", path]
        return command

    def _spawn(self, command: List[str], banner: str, cpu: Optional[int]) -> Tuple[str, int]:
        """Start *command* on *cpu*; the address it prints after *banner*."""
        log_path = os.path.join(self.tmp, f"{self.tag}-{len(self.processes)}.log")
        with open(log_path, "w") as log:
            process = subprocess.Popen(
                command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                stderr=log, text=True,
            )
        self.processes.append(process)
        if cpu is not None:
            os.sched_setaffinity(process.pid, {cpu})
        line = process.stdout.readline()
        if not line.startswith(banner):
            with open(log_path) as log:
                raise RuntimeError(f"{command[1:4]} did not start: {line!r} {log.read()[-2000:]}")
        host, _, port = line[len(banner):].strip().rpartition(":")
        return host, int(port)

    def setup_seconds(self) -> float:
        """Time since the launch, at the reference speed.

        The load generator waits meanwhile, so only the server's CPU counts.
        """
        elapsed = time.perf_counter() - self.started
        self.speed.probe()
        return elapsed * self.speed.factor(self.speed.window(self.started), server_share=1.0)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the serving processes, in MiB."""
        total_kb = 0
        for process in self.processes:
            with open(f"/proc/{process.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the serving processes so far."""
        ticks = 0
        for process in self.processes:
            with open(f"/proc/{process.pid}/stat", encoding="ascii") as stat:
                fields = stat.read().rpartition(")")[2].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def store_bytes(self) -> int:
        if self.store is None:
            return 0
        return sum(
            os.path.getsize(os.path.join(directory, name))
            for directory, _, names in os.walk(self.store)
            for name in names
        )

    def stop(self, kill: bool = False) -> None:
        """Wait for every process to exit after ``shutdown``; kill stragglers."""
        for process in reversed(self.processes):
            if kill:
                process.kill()
            try:
                process.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()

    def read_ledgers(self) -> Dict[str, Dict[str, Any]]:
        out = {}
        for role, path in self.ledgers.items():
            with open(path, encoding="utf-8") as source:
                out[role] = metric_defs.ledger_window(json.load(source))
        return out


def steal_seconds() -> float:
    """CPU time the hypervisor took from this machine so far (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def reference_loop() -> int:
    """A fixed piece of interpreter work: dict stores, tuples, str, len."""
    table: Dict[int, Tuple[int, str]] = {}
    total = 0
    for i in range(4000):
        table[i & 1023] = (i, str(i))
        total += len(table[i & 1023][1])
    return total


class Speedometer:
    """Times :func:`reference_loop` on the load generator's and the server's CPU.

    The host this benchmark was built on shares its CPUs with other
    tenants, whose load slows this machine by a fifth or more for seconds
    to minutes at a time; identical runs of the benchmark drift with it,
    and so does the loop.  A timing is therefore scaled by
    ``REFERENCE_S`` over the loop's time around it: the median over the
    probes from the last one before it began to the first one after it
    ended, on each CPU, with the two CPUs weighted by the share of the
    CPU time that the load generator and the serving processes spent (in
    a closed loop one side at a time is on the critical path).  The
    server is idle while the loop runs, and the loop's time is left out
    of every timing.
    """

    def __init__(self) -> None:
        self.taken: List[float] = []
        #: the loop's seconds at each probe, on each role's CPU
        self.loop_s: Dict[str, List[float]] = {"client": [], "server": []}
        #: seconds spent probing, which the load generator's CPU time leaves out
        self.spent = 0.0

    def probe(self) -> float:
        """Time the loop once on each role's CPU; the seconds that took."""
        began = time.perf_counter()
        for role, times in self.loop_s.items():
            if CPU_PLAN:
                os.sched_setaffinity(0, {CPU_PLAN[role]})
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
        if CPU_PLAN:
            os.sched_setaffinity(0, {CPU_PLAN["client"]})
        now = time.perf_counter()
        self.taken.append(now)
        self.spent += now - began
        return now - began

    def due(self) -> bool:
        return time.perf_counter() - self.taken[-1] >= PROBE_EVERY_S

    def window(self, since: float) -> Tuple[int, int]:
        """The probes from the last one before *since* to the latest."""
        return max(0, bisect.bisect_right(self.taken, since) - 1), len(self.taken)

    def factor(self, window: Tuple[int, int], server_share: float) -> float:
        """The scale for a timing whose probes are *window*."""
        first, end = window
        loop = (1.0 - server_share) * statistics.median(
            self.loop_s["client"][first:end]
        ) + server_share * statistics.median(self.loop_s["server"][first:end])
        return REFERENCE_S / loop

    def medians_ms(self) -> Dict[str, float]:
        return {role: 1000.0 * statistics.median(times) for role, times in self.loop_s.items()}


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------


class Connection:
    """One JSON-lines connection; every request is timed from send to reply."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, address: Tuple[str, int]) -> "Connection":
        reader, writer = await asyncio.open_connection(*address, limit=1 << 26)
        return cls(reader, writer)

    async def call(self, message: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        line = (json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n").encode()
        start = time.perf_counter()
        self.writer.write(line)
        await self.writer.drain()
        reply = await self.reader.readline()
        elapsed = time.perf_counter() - start
        if not reply:
            raise RuntimeError("server closed the connection")
        response = json.loads(reply)
        if not response.get("ok"):
            raise BenchFailure(
                f"{message.get('op')} failed: {response.get('error')}: {response.get('message')}"
            )
        return response, elapsed

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


@dataclass(frozen=True)
class Pass:
    """One pass over the stream pool: every stream driven once, in order."""

    #: wall time from the first open to the last close ack, probes left out
    seconds: float
    #: the speedometer probes from just before the pass to just after it
    probes: Tuple[int, int]
    #: share of the pass's wall time the hypervisor took from this machine
    stolen_share: float
    #: the latency counts (``Record.marks``) when the pass began
    marks: Tuple[int, ...]


@dataclass(repr=False)
class Record:
    """What one phase observed, for metrics and for the checks after it."""

    events: int = 0
    requests: int = 0
    window_s: float = 0.0
    #: events in one pass over the pool
    pass_events: int = 0
    passes: List[Pass] = field(default_factory=list)
    #: each pass's seconds at the reference speed, once ``to_reference`` ran
    scaled: List[float] = field(default_factory=list)
    #: request latencies in seconds, in the order they were sent (at the
    #: reference speed after ``to_reference``)
    submit: List[float] = field(default_factory=list)
    #: read latencies by op, and all of them in order (for the tail)
    reads: Dict[str, List[float]] = field(default_factory=dict)
    read: List[float] = field(default_factory=list)
    #: (world, stream, prefix, peer, served view) still to be checked
    views: List[Tuple[World, int, int, str, Dict[str, Any]]] = field(default_factory=list)
    #: (world, stream, prefix, served scenario) still to be checked
    scenarios: List[Tuple[World, int, int, List[int]]] = field(default_factory=list)

    def timed_read(self, op: str, elapsed: float) -> None:
        self.reads.setdefault(op, []).append(elapsed)
        self.read.append(elapsed)

    def read_p50_ms(self) -> float:
        """The mean over read ops of each op's latency median.

        Ops differ in cost and come in fixed shares, so the median of
        the pooled latencies can sit on the border between two ops'
        distributions and jump between them from run to run.
        """
        return statistics.fmean(
            metric_defs.blocked_ms(samples, statistics.median) for samples in self.reads.values()
        )

    def marks(self) -> Tuple[int, ...]:
        return (len(self.submit), len(self.read), *(len(v) for v in self.reads.values()))

    def to_reference(self, speed: Speedometer, server_share: float) -> None:
        """Scale every pass's time, and the latencies recorded in it, to the reference speed.

        A pass runs at the speed its probes measured, and only for the
        share of its wall time that was not stolen: in a closed loop one
        CPU at a time is busy, and a vCPU accrues steal only while it has
        work, so the steal summed over CPUs is time the loop waited.
        """
        series = (self.submit, self.read, *self.reads.values())

        def padded(marks: Tuple[int, ...]) -> Tuple[int, ...]:
            return marks + (0,) * (len(series) - len(marks))

        ends = [later.marks for later in self.passes[1:]] + [self.marks()]
        for one, stops in zip(self.passes, ends):
            scale = speed.factor(one.probes, server_share) * (1.0 - min(one.stolen_share, 0.9))
            self.scaled.append(one.seconds * scale)
            for samples, start, stop in zip(series, padded(one.marks), padded(stops)):
                samples[start:stop] = [value * scale for value in samples[start:stop]]

    def events_per_s(self, raw: bool = False) -> float:
        """The pool's events over the median time of a pass over it.

        The median over passes keeps a burst of outside load from moving
        the figure.
        """
        times = [one.seconds for one in self.passes] if raw else self.scaled
        return self.pass_events / statistics.median(times)


async def drive_run(
    conn: Connection, world: World, workload: Workload, stream_index: int,
    run_id: str, record: Record, speed: Speedometer,
) -> None:
    """Submit one stream to a fresh run, check every ack, read views, close."""
    stream = world.streams[stream_index]

    async def call(message: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        reply = await conn.call(message)
        if speed.due():
            speed.probe()
        return reply

    await call({"op": "open", "run": run_id})
    requests = 2
    total = len(stream.events)
    for start in range(0, total, workload.batch):
        stop = min(total, start + workload.batch)
        if workload.batch == 1:
            response, elapsed = await call(
                {"op": "submit", "run": run_id, "event": stream.wire[start]}
            )
            results = [response]
        else:
            response, elapsed = await call(
                {
                    "op": "submit_batch", "run": run_id,
                    "events": [{"event": stream.wire[i]} for i in range(start, stop)],
                }
            )
            results = response["results"]
        requests += 1
        record.submit.append(elapsed)
        if len(results) != stop - start:
            raise BenchFailure(f"{run_id}: {len(results)} acks for {stop - start} events")
        for seq, result in enumerate(results, start=start):
            if result.get("status") != "applied" or result.get("seq") != seq:
                raise BenchFailure(
                    f"{run_id}: event {seq} acked {result.get('status')} seq {result.get('seq')}"
                )
        record.events += stop - start
        if workload.reads:
            _, elapsed = await call({"op": "view", "run": run_id, "peer": world.observer})
            record.timed_read("view", elapsed)
            peer = stream.events[stop - 1].peer
            _, elapsed = await call({"op": "applicable", "run": run_id, "peer": peer})
            record.timed_read("applicable", elapsed)
            requests += 2
            if stop % EXPLAIN_EVERY == 0:
                response, elapsed = await call(
                    {"op": "explain", "run": run_id, "peer": world.observer}
                )
                record.timed_read("explain", elapsed)
                record.scenarios.append((world, stream_index, stop, response["scenario"]))
                _, elapsed = await call(
                    {"op": "provenance", "run": run_id, "peer": world.observer}
                )
                record.timed_read("provenance", elapsed)
                requests += 2
    for peer in world.peers:
        response, elapsed = await call({"op": "view", "run": run_id, "peer": peer})
        if workload.reads:
            record.timed_read("view", elapsed)
        record.views.append((world, stream_index, total, peer, response["instance"]))
    await call({"op": "close", "run": run_id})
    record.requests += requests + len(world.peers)


async def drive_pass(
    conn: Connection, world: World, workload: Workload, label: str, record: Record,
    speed: Speedometer,
) -> None:
    """Drive every stream of the pool once; record the pass's time."""
    marks = record.marks()
    began, spent, stolen = time.perf_counter(), speed.spent, steal_seconds()
    for index in range(workload.pool):
        turn = len(record.passes) * workload.pool + index
        await drive_run(conn, world, workload, index, f"{label}-r{turn}", record, speed)
    speed.probe()
    wall = time.perf_counter() - began
    record.passes.append(
        Pass(
            seconds=wall - (speed.spent - spent),
            probes=speed.window(began),
            stolen_share=(steal_seconds() - stolen) / wall,
            marks=marks,
        )
    )


def stats_body(response: Dict[str, Any]) -> Dict[str, Any]:
    """The shard's ``stats`` body, whether or not a router merged it."""
    if "shards" in response:
        (body,) = response["shards"].values()
        return body
    return response


def counter_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, int]:
    """EVAL_STATS, broker and registry counters that changed in the window."""
    delta: Dict[str, int] = {}
    for section in ("queries", "broker", "registry"):
        for name, value in stats_body(after)[section].items():
            old = stats_body(before)[section].get(name)
            if isinstance(value, int) and not isinstance(value, bool) and isinstance(old, int):
                if value != old:
                    delta[f"{section}.{name}"] = value - old
    return delta


@dataclass(repr=False)
class PhaseResult:
    record: Record
    setup_s: float
    rss_mb: float
    counters: Dict[str, int]
    ledgers: Dict[str, Dict[str, Any]]
    disk_bytes: int
    client_cpu_s: float
    server_cpu_s: float
    steal_s: float
    reference_loop_ms: Dict[str, float]
    server_share: float


async def _phase(
    stack: Stack, world: World, workload: Workload, seconds: float, label: str,
) -> PhaseResult:
    conn = await Connection.open(stack.address)
    try:
        await conn.call({"op": "open", "run": f"{label}-setup"})
        setup_s = stack.setup_seconds()
        await conn.call({"op": "close", "run": f"{label}-setup"})
        warm = Record()
        await drive_run(conn, world, workload, 0, f"{label}-warm", warm, stack.speed)
        record = Record(
            views=warm.views, pass_events=sum(len(stream.events) for stream in world.streams),
        )
        before, _ = await conn.call({"op": "stats"})
        disk_before = stack.store_bytes()
        cpu_before = time.process_time() - stack.speed.spent
        server_cpu_before, steal_before = stack.cpu_seconds(), steal_seconds()
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            await drive_pass(conn, world, workload, label, record, stack.speed)
        record.window_s = time.perf_counter() - started
        client_cpu_s = time.process_time() - stack.speed.spent - cpu_before
        server_cpu_s = stack.cpu_seconds() - server_cpu_before
        steal_s = steal_seconds() - steal_before
        server_share = server_cpu_s / (server_cpu_s + client_cpu_s)
        record.to_reference(stack.speed, server_share)
        after, _ = await conn.call({"op": "stats"})
        disk_bytes = stack.store_bytes() - disk_before
        rss_mb = stack.peak_rss_mb()
        await conn.call({"op": "shutdown"})
    finally:
        await conn.close()
    return PhaseResult(
        record, setup_s, rss_mb, counter_delta(before, after), {}, disk_bytes, client_cpu_s,
        server_cpu_s, steal_s, stack.speed.medians_ms(), server_share,
    )


def run_phase(
    world: World, workload: Workload, seconds: float, tmp: str, label: str, traced: bool,
) -> PhaseResult:
    stack = Stack(world, workload, tmp, label, traced)
    try:
        result = asyncio.run(_phase(stack, world, workload, seconds, label))
    except BaseException:
        stack.stop(kill=True)
        raise
    stack.stop()
    result.ledgers = stack.read_ledgers()
    return result


def setup_probe(world: World, workload: Workload, tmp: str, label: str) -> float:
    """Start the stack, time the first acknowledged open, shut it down."""
    stack = Stack(world, workload, tmp, label, traced=False)

    async def first_open() -> float:
        conn = await Connection.open(stack.address)
        try:
            await conn.call({"op": "open", "run": "setup"})
            elapsed = stack.setup_seconds()
            await conn.call({"op": "shutdown"})
        finally:
            await conn.close()
        return elapsed

    try:
        elapsed = asyncio.run(first_open())
    except BaseException:
        stack.stop(kill=True)
        raise
    stack.stop()
    return elapsed


# ----------------------------------------------------------------------
# Checks, metrics and the report
# ----------------------------------------------------------------------


def check(record: Record) -> int:
    """Compare every served view and explanation with offline replays."""
    for world, stream, prefix, peer, served in record.views:
        if canonical(served) != world.expected_views(stream, prefix)[peer]:
            raise BenchFailure(
                f"{world.name} stream {stream}: {peer}'s view after {prefix} events "
                "differs from the offline replay"
            )
    for world, stream, prefix, served in record.scenarios:
        if list(served) != world.expected_scenario(stream, prefix):
            raise BenchFailure(
                f"{world.name} stream {stream}: explain after {prefix} events "
                "differs from the offline explainer"
            )
    return len(record.views) + len(record.scenarios)


def run_round(
    worlds: List[World], workload: Workload, seconds: float, tmp: str, name: str,
    traced: bool = False,
) -> List[PhaseResult]:
    share = seconds / len(worlds)
    return [
        run_phase(world, workload, share, tmp, f"{name}{index}", traced)
        for index, world in enumerate(worlds)
    ]


def merged_record(phases: List[PhaseResult]) -> Record:
    """All phases' answers (for the checks) and request count."""
    merged = Record()
    for phase in phases:
        record = phase.record
        merged.requests += record.requests
        merged.views += record.views
        merged.scenarios += record.scenarios
    return merged


def per_phase(phases: List[PhaseResult], value: Callable[[Record], float]) -> float:
    """Phases get equal shares of the window, so their figures average."""
    return statistics.fmean(value(phase.record) for phase in phases)


def end_to_end(phases: List[PhaseResult], setups: List[float]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    blocked = metric_defs.blocked_ms
    values = {
        "events_per_s": per_phase(phases, Record.events_per_s),
        "submit_p50_ms": per_phase(phases, lambda r: blocked(r.submit, statistics.median)),
        "server_rss_mb": max(phase.rss_mb for phase in phases),
        "setup_s": statistics.median(setups),
    }
    events = sum(phase.record.events for phase in phases)
    # Recorded, not reported as metrics: the tails spread wider than any
    # bound on a shared host, and read latencies exist only in read-mix
    # while every metric must be reported for every workload.
    latencies = {
        "submit_tail_p90_ms": per_phase(phases, lambda r: blocked(r.submit, metric_defs.tail)),
    }
    if phases[0].record.reads:
        latencies.update(
            read_p50_ms=per_phase(phases, Record.read_p50_ms),
            read_tail_p90_ms=per_phase(phases, lambda r: blocked(r.read, metric_defs.tail)),
            explain_p50_ms=per_phase(
                phases, lambda r: blocked(r.reads["explain"], statistics.median)
            ),
        )
    samples = {
        "events": events,
        "window_s": sum(phase.record.window_s for phase in phases),
        "latencies_ms": latencies,
        "phases": [
            {
                "submit": metric_defs.describe(phase.record.submit),
                **{op: metric_defs.describe(v) for op, v in phase.record.reads.items()},
            }
            for phase in phases
        ],
        "setup": {"samples": len(setups), "values_s": setups},
        "server_cpu_us_per_event": 1e6 * sum(p.server_cpu_s for p in phases) / events,
        "events_per_s_as_measured": per_phase(phases, lambda r: r.events_per_s(raw=True)),
        "reference_loop_ms": [phase.reference_loop_ms for phase in phases],
        "server_share": [phase.server_share for phase in phases],
        "steal_s": sum(p.steal_s for p in phases),
    }
    return values, samples


def summed_counters(phases: List[PhaseResult]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for phase in phases:
        for name, value in phase.counters.items():
            total[name] = total.get(name, 0) + value
    return total


def environment(workload: Workload) -> Dict[str, Any]:
    digest = hashlib.sha256()
    for directory, _, names in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as source:
                    digest.update(source.read())
    git_commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # not an enclosing repository's
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        git_commit = commit.stdout.strip() if commit.returncode == 0 else None
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(_CPUS),
        "python": platform.python_version(),
        "git_commit": git_commit,
        "source_sha256": digest.hexdigest(),
        "storage": "segment" if workload.segment_storage else "memory",
        "durability": "flush" if workload.segment_storage else None,
        "server_batch_size": workload.batch,
        "connections": 1,
        "routed": workload.routed,
        "cpu_plan": CPU_PLAN,
        "loop": "closed",
    }


def measure(args: argparse.Namespace, tmp: str) -> Tuple[Dict[str, float], Dict[str, Any], int]:
    workload = WORKLOADS[args.workload]
    if "client" in CPU_PLAN:
        os.sched_setaffinity(0, {CPU_PLAN["client"]})
    stages: Dict[str, float] = {}
    clock = time.perf_counter()

    def stage(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        stages[name] = now - clock
        clock = now

    worlds = [World.build(name, args.seed, workload) for name in workload.families]
    stage("generate_streams")
    for world in worlds:  # replays the checks need, computed outside the window
        for index in range(workload.pool):
            world.expected_views(index, len(world.streams[index].events))
    stage("offline_replay")
    gc.collect()
    gc.freeze()
    detail: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "environment": environment(workload),
        "stage_seconds": stages,
    }
    if args.trace == 0:
        setups = [
            setup_probe(world, workload, tmp, f"probe{index}-{attempt}")
            for attempt in range(SETUP_PROBES)
            for index, world in enumerate(worlds)
        ]
        stage("setup_probes")
        phases = run_round(worlds, workload, args.seconds, tmp, "w")
        stage("phases")
        values, samples = end_to_end(phases, setups + [phase.setup_s for phase in phases])
        detail["samples"] = samples
        detail["counters"] = summed_counters(phases)
        record = merged_record(phases)
        checked = check(record)
        attempted = record.requests
    else:
        untraced = run_round(worlds, workload, args.seconds / 2, tmp, "u")
        traced = run_round(worlds, workload, args.seconds / 2, tmp, "t", traced=True)
        stage("phases")
        base = merged_record(untraced)
        record = merged_record(traced)
        server = metric_defs.merge_windows([phase.ledgers["server"] for phase in traced])
        router = metric_defs.merge_windows(
            [phase.ledgers["router"] for phase in traced if "router" in phase.ledgers]
        )
        counters = summed_counters(traced)
        values = metric_defs.per_layer(
            server, router, counters,
            disk_bytes=sum(phase.disk_bytes for phase in traced),
            client_cpu_s=sum(phase.client_cpu_s for phase in traced),
            client_requests=record.requests,
            overhead_ratio=(
                per_phase(traced, Record.events_per_s) / per_phase(untraced, Record.events_per_s)
            ),
        )
        detail["counters"] = counters
        detail["untraced_counters"] = summed_counters(untraced)
        detail["server_idle_share"] = (
            server["total_ns"].get("loop.idle", 0) / server["wall_ns"] if server["wall_ns"] else 0.0
        )
        checked = check(base) + check(record)
        attempted = base.requests + record.requests
    stage("check")
    detail["checked_answers"] = checked
    return values, detail, attempted


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: unwind through the finally blocks that stop
    # the serving processes and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no src/repro under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        values, detail, attempted = measure(args, tmp)
    except BenchFailure as exc:
        print(f"correctness violation: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    table = metric_defs.END_TO_END if args.trace == 0 else metric_defs.PER_LAYER
    units = {entry[0]: entry[1] for entry in table}
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    for name, value in detail.get("samples", {}).get("latencies_ms", {}).items():
        print(f"{args.workload} {name} = {value:.6g} ms (detail record only)")
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": 0,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
