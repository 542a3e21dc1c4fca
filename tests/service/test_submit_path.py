"""The submit path: idle runs apply in the submitting task.

A ``submit`` to a run with nothing queued or in flight, and no fault
plan, is applied by the request's own task: no mailbox, no worker
task, one registry lookup.  Everything else goes through the run's
mailbox worker.  The two paths share one attempt, so these tests hold
them to the same answers:

* a service with ``fault_plan=None`` (inline) and one with a zero-rate
  :class:`FaultPlan` (every event through the worker) give identical
  acks, journals, provenance and views — also under disk faults;
* a failed inline attempt is attempt 1: the engine sees a poison event
  exactly ``max_attempts`` times;
* ``quiesce`` waits only for the mailbox it is asked about, and waits
  without spinning the event loop.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.runtime.budget import Budget
from repro.runtime.checkpoint import fast_recover
from repro.runtime.faults import DiskFaultPlan, FaultPlan
from repro.runtime.supervisor import RetryPolicy
from repro.service import WorkflowService
from repro.service.broker import APPLIED, QUARANTINED, EventBroker
from repro.service.errors import UnknownRunError
from repro.service.registry import ShardedRunRegistry
from repro.storage import open_backend
from repro.workflow import Event, FreshValue, Var, engine
from repro.workflow.serialization import event_to_dict
from repro.workloads import family_names, get_family
from repro.workloads.generators import churn_program

ACK_FIELDS = ("status", "seq", "attempts", "recovered", "version")


def make_event(program, index):
    """An always-applicable creation event with its own fresh value."""
    return Event(program.rule("make"), {Var("x"): FreshValue(1000 + index)})


def kill_event(program, index):
    """A deletion of an object that does not exist: poison."""
    return Event(program.rule("kill"), {Var("x"): FreshValue(1000 + index)})


async def ok(service, **request):
    response = await service.handle(request)
    assert response["ok"], response
    return response


def scrub_span_ids(records):
    return [
        {key: value for key, value in record.items() if key != "span_id"}
        for record in records
    ]


def run_files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


async def drive(service, events, run_id="r"):
    """Submit *events* one request each; snapshot what clients can see."""
    await ok(service, op="open", run=run_id)
    acks = []
    for event in events:
        response = await ok(service, op="submit", run=run_id, event=event_to_dict(event))
        acks.append({field: response[field] for field in ACK_FIELDS})
    provenance = await ok(service, op="provenance", run=run_id)
    views = {}
    for peer in service.program.schema.peers:
        view = await ok(service, op="view", run=run_id, peer=peer)
        views[peer] = (view["version"], view["instance"])
    counters = {
        key: service.broker.counters[key]
        for key in ("disk_faults", "retries", QUARANTINED, APPLIED)
    }
    await ok(service, op="close", run=run_id)
    await service.aclose()
    return acks, scrub_span_ids(provenance["records"]), views, counters


@pytest.fixture
def registry_gets(monkeypatch):
    """The run ids ``ShardedRunRegistry.get`` is called with."""
    calls = []
    original = ShardedRunRegistry.get

    async def counting(self, run_id):
        calls.append(run_id)
        return await original(self, run_id)

    monkeypatch.setattr(ShardedRunRegistry, "get", counting)
    return calls


@pytest.fixture
def engine_applications(monkeypatch):
    """The events the engine applies, from the patch on."""
    applied = []
    original = engine._apply_event

    def counting(schema, instance, event, *args, **kwargs):
        applied.append(event)
        return original(schema, instance, event, *args, **kwargs)

    monkeypatch.setattr(engine, "_apply_event", counting)
    return applied


class TestInlinePath:
    def test_idle_run_submits_without_a_hop(self, registry_gets):
        """Clean submits to an idle run: no mailbox, no worker task,
        and exactly one registry lookup per request."""
        program = churn_program()

        async def scenario():
            service = WorkflowService(program)
            await ok(service, op="open", run="r")
            seqs = []
            for index in range(5):
                registry_gets.clear()
                response = await ok(
                    service,
                    op="submit",
                    run="r",
                    event=event_to_dict(make_event(program, index)),
                )
                assert registry_gets == ["r"]
                seqs.append(response["seq"])
            workers = [
                task.get_name()
                for task in asyncio.all_tasks()
                if task.get_name().startswith("broker:")
            ]
            stats = service.broker.stats()
            await service.aclose()
            return seqs, service.broker._mailboxes, workers, stats

        seqs, mailboxes, workers, stats = asyncio.run(scenario())
        assert seqs == [0, 1, 2, 3, 4]
        assert "r" not in mailboxes and workers == []
        assert stats["active_mailboxes"] == 0 and stats[APPLIED] == 5

    @pytest.mark.parametrize("family", family_names())
    def test_inline_equals_worker(self, family, tmp_path):
        """The same stream through the inline path and through the
        worker gives identical acks, journals, provenance and views."""
        spec = get_family(family)
        program = spec.program()
        events = list(spec.run(seed=1, steps=40, program=program).events)
        assert len(events) > 10

        async def scenario(fault_plan, root):
            service = WorkflowService(
                program, storage=f"segment:{root}", fault_plan=fault_plan
            )
            return await drive(service, events)

        inline = asyncio.run(scenario(None, tmp_path / "inline"))
        worker = asyncio.run(scenario(FaultPlan(), tmp_path / "worker"))
        assert inline == worker
        acks = inline[0]
        assert [ack["seq"] for ack in acks] == list(range(len(events)))
        assert all(ack["attempts"] == 1 for ack in acks)
        inline_files = run_files(tmp_path / "inline")
        assert inline_files and inline_files == run_files(tmp_path / "worker")

    def test_disk_faults_inline_equals_worker(self, tmp_path):
        """Short writes and failed fsyncs on the segment backend: both
        paths retry and quarantine alike and recover the same runs."""
        program = churn_program()
        events = [make_event(program, index) for index in range(40)]
        disk_faults = DiskFaultPlan(seed=7, short_write_rate=0.25, fsync_failure_rate=0.2)

        async def scenario(fault_plan, root):
            service = WorkflowService(
                program,
                storage=f"segment:{root}",
                durability="interval:4",
                snapshot_every=4,
                disk_fault_plan=disk_faults,
                fault_plan=fault_plan,
                retry=RetryPolicy(max_attempts=2, initial_backoff=0.001),
            )
            result = await drive(service, events)
            backend = open_backend(f"segment:{root}")
            store = backend.store("r")
            try:
                records, _ = store.read()
                instance = fast_recover(program, records).instance
                # Compaction keeps what recovery rebuilds.
                store.compact()
                compacted, _ = store.read()
                assert fast_recover(program, compacted).instance == instance
            finally:
                store.close()
                backend.close()
            injected = service.disk_fault_injector.injected
            return result, injected, instance

        inline, inline_injected, inline_instance = asyncio.run(
            scenario(None, tmp_path / "inline")
        )
        worker, worker_injected, worker_instance = asyncio.run(
            scenario(FaultPlan(), tmp_path / "worker")
        )
        counters = inline[3]
        assert inline_injected["short_write"] > 0 and inline_injected["fsync"] > 0
        assert counters["disk_faults"] > 0 and counters["retries"] > 0
        assert counters[QUARANTINED] > 0, "some event must exhaust its attempts"
        assert counters[APPLIED] + counters[QUARANTINED] == len(events)
        assert inline == worker
        assert inline_injected == worker_injected
        assert inline_instance == worker_instance
        assert len(inline_instance.relation("Obj")) == counters[APPLIED]

    @pytest.mark.parametrize("max_attempts", [1, 2, 3])
    def test_failed_inline_attempt_is_attempt_one(
        self, max_attempts, tmp_path, engine_applications
    ):
        """A poison event reaches the engine exactly max_attempts times,
        the first of them in the submitting task."""
        program = churn_program()
        poison = kill_event(program, 0)

        async def scenario():
            registry = ShardedRunRegistry(program, storage=f"segment:{tmp_path}")
            broker = EventBroker(
                registry,
                retry=RetryPolicy(max_attempts=max_attempts, initial_backoff=0.001),
            )
            await registry.open("r")
            engine_applications.clear()
            outcome = await broker.submit("r", poison)
            calls = list(engine_applications)
            counters = dict(broker.counters)
            await broker.shutdown()
            await registry.close("r")
            return outcome, calls, counters

        outcome, calls, counters = asyncio.run(scenario())
        assert outcome.status == QUARANTINED
        assert calls == [poison] * max_attempts
        assert outcome.attempts == max_attempts
        assert counters["retries"] == max_attempts - 1
        assert counters[QUARANTINED] == 1
        backend = open_backend(f"segment:{tmp_path}")
        records, _ = backend.store("r").read()
        backend.close()
        quarantines = [r for r in records if r.get("type") == "quarantine"]
        assert [r["attempts"] for r in quarantines] == [max_attempts]

    def test_handed_off_event_skips_the_batched_drain(self, engine_applications):
        """An event handed over after a failed inline attempt keeps its
        attempt count when the worker dequeues it with later events:
        no uncounted batch attempt, and the later event applies after."""
        program = churn_program()
        poison, clean = kill_event(program, 0), make_event(program, 1)

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(
                registry,
                batch_size=8,
                retry=RetryPolicy(max_attempts=2, initial_backoff=0.001),
            )
            await registry.open("r")
            engine_applications.clear()
            # The poison fails inline and is handed over; the clean
            # event queues behind it before the worker first runs, so
            # the worker dequeues both at once.
            outcomes = await asyncio.gather(
                broker.submit("r", poison), broker.submit("r", clean)
            )
            calls = list(engine_applications)
            await broker.shutdown()
            return outcomes, calls

        (quarantined, applied), calls = asyncio.run(scenario())
        assert quarantined.status == QUARANTINED and quarantined.attempts == 2
        assert applied.status == APPLIED and applied.seq == 0
        assert calls == [poison, poison, clean]

    def test_unknown_run_is_checked_before_the_budget(self):
        """A budget-exhausted service still answers unknown_run for a
        run it does not host, from the broker's own lookup."""
        program = churn_program()

        async def scenario():
            service = WorkflowService(program, budget=Budget(max_steps=0))
            await ok(service, op="open", run="r")
            first = await ok(
                service, op="submit", run="r", event=event_to_dict(make_event(program, 0))
            )
            again = await ok(
                service, op="submit", run="r", event=event_to_dict(make_event(program, 1))
            )
            ghost = await service.handle(
                {
                    "op": "submit",
                    "run": "ghost",
                    "event": event_to_dict(make_event(program, 2)),
                }
            )
            await service.aclose()
            return first, again, ghost

        first, again, ghost = asyncio.run(scenario())
        assert first["status"] == APPLIED
        assert again["status"] == "rejected_budget"
        assert not ghost["ok"] and ghost["error"] == "unknown_run"

    def test_broker_looks_the_run_up_before_the_budget(self):
        """The broker itself refuses an unknown run on an exhausted
        budget, as ``submit_many`` does, instead of answering
        ``rejected_budget`` for a run it does not host."""
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(registry, budget=Budget(max_steps=0))
            broker.budget.steps = 1
            with pytest.raises(UnknownRunError):
                await broker.submit("ghost", make_event(program, 0))
            with pytest.raises(UnknownRunError):
                await broker.submit_many("ghost", [(make_event(program, 1), None)])
            await broker.shutdown()
            return broker.counters["rejected_budget"]

        assert asyncio.run(scenario()) == 0


class TestQuiesce:
    def test_close_does_not_wait_for_other_runs(self):
        """Closing a run without pending events returns while another
        run's poison event is still backing off."""
        program = churn_program()

        async def scenario():
            service = WorkflowService(
                program, retry=RetryPolicy(max_attempts=3, initial_backoff=0.25)
            )
            await ok(service, op="open", run="a")
            await ok(service, op="open", run="b")
            poisoned = asyncio.create_task(
                service.broker.submit("b", kill_event(program, 0))
            )
            await asyncio.sleep(0.02)  # b's worker is in backoff
            started = time.monotonic()
            await ok(service, op="close", run="a")
            elapsed = time.monotonic() - started
            # Still backing off: not yet quarantined, not yet resolved.
            still_pending = not poisoned.done() and not service.broker.counters[QUARANTINED]
            outcome = await poisoned
            await service.aclose()
            return still_pending, elapsed, outcome

        still_pending, elapsed, outcome = asyncio.run(scenario())
        assert still_pending, "closing run a waited for run b's retries"
        assert elapsed < 0.2
        assert outcome.status == QUARANTINED

    def test_quiesce_waits_without_spinning(self):
        """Waiting out a 0.3 s backoff costs well under half its wall
        time in CPU: quiesce sleeps on the mailbox's drain signal."""
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(
                registry, retry=RetryPolicy(max_attempts=2, initial_backoff=0.3)
            )
            await registry.open("r")
            pending = asyncio.create_task(broker.submit("r", kill_event(program, 0)))
            await asyncio.sleep(0.01)  # attempt 1 failed; the backoff runs
            wall, cpu = time.perf_counter(), time.process_time()
            await broker.quiesce("r")
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            outcome = await pending
            await broker.shutdown()
            return wall, cpu, outcome

        wall, cpu, outcome = asyncio.run(scenario())
        assert outcome.status == QUARANTINED
        assert wall >= 0.2, "quiesce must wait out the backoff"
        assert cpu < 0.5 * wall, f"quiesce spun: {cpu:.3f}s CPU over {wall:.3f}s"
