"""Broker semantics: per-run FIFO, backpressure, budgets, quarantine."""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.budget import Budget
from repro.runtime.faults import FaultPlan
from repro.runtime.supervisor import RetryPolicy
from repro.service.broker import (
    APPLIED,
    QUARANTINED,
    REJECTED_BACKPRESSURE,
    REJECTED_BUDGET,
    EventBroker,
)
from repro.service.errors import UnknownRunError
from repro.service.registry import ShardedRunRegistry
from repro.workflow import Event, FreshValue, Var
from repro.workloads.generators import churn_program


def make_event(program, index):
    """An always-applicable creation event with its own fresh value."""
    return Event(program.rule("make"), {Var("x"): FreshValue(1000 + index)})


def kill_event(program, index):
    """A deletion that is invalid unless the object exists (poison here)."""
    return Event(program.rule("kill"), {Var("x"): FreshValue(1000 + index)})


class TestOrdering:
    def test_concurrent_submitters_preserve_per_run_fifo(self):
        """Interleaved submitters see one total order: seqs 0..N-1, and
        each submitter's own awaited submissions keep relative order."""
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(registry)
            await registry.open("r")
            per_task_seqs = []

            async def submitter(task_index, count):
                seqs = []
                for j in range(count):
                    outcome = await broker.submit(
                        "r", make_event(program, task_index * 100 + j)
                    )
                    assert outcome.status == APPLIED
                    seqs.append(outcome.seq)
                per_task_seqs.append(seqs)

            await asyncio.gather(*(submitter(i, 10) for i in range(4)))
            await broker.shutdown()
            return per_task_seqs

        per_task_seqs = asyncio.run(scenario())
        all_seqs = [seq for seqs in per_task_seqs for seq in seqs]
        assert sorted(all_seqs) == list(range(40))
        for seqs in per_task_seqs:
            assert seqs == sorted(seqs), "a submitter's own seqs went backwards"

    def test_distinct_runs_progress_independently(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(registry)
            for run_id in ("a", "b"):
                await registry.open(run_id)
            outcomes = await asyncio.gather(
                *(
                    broker.submit(run_id, make_event(program, base + i))
                    for base, run_id in ((0, "a"), (50, "b"))
                    for i in range(5)
                )
            )
            await broker.shutdown()
            return outcomes

        outcomes = asyncio.run(scenario())
        by_run = {}
        for outcome in outcomes:
            assert outcome.status == APPLIED
            by_run.setdefault(outcome.run_id, []).append(outcome.seq)
        assert sorted(by_run["a"]) == list(range(5))
        assert sorted(by_run["b"]) == list(range(5))


class TestAdmissionControl:
    def test_backpressure_rejects_when_mailbox_full(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            # A poisoned head-of-line event keeps the worker busy in
            # backoff while we fill the (tiny) mailbox behind it.
            broker = EventBroker(
                registry,
                queue_capacity=2,
                retry=RetryPolicy(max_attempts=3, initial_backoff=0.2),
            )
            await registry.open("r")
            poisoned = asyncio.create_task(
                broker.submit("r", kill_event(program, 0))
            )
            await asyncio.sleep(0.05)  # worker is now retrying the poison
            queued = [
                asyncio.create_task(broker.submit("r", make_event(program, i)))
                for i in (1, 2)
            ]
            await asyncio.sleep(0.05)  # both sit in the mailbox
            rejected = await broker.submit("r", make_event(program, 3))
            results = [await poisoned] + [await task for task in queued]
            await broker.shutdown()
            return rejected, results

        rejected, results = asyncio.run(scenario())
        assert rejected.status == REJECTED_BACKPRESSURE
        assert "mailbox full" in rejected.reason
        assert results[0].status == QUARANTINED
        assert [r.status for r in results[1:]] == [APPLIED, APPLIED]

    def test_budget_exhaustion_rejects_new_submissions(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(registry, budget=Budget(max_steps=3))
            await registry.open("r")
            outcomes = [
                await broker.submit("r", make_event(program, i)) for i in range(5)
            ]
            await broker.shutdown()
            return outcomes

        outcomes = asyncio.run(scenario())
        # The budget's violation test is strict (steps > max), so the
        # step cap of 3 admits four events and rejects the fifth.
        assert [o.status for o in outcomes[:4]] == [APPLIED] * 4
        assert outcomes[4].status == REJECTED_BUDGET
        assert "budget" in outcomes[4].reason

    def test_unknown_run_raises(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(registry)
            with pytest.raises(UnknownRunError):
                await broker.submit("ghost", make_event(program, 0))
            await broker.shutdown()

        asyncio.run(scenario())


class TestResilience:
    def test_poison_event_quarantined_after_bounded_retries(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(
                registry, retry=RetryPolicy(max_attempts=2, initial_backoff=0.001)
            )
            await registry.open("r")
            outcome = await broker.submit("r", kill_event(program, 0))
            hosted = await registry.get("r")
            await broker.shutdown()
            return outcome, hosted.quarantined, hosted.applied

        outcome, quarantined, applied = asyncio.run(scenario())
        assert outcome.status == QUARANTINED
        assert outcome.attempts == 2
        assert quarantined == 1 and applied == 0

    def test_release_resolves_in_flight_and_queued_submitters(self):
        """Closing a run must never leave a submitter awaiting forever."""
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(
                registry,
                retry=RetryPolicy(max_attempts=5, initial_backoff=0.5),
            )
            await registry.open("r")
            # Head-of-line poison sits in retry backoff (in flight, not
            # queued); a second event waits behind it in the mailbox.
            in_flight = asyncio.create_task(
                broker.submit("r", kill_event(program, 0))
            )
            await asyncio.sleep(0.05)
            queued = asyncio.create_task(
                broker.submit("r", make_event(program, 1))
            )
            await asyncio.sleep(0.05)
            await broker.release("r")
            with pytest.raises(UnknownRunError):
                await in_flight
            with pytest.raises(UnknownRunError):
                await queued

        asyncio.run(scenario())

    def test_quiesce_waits_for_in_flight_events(self):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program)
            broker = EventBroker(
                registry, retry=RetryPolicy(max_attempts=2, initial_backoff=0.05)
            )
            await registry.open("r")
            pending = asyncio.create_task(
                broker.submit("r", kill_event(program, 0))
            )
            await asyncio.sleep(0.01)  # dequeued, now retrying in flight
            await broker.quiesce("r")
            # If quiesce ignored the in-flight event it would return
            # ~90ms before the retry quarantines; the tight timeout
            # would then trip.
            outcome = await asyncio.wait_for(pending, timeout=0.01)
            await broker.shutdown()
            return outcome

        outcome = asyncio.run(scenario())
        assert outcome.status == QUARANTINED

    def test_injected_crash_recovers_from_journal_and_retries(self, tmp_path):
        program = churn_program()

        async def scenario():
            registry = ShardedRunRegistry(program, storage=f"segment:{tmp_path}")
            broker = EventBroker(
                registry, fault_plan=FaultPlan(crash_at_event=2)
            )
            await registry.open("r")
            outcomes = [
                await broker.submit("r", make_event(program, i)) for i in range(4)
            ]
            hosted = await registry.get("r")
            await broker.shutdown()
            return outcomes, hosted

        outcomes, hosted = asyncio.run(scenario())
        assert [o.status for o in outcomes] == [APPLIED] * 4
        assert [o.seq for o in outcomes] == [0, 1, 2, 3]
        assert outcomes[2].recovered, "the crashed event must report recovery"
        assert hosted.recoveries == 1
        assert hosted.applied == 4
        assert len(hosted.instance.relation("Obj")) == 4
