"""Hosted runs are runs: head-only values are globally fresh (Section 2).

A value is globally fresh when it occurs neither in const(P) nor in any
earlier instance of the run, so a value the run wrote and then deleted
is used for good.  ``applicable`` offers only such values, and a submit
that reuses one is quarantined with a ``FreshnessViolation`` and leaves
no event record.  A value counts as used only once its event's record
is written, so an event retried after a disk fault is not refused for
its own values.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.runtime.faults import DiskFaultPlan
from repro.service import WorkflowService
from repro.service.registry import HostedRun
from repro.workflow import Instance
from repro.workflow.engine import apply_event
from repro.workflow.errors import EventError, FreshnessViolation
from repro.workflow.serialization import event_from_dict
from repro.workloads import get_family

REQUEST = {"rule": "request", "valuation": {"r": "req-1"}}
WITHDRAW = {"rule": "withdraw", "valuation": {"x": "req-1"}}


@pytest.fixture(scope="module")
def procurement():
    return get_family("procurement").program()


def test_applicable_offers_only_globally_fresh_values(procurement):
    """After every event of a 120-event stream, every event any peer is
    offered fires under the engine's freshness check against const(P)
    and every instance so far (minting from the current instance alone
    offered 119 of 491 events that reuse a value)."""
    program = procurement
    run = get_family("procurement").run(seed=1004, steps=120, program=program)
    hosted = HostedRun("r", program, Instance.empty(program.schema.schema))
    used = set(program.constants())
    offered = stale = 0
    for event in run.events:
        hosted.apply(event)
        used |= hosted.instance.active_domain()
        for peer in program.schema.peers:
            for candidate in hosted.applicable(peer):
                offered += 1
                try:
                    apply_event(
                        program.schema, hosted.instance, candidate,
                        forbidden_fresh=frozenset(used),
                    )
                except EventError:
                    stale += 1
    assert offered > 400
    assert stale == 0


def _serve(program, scenario, tmp_path, **options):
    async def main():
        service = WorkflowService(
            program, storage=f"segment:{tmp_path}", **options
        )
        try:
            opened = await service.handle({"op": "open", "run": "r"})
            assert opened["ok"], opened
            answers = await scenario(service)
            records, _ = service.registry.storage.store("r").read()
            return answers, records
        finally:
            await service.aclose()

    return asyncio.run(main())


def _event_records(records):
    return [record["event"] for record in records if record["type"] == "event"]


@pytest.mark.parametrize("batch_size", [1, 8])
def test_a_submit_reusing_a_deleted_value_is_quarantined(
    procurement, tmp_path, batch_size
):
    async def scenario(service):
        return [
            await service.handle({"op": "submit", "run": "r", "event": event})
            for event in (REQUEST, WITHDRAW, REQUEST)
        ]

    acks, records = _serve(procurement, scenario, tmp_path, batch_size=batch_size)
    assert [ack["status"] for ack in acks] == ["applied", "applied", "quarantined"]
    assert acks[2]["reason"].startswith("FreshnessViolation")
    assert _event_records(records) == [REQUEST, WITHDRAW]


@pytest.mark.parametrize("batch_size", [1, 8])
def test_a_batch_reusing_its_own_deleted_value_is_refused(
    procurement, tmp_path, batch_size
):
    async def scenario(service):
        return await service.handle(
            {
                "op": "submit_batch",
                "run": "r",
                "events": [{"event": e} for e in (REQUEST, WITHDRAW, REQUEST)],
            }
        )

    answer, records = _serve(procurement, scenario, tmp_path, batch_size=batch_size)
    assert [result["status"] for result in answer["results"]] == [
        "applied", "applied", "quarantined",
    ]
    assert answer["results"][2]["reason"].startswith("FreshnessViolation")
    assert _event_records(records) == [REQUEST, WITHDRAW]


def test_apply_batch_checks_each_event_against_the_batch_before_it(procurement):
    """The engine's batch fold sees what the batch's earlier events
    wrote, without touching the run's set until they commit."""
    hosted = HostedRun("r", procurement, Instance.empty(procurement.schema.schema))
    events = [event_from_dict(procurement, e) for e in (REQUEST, WITHDRAW, REQUEST)]
    with pytest.raises(FreshnessViolation) as caught:
        hosted.apply_batch(events)
    assert [seq for seq, _, _ in caught.value.batch_results] == [0, 1]
    assert hosted.events == events[:2]
    assert "req-1" in hosted.used_values


def test_an_event_retried_after_a_disk_fault_is_applied(procurement, tmp_path):
    """The first event record's append fails (append 0 is the begin
    record); the retry must not find the event's own value used."""

    async def scenario(service):
        return await service.handle({"op": "submit", "run": "r", "event": REQUEST})

    ack, records = _serve(
        procurement, scenario, tmp_path,
        disk_fault_plan=DiskFaultPlan(fail_at_append=1),
    )
    assert ack["status"] == "applied" and ack["attempts"] == 2, ack
    assert _event_records(records) == [REQUEST]


def test_recovery_rebuilds_the_used_values(procurement, tmp_path):
    """A recovered run refuses the values its log used, deleted or not."""

    async def main():
        service = WorkflowService(procurement, storage=f"segment:{tmp_path}")
        await service.handle({"op": "open", "run": "r"})
        for event in (REQUEST, WITHDRAW):
            await service.handle({"op": "submit", "run": "r", "event": event})
        hosted = await service.registry.crash_and_recover("r")
        again = await service.handle({"op": "submit", "run": "r", "event": REQUEST})
        await service.aclose()
        return hosted, again

    hosted, again = asyncio.run(main())
    assert "req-1" in hosted.used_values
    assert again["status"] == "quarantined"
