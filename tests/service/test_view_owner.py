"""One materialized view per peer per run, and versions that count events.

A hosted run keeps one copy of its derived state.  Its dataflow graph
adopts the engine's successor as the run's instance and materializes a
peer's view only when something reads it; the ``view`` op and the
applicable-event index then read that same instance.  A peer's view
version is ``applied + 1`` wherever the service reports one — submit
acks, submit_batch acks and view answers — through eviction,
rehydration and crash recovery.  A run back from eviction or a crash
replays its events once, to rebuild its provenance log, however many
explainers it then wires.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.dataflow import DeltaGraph
from repro.service import WorkflowService
from repro.service.registry import HostedRun
from repro.workflow import Event, FreshValue, Instance, RunGenerator, Var, engine
from repro.workflow.engine import apply_event_with_delta, apply_events
from repro.workflow.eventindex import ApplicableEventIndex
from repro.workflow.queries import Query
from repro.workflow.serialization import event_to_dict
from repro.workloads import family_names, get_family
from repro.workloads.generators import churn_program


def make_event(program, index):
    """An always-applicable creation event with its own fresh value."""
    return Event(program.rule("make"), {Var("x"): FreshValue(1000 + index)})


async def ok(service, **request):
    response = await service.handle(request)
    assert response["ok"], response
    return response


@pytest.fixture(params=family_names())
def stream(request):
    family = get_family(request.param)
    program = family.program()
    run = family.run(seed=1, steps=40, program=program)
    assert len(run) > 10
    return program, run


def _split(events):
    """The first half one at a time, the rest in batches of eight."""
    half = len(events) // 2
    return events[:half], [events[i : i + 8] for i in range(half, len(events), 8)]


def test_versions_are_applied_plus_one_through_eviction_and_recovery(tmp_path):
    program = churn_program()
    peers = program.schema.peers
    runs = ("a", "b")

    async def check_views(service, run):
        for peer in peers:
            view = await ok(service, op="view", run=run, peer=peer)
            assert view["version"] == view["applied"] + 1
            assert view["cached"] is True

    async def submit(service, run, index):
        ack = await ok(
            service, op="submit", run=run, event=event_to_dict(make_event(program, index))
        )
        assert ack["status"] == "applied"
        assert ack["version"] == ack["seq"] + 2  # applied + 1 after the event

    async def scenario():
        service = WorkflowService(
            program, storage=f"segment:{tmp_path}", max_resident=1
        )
        for run in runs:
            await ok(service, op="open", run=run)
        index = 0
        for _ in range(3):
            for run in runs:  # each switch evicts the other run
                await submit(service, run, index)
                batch = [
                    {"event": event_to_dict(make_event(program, index + 1 + k))}
                    for k in range(3)
                ]
                index += 4
                response = await ok(service, op="submit_batch", run=run, events=batch)
                for ack in response["results"]:
                    assert ack["status"] == "applied"
                    assert ack["version"] == ack["seq"] + 2
                assert response["results"][-1]["version"] == response["applied"] + 1
                await check_views(service, run)
        assert service.registry.evictions > 0
        assert service.registry.rehydrations > 0
        for run in runs:
            await service.registry.crash_and_recover(run)
            await check_views(service, run)
            await submit(service, run, index)
            index += 1
            await check_views(service, run)
        await service.aclose()

    asyncio.run(scenario())


@pytest.mark.parametrize("comeback", ["rehydrate", "recover"])
def test_a_returned_run_replays_once_for_its_explainers(
    stream, comeback, tmp_path, monkeypatch
):
    """After eviction or a crash, a run's first ``explain`` rebuilds its
    provenance with one replay, and every explainer it wires catches up
    from those records; the answers equal a never-evicted run's."""
    program, run = stream
    peers = program.schema.peers[:2]
    batch = [{"event": event_to_dict(event)} for event in run.events]
    applied = []
    original = engine._apply_event

    def counting(schema, instance, event, *args, **kwargs):
        applied.append(event)
        return original(schema, instance, event, *args, **kwargs)

    monkeypatch.setattr(engine, "_apply_event", counting)

    async def explain_all(service):
        answers = []
        for peer in peers:
            answer = await ok(service, op="explain", run="r", peer=peer)
            answer["provenance"] = [
                {key: value for key, value in citation.items() if key != "span_id"}
                for citation in answer["provenance"]
            ]
            answers.append({key: answer[key] for key in ("scenario", "rules", "provenance")})
        return answers

    async def scenario():
        reference = WorkflowService(program)
        service = WorkflowService(program, storage=f"segment:{tmp_path}", max_resident=1)
        for each in (reference, service):
            await ok(each, op="open", run="r")
            await ok(each, op="submit_batch", run="r", events=batch)
        if comeback == "rehydrate":
            await ok(service, op="open", run="other")
            assert service.registry.evicted_count() == 1
            await service.registry.get("r")
            assert service.registry.rehydrations == 1
        else:
            await service.registry.crash_and_recover("r")
        applied.clear()
        answers = await explain_all(service)
        assert applied == list(run.events)
        assert answers == await explain_all(reference)
        await service.aclose()
        await reference.aclose()

    asyncio.run(scenario())


def test_index_and_view_reads_share_one_instance(stream, monkeypatch):
    program, run = stream
    owners = {id(rule.body): rule.peer for rule in program.rules}
    evaluated = []
    original = Query.valuations

    def recording(self, view_instance):
        evaluated.append((owners.get(id(self)), view_instance))
        return original(self, view_instance)

    monkeypatch.setattr(Query, "valuations", recording)
    hosted = HostedRun("r", program, Instance.empty(program.schema.schema))
    shared = 0

    def check():
        nonlocal shared
        assert hosted.dataflow.instance is hosted.instance
        for peer in program.schema.peers:
            evaluated.clear()
            hosted.applicable(peer)
            served = hosted.view_instance(peer)
            for owner, view_instance in evaluated:
                if owner == peer:
                    assert view_instance is served
                    shared += 1

    singles, batches = _split(list(run.events))
    check()
    for event in singles:
        hosted.apply(event)
        check()
    for batch in batches:
        hosted.apply_batch(batch)
        check()
    assert shared > 0


def test_unread_views_are_never_patched(stream, monkeypatch):
    """A run nobody reads makes exactly the engine's ``replace_tuples``
    calls: no derived copy of the instance or of any view is kept."""
    program, run = stream
    schema = program.schema
    calls = []
    original = Instance.replace_tuples

    def counting(self, name, changes):
        calls.append(name)
        return original(self, name, changes)

    monkeypatch.setattr(Instance, "replace_tuples", counting)
    hosted = HostedRun("r", program, Instance.empty(schema.schema))
    singles, batches = _split(list(run.events))
    for event in singles:
        calls.clear()
        apply_event_with_delta(schema, hosted.instance, event, forbidden_fresh=None)
        engine_calls = list(calls)
        calls.clear()
        hosted.apply(event)
        assert calls == engine_calls
    for batch in batches:
        calls.clear()
        apply_events(schema, hosted.instance, batch, forbidden_fresh=None)
        engine_calls = list(calls)
        calls.clear()
        hosted.apply_batch(batch)
        assert calls == engine_calls
    assert hosted.instance == run.final_instance


def test_index_over_a_shared_graph_must_start_at_its_instance():
    program = churn_program()
    run = RunGenerator(program, seed=1).random_run(5)
    graph = DeltaGraph(program.schema, run.initial)
    with pytest.raises(ValueError):
        ApplicableEventIndex(program, run.final_instance, graph=graph)
    assert ApplicableEventIndex(program, run.initial, graph=graph).graph is graph
