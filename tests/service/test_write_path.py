"""The write path applies events without materializing a peer view.

An event's body is checked through keyed reads of the acting peer's
view and the explainers follow the transition's record, so no step an
event takes into a hosted run calls ``CollaborativeSchema.view_instance``
(an O(|I|) rebuild).  A counting patch over it pins the write path at
O(|delta|) per event: these tests fail if a whole-view rebuild comes
back on any of its entry points.

A hosted run's explainers advance with the provenance record of the
run's own transition, and a late one catches up from the run's records,
so the engine applies each event once however many explainers are
wired, and whenever; a second counting patch, over the engine's single
application path, pins that.
"""

from __future__ import annotations

import pytest

from repro.core.incremental import IncrementalExplainer
from repro.service.registry import HostedRun
from repro.workflow import Instance, engine
from repro.workflow.engine import apply_events
from repro.workflow.views import CollaborativeSchema
from repro.workloads import family_names, get_family


@pytest.fixture
def view_instance_calls(monkeypatch):
    """The peers ``view_instance`` is called for, from the patch on."""
    calls = []
    original = CollaborativeSchema.view_instance

    def counting(self, instance, peer):
        calls.append(peer)
        return original(self, instance, peer)

    monkeypatch.setattr(CollaborativeSchema, "view_instance", counting)
    return calls


@pytest.fixture
def engine_applications(monkeypatch):
    """The events the engine applies, from the patch on.

    ``apply_event_with_delta`` and ``apply_events`` both apply through
    ``engine._apply_event``.
    """
    applied = []
    original = engine._apply_event

    def counting(schema, instance, event, *args, **kwargs):
        applied.append(event)
        return original(schema, instance, event, *args, **kwargs)

    monkeypatch.setattr(engine, "_apply_event", counting)
    return applied


@pytest.fixture(params=family_names())
def stream(request):
    family = get_family(request.param)
    program = family.program()
    run = family.run(seed=1, steps=40, program=program)
    assert len(run) > 10
    return family.observer, program, run


def _hosted(program, observer, run):
    """A hosted run with every derived artifact wired: caches, index, explainers."""
    hosted = HostedRun("r", program, Instance.empty(program.schema.schema))
    hosted.event_index()
    hosted.explainer(observer)
    hosted.explainer(run.events[0].peer)
    return hosted


def test_apply_events(stream, view_instance_calls):
    _, program, run = stream
    view_instance_calls.clear()
    pairs = apply_events(program.schema, run.initial, run.events)
    assert view_instance_calls == []
    assert pairs[-1][0] == run.final_instance


def test_hosted_run_apply(stream, view_instance_calls):
    observer, program, run = stream
    hosted = _hosted(program, observer, run)
    view_instance_calls.clear()
    for event in run.events:
        hosted.apply(event)
    assert view_instance_calls == []
    assert hosted.instance == run.final_instance


def test_hosted_run_apply_batch(stream, view_instance_calls):
    observer, program, run = stream
    hosted = _hosted(program, observer, run)
    view_instance_calls.clear()
    events = list(run.events)
    for start in range(0, len(events), 16):
        hosted.apply_batch(events[start : start + 16])
    assert view_instance_calls == []
    assert hosted.instance == run.final_instance


def test_explainer_extend(stream, view_instance_calls):
    observer, program, run = stream
    explainers = [
        IncrementalExplainer(program, peer) for peer in (observer, run.events[0].peer)
    ]
    view_instance_calls.clear()
    for event in run.events:
        for explainer in explainers:
            explainer.extend(event)
    assert view_instance_calls == []


def _split(events):
    """The first half one at a time, the rest in batches of eight."""
    half = len(events) // 2
    return events[:half], [events[i : i + 8] for i in range(half, len(events), 8)]


def test_hosted_run_applies_each_event_once(stream, engine_applications):
    """Two wired explainers add no engine application: one per event,
    through ``apply`` and through ``apply_batch``."""
    observer, program, run = stream
    hosted = HostedRun("r", program, Instance.empty(program.schema.schema))
    hosted.explainer(observer)
    hosted.explainer(next(p for p in program.schema.peers if p != observer))
    singles, batches = _split(list(run.events))
    engine_applications.clear()
    for event in singles:
        hosted.apply(event)
    assert engine_applications == singles
    for batch in batches:
        hosted.apply_batch(batch)
    assert engine_applications == list(run.events)


def test_wiring_an_explainer_applies_no_event(stream, engine_applications):
    """A late explainer catches up from the run's provenance records."""
    observer, program, run = stream
    hosted = HostedRun("r", program, Instance.empty(program.schema.schema))
    singles, batches = _split(list(run.events))
    for event in singles:
        hosted.apply(event)
    for batch in batches:
        hosted.apply_batch(batch)
    engine_applications.clear()
    hosted.explainer(observer)
    assert engine_applications == []


def test_hosted_explainers_match_standalone(stream):
    """Explainers advanced by the run's transitions (wired before the
    first event, or caught up midway) answer exactly as explainers that
    apply every event themselves."""
    _, program, run = stream
    peers = program.schema.peers
    hosted = HostedRun("r", program, Instance.empty(program.schema.schema))
    for peer in peers[::2]:
        hosted.explainer(peer)
    standalone = {peer: IncrementalExplainer(program, peer) for peer in peers}
    singles, batches = _split(list(run.events))
    for event in singles:
        hosted.apply(event)
    for peer in peers[1::2]:
        hosted.explainer(peer)
    for batch in batches:
        hosted.apply_batch(batch)
    for event in run.events:
        for explainer in standalone.values():
            explainer.extend(event)
    for peer, reference in standalone.items():
        served = hosted.explainer(peer)
        assert served.minimal_scenario() == reference.minimal_scenario()
        assert [served.explanation_of(i) for i in range(len(run.events))] == [
            reference.explanation_of(i) for i in range(len(run.events))
        ]
        assert served.visible_indices() == reference.visible_indices()
