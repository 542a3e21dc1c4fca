"""The write path applies events without materializing a peer view.

An event's body is checked through keyed reads of the acting peer's
view and the explainers follow the transition's delta, so no step an
event takes into a hosted run calls ``CollaborativeSchema.view_instance``
(an O(|I|) rebuild).  A counting patch over it pins the write path at
O(|delta|) per event: these tests fail if a whole-view rebuild comes
back on any of its entry points.
"""

from __future__ import annotations

import pytest

from repro.core.incremental import IncrementalExplainer
from repro.service.registry import HostedRun
from repro.workflow import Instance
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
