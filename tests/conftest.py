"""Shared fixtures: canonical programs and runs from the paper, and a
counter of the segment store's JSON calls."""

from __future__ import annotations

import collections
import json

import pytest

from repro.storage import segment
from repro.workflow import Event, execute
from repro.workloads import paper_examples


@pytest.fixture
def hiring():
    return paper_examples.hiring_program()


@pytest.fixture
def hiring_literal():
    return paper_examples.hiring_program(literal=True)


@pytest.fixture
def hiring_no_cfo():
    return paper_examples.hiring_no_cfo_program()


@pytest.fixture
def hiring_transparent():
    return paper_examples.hiring_transparent_program()


@pytest.fixture
def approval():
    return paper_examples.approval_program()


@pytest.fixture
def approval_run(approval):
    """The Example 4.2 run ``e f g h``."""
    events = [Event(approval.rule(name), {}) for name in "efgh"]
    return execute(approval, events)


@pytest.fixture
def assignment():
    return paper_examples.replace_assignment_program()


@pytest.fixture
def transitive_closure():
    return paper_examples.transitive_closure_program()


@pytest.fixture
def opaque_veto():
    return paper_examples.opaque_veto_program()


@pytest.fixture
def segment_json_calls(monkeypatch):
    """A counter of the ``json.loads``/``json.dumps`` calls the segment
    store makes — only the ``json`` name the segment module looks up is
    patched, so decoding elsewhere (protocol, manifests read by other
    modules) is not counted.  ``clear()`` it to open a window."""
    calls = collections.Counter()

    class CountingJson:
        def __getattr__(self, name):
            return getattr(json, name)

        def loads(self, *args, **kwargs):
            calls["loads"] += 1
            return json.loads(*args, **kwargs)

        def dumps(self, *args, **kwargs):
            calls["dumps"] += 1
            return json.dumps(*args, **kwargs)

    monkeypatch.setattr(segment, "json", CountingJson())
    return calls
