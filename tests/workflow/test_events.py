"""Events: ``K(R, e)`` has one definition, and building an event is cheap.

:meth:`Event.key_occurrences` reads each key term off the valuation in
one pass and :meth:`Event.keys_of` answers from it; the reference below
is the original per-relation grounding of the body and head.  A rule
derives its variable sets when it is built, so constructing an event
for an existing rule rebuilds none of them.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.workflow.domain import is_null
from repro.workflow.enumerate import RunGenerator
from repro.workflow.events import Event
from repro.workflow.queries import KeyLiteral, Query, RelLiteral
from repro.workflow.rules import Deletion, Insertion
from repro.workloads import family_names, fuzz_program, get_family


def reference_keys_of(event, relation):
    """``K(R, e)`` by grounding the whole body and head."""
    keys = set()
    for literal in event.ground_body():
        if isinstance(literal, RelLiteral) and literal.view.relation.name == relation:
            keys.add(literal.key_term.value)
        elif isinstance(literal, KeyLiteral) and literal.view.relation.name == relation:
            keys.add(literal.term.value)
    for atom in event.ground_head():
        if atom.view.relation.name == relation:
            keys.add(atom.key_term.value)
    return frozenset(k for k in keys if not is_null(k))


def _events(source, seed, steps):
    if source == "fuzz":
        program = fuzz_program(seed)
    else:
        program = get_family(source).program()
    return program, RunGenerator(program, seed=seed).random_run(steps).events


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    source=st.sampled_from(("fuzz",) + tuple(family_names())),
    seed=st.integers(0, 400),
    steps=st.integers(1, 16),
)
def test_key_occurrences_is_the_per_relation_grounding(source, seed, steps):
    program, events = _events(source, seed, steps)
    relations = [relation.name for relation in program.schema.schema]
    for event in events:
        occurrences = event.key_occurrences()
        assert occurrences == {
            name: reference_keys_of(event, name) for name in event.relations_mentioned()
        }
        for name in relations:
            assert event.keys_of(name) == reference_keys_of(event, name)


def test_building_an_event_rebuilds_no_variable_set(monkeypatch):
    """``Query.variables`` and the update atoms' ``variables`` run when a
    rule is built, never when an event of it is."""
    program = get_family("ecommerce").program()
    events = RunGenerator(program, seed=3).random_run(30).events
    assert any(event.rule.head_only_variables() for event in events)
    calls = []

    def counted(cls):
        original = cls.variables

        def variables(self):
            calls.append(cls.__name__)
            return original(self)

        monkeypatch.setattr(cls, "variables", variables)

    for cls in (Query, Insertion, Deletion):
        counted(cls)
    rebuilt = [Event(event.rule, event.valuation_dict()) for event in events]
    assert rebuilt == list(events)
    assert calls == []
