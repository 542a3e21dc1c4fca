"""The keyed body check ≡ the body check on the materialized view.

The engine checks an event's body with ``Query.satisfied_by`` over
``CollaborativeSchema.view_probe(I, p)``, a read-through of the acting
peer's views over the global instance.  The reference is the same call
over ``CollaborativeSchema.view_instance(I, p)``.  These tests hold the
two equal on fuzzer programs, the four realistic families and a program
whose rule bodies read selected and projected views, at every prefix of
a run, for satisfying and non-satisfying full valuations and for ground
literals aimed at hidden tuples, dropped attributes, ⊥ values and a ⊥
key.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.workflow import RunGenerator, parse_program
from repro.workflow.domain import NULL, FreshValue
from repro.workflow.instance import Instance
from repro.workflow.queries import Const, KeyLiteral, Query, RelLiteral
from repro.workflow.tuples import Tuple
from repro.workflow.views import ViewProbe
from repro.workloads import family_names, fuzz_program, get_family

#: Rule bodies over views that select and project: the auditor sees an
#: order's flag only while its amount is not 'big', and the observer
#: sees just the keys of flagged orders.
SELECTIVE = """
peers clerk, auditor, observer
relation Order(K, amount, flag)
relation Note(K, order)
view Order@clerk(K, amount, flag)
view Order@auditor(K, flag) where amount != 'big'
view Order@observer(K) where flag = 'review'
view Note@clerk(K, order)
view Note@auditor(K, order)
view Note@observer(K, order)
[small]  +Order@clerk(x, 'small', null) :-
[big]    +Order@clerk(x, 'big', null) :-
[flag]   +Order@auditor(x, 'review') :- Order@auditor(x, null)
[note]   +Note@auditor(n, x) :- Order@auditor(x, 'review'), not Note@auditor(x, x)
[clear]  -Key[Order]@clerk(x) :- Order@clerk(x, a, f), not Key[Note]@clerk(x)
[retake] +Note@auditor(n, x) :- Order@auditor(x, f), not Order@auditor(x, null), f != 'done'
"""

FUZZ_SEEDS = range(25)
SOURCES = (
    ["selective"]
    + [f"fuzz:{seed}" for seed in FUZZ_SEEDS]
    + [f"family:{name}" for name in family_names()]
)


@functools.lru_cache(maxsize=None)
def _source(label):
    """(program, every instance of one of its runs: initial and each prefix)."""
    kind, _, arg = label.partition(":")
    if kind == "fuzz":
        program = fuzz_program(int(arg))
        run = RunGenerator(program, seed=int(arg)).random_run(12)
    elif kind == "family":
        family = get_family(arg)
        program = family.program()
        run = family.run(seed=3, steps=30, program=program)
    else:
        program = parse_program(SELECTIVE)
        run = RunGenerator(program, seed=5).random_run(24)
    return program, (run.initial,) + run.instances


def _value_pool(program, instance):
    """Values a valuation draws from: the instance's, the program's, ⊥, fresh."""
    values = set(instance.active_domain()) | set(program.constants())
    return sorted(values, key=repr) + [NULL, FreshValue(10**6)]


def _agree(schema, instance, peer, query, valuation):
    probe = schema.view_probe(instance, peer)
    reference = schema.view_instance(instance, peer)
    expected = query.satisfied_by(reference, valuation)
    assert query.satisfied_by(probe, valuation) == expected, (
        f"{query!r} under {valuation!r} at {instance!r} for {peer}"
    )
    return expected


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rule_bodies_agree_on_random_full_valuations(data):
    program, instances = _source(data.draw(st.sampled_from(SOURCES)))
    instance = data.draw(st.sampled_from(instances))
    rule = data.draw(st.sampled_from(program.rules))
    body, schema = rule.body, program.schema
    variables = sorted(body.variables(), key=lambda v: v.name)
    satisfying = list(body.valuations(schema.view_instance(instance, rule.peer)))
    pool = _value_pool(program, instance)
    if satisfying and data.draw(st.booleans()):
        # Positive: a satisfying valuation, perhaps with one value changed.
        valuation = dict(data.draw(st.sampled_from(satisfying)))
        if variables and data.draw(st.booleans()):
            changed = data.draw(st.sampled_from(variables))
            valuation[changed] = data.draw(st.sampled_from(pool))
    else:
        valuation = {var: data.draw(st.sampled_from(pool)) for var in variables}
    holds = _agree(schema, instance, rule.peer, body, valuation)
    if valuation in satisfying:
        assert holds


@given(data=st.data())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_ground_literals_agree_on_every_view(data):
    """Literals over any peer's view, hidden and projected ones included."""
    program, instances = _source(data.draw(st.sampled_from(SOURCES)))
    schema = program.schema
    instance = data.draw(st.sampled_from(instances))
    view = data.draw(st.sampled_from(schema.all_views()))
    pool = _value_pool(program, instance)
    stored = instance.relation(view.relation.name)
    if stored and data.draw(st.booleans()):
        # Aim at a stored tuple: the peer sees its projection unless the
        # selection hides it.
        values = list(data.draw(st.sampled_from(stored)).project(view.attributes).values)
    else:
        values = [data.draw(st.sampled_from(pool)) for _ in view.attributes]
    if data.draw(st.booleans()):
        position = data.draw(st.integers(0, len(values) - 1))
        values[position] = data.draw(st.sampled_from(pool))  # ⊥ or another value
    positive = data.draw(st.booleans())
    if data.draw(st.booleans()):
        literal = RelLiteral(view, tuple(Const(v) for v in values), positive)
    else:
        literal = KeyLiteral(view, Const(values[0]), positive)
    _agree(schema, instance, view.peer, Query([literal]), {})


@pytest.mark.parametrize("label", SOURCES)
def test_keyed_reads_agree_at_every_prefix(label):
    """``tuple_with_key``/``has_key`` for every stored key, ⊥ and a fresh key."""
    program, instances = _source(label)
    schema = program.schema
    for instance in instances:
        for peer in schema.peers:
            probe = schema.view_probe(instance, peer)
            reference = schema.view_instance(instance, peer)
            for view in schema.views_of_peer(peer):
                keys = list(instance.keys(view.relation.name)) + [NULL, FreshValue(10**6)]
                for key in keys:
                    seen = reference.tuple_with_key(view.name, key)
                    assert probe.tuple_with_key(view.name, key) == seen
                    assert probe.has_key(view.name, key) == (seen is not None)


class TestNamedCases:
    """One concrete instance of each case the property tests draw."""

    @pytest.fixture
    def orders(self):
        program = parse_program(SELECTIVE)
        schema = program.schema
        attrs = ("K", "amount", "flag")
        instance = Instance.from_tuples(
            schema.schema,
            {
                "Order": [
                    Tuple(attrs, (1, "small", NULL)),
                    Tuple(attrs, (2, "big", "review")),
                ]
            },
        )
        return schema, instance

    def probe(self, schema, instance, peer):
        probe = schema.view_probe(instance, peer)
        assert isinstance(probe, ViewProbe)
        return probe, schema.view_instance(instance, peer)

    def test_selection_hides_the_stored_tuple(self, orders):
        schema, instance = orders
        probe, reference = self.probe(schema, instance, "auditor")
        hidden = Tuple(("K", "flag"), (2, "review"))
        for view_instance in (probe, reference):
            assert not view_instance.has_key("Order@auditor", 2)
            assert not view_instance.contains_tuple("Order@auditor", hidden)

    def test_projection_drops_attributes(self, orders):
        schema, instance = orders
        probe, reference = self.probe(schema, instance, "auditor")
        seen = Tuple(("K", "flag"), (1, NULL))
        for view_instance in (probe, reference):
            assert view_instance.contains_tuple("Order@auditor", seen)
            assert view_instance.tuple_with_key("Order@auditor", 1) == seen

    def test_bottom_valued_attribute_must_match_bottom(self, orders):
        schema, instance = orders
        probe, reference = self.probe(schema, instance, "auditor")
        filled = Tuple(("K", "flag"), (1, "review"))
        for view_instance in (probe, reference):
            assert not view_instance.contains_tuple("Order@auditor", filled)

    def test_bottom_key_is_never_stored(self, orders):
        schema, instance = orders
        probe, reference = self.probe(schema, instance, "clerk")
        for view_instance in (probe, reference):
            assert not view_instance.has_key("Order@clerk", NULL)
            assert not view_instance.contains_tuple(
                "Order@clerk", Tuple(("K", "amount", "flag"), (NULL, "small", NULL))
            )

    def test_negative_literals(self, orders):
        schema, instance = orders
        view = schema.view("Order", "auditor")
        for literal, expected in (
            (RelLiteral(view, (Const(1), Const(NULL)), positive=False), False),
            (RelLiteral(view, (Const(2), Const("review")), positive=False), True),
            (KeyLiteral(view, Const(1), positive=False), False),
            (KeyLiteral(view, Const(2), positive=False), True),
            (KeyLiteral(view, Const(NULL), positive=False), True),
        ):
            assert _agree(schema, instance, "auditor", Query([literal]), {}) is expected
