"""Pin the small public surface the property suites reach only obliquely.

The Delta accessors on hand-built transitions (update actions) and the
DeltaEffect delegation layer — cheap direct calls so the contract of
each name is pinned, not just the paths the differential suites happen
to cross.
"""

from __future__ import annotations

from repro.dataflow import Delta, DeltaGraph
from repro.workflow.domain import NULL
from repro.workflow.engine import apply_event_with_delta
from repro.workflow.enumerate import RunGenerator
from repro.workflow.tuples import Tuple
from repro.workloads.generators import churn_program


def one_push():
    """A primed graph plus the first transition of a churn run."""
    program = churn_program()
    run = RunGenerator(program, seed=3).random_run(3)
    graph = DeltaGraph(program.schema, run.initial, peers=program.schema.peers)
    successor, delta = apply_event_with_delta(
        program.schema, run.initial, run.events[0],
        forbidden_fresh=None, check_body=False,
    )
    effect = graph.push(delta, successor, seq=1)
    return program, run, delta, graph, effect


class TestDeltaAccessors:
    """Hand-built transitions: every (before, after) shape at once."""

    delta = Delta(changes={
        "R": {
            1: (None, "r1-new"),          # insert
            2: ("r2-old", None),          # delete
            3: ("r3-old", "r3-new"),      # update (chase merge rewrite)
        },
        "S": {7: ("same", "same")},       # no-op listing
    })

    def test_updated_reports_rewritten_keys_only(self):
        assert self.delta.updated("R") == (3,)
        assert self.delta.updated("S") == ()

    def test_filled_lists_the_nulls_a_merge_filled(self):
        before = Tuple(("K", "a", "b"), (3, NULL, "x"))
        after = Tuple(("K", "a", "b"), (3, "y", "x"))
        delta = Delta(changes={"R": {3: (before, after), 4: (None, after)}})
        assert delta.filled() == (("R", 3, "a"),)

    def test_touched_actions_cover_all_three_kinds(self):
        actions = {(rel, key): action for rel, key, action in self.delta.touched()}
        assert actions[("R", 1)] == "insert"
        assert actions[("R", 2)] == "delete"
        assert actions[("R", 3)] == "update"


class TestDeltaEffectDelegation:
    def test_effect_answers_for_its_delta(self):
        _, _, delta, _, effect = one_push()
        assert effect.changes is delta.changes
        assert effect.chase_merged == delta.chase_merged
        assert effect.is_empty() == delta.is_empty()
        assert effect.touched() == delta.touched()
        assert effect.filled() == delta.filled()


class TestGraphSurface:
    def test_auto_named_subscribers_get_distinct_names(self):
        _, _, delta, graph, _ = one_push()
        seen = []
        first = graph.subscribe(lambda e: seen.append(e))
        second = graph.subscribe(lambda e: seen.append(e))
        assert first != second
        graph.push(Delta(changes={}), graph.snapshot(), seq=2)
        assert len(seen) == 2
        assert graph.unsubscribe(first)

    def test_repr_names_the_push_count(self):
        _, _, _, graph, _ = one_push()
        assert "pushes=1" in repr(graph)
