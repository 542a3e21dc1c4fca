"""Property tests: the DeltaGraph keeps every artifact ≡ from-scratch.

One delta stream in; the materialized peer views, visibility verdicts
and provenance triples must all be bit-identical to recomputing from
the successor instance after every push — the paper's transparency
questions answered at O(|delta|) without semantic drift.  The inputs
cover random propositional programs with deletions, the profile
workload's chase merges and the churn workload's insert/delete cycles.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dataflow import Delta, DeltaGraph
from repro.workflow.engine import apply_event_with_delta
from repro.workflow.enumerate import RunGenerator
from repro.workloads.generators import (
    churn_program,
    profile_program,
    random_propositional_program,
)

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

program_seeds = st.integers(0, 40)
run_seeds = st.integers(0, 40)
lengths = st.integers(1, 8)


def replayed_deltas(program, run):
    """(event, delta, successor) along *run*, replayed through the engine."""
    instance = run.initial
    for event, successor in zip(run.events, run.instances):
        _, delta = apply_event_with_delta(
            program.schema, instance, event, forbidden_fresh=None, check_body=False
        )
        yield instance, delta, successor
        instance = successor


def programs_and_runs(ps, rs, n, make_program):
    program = make_program(ps)
    return program, RunGenerator(program, seed=rs).random_run(n)


def assert_graph_tracks_run(program, run):
    """Every pushed artifact ≡ from-scratch recomputation at every step."""
    schema = program.schema
    graph = DeltaGraph(schema, run.initial)
    for peer in schema.peers:
        graph.snapshot(peer)  # materialize now to exercise patching
    for before, delta, successor in replayed_deltas(program, run):
        effect = graph.push(delta, successor, tag="checked")
        assert effect.context == {"tag": "checked"}
        assert graph.snapshot() == successor
        for peer in schema.peers:
            # Patched views ≡ recomputed views, through the graph and
            # through the delta's own patch.
            assert graph.snapshot(peer) == schema.view_instance(
                successor, peer
            )
            assert delta.refresh_view(
                schema, peer, schema.view_instance(before, peer)
            ) == schema.view_instance(successor, peer)
            # The fused visibility verdict ≡ the per-question form
            # ≡ comparing whole view instances.
            recomputed = schema.view_instance(before, peer) != (
                schema.view_instance(successor, peer)
            )
            assert effect.visible_to(peer) == recomputed
            assert delta.visible_to(schema, peer) == recomputed
            assert (peer in effect.changed_peers) == recomputed
        # Provenance triples come straight off the delta.
        assert effect.touched() == delta.touched()
        assert effect.changed_peers == tuple(
            peer for peer in graph.peers if effect.visible_to(peer)
        )


class TestMaintainedArtifacts:
    @SETTINGS
    @given(program_seeds, run_seeds, lengths)
    def test_views_visibility_and_provenance_track_from_scratch(self, ps, rs, n):
        program = random_propositional_program(
            relations=5, rules=9, seed=ps, deletion_fraction=0.25
        )
        run = RunGenerator(program, seed=rs).random_run(n)
        assert_graph_tracks_run(program, run)

    @SETTINGS
    @given(run_seeds, st.integers(1, 15))
    def test_profile_program_chase_merges(self, rs, n):
        """The profile workload fills nulls via chase merges."""
        program = profile_program()
        run = RunGenerator(program, seed=rs).random_run(n)
        assert_graph_tracks_run(program, run)

    @SETTINGS
    @given(run_seeds, st.integers(1, 15))
    def test_churn_program_insert_delete_cycles(self, rs, n):
        program = churn_program()
        run = RunGenerator(program, seed=rs).random_run(n)
        assert_graph_tracks_run(program, run)


class TestGraphProtocol:
    def test_subscribers_run_in_order_after_state_advances(self):
        program = churn_program()
        run = RunGenerator(program, seed=2).random_run(3)
        graph = DeltaGraph(program.schema, run.initial)
        calls = []
        graph.subscribe(
            lambda effect: calls.append(("first", graph.snapshot())), name="first"
        )
        graph.subscribe(lambda effect: calls.append(("second", None)), name="second")
        for _, delta, successor in replayed_deltas(program, run):
            calls.clear()
            graph.push(delta, successor)
            # Both ran, in subscription order, and the graph's own state
            # had already advanced when the first one looked.
            assert [name for name, _ in calls] == ["first", "second"]
            assert calls[0][1] == successor
        assert graph.unsubscribe("second")
        assert not graph.unsubscribe("second")
        calls.clear()
        graph.push(Delta(changes={}), graph.snapshot())
        assert [name for name, _ in calls] == ["first"]

    def test_advanced_clone_leaves_the_original_untouched(self):
        program = churn_program()
        run = RunGenerator(program, seed=4).random_run(2)
        graph = DeltaGraph(program.schema, run.initial)
        steps = list(replayed_deltas(program, run))
        _, first_delta, first_successor = steps[0]
        clone = graph.advanced(first_delta, first_successor)
        assert clone.snapshot() == first_successor
        assert graph.snapshot() == run.initial
        assert clone.pushes == graph.pushes + 1
        for peer in program.schema.peers:
            assert clone.snapshot(peer) == program.schema.view_instance(
                first_successor, peer
            )

    def test_untracked_peer_raises(self):
        program = churn_program()
        peers = program.schema.peers
        run = RunGenerator(program, seed=6).random_run(1)
        graph = DeltaGraph(program.schema, run.initial, peers=peers[:1])
        _, delta, successor = next(replayed_deltas(program, run))
        effect = graph.push(delta, successor)
        import pytest

        with pytest.raises(KeyError):
            effect.visible_to("nobody")
        with pytest.raises(KeyError):
            graph.snapshot("nobody")

    def test_from_instances_delta_rebases_the_graph(self):
        # The full-diff constructor (used by differential tests and
        # recovery) pushes like any transition delta.
        program = churn_program()
        run = RunGenerator(program, seed=7).random_run(5)
        graph = DeltaGraph(program.schema, run.initial)
        for peer in program.schema.peers:
            graph.snapshot(peer)
        graph.push(
            Delta.from_instances(run.initial, run.instances[-1]), run.instances[-1]
        )
        assert graph.snapshot() == run.instances[-1]
        for peer in program.schema.peers:
            assert graph.snapshot(peer) == program.schema.view_instance(
                run.instances[-1], peer
            )

    def test_stats_counts_pushes_and_artifacts(self):
        program = churn_program()
        run = RunGenerator(program, seed=8).random_run(2)
        graph = DeltaGraph(program.schema, run.initial)
        graph.subscribe(lambda effect: None, name="probe")
        peer = program.schema.peers[0]
        graph.snapshot(peer)
        for _, delta, successor in replayed_deltas(program, run):
            graph.push(delta, successor)
        stats = graph.stats()
        assert stats["pushes"] == 2
        assert stats["subscribers"] == ["probe"]
        assert peer in stats["materialized_views"]
