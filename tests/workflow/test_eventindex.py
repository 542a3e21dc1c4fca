"""Property tests: the delta-maintained applicable-event index.

:class:`~repro.workflow.eventindex.ApplicableEventIndex` must yield the
*same candidate sequence* as the from-scratch
:func:`~repro.workflow.enumerate.applicable_events` at every step of a
run, while re-evaluating only the rules whose bodies the last delta
touched.  Fresh values are minted in enumeration order, so with
identically seeded sources the comparison is plain event equality —
no modulo-renaming needed.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.workflow.engine import apply_event_with_delta
from repro.workflow.enumerate import RunGenerator, applicable_events
from repro.workflow.eventindex import ApplicableEventIndex
from repro.workflow.evalstats import EVAL_STATS
from repro.workflow.instance import Instance
from repro.workflow.statespace import StateSpaceExplorer
from repro.workloads.generators import random_propositional_program

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

program_seeds = st.integers(0, 60)
run_seeds = st.integers(0, 60)
lengths = st.integers(1, 12)


def make_program(seed: int):
    return random_propositional_program(
        relations=5, rules=9, seed=seed, deletion_fraction=0.25
    )


class TestIndexMatchesFromScratch:
    @SETTINGS
    @given(program_seeds, run_seeds, lengths)
    def test_candidate_sequence_identical_along_runs(self, ps, rs, n):
        """At every step of a random run the maintained index yields
        exactly the events the from-scratch enumeration yields."""
        program = make_program(ps)
        schema = program.schema
        instance = Instance.empty(schema.schema)
        index = ApplicableEventIndex(program, instance)
        rng = random.Random(rs)
        for _ in range(n):
            indexed = list(index.events())
            scratch = list(applicable_events(program, instance))
            assert indexed == scratch
            for peer in schema.peers:
                assert list(index.events(peer=peer)) == [
                    event for event in scratch if event.peer == peer
                ]
            if not indexed:
                break
            event = rng.choice(indexed)
            instance, delta = apply_event_with_delta(
                schema, instance, event, forbidden_fresh=None, check_body=False
            )
            index.advance(delta, instance)

    @SETTINGS
    @given(program_seeds, run_seeds, lengths)
    def test_run_generator_unaffected_by_index(self, ps, rs, n):
        """Seeded random runs are bit-identical with and without the index."""
        program = make_program(ps)
        with_index = RunGenerator(program, seed=rs, use_event_index=True).random_run(n)
        without = RunGenerator(program, seed=rs, use_event_index=False).random_run(n)
        assert with_index.events == without.events
        assert with_index.final_instance == without.final_instance

    @SETTINGS
    @given(program_seeds, st.integers(0, 20))
    def test_advanced_leaves_parent_intact(self, ps, rs):
        """advanced() derives a child index without disturbing the parent
        (the branching-search contract)."""
        program = make_program(ps)
        schema = program.schema
        instance = Instance.empty(schema.schema)
        index = ApplicableEventIndex(program, instance)
        candidates = list(index.events())
        if not candidates:
            return
        event = random.Random(rs).choice(candidates)
        successor, delta = apply_event_with_delta(
            schema, instance, event, forbidden_fresh=None, check_body=False
        )
        child = index.advanced(delta, successor)
        # Parent still answers for the old instance...
        assert list(index.events()) == list(applicable_events(program, instance))
        # ...and the child answers for the new one.
        assert list(child.events()) == list(applicable_events(program, successor))

    def test_advance_skips_untouched_rules(self):
        """Rules whose bodies the delta does not touch are served from
        cache: the skip counter moves, the re-evaluation counter does
        not move by more than the touched rules."""
        program = make_program(3)
        instance = Instance.empty(program.schema.schema)
        index = ApplicableEventIndex(program, instance)
        candidates = list(index.events())
        assert candidates, "seed 3 must admit at least one initial event"
        event = candidates[0]
        successor, delta = apply_event_with_delta(
            program.schema, instance, event, forbidden_fresh=None, check_body=False
        )
        index.advance(delta, successor)
        before = EVAL_STATS.snapshot()
        list(index.events())
        after = EVAL_STATS.snapshot()
        reevaluated = (
            after["event_index_rules_reevaluated"]
            - before["event_index_rules_reevaluated"]
        )
        skipped = after["event_index_rules_skipped"] - before["event_index_rules_skipped"]
        assert reevaluated + skipped == len(index.rules)
        assert reevaluated < len(index.rules)
        assert skipped > 0


class TestExplorerEquivalence:
    @SETTINGS
    @given(program_seeds)
    def test_exploration_identical_with_and_without_index(self, ps):
        """Breadth-first exploration visits the same states along the
        same witness paths whether or not successors come from derived
        (advanced) indexes."""
        program = make_program(ps)
        indexed = StateSpaceExplorer(program, dedup="exact", use_event_index=True)
        plain = StateSpaceExplorer(program, dedup="exact", use_event_index=False)
        indexed_states = [
            (s.instance, s.path) for s in indexed.iterate(max_depth=3, max_states=40)
        ]
        plain_states = [
            (s.instance, s.path) for s in plain.iterate(max_depth=3, max_states=40)
        ]
        assert indexed_states == plain_states
        assert indexed.stats.transitions == plain.stats.transitions

    def test_reachable_count_honours_max_states(self):
        program = make_program(1)
        explorer = StateSpaceExplorer(program, dedup="exact")
        full = explorer.reachable_count(max_depth=3)
        assert full > 2
        capped = explorer.reachable_count(max_depth=3, max_states=2)
        assert capped == 2
        assert explorer.reachable_count(max_depth=3, max_states=full + 10) == full
