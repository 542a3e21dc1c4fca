"""Tests for bounded state-space exploration."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.reductions.pcp import PCPInstance, pcp_workflow
from repro.runtime import Budget, BudgetExceeded
from repro.workflow.isomorphism import canonical_key, canonicalize_instance
from repro.workflow.statespace import (
    ExplorationStats,
    StateSpaceExplorer,
    fact_reachable,
)
from repro.workflow import execute
from repro.workloads import (
    approval_program,
    chain_program,
    hiring_program,
    parallel_chains_program,
    random_propositional_program,
)
from repro.workloads.fuzz import fuzz_program


class TestIteration:
    def test_initial_state_first(self, approval):
        explorer = StateSpaceExplorer(approval)
        first = next(explorer.iterate(max_depth=2))
        assert first.instance.is_empty()
        assert first.depth == 0

    def test_paths_are_witnesses(self, approval):
        explorer = StateSpaceExplorer(approval)
        for state in explorer.iterate(max_depth=3):
            if state.path:
                replayed = execute(approval, state.path, check_freshness=False)
                assert replayed.final_instance == state.instance

    def test_depth_bound_respected(self, approval):
        explorer = StateSpaceExplorer(approval)
        assert all(s.depth <= 2 for s in explorer.iterate(max_depth=2))

    def test_max_states_cap(self, approval):
        explorer = StateSpaceExplorer(approval)
        states = list(explorer.iterate(max_depth=5, max_states=4))
        assert len(states) == 4


class TestDeduplication:
    def test_chain_state_count(self):
        # chain(2) from empty: {}, {S0}, {S0,S1}, {S0,S1,S2} = 4 states.
        explorer = StateSpaceExplorer(chain_program(2), dedup="exact")
        assert explorer.reachable_count(max_depth=5) == 4

    def test_isomorphic_dedup_collapses_fresh_values(self, hiring):
        iso = StateSpaceExplorer(hiring, dedup="isomorphic")
        iso_count = iso.reachable_count(max_depth=2)
        exact = StateSpaceExplorer(hiring, dedup="exact")
        exact_count = exact.reachable_count(max_depth=2)
        # Two 'clear' events with different fresh keys are isomorphic.
        assert iso_count <= exact_count

    def test_no_dedup_explores_tree(self, approval):
        tree = StateSpaceExplorer(approval, dedup="none")
        merged = StateSpaceExplorer(approval, dedup="exact")
        assert tree.reachable_count(3) >= merged.reachable_count(3)

    def test_unknown_mode_rejected(self, approval):
        with pytest.raises(ValueError):
            StateSpaceExplorer(approval, dedup="fuzzy")


class TestFind:
    def test_reachability_witness(self, approval):
        explorer = StateSpaceExplorer(approval)
        hit = explorer.find(lambda inst: inst.has_key("approval", 0), max_depth=3)
        assert hit is not None
        names = [event.rule.name for event in hit.path]
        assert names[-1] == "h"

    def test_unreachable_predicate(self):
        explorer = StateSpaceExplorer(chain_program(1))
        assert explorer.find(lambda inst: len(inst.keys("S1")) > 1, 5) is None

    def test_fact_reachable_pcp(self):
        program = pcp_workflow(PCPInstance((("a", "a"),)))
        assert fact_reachable(program, "U", max_depth=5) is not None
        bad = pcp_workflow(PCPInstance((("a", "b"),)))
        assert fact_reachable(bad, "U", max_depth=5) is None


class TestStats:
    def test_stats_populated(self, approval):
        explorer = StateSpaceExplorer(approval)
        count = explorer.reachable_count(max_depth=3)
        assert explorer.stats.states_visited == count
        assert explorer.stats.transitions > 0
        assert explorer.stats.max_depth_reached <= 3

    def test_deadlock_detection(self):
        from repro.workflow.parser import parse_program

        program = parse_program(
            """
            peers p
            relation R(K)
            view R@p(K)
            [once] +R@p(0) :- not Key[R]@p(0)
            """
        )
        explorer = StateSpaceExplorer(program, dedup="exact")
        deadlocked = explorer.deadlock_states(max_depth=3)
        assert len(deadlocked) == 1
        assert deadlocked[0].instance.has_key("R", 0)


class TestLimits:
    def test_explore_visits_exactly_the_cap(self):
        result = StateSpaceExplorer(chain_program(3)).explore(4, max_states=3)
        assert len(result.states) == 3
        assert result.stats.states_visited == 3

    def test_find_respects_the_cap(self):
        predicate = lambda instance: bool(instance.keys("S3"))  # noqa: E731
        explorer = StateSpaceExplorer(chain_program(3))
        assert explorer.find(predicate, 5) is not None
        # The witness is the 5th visited state; a cap of 3 hides it.
        assert explorer.find(predicate, 5, max_states=3) is None

    def test_reachable_count_respects_the_cap(self):
        explorer = StateSpaceExplorer(chain_program(3))
        assert explorer.reachable_count(4) == 5
        assert explorer.reachable_count(4, max_states=2) == 2

    def test_fact_reachable_depth_bound(self):
        program = chain_program(3)
        assert fact_reachable(program, "S3", 5) is not None
        assert fact_reachable(program, "S3", 3) is None

    def test_fact_reachable_max_states_bound(self):
        program = chain_program(3)
        assert fact_reachable(program, "S3", 5, max_states=5) is not None
        assert fact_reachable(program, "S3", 5, max_states=3) is None


class _TickClock:
    """A deterministic clock advancing one second per observation."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def _stream(result):
    return [(state.instance, state.path) for state in result.states]


class TestBudgets:
    @pytest.mark.parametrize("max_steps", [1, 3, 9])
    def test_step_budget_truncates_to_a_prefix(self, max_steps):
        program = chain_program(3)
        full = StateSpaceExplorer(program).explore(4)
        cut = StateSpaceExplorer(program, budget=Budget(max_steps=max_steps)).explore(4)
        # The family visits 5 states, so 9 steps complete and 1/3 trip.
        assert cut.truncated == (max_steps < 5)
        assert _stream(cut) == _stream(full)[: len(cut.states)]

    def test_find_raises_when_the_budget_trips(self):
        predicate = lambda instance: bool(instance.keys("S3"))  # noqa: E731
        explorer = StateSpaceExplorer(chain_program(3), budget=Budget(max_steps=1))
        with pytest.raises(BudgetExceeded):
            explorer.find(predicate, 5)

    def test_wall_budget_truncates_to_a_prefix(self):
        program = chain_program(3)
        full = StateSpaceExplorer(program).explore(4)
        assert not full.truncated
        budget = Budget(wall_seconds=3, clock=_TickClock())
        cut = StateSpaceExplorer(program, budget=budget).explore(4)
        assert cut.truncated
        assert "wall-clock" in (cut.reason or "")
        assert len(cut.states) < len(full.states)
        assert _stream(cut) == _stream(full)[: len(cut.states)]

    def test_zero_wall_budget_is_empty_not_wrong(self):
        cut = StateSpaceExplorer(
            chain_program(3), budget=Budget(wall_seconds=0.0)
        ).explore(4)
        assert cut.truncated
        assert cut.states == []


_PROGRAMS = st.one_of(
    st.integers(0, 10_000).map(
        lambda seed: random_propositional_program(4, 6, seed=seed)
    ),
    st.sampled_from(range(8)).map(fuzz_program),
)


class TestCanonicalKey:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_PROGRAMS)
    def test_keys_equal_exactly_when_canonical_instances_are(self, program):
        states = StateSpaceExplorer(program, dedup="none").explore(3, max_states=40)
        fixed = program.constants()
        keys = [canonical_key(state.instance, fixed) for state in states.states]
        canonical = [
            canonicalize_instance(state.instance, fixed) for state in states.states
        ]
        for i in range(len(keys)):
            for j in range(i):
                assert (keys[i] == keys[j]) == (canonical[i] == canonical[j]), (
                    states.states[i].instance,
                    states.states[j].instance,
                )

    @pytest.mark.parametrize(
        "make, depth, counts",
        [
            (lambda: chain_program(7), 8, (9, 28, 36)),
            (hiring_program, 7, (77, 179, 255)),
            (lambda: parallel_chains_program(4, 3), 6, (190, 767, 956)),
            (lambda: parallel_chains_program(5, 3), 8, (1007, 6174, 7180)),
        ],
        ids=["chain(7)", "hiring", "chains(4,3)", "chains(5,3)"],
    )
    def test_isomorphic_dedup_counts_are_pinned(self, make, depth, counts):
        stats = StateSpaceExplorer(make()).explore(depth).stats
        assert (
            stats.states_visited,
            stats.states_deduplicated,
            stats.transitions,
        ) == counts
