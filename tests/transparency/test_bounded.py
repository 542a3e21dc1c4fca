"""Tests for the h-boundedness decision (Theorem 5.10)."""

import pytest

from repro.transparency.bounded import (
    SearchBudget,
    check_h_bounded,
    iter_boundedness_witnesses,
    smallest_bound,
)
from repro.workloads.generators import chain_program, parallel_chains_program

TINY = SearchBudget(pool_extra=0, max_tuples_per_relation=1)
SMALL = SearchBudget(pool_extra=1, max_tuples_per_relation=1)


class TestChains:
    """A depth-d chain is exactly (d+1)-bounded for the observer."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_exact_bound(self, depth):
        program = chain_program(depth)
        assert not check_h_bounded(program, "observer", depth, TINY).bounded
        assert check_h_bounded(program, "observer", depth + 1, TINY).bounded

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_smallest_bound(self, depth):
        assert smallest_bound(chain_program(depth), "observer", depth + 2, TINY) == depth + 1

    def test_smallest_bound_is_none_below_the_bound(self):
        assert smallest_bound(chain_program(2), "observer", 2, TINY) is None

    def test_witness_is_a_silent_faithful_run(self):
        program = chain_program(2)
        result = check_h_bounded(program, "observer", 1, TINY)
        assert not result.bounded
        assert result.witness is not None
        assert len(result.witness) > 1

    def test_iter_witnesses(self):
        program = chain_program(2)
        witnesses = list(iter_boundedness_witnesses(program, "observer", 2, TINY))
        assert witnesses
        assert all(len(w) == 3 for w in witnesses)


class TestParallelChains:
    def test_bound_is_per_visible_event(self):
        # Two independent chains of depth 1: each visible event needs
        # only its own chain, so the bound stays 2 (not 4).
        program = parallel_chains_program(2, 1)
        assert check_h_bounded(program, "observer", 2, TINY).bounded
        assert not check_h_bounded(program, "observer", 1, TINY).bounded


class TestPaperPrograms:
    def test_hiring_is_3_bounded_for_sue(self, hiring):
        # cfook -> approve -> hire is the longest silent faithful chain.
        assert check_h_bounded(hiring, "sue", 3, SMALL).bounded
        assert not check_h_bounded(hiring, "sue", 2, SMALL).bounded

    def test_approval_is_1_bounded_for_applicant(self, approval):
        # h fires directly from ok; e/f/g are visible at nobody... they
        # are invisible at the applicant but the minimal faithful run
        # ending at the approval needs g (ok's creator): length 2.
        assert check_h_bounded(approval, "applicant", 2, TINY).bounded
        assert not check_h_bounded(approval, "applicant", 1, TINY).bounded

    def test_transparent_variant_is_2_bounded(self, hiring_transparent):
        assert check_h_bounded(hiring_transparent, "sue", 2, SMALL).bounded


class TestBudget:
    def test_max_instances_marks_unexhausted(self):
        program = chain_program(1)
        budget = SearchBudget(pool_extra=0, max_tuples_per_relation=1, max_instances=1)
        result = check_h_bounded(program, "observer", 5, budget)
        assert result.bounded
        assert not result.exhausted

    def test_result_truthiness(self):
        program = chain_program(1)
        assert check_h_bounded(program, "observer", 2, TINY)
        assert not check_h_bounded(program, "observer", 0, TINY)


class TestHeuristicGuess:
    """The Section 5 heuristic: guess h from traces, confirm exactly."""

    def test_chain_guess_matches_truth(self):
        from repro.transparency.bounded import guess_bound_from_traces

        program = chain_program(2)
        guess, confirmed = guess_bound_from_traces(
            program, "observer", samples=5, run_length=10,
            confirm_budget=TINY,
        )
        assert guess == 3
        assert confirmed is True

    def test_without_confirmation(self, approval):
        from repro.transparency.bounded import guess_bound_from_traces

        guess, confirmed = guess_bound_from_traces(
            approval, "applicant", samples=5, run_length=8
        )
        assert guess >= 1
        assert confirmed is None

    def test_guess_never_exceeds_decided_bound(self, hiring):
        from repro.transparency.bounded import guess_bound_from_traces, smallest_bound

        guess, _ = guess_bound_from_traces(hiring, "sue", samples=6, run_length=12)
        exact = smallest_bound(hiring, "sue", 5, SMALL)
        assert guess <= exact


class TestIrrelevantSilentWork:
    """Definition 5.8's parenthetical: the bound restricts only silent
    events *relevant* to the peer — other peers may still perform
    arbitrarily long irrelevant computations."""

    @pytest.mark.parametrize("noise", [1, 2])
    def test_noise_does_not_raise_the_bound(self, noise):
        from repro.workloads import noisy_chain_program

        depth = 1
        program = noisy_chain_program(depth, noise)
        assert smallest_bound(program, "observer", depth + 2, TINY) == depth + 1

    def test_long_irrelevant_runs_exist_but_do_not_count(self):
        from repro.design.run_properties import run_stage_bound
        from repro.workflow import Event, execute
        from repro.workloads import noisy_chain_program

        program = noisy_chain_program(1, 1)
        # Churn the noise relation many times, then run the chain.
        events = []
        for _ in range(5):
            events.append(Event(program.rule("ins_n0"), {}))
            events.append(Event(program.rule("del_n0"), {}))
        events.append(Event(program.rule("start"), {}))
        events.append(Event(program.rule("step0"), {}))
        run = execute(program, events)
        # 12 events, 10 of them irrelevant: the stage bound is still 2.
        assert len(run) == 12
        assert run_stage_bound(run, "observer") == 2
