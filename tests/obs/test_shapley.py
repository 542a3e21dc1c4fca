"""Shapley attribution: axioms, convergence, determinism, recovery."""

from __future__ import annotations

import pytest

from repro.obs.shapley import (
    EXACT_HARD_LIMIT,
    fact_game,
    shapley_rank,
    shapley_values,
    view_game,
)
from repro.runtime.journal import journal_run, recover_run
from repro.storage import MemoryBackend
from repro.workflow import execute, parse_program
from repro.workflow.enumerate import applicable_events
from repro.workloads import get_family

CHAIN = """
peers a, b, c, sue
relation S0(K)
relation S1(K)
relation S2(K)
view S0@a(K)
view S0@b(K)
view S1@b(K)
view S1@c(K)
view S2@c(K)
view S2@sue(K)
[start] +S0@a(x) :-
[mid]   +S1@b(x) :- S0@b(x)
[end]   +S2@c(x) :- S1@c(x)
"""


def _step(program, instance, rule_name):
    for event in applicable_events(program, instance):
        if event.rule.name == rule_name:
            return event
    raise AssertionError(f"no applicable event for rule {rule_name!r}")


def chain_run():
    """start -> mid -> end, plus two irrelevant extra starts."""
    program = parse_program(CHAIN)
    from repro.workflow.instance import Instance

    instance = Instance.empty(program.schema.schema)
    events = []
    for rule_name in ("start", "mid", "end", "start", "start"):
        event = _step(program, instance, rule_name)
        events.append(event)
        run = execute(program, events)
        instance = run.final_instance
    return execute(program, events)


class TestShapleyValues:
    def test_dictator_game(self):
        _, values = shapley_values(
            [0, 1, 2], lambda s: 1.0 if 1 in s else 0.0, method="exact"
        )
        assert values == {0: 0.0, 1: 1.0, 2: 0.0}

    def test_symmetric_players_split_evenly(self):
        _, values = shapley_values(
            [0, 1], lambda s: 1.0 if len(s) == 2 else 0.0, method="exact"
        )
        assert values == {0: 0.5, 1: 0.5}

    def test_efficiency_axiom_exact(self):
        players = list(range(6))

        def value(s):
            # Superadditive-ish arbitrary game.
            return len(s) ** 2 + (3.0 if {0, 2} <= s else 0.0)

        _, values = shapley_values(players, value, method="exact")
        total = value(frozenset(players)) - value(frozenset())
        assert sum(values.values()) == pytest.approx(total, abs=1e-12)

    def test_sampled_efficiency_and_determinism(self):
        players = list(range(20))  # beyond any exact limit

        def value(s):
            # Non-additive: the pair bonus makes marginals order-dependent,
            # so different seeds genuinely sample different estimates.
            return float(len(s)) + (4.0 if {3, 7} <= s else 0.0)

        method, values = shapley_values(
            players, value, method="auto", samples=16, seed=5
        )
        assert method == "sampled"
        total = value(frozenset(players)) - value(frozenset())
        # Efficiency holds per permutation, hence for the average too.
        assert sum(values.values()) == pytest.approx(total, abs=1e-9)
        _, again = shapley_values(
            players, value, method="sampled", samples=16, seed=5
        )
        assert values == again
        _, other = shapley_values(
            players, value, method="sampled", samples=16, seed=7
        )
        assert values != other

    def test_sampled_converges_to_exact(self):
        players = list(range(6))

        def value(s):
            return 2.0 * (0 in s) + 1.0 * (1 in s) + 0.5 * len(s & {2, 3})

        _, exact = shapley_values(players, value, method="exact")
        _, sampled = shapley_values(
            players, value, method="sampled", samples=400, seed=0
        )
        for player in players:
            assert sampled[player] == pytest.approx(exact[player], abs=0.15)

    def test_exact_hard_limit(self):
        players = list(range(EXACT_HARD_LIMIT + 1))
        with pytest.raises(ValueError, match="sampled"):
            shapley_values(players, lambda s: 0.0, method="exact")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            shapley_values([0], lambda s: 0.0, method="magic")

    def test_empty_players(self):
        method, values = shapley_values([], lambda s: 0.0, method="auto")
        assert values == {}

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            shapley_values([0, 1], lambda s: 0.0, method="sampled", samples=samples)
        with pytest.raises(ValueError, match="samples"):
            shapley_rank(chain_run(), "sue", method="sampled", samples=samples)


class TestGames:
    def test_fact_game_rejects_unknown_relation(self):
        run = chain_run()
        with pytest.raises(KeyError, match="no view"):
            fact_game(run, "sue", "S0")  # sue only sees S2

    def test_view_game_counts_reproduced_tuples(self):
        run = chain_run()
        value = view_game(run, "sue")
        all_events = frozenset(range(len(run.events)))
        assert value(all_events) == 1.0  # one S2 tuple visible to sue
        assert value(frozenset()) == 0.0
        # dropping the final 'end' event loses the only visible tuple
        assert value(all_events - {2}) == 0.0


class TestShapleyRank:
    def test_chain_attributes_equally_to_the_critical_path(self):
        run = chain_run()
        report = shapley_rank(run, "sue", relation="S2")
        assert report.method == "exact"
        values = {e.position: e.value for e in report.attributions}
        # start/mid/end are jointly necessary: 1/3 each; extras get 0.
        for position in (0, 1, 2):
            assert values[position] == pytest.approx(1 / 3)
        for position in (3, 4):
            assert values[position] == 0.0
        assert report.total() == pytest.approx(
            report.grand - report.baseline
        )
        assert set(report.top(3)) == {0, 1, 2}

    def test_key_target(self):
        run = chain_run()
        key = next(iter(run.final_instance.relation("S2"))).key
        report = shapley_rank(run, "sue", relation="S2", key=key)
        assert report.target.startswith("S2[")
        assert report.grand == 1.0

    def test_rank_validates_inputs(self):
        run = chain_run()
        with pytest.raises(ValueError, match="relation"):
            shapley_rank(run, "sue", key=1)
        with pytest.raises(KeyError, match="peer"):
            shapley_rank(run, "martian")

    def test_exact_vs_sampled_top3_on_a_family_run(self):
        family = get_family("healthcare")
        run = family.run(seed=2, steps=9)
        assert len(run.events) <= 10
        exact = shapley_rank(run, family.observer, method="exact")
        sampled = shapley_rank(
            run, family.observer, method="sampled", samples=300, seed=0
        )
        assert exact.method == "exact" and sampled.method == "sampled"
        # Rankings must agree on the podium (ties compared as value sets).
        exact_top = [round(exact.attributions[p].value, 6)
                     for p in exact.top(3)]
        sampled_top = [round(exact.attributions[p].value, 6)
                       for p in sampled.top(3)]
        assert exact_top == sampled_top
        assert sampled.total() == pytest.approx(
            sampled.grand - sampled.baseline, abs=1e-9
        )

    def test_ranking_stable_across_journal_recovery(self):
        family = get_family("ecommerce")
        run = family.run(seed=4, steps=8)
        before = shapley_rank(run, family.observer).to_dict()

        store = MemoryBackend().store("run")
        journal_run(run, store, snapshot_every=4)
        recovered = recover_run(run.program, store.read()[0]).run
        after = shapley_rank(recovered, family.observer).to_dict()
        assert before == after

    def test_report_to_dict_shape(self):
        run = chain_run()
        payload = shapley_rank(run, "sue").to_dict()
        assert payload["peer"] == "sue"
        assert payload["target"] == "view@sue"
        assert payload["total"] == pytest.approx(
            payload["grand"] - payload["baseline"]
        )
        ranking = payload["ranking"]
        assert len(ranking) == len(run.events)
        assert ranking == sorted(
            ranking, key=lambda e: (-e["value"], e["position"])
        )
        assert {"position", "rule", "peer", "value"} <= set(ranking[0])
