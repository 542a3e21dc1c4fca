"""End-to-end integration: the full pipeline on a fresh domain.

A procurement workflow is defined from scratch and pushed through every
layer of the library in one flow: parse → audit → simulate → explain →
narrate → serialize/replay → synthesize the view program → check it on
the simulated runs → enforce transparency at runtime.  The assertions
check *cross-module consistency*, not individual features.
"""

import pytest

from repro.api import (
    SearchBudget,
    audit_program,
    enforce_run,
    explain_run,
    minimal_faithful_scenario,
    parse_program,
    program_to_text,
    run_from_json,
    run_to_json,
    synthesize_view_program,
)
from repro.core import is_scenario, narrate_run
from repro.transparency import check_view_program, observations_of_run
from repro.workloads import PeerPolicy, Simulator, fact_goal

PROCUREMENT = """
peers requester, buyer, finance, supplier
relation Request(K)
relation Quote(K, req, price)
relation PO(K, req)
relation Shipped(K)

view Request@requester(K)
view Request@buyer(K)
view Request@supplier(K)
view Quote@buyer(K, req, price)
view Quote@finance(K, req, price)
view Quote@supplier(K, req, price)
view PO@buyer(K, req)
view PO@finance(K, req)
view PO@supplier(K, req)
view Shipped@supplier(K)
view Shipped@buyer(K)
view Shipped@requester(K)

[request] +Request@requester(r) :-
[quote]   +Quote@supplier(q, r, 'fair') :- Request@supplier(r)
[order]   +PO@finance(o, r) :- Quote@finance(q, r, 'fair')
[ship]    +Shipped@supplier(o) :- PO@supplier(o, r)
"""


@pytest.fixture(scope="module")
def program():
    return parse_program(PROCUREMENT)


@pytest.fixture(scope="module")
def simulated(program):
    simulator = Simulator(
        program,
        {"supplier": PeerPolicy({"quote": 2.0, "ship": 3.0})},
        seed=13,
    )
    return simulator.run(max_events=24, stop=fact_goal("Shipped"))


class TestPipeline:
    def test_audit_is_clean(self, program):
        report = audit_program(program, "requester")
        assert report.lossless
        assert report.normal_form
        assert report.acyclicity.acyclic

    def test_simulation_reaches_the_goal(self, simulated):
        assert simulated.stopped_by_goal
        assert simulated.run.final_instance.keys("Shipped")

    def test_explanation_consistency(self, simulated):
        run = simulated.run
        explanation = explain_run(run, "requester")
        scenario = minimal_faithful_scenario(run, "requester")
        # The explanation embeds exactly the minimal faithful scenario.
        assert explanation.scenario.indices == scenario.indices
        assert is_scenario(run, "requester", scenario.indices)
        # Narration mentions every observed transition.
        text = narrate_run(run, "requester")
        for observation in explanation.observations:
            assert f"step {observation.position}" in text

    def test_requester_explanation_includes_supply_chain(self, simulated):
        """The shipment observation is explained through the invisible
        quote and purchase order."""
        run = simulated.run
        explanation = explain_run(run, "requester")
        shipped = [
            o
            for o in explanation.observations
            if run.events[o.position].rule.name == "ship"
        ]
        assert shipped
        cause_rules = {
            run.events[i].rule.name for i in shipped[0].cause_positions
        }
        assert {"quote", "order", "ship"} <= cause_rules

    def test_serialization_roundtrip_preserves_explanations(self, program, simulated):
        run = simulated.run
        replayed = run_from_json(program, run_to_json(run))
        assert (
            minimal_faithful_scenario(replayed, "requester").indices
            == minimal_faithful_scenario(run, "requester").indices
        )

    def test_program_text_roundtrip_preserves_observations(self, program, simulated):
        reparsed = parse_program(program_to_text(program))
        from repro.workflow import execute

        replayed = execute(reparsed, simulated.run.events)
        assert observations_of_run(replayed, "requester") == observations_of_run(
            simulated.run, "requester"
        )

    def test_view_program_covers_simulated_runs(self, program, simulated):
        synthesis = synthesize_view_program(
            program,
            "requester",
            h=3,
            budget=SearchBudget(pool_extra=1, max_tuples_per_relation=1),
        )
        report = check_view_program(synthesis, [simulated.run], [])
        assert not report.completeness_failures

    def test_enforcement_accepts_single_stage_chains(self, program):
        """A fresh request fulfilled within one requester-stage is
        transparent; the enforcer agrees."""
        from repro.workflow import Event
        from repro.workflow.domain import FreshValue
        from repro.workflow.queries import Var

        r, q, o = FreshValue(100), FreshValue(101), FreshValue(102)
        events = [
            Event(program.rule("request"), {Var("r"): r}),
            Event(program.rule("quote"), {Var("r"): r, Var("q"): q}),
            Event(program.rule("order"), {Var("r"): r, Var("q"): q, Var("o"): o}),
            Event(program.rule("ship"), {Var("r"): r, Var("o"): o}),
        ]
        trace = enforce_run(program, "requester", 3, events)
        assert trace.accepted
