"""Explanations and transparency in collaborative workflows.

A faithful reproduction of *"Explanations and Transparency in
Collaborative Workflows"* (Abiteboul, Bourhis, Vianu; PODS 2018):

* :mod:`repro.workflow` — the data-driven collaborative workflow model
  (peer views, FCQ¬ rules, the key chase, runs);
* :mod:`repro.core` — runtime explanations: scenarios, faithful
  scenarios, the unique minimal faithful scenario, the semiring, and
  incremental maintenance;
* :mod:`repro.transparency` — static explanations: the h-boundedness
  and transparency decision procedures and view-program synthesis with
  provenance;
* :mod:`repro.design` — the transparent-program design methodology and
  enforcement;
* :mod:`repro.reductions` — the executable hardness gadgets of the
  proofs;
* :mod:`repro.workloads` — the paper's running examples and synthetic
  workload families.

Quickstart::

    from repro import parse_program, RunGenerator, explain_run

    program = parse_program('''
        peers hr, sue
        relation Hire(K)
        view Hire@hr(K)
        view Hire@sue(K)
        [hire] +Hire@hr(x) :-
    ''')
    run = RunGenerator(program, seed=0).random_run(5)
    print(explain_run(run, "sue").to_text())
"""

from .core import (
    EventSubsequence,
    Explanation,
    FaithfulScenario,
    FaithfulSemiring,
    FaithfulnessAnalysis,
    IncrementalExplainer,
    LifecycleIndex,
    explain_event,
    explain_run,
    greedy_scenario,
    is_faithful_scenario,
    is_minimal_scenario,
    is_scenario,
    minimal_faithful_scenario,
    minimum_scenario,
)
from .design import (
    TransparencyEnforcer,
    add_stage_infrastructure,
    analyze_acyclicity,
    check_design_guidelines,
    check_transparency_form,
    enforce_run,
    is_run_h_bounded,
    is_run_transparent,
    lift_events,
    project_run,
    rewrite_transparent,
    stages_of_run,
)
from .analysis import AuditReport, audit_program
from .runtime import (
    AnytimeResult,
    Budget,
    BudgetExceeded,
    CancellationToken,
    FaultInjector,
    FaultPlan,
    Supervisor,
    anytime_minimum_scenario,
    anytime_reachable_states,
    recover_run,
    use_budget,
)
from .transparency import (
    SearchBudget,
    check_h_bounded,
    check_transparent,
    check_transparent_and_bounded,
    check_tree_equivalence,
    check_view_program,
    smallest_bound,
    synthesize_view_program,
)
from .workflow import (
    NULL,
    OMEGA,
    CollaborativeSchema,
    Event,
    Instance,
    Relation,
    Rule,
    Run,
    RunGenerator,
    Schema,
    Tuple,
    View,
    WorkflowProgram,
    applicable_events,
    chase,
    execute,
    normalize,
    parse_program,
    parse_schema,
    program_to_text,
    run_from_json,
    run_to_json,
)

__version__ = "1.0.0"

__all__ = [
    "AnytimeResult",
    "AuditReport",
    "Budget",
    "BudgetExceeded",
    "CancellationToken",
    "FaultInjector",
    "FaultPlan",
    "Supervisor",
    "NULL",
    "OMEGA",
    "CollaborativeSchema",
    "Event",
    "EventSubsequence",
    "Explanation",
    "FaithfulScenario",
    "FaithfulSemiring",
    "FaithfulnessAnalysis",
    "IncrementalExplainer",
    "Instance",
    "LifecycleIndex",
    "Relation",
    "Rule",
    "Run",
    "RunGenerator",
    "Schema",
    "SearchBudget",
    "TransparencyEnforcer",
    "Tuple",
    "View",
    "WorkflowProgram",
    "add_stage_infrastructure",
    "analyze_acyclicity",
    "anytime_minimum_scenario",
    "anytime_reachable_states",
    "applicable_events",
    "audit_program",
    "chase",
    "check_design_guidelines",
    "check_h_bounded",
    "check_transparency_form",
    "check_transparent",
    "check_transparent_and_bounded",
    "check_tree_equivalence",
    "check_view_program",
    "enforce_run",
    "execute",
    "explain_event",
    "explain_run",
    "greedy_scenario",
    "is_faithful_scenario",
    "is_minimal_scenario",
    "is_run_h_bounded",
    "is_run_transparent",
    "is_scenario",
    "lift_events",
    "minimal_faithful_scenario",
    "minimum_scenario",
    "normalize",
    "parse_program",
    "parse_schema",
    "program_to_text",
    "project_run",
    "recover_run",
    "rewrite_transparent",
    "run_from_json",
    "run_to_json",
    "smallest_bound",
    "stages_of_run",
    "synthesize_view_program",
    "use_budget",
]
