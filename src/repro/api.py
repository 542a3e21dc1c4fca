"""The stable public API of the reproduction, in one import.

Everything documented in docs/API.md is re-exported here, grouped by
layer; downstream code (the examples, the tutorial, the CLI's explain
and run paths) imports from :mod:`repro.api` rather than reaching into
submodules, so internal refactors never ripple outward::

    from repro.api import parse_program, RunGenerator, explain_run

    program = parse_program(SOURCE)
    run = RunGenerator(program, seed=0).random_run(10)
    print(explain_run(run, "sue").to_text())

The surface is snapshot-tested: ``tests/test_api_facade.py`` compares
``__all__`` against ``tests/api_surface.txt`` and CI fails when they
diverge, so additions and removals are always deliberate and visible in
review.  Names are re-exported from their defining modules — this module
defines nothing itself.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# The workflow model (Section 2): schemas, views, rules, runs
# ----------------------------------------------------------------------
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
from .workflow.enumerate import enumerate_event_sequences
from .workflow.lint import LintFinding, lint_program
from .workflow.planner import query_backend, set_backend
from .workflow.statespace import StateSpaceExplorer, fact_reachable

# ----------------------------------------------------------------------
# Incremental dataflow: one delta stream behind derived state
# ----------------------------------------------------------------------
from .dataflow import (
    Delta,
    DeltaEffect,
    DeltaGraph,
    delta_visible_to,
    refresh_view_instance,
)

# ----------------------------------------------------------------------
# Runtime explanations (Sections 3-4): scenarios and faithfulness
# ----------------------------------------------------------------------
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
from .core.explain import run_provenance
from .core.scenarios import scenario_within

# ----------------------------------------------------------------------
# Static explanations (Section 5): decisions and synthesis
# ----------------------------------------------------------------------
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

# ----------------------------------------------------------------------
# Design methodology (Section 6) and auditing
# ----------------------------------------------------------------------
from .analysis import AuditReport, audit_program
from .design import (
    TransparencyEnforcer,
    check_design_guidelines,
    check_transparency_form,
    enforce_run,
    is_run_h_bounded,
    is_run_transparent,
    rewrite_transparent,
)

# ----------------------------------------------------------------------
# Resilient runtime: budgets, journals, supervision
# ----------------------------------------------------------------------
from .runtime import AnytimeResult, Budget, BudgetExceeded, use_budget
from .runtime.checkpoint import ResumedRun, fast_recover
from .runtime.faults import DiskFaultPlan
from .runtime.journal import recover_run
from .runtime.supervisor import (
    Supervisor,
    anytime_minimum_scenario,
    anytime_reachable_states,
)

# ----------------------------------------------------------------------
# Pluggable storage: backends, durability policies, compaction
# ----------------------------------------------------------------------
from .storage import (
    DurabilityPolicy,
    FileBackend,
    MemoryBackend,
    SegmentBackend,
    StorageBackend,
    open_backend,
)

# ----------------------------------------------------------------------
# The multi-run service and its protocol
# ----------------------------------------------------------------------
from .service import (
    ServiceClient,
    ServiceServer,
    WorkflowService,
    run_loadgen,
)
from .service.errors import ERROR_CODES
from .service.protocol import PROTOCOL_VERSION

# ----------------------------------------------------------------------
# The sharded cluster layer: placement, routing, replication, failover
# ----------------------------------------------------------------------
from .cluster import (
    ClusterRouter,
    HashRing,
    ReplicationShipper,
    RouterServer,
    ShardSupervisor,
    reconcile_with_follower,
    run_cluster_loadgen,
)

# ----------------------------------------------------------------------
# Workload generators: realistic families and the program fuzzer
# ----------------------------------------------------------------------
from .workloads import (
    DifferentialReport,
    FuzzConfig,
    WorkflowFamily,
    differential_check,
    family_names,
    fuzz_corpus,
    fuzz_program,
    get_family,
    make_family_program,
    shrink_program,
)

# ----------------------------------------------------------------------
# Observability: tracing, metrics, provenance
# ----------------------------------------------------------------------
from .obs import (
    METRICS,
    JsonLinesSink,
    MetricsRegistry,
    NullSink,
    ProvenanceLog,
    ProvenanceRecord,
    RingBufferSink,
    SpanRecord,
    capture_spans,
    configure_tracing,
    span,
    tracing_enabled,
)
from .obs.shapley import ShapleyReport, shapley_rank, shapley_values

__all__ = [
    # workflow model
    "NULL",
    "OMEGA",
    "CollaborativeSchema",
    "Event",
    "Instance",
    "LintFinding",
    "Relation",
    "Rule",
    "Run",
    "RunGenerator",
    "Schema",
    "StateSpaceExplorer",
    "Tuple",
    "View",
    "WorkflowProgram",
    "applicable_events",
    "chase",
    "enumerate_event_sequences",
    "execute",
    "fact_reachable",
    "lint_program",
    "normalize",
    "parse_program",
    "parse_schema",
    "program_to_text",
    "query_backend",
    "run_from_json",
    "run_to_json",
    "set_backend",
    # incremental dataflow
    "Delta",
    "DeltaEffect",
    "DeltaGraph",
    "delta_visible_to",
    "refresh_view_instance",
    # runtime explanations
    "EventSubsequence",
    "Explanation",
    "FaithfulScenario",
    "FaithfulSemiring",
    "FaithfulnessAnalysis",
    "IncrementalExplainer",
    "LifecycleIndex",
    "explain_event",
    "explain_run",
    "greedy_scenario",
    "is_faithful_scenario",
    "is_minimal_scenario",
    "is_scenario",
    "minimal_faithful_scenario",
    "minimum_scenario",
    "run_provenance",
    "scenario_within",
    # static explanations
    "SearchBudget",
    "check_h_bounded",
    "check_transparent",
    "check_transparent_and_bounded",
    "check_tree_equivalence",
    "check_view_program",
    "smallest_bound",
    "synthesize_view_program",
    # design and audit
    "AuditReport",
    "TransparencyEnforcer",
    "audit_program",
    "check_design_guidelines",
    "check_transparency_form",
    "enforce_run",
    "is_run_h_bounded",
    "is_run_transparent",
    "rewrite_transparent",
    # resilient runtime
    "AnytimeResult",
    "Budget",
    "BudgetExceeded",
    "DiskFaultPlan",
    "ResumedRun",
    "Supervisor",
    "anytime_minimum_scenario",
    "anytime_reachable_states",
    "fast_recover",
    "recover_run",
    "use_budget",
    # storage
    "DurabilityPolicy",
    "FileBackend",
    "MemoryBackend",
    "SegmentBackend",
    "StorageBackend",
    "open_backend",
    # service
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "ServiceClient",
    "ServiceServer",
    "WorkflowService",
    "run_loadgen",
    # cluster
    "ClusterRouter",
    "HashRing",
    "ReplicationShipper",
    "RouterServer",
    "ShardSupervisor",
    "reconcile_with_follower",
    "run_cluster_loadgen",
    # workload generators
    "DifferentialReport",
    "FuzzConfig",
    "WorkflowFamily",
    "differential_check",
    "family_names",
    "fuzz_corpus",
    "fuzz_program",
    "get_family",
    "make_family_program",
    "shrink_program",
    # observability
    "METRICS",
    "JsonLinesSink",
    "MetricsRegistry",
    "NullSink",
    "ProvenanceLog",
    "ProvenanceRecord",
    "RingBufferSink",
    "ShapleyReport",
    "SpanRecord",
    "capture_spans",
    "configure_tracing",
    "shapley_rank",
    "shapley_values",
    "span",
    "tracing_enabled",
]
