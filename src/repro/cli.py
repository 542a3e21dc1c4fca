"""Command-line interface.

``python -m repro <command> ...`` drives the library from the shell:

* ``check``      — static audit of a program for a peer (losslessness,
  normal form, guidelines, acyclicity, optional exact decisions);
* ``run``        — generate a random run, print it, optionally save a
  replayable JSON log;
* ``explain``    — the minimal faithful scenario explaining a run (from
  a saved log or a fresh random run) to a peer;
* ``synthesize`` — the peer's view program (Theorem 5.13);
* ``enforce``    — replay a run log through the transparency monitor;
* ``recover``    — resume a run journal from its latest checkpoint
  (``--full`` re-validates every step from the beginning);
* ``compact``    — compact stored run records (drop superseded snapshots);
* ``serve``      — host runs behind the JSON-lines TCP service;
* ``serve-cluster`` — host runs on a sharded cluster (consistent-hash
  router, shard worker processes, journal replication with failover);
* ``loadgen``    — drive and verify a live service under load
  (``--cluster`` adds shard kills and a durability audit).

Programs are read from files in the textual syntax of
:mod:`repro.workflow.parser`; the service commands alternatively accept
``--workload <name>`` to use a built-in generator from
:mod:`repro.workloads` (``churn``, ``profile``, ``hiring``,
``chain:<depth>``, ``fuzz:<seed>``, or a realistic family spec such as
``ecommerce``, ``healthcare:stages=4``, ``cicd``,
``procurement:vendors=5,visibility=1.0``).

Every command accepts the global ``--wall-budget`` / ``--max-steps``
options, which install an ambient :class:`repro.runtime.budget.Budget`
around the whole command: the worst-case exponential procedures
(scenario search, boundedness checking, synthesis, exploration) then
terminate with exit code 3 and a one-line diagnostic instead of running
open-ended.  Any other :class:`~repro.workflow.errors.WorkflowError`
exits with code 2 and a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

# The CLI consumes the same stable facade downstream code does — the
# explain/run/synthesize paths below exercise repro.api end to end.
from .api import (
    Budget,
    Run,
    RunGenerator,
    SearchBudget,
    WorkflowProgram,
    audit_program,
    enforce_run,
    explain_run,
    parse_program,
    program_to_text,
    run_from_json,
    run_provenance,
    run_to_json,
    synthesize_view_program,
    use_budget,
)
from .workflow.errors import BudgetExceeded, WorkflowError


def _load_program(path: str, peer: Optional[str] = None) -> WorkflowProgram:
    """Parse *path*; refuse an observing *peer* the program does not declare."""
    program = parse_program(Path(path).read_text())
    if peer is not None and peer not in program.schema.peers:
        raise WorkflowError(
            f"unknown peer {peer!r} (the program declares "
            f"{', '.join(program.schema.peers)})"
        )
    return program


def _load_service_program(args: argparse.Namespace) -> WorkflowProgram:
    """A program file or a named ``--workload`` generator (exactly one)."""
    if bool(args.program) == bool(args.workload):
        raise WorkflowError(
            "provide a program file or --workload <name>, but not both"
        )
    if args.program:
        return _load_program(args.program)
    from . import workloads

    name = args.workload
    named = {
        "churn": workloads.churn_program,
        "profile": workloads.profile_program,
        "hiring": workloads.hiring_program,
    }
    if name in named:
        return named[name]()
    if name.startswith("chain:"):
        try:
            return workloads.chain_program(int(name.split(":", 1)[1]))
        except ValueError:
            raise WorkflowError(f"bad chain depth in workload {name!r}") from None
    if name.startswith("fuzz:"):
        try:
            return workloads.fuzz_program(int(name.split(":", 1)[1]))
        except ValueError:
            raise WorkflowError(f"bad fuzz seed in workload {name!r}") from None
    family = workloads.parse_family_spec(name)[0]
    if family in workloads.FAMILIES:
        try:
            return workloads.make_family_program(name)[0]
        except (KeyError, ValueError) as exc:
            raise WorkflowError(f"bad family workload {name!r}: {exc}") from None
    raise WorkflowError(
        f"unknown workload {name!r} "
        f"(expected {', '.join(sorted(named))}, chain:<depth>, fuzz:<seed>, "
        f"or a family spec: {', '.join(workloads.family_names())})"
    )


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(
        pool_extra=args.pool_extra,
        max_tuples_per_relation=args.max_tuples,
    )


def _obtain_run(program: WorkflowProgram, args: argparse.Namespace) -> Run:
    if getattr(args, "run", None):
        return run_from_json(program, Path(args.run).read_text())
    generator = RunGenerator(program, seed=args.seed)
    return generator.random_run(args.steps)


def _cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args.program, args.peer)
    transparent = args.transparent.split(",") if args.transparent else None
    report = audit_program(
        program,
        args.peer,
        transparent_relations=transparent,
        decide_h=args.decide_h,
        budget=_budget(args),
    )
    print(report.to_text())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .workflow.lint import lint_program

    program = _load_program(args.program)
    findings = lint_program(
        program, max_depth=args.depth, max_states=args.max_states
    )
    for finding in findings:
        print(finding)
    if not findings:
        print("no findings")
    warnings = [f for f in findings if f.severity == "warning"]
    return 1 if warnings else 0


def _cmd_run(args: argparse.Namespace) -> int:
    journal = Path(args.journal) if args.journal else None
    if journal is not None and journal.exists() and journal.stat().st_size:
        # A second run appended to a journal would be a second begin
        # record, which no recovery accepts.
        raise WorkflowError(f"journal {journal} already holds records")
    program = _load_program(args.program, args.peer)
    run = _obtain_run(program, args)
    print(run)
    if args.peer:
        print()
        print(run.view(args.peer))
    if args.save:
        Path(args.save).write_text(run_to_json(run, indent=2))
        print(f"\nrun log saved to {args.save}")
    if args.journal:
        from .runtime.journal import journal_run

        journal_run(run, args.journal, snapshot_every=args.snapshot_every)
        print(f"run journal written to {args.journal}")
    return 0


def _recover_source(args: argparse.Namespace):
    """``(records_or_path, warnings)`` from --journal or --storage."""
    if bool(args.journal) == bool(args.storage):
        raise WorkflowError(
            "recover needs exactly one of --journal FILE or --storage SPEC"
        )
    if args.journal:
        if args.run_id:
            raise WorkflowError("--run-id goes with --storage")
        return args.journal, []
    if not args.run_id:
        raise WorkflowError("--storage needs --run-id ID")
    from .storage import open_backend

    backend = open_backend(args.storage)
    try:
        if not backend.exists(args.run_id):
            raise WorkflowError(
                f"no records for run {args.run_id!r} in {args.storage}"
            )
        records, warnings = backend.read_records(args.run_id)
    finally:
        backend.close()
    return records, warnings


def _cmd_recover(args: argparse.Namespace) -> int:
    from .runtime.checkpoint import fast_recover
    from .runtime.journal import recover_run

    source, source_warnings = _recover_source(args)
    program = _load_program(args.program, args.peer)
    full = args.full or bool(args.save) or bool(args.peer)
    if full:
        # The audit path: every event re-executed from the beginning and
        # every snapshot verified against the replayed instance.
        recovered = recover_run(program, source)
        status = recovered.status or "missing end record (crash?)"
        print(f"journal status:      {status}")
        print(f"events replayed:     {recovered.events_replayed}")
        print(f"snapshots verified:  {recovered.snapshots_verified}")
        if recovered.quarantined:
            print(f"quarantined events:  {len(recovered.quarantined)}")
        for warning in [*source_warnings, *recovered.warnings]:
            print(f"warning: {warning}", file=sys.stderr)
        print(f"\nrecovered run:\n{recovered.run}")
        if args.peer:
            print()
            print(recovered.run.view(args.peer))
        if args.save:
            Path(args.save).write_text(run_to_json(recovered.run, indent=2))
            print(f"\nrecovered run log saved to {args.save}")
        return 0 if recovered.complete else 1
    # The default fast path: resume from the latest checkpoint, engine
    # work O(events since it) regardless of run length.
    resumed = fast_recover(program, source)
    status = resumed.status or "missing end record (crash?)"
    print(f"journal status:      {status}")
    print(f"events decoded:      {resumed.events_total}")
    print(
        f"events replayed:     {resumed.engine_replayed} "
        f"(since checkpoint at {resumed.snapshot_position})"
    )
    if resumed.quarantined:
        print(f"quarantined events:  {len(resumed.quarantined)}")
    for warning in [*source_warnings, *resumed.warnings]:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"\nresumed instance ({resumed.instance.size()} tuples):")
    print(resumed.instance)
    return 0 if resumed.complete else 1


def _cmd_compact(args: argparse.Namespace) -> int:
    from .storage import open_backend

    spec = args.storage
    if not spec:
        raise WorkflowError("compact needs --storage SPEC")
    backend = open_backend(spec)
    try:
        run_ids = [args.run_id] if args.run_id else backend.run_ids()
        if not run_ids:
            print("no runs to compact")
            return 0
        for run_id in run_ids:
            if not backend.exists(run_id):
                raise WorkflowError(f"no records for run {run_id!r} in {spec}")
            store = backend.store(run_id)
            try:
                stats = store.compact()
            finally:
                store.close()
            print(
                f"{run_id}: {stats.records_before} -> {stats.records_after} "
                f"records ({stats.records_reclaimed} reclaimed), "
                f"{stats.bytes_before} -> {stats.bytes_after} bytes"
            )
    finally:
        backend.close()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    program = _load_program(args.program, args.peer)
    run = _obtain_run(program, args)
    explanation = explain_run(run, args.peer)
    print(explanation.to_text())
    if args.show_scenario:
        print("\nThe minimal faithful scenario, replayed:")
        print(explanation.scenario_subrun())
    if args.provenance:
        log = run_provenance(run)
        print("\nProvenance of the scenario events:")
        for citation in log.citations(explanation.scenario.indices):
            touched = ", ".join(
                f"{t['action']} {t['relation']}({t['key']})"
                for t in citation["touched"]
            ) or "no tuple changes"
            visible = ", ".join(citation["visible_to"])
            print(
                f"  [{citation['seq']}] {citation['rule']}@{citation['peer']}: "
                f"{touched}; visible to {visible}"
            )
    if args.rank:
        from .obs.shapley import shapley_rank

        relation = key = None
        if args.target:
            relation, _, key_text = args.target.partition(":")
            if key_text:
                key = int(key_text) if key_text.lstrip("-").isdigit() else key_text
        try:
            report = shapley_rank(
                run,
                args.peer,
                relation=relation or None,
                key=key,
                method=args.rank_method,
                samples=args.rank_samples,
                seed=args.rank_seed,
            )
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise WorkflowError(f"cannot rank: {message}") from None
        log = run_provenance(run)
        citations = {
            record["seq"]: record
            for record in log.citations(
                [entry.position for entry in report.attributions]
            )
        }
        suffix = (
            f", {report.samples} samples, seed {report.seed}"
            if report.method == "sampled"
            else ""
        )
        print(
            f"\nShapley ranking toward {report.target} "
            f"({report.method}{suffix}): "
            f"total {report.total():.4f} = {report.grand:.4f} "
            f"- {report.baseline:.4f}"
        )
        for entry in report.ranking():
            citation = citations.get(entry.position)
            touched = ""
            if citation is not None:
                touched = "; " + (", ".join(
                    f"{t['action']} {t['relation']}({t['key']})"
                    for t in citation["touched"]
                ) or "no tuple changes")
            print(
                f"  [{entry.position}] {entry.value:+.4f} "
                f"{entry.rule}@{entry.peer}{touched}"
            )
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    program = _load_program(args.program, args.peer)
    synthesis = synthesize_view_program(
        program, args.peer, h=args.bound, budget=_budget(args)
    )
    print(program_to_text(synthesis.program), end="")
    if args.witnesses:
        for record in synthesis.records:
            names = ", ".join(e.rule.name for e in record.witness.events)
            print(f"# {record.rule.name} witnessed by [{names}]")
    return 0


def _cmd_enforce(args: argparse.Namespace) -> int:
    program = _load_program(args.program, args.peer)
    run = _obtain_run(program, args)
    trace = enforce_run(program, args.peer, args.bound, run.events)
    for decision in trace.decisions:
        status = "ok     " if decision.allowed else "BLOCKED"
        kind = "visible" if decision.visible else "silent "
        print(
            f"[{decision.index:>3}] {status} {kind} stage={decision.stage} "
            f"{run.events[decision.index].rule.name}"
            + (f"  ({decision.reason})" if decision.reason else "")
        )
    print(f"\nrun accepted: {trace.accepted}")
    return 0 if trace.accepted else 1


def _fault_plan(args: argparse.Namespace):
    from .runtime.faults import FaultPlan

    if not (args.fault_transient or args.fault_poison or args.fault_crash):
        return None
    return FaultPlan(
        seed=args.fault_seed,
        transient_rate=args.fault_transient,
        poison_rate=args.fault_poison,
        crash_rate=args.fault_crash,
    )


def _disk_fault_plan(args: argparse.Namespace):
    from .runtime.faults import DiskFaultPlan

    plan = DiskFaultPlan(
        seed=args.fault_seed,
        short_write_rate=args.fault_disk_short,
        corrupt_rate=args.fault_disk_corrupt,
        enospc_rate=args.fault_disk_enospc,
        fsync_failure_rate=args.fault_disk_fsync,
    )
    return plan if plan.any_rate else None


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ServiceServer, WorkflowService

    program = _load_service_program(args)
    service = WorkflowService(
        program,
        queue_capacity=args.queue_capacity,
        snapshot_every=args.snapshot_every,
        fault_plan=_fault_plan(args),
        storage=args.storage,
        durability=args.durability,
        max_resident=args.max_resident,
        disk_fault_plan=_disk_fault_plan(args),
        replicate_to=args.replicate_to,
        batch_size=args.batch_size,
    )
    server_kwargs = {}
    if args.max_line_bytes:
        server_kwargs["max_line_bytes"] = args.max_line_bytes
    server = ServiceServer(service, host=args.host, port=args.port, **server_kwargs)

    async def _serve() -> None:
        await server.start()
        # Flushed immediately so scripts (the CI smoke job) can parse
        # the bound port before traffic starts.
        print(f"serving on {server.host}:{server.port}", flush=True)
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    print("service shut down cleanly", flush=True)
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from .cluster import ClusterRouter, RouterServer, ShardSupervisor

    program = _load_service_program(args)
    program_text = program_to_text(program)

    async def _serve() -> None:
        supervisor = ShardSupervisor(
            program_text,
            Path(args.cluster_dir),
            shard_count=args.shards,
            host=args.host,
            durability=args.durability,
            snapshot_every=args.snapshot_every,
            replicate=not args.no_replicate,
            failover=args.failover,
        )
        await supervisor.start()
        router = ClusterRouter(supervisor.node_addresses(), supervisor=supervisor)
        supervisor.attach_router(router)
        server = RouterServer(router, host=args.host, port=args.port)
        await server.start()
        host, port = server.address
        # Flushed immediately so scripts (the CI cluster-smoke job) can
        # parse the router port before traffic starts.
        print(
            f"cluster serving on {host}:{port} "
            f"({len(supervisor.shards)} shards, "
            f"replicate={supervisor.replicate}, failover={supervisor.failover})",
            flush=True,
        )
        try:
            await server.serve_until_shutdown()
        finally:
            await supervisor.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    print("cluster shut down cleanly", flush=True)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .service import run_loadgen

    program = _load_service_program(args)
    if args.cluster:
        from .cluster import run_cluster_loadgen

        report = asyncio.run(
            run_cluster_loadgen(
                program,
                args.host,
                args.port,
                runs=args.runs,
                events_per_run=args.events,
                seed=args.seed,
                verify=not args.no_verify,
                view_every=args.view_every,
                max_concurrency=args.max_concurrency,
                kill_shards=args.kill_shards,
                kill_after_applied=args.kill_after,
                audit=not args.no_audit,
                shutdown=args.shutdown,
                clients=args.clients,
                batch_size=args.batch_size,
            )
        )
    else:
        report = asyncio.run(
            run_loadgen(
                program,
                args.host,
                args.port,
                runs=args.runs,
                events_per_run=args.events,
                seed=args.seed,
                verify=not args.no_verify,
                view_every=args.view_every,
                max_concurrency=args.max_concurrency,
                shutdown=args.shutdown,
                clients=args.clients,
                batch_size=args.batch_size,
            )
        )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for key, value in report.to_dict().items():
            print(f"{key:>24}: {value}")
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Explanations and transparency in collaborative workflows",
    )
    parser.add_argument("--wall-budget", type=float, default=None, metavar="SECONDS",
                        help="wall-clock budget for the whole command "
                             "(exponential searches exit 3 when it trips)")
    parser.add_argument("--max-steps", type=int, default=None, metavar="N",
                        help="step budget for the whole command (event "
                             "applications and search nodes)")
    parser.add_argument("--profile-queries", action="store_true",
                        help="after the command, print the per-rule query "
                             "hot-path table (plans, candidates, time) "
                             "collected by the query planner")
    parser.add_argument("--metrics", action="store_true",
                        help="after the command, dump the process metrics "
                             "registry as Prometheus text to stderr")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="trace the command's spans to FILE as JSON "
                             "lines ('-' for stderr)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, peer_required: bool = True) -> None:
        p.add_argument("program", help="workflow program file (textual syntax)")
        p.add_argument("--peer", required=peer_required, help="observing peer")
        p.add_argument("--pool-extra", type=int, default=1,
                       help="extra pool constants for bounded searches")
        p.add_argument("--max-tuples", type=int, default=1,
                       help="instance-size cap for bounded searches")

    def run_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--run", help="replay a saved run log (JSON)")
        p.add_argument("--steps", type=int, default=10, help="random run length")
        p.add_argument("--seed", type=int, default=0, help="random seed")

    p_check = sub.add_parser("check", help="static audit of a program")
    common(p_check)
    p_check.add_argument("--transparent", default=None,
                         help="comma-separated p-transparent relations (enables C3/C4)")
    p_check.add_argument("--decide-h", type=int, default=None,
                         help="also run the exact boundedness/transparency decisions")
    p_check.set_defaults(handler=_cmd_check)

    p_lint = sub.add_parser("lint", help="hygiene findings for a program")
    p_lint.add_argument("program", help="workflow program file (textual syntax)")
    p_lint.add_argument("--depth", type=int, default=4,
                        help="state-space exploration depth for dead-rule search")
    p_lint.add_argument("--max-states", type=int, default=400,
                        help="state-space exploration cap")
    p_lint.set_defaults(handler=_cmd_lint)

    p_run = sub.add_parser("run", help="generate and print a random run")
    common(p_run, peer_required=False)
    run_source(p_run)
    p_run.add_argument("--save", help="write a replayable JSON run log here")
    p_run.add_argument("--journal", help="write an append-only run journal here")
    p_run.add_argument("--snapshot-every", type=int, default=10,
                       help="fewest events between journal snapshots "
                            "(more once the instance holds more tuples)")
    p_run.set_defaults(handler=_cmd_run)

    p_recover = sub.add_parser(
        "recover", help="replay a run journal, re-validating every step"
    )
    common(p_recover, peer_required=False)
    p_recover.add_argument("--journal",
                           help="the journal file to recover from")
    p_recover.add_argument("--run-id",
                           help="the hosted run id to recover (with --storage)")
    p_recover.add_argument("--storage", default=None,
                           help="a storage backend spec to recover from "
                                "(segment:DIR)")
    p_recover.add_argument("--full", action="store_true",
                           help="replay every event from the beginning and "
                                "verify each snapshot, instead of resuming "
                                "from the latest checkpoint (implied by "
                                "--save/--peer, which need the full run)")
    p_recover.add_argument("--save", help="write the recovered run log (JSON) here")
    p_recover.set_defaults(handler=_cmd_recover)

    p_compact = sub.add_parser(
        "compact", help="compact stored run records (drop superseded snapshots)"
    )
    p_compact.add_argument("--storage", default=None,
                           help="a storage backend spec (segment:DIR)")
    p_compact.add_argument("--run-id", default=None,
                           help="compact one run (default: every run)")
    p_compact.set_defaults(handler=_cmd_compact)

    p_explain = sub.add_parser("explain", help="explain a run to a peer")
    common(p_explain)
    run_source(p_explain)
    p_explain.add_argument("--show-scenario", action="store_true",
                           help="also print the replayed scenario subrun")
    p_explain.add_argument("--provenance", action="store_true",
                           help="cite each scenario event's provenance "
                                "(touched tuples, observing peers)")
    p_explain.add_argument("--rank", action="store_true",
                           help="rank the run's events by Shapley value "
                                "toward the peer's view (or --target)")
    p_explain.add_argument("--target", metavar="REL[:KEY]", default=None,
                           help="rank toward one visible fact instead of "
                                "the whole view")
    p_explain.add_argument("--rank-method", default="auto",
                           choices=("auto", "exact", "sampled"),
                           help="exact enumeration vs seeded permutation "
                                "sampling (default: auto)")
    p_explain.add_argument("--rank-samples", type=int, default=128,
                           help="permutations when sampling (default 128)")
    p_explain.add_argument("--rank-seed", type=int, default=0,
                           help="sampling seed (default 0)")
    p_explain.set_defaults(handler=_cmd_explain)

    p_synth = sub.add_parser("synthesize", help="synthesize the peer's view program")
    common(p_synth)
    p_synth.add_argument("--bound", type=int, required=True, help="the bound h")
    p_synth.add_argument("--witnesses", action="store_true",
                         help="print the witness runs of each ω-rule")
    p_synth.set_defaults(handler=_cmd_synthesize)

    p_enforce = sub.add_parser("enforce", help="replay a run through the monitor")
    common(p_enforce)
    run_source(p_enforce)
    p_enforce.add_argument("--bound", type=int, required=True, help="the bound h")
    p_enforce.set_defaults(handler=_cmd_enforce)

    def service_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("program", nargs="?", default=None,
                       help="workflow program file (textual syntax)")
        p.add_argument("--workload", default=None,
                       help="built-in workload instead of a program file "
                            "(churn, profile, hiring, chain:<depth>, "
                            "fuzz:<seed>, or a family spec like ecommerce, "
                            "healthcare:stages=4, cicd, procurement)")
        p.add_argument("--host", default="127.0.0.1", help="service host")
        p.add_argument("--port", type=int, default=7477, help="service port")

    p_serve = sub.add_parser(
        "serve", help="host workflow runs behind the JSON-lines TCP service"
    )
    service_common(p_serve)
    p_serve.add_argument("--queue-capacity", type=int, default=64,
                         help="per-run mailbox bound (backpressure threshold)")
    p_serve.add_argument("--batch-size", type=int, default=1,
                         help="events the broker's drain worker applies per "
                              "wakeup (amortizes per-event overhead; "
                              "per-event acks and journals are unchanged)")
    p_serve.add_argument("--snapshot-every", type=int, default=10,
                         help="fewest events between journal snapshots "
                              "(more once the instance holds more tuples)")
    p_serve.add_argument("--fault-seed", type=int, default=0,
                         help="fault-injection seed")
    p_serve.add_argument("--fault-transient", type=float, default=0.0,
                         help="per-event transient-fault rate")
    p_serve.add_argument("--fault-poison", type=float, default=0.0,
                         help="per-event poison-fault rate")
    p_serve.add_argument("--fault-crash", type=float, default=0.0,
                         help="per-event crash rate (recovered from journals)")
    p_serve.add_argument("--storage", default=None,
                         help="storage backend spec: memory (default) "
                              "or segment:DIR (one journal file per run, "
                              "read by 'repro recover --storage')")
    p_serve.add_argument("--durability", default=None,
                         help="durability policy for disk backends: "
                              "flush (default), interval[:N], fsync")
    p_serve.add_argument("--max-resident", type=int, default=None,
                         help="LRU-evict idle hosted runs beyond this many "
                              "(rehydrated transparently from storage)")
    p_serve.add_argument("--fault-disk-short", type=float, default=0.0,
                         help="per-append short-write (torn record) rate")
    p_serve.add_argument("--fault-disk-corrupt", type=float, default=0.0,
                         help="per-append corrupted-trailing-record rate")
    p_serve.add_argument("--fault-disk-enospc", type=float, default=0.0,
                         help="per-append ENOSPC (nothing written) rate")
    p_serve.add_argument("--fault-disk-fsync", type=float, default=0.0,
                         help="per-fsync failure rate (unsynced tail lost)")
    p_serve.add_argument("--replicate-to", default=None, metavar="HOST:PORT",
                         help="ship every appended record to the follower "
                              "shard at HOST:PORT (cluster replication; "
                              "requires --storage)")
    p_serve.add_argument("--max-line-bytes", type=int, default=None,
                         help="per-request line cap; longer lines get a "
                              "structured protocol error (default 1 MiB)")
    p_serve.set_defaults(handler=_cmd_serve)

    p_cluster = sub.add_parser(
        "serve-cluster",
        help="host runs on a sharded cluster: router + shard workers "
             "+ journal replication with failover",
    )
    service_common(p_cluster)
    p_cluster.add_argument("--cluster-dir", required=True,
                           help="directory for the cluster's program file, "
                                "per-shard storage and worker logs")
    p_cluster.add_argument("--shards", type=int, default=2,
                           help="shard worker processes to spawn")
    p_cluster.add_argument("--durability", default="flush",
                           help="durability policy of each shard's segment "
                                "store: flush, interval[:N], fsync")
    p_cluster.add_argument("--snapshot-every", type=int, default=10,
                           help="fewest events between journal snapshots "
                                "(more once the instance holds more tuples)")
    p_cluster.add_argument("--no-replicate", action="store_true",
                           help="disable journal replication between shards")
    p_cluster.add_argument("--failover", choices=("restart", "promote"),
                           default="restart",
                           help="what to do when a shard worker dies: "
                                "restart it over its storage (default) or "
                                "promote its follower")
    p_cluster.set_defaults(handler=_cmd_serve_cluster)

    p_load = sub.add_parser(
        "loadgen", help="drive and verify a live workflow service"
    )
    service_common(p_load)
    p_load.add_argument("--runs", type=int, default=8,
                        help="concurrent runs to drive")
    p_load.add_argument("--events", type=int, default=20,
                        help="events per run")
    p_load.add_argument("--seed", type=int, default=0, help="workload seed")
    p_load.add_argument("--view-every", type=int, default=0,
                        help="interleave a view read every N events")
    p_load.add_argument("--max-concurrency", type=int, default=None,
                        help="cap on simultaneously active runs")
    p_load.add_argument("--clients", type=int, default=1,
                        help="open exactly N connections and partition the "
                             "runs across them (reports per-client "
                             "throughput); default is one connection per run")
    p_load.add_argument("--batch-size", type=int, default=1,
                        help="submit events in chunks of N through the "
                             "submit_batch op instead of one submit per "
                             "event")
    p_load.add_argument("--no-verify", action="store_true",
                        help="skip the client-side replay consistency check")
    p_load.add_argument("--shutdown", action="store_true",
                        help="send a shutdown request when done")
    p_load.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    p_load.add_argument("--cluster", action="store_true",
                        help="drive a serve-cluster router: idempotent "
                             "submits, optional shard kills, and a "
                             "post-mortem storage audit of every "
                             "acknowledged event")
    p_load.add_argument("--kill-shards", type=int, default=0,
                        help="with --cluster: SIGKILL this many seeded "
                             "shard workers mid-run (failover must keep "
                             "the report clean)")
    p_load.add_argument("--kill-after", type=int, default=None,
                        help="with --cluster: cluster-wide applied-event "
                             "count that triggers the first kill "
                             "(default: a quarter of the workload)")
    p_load.add_argument("--no-audit", action="store_true",
                        help="with --cluster: skip the post-mortem "
                             "read-back of every shard store")
    p_load.set_defaults(handler=_cmd_loadgen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Exit codes: 0 success, 1 command-specific negative verdict, 2 any
    :class:`WorkflowError` (one-line diagnostic, no traceback), 3 the
    command's execution budget ran out.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    budget = None
    if args.wall_budget is not None or args.max_steps is not None:
        try:
            budget = Budget(wall_seconds=args.wall_budget, max_steps=args.max_steps)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    trace_sink = None
    if getattr(args, "trace", None):
        from .obs.trace import JsonLinesSink, configure_tracing

        trace_sink = JsonLinesSink(
            sys.stderr if args.trace == "-" else args.trace
        )
        configure_tracing(trace_sink)
    try:
        with use_budget(budget):
            return args.handler(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (WorkflowError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if trace_sink is not None:
            from .obs.trace import configure_tracing

            configure_tracing(None)
            trace_sink.close()
        if getattr(args, "profile_queries", False):
            from .workflow.planner import render_profile

            table = render_profile()
            print(table if table else "no queries were evaluated", file=sys.stderr)
        if getattr(args, "metrics", False):
            from .obs.metrics import METRICS

            print(METRICS.render_prometheus(), end="", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
