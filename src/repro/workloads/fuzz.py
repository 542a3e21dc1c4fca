"""Seeded property-based program fuzzer and cross-backend differential harness.

:func:`fuzz_program` deterministically grows a random — but always
*valid* — FCQ¬ workflow program from a seed: a random schema (relation
count and arities), a random peer visibility matrix, and random rules
mixing positive joins, negation, comparisons, key literals, keyed
deletions and fresh-key creations, all constructed so that every rule
respects the model's safety conditions (bodies query only the acting
peer's views, every variable is bound by a positive literal, deletions
carry a body witness on their key).

:func:`differential_check` drives one program through every engine pair
the stack promises equivalent:

* ``backends`` — the same seeded run replayed under the ``naive`` and
  ``compiled`` query backends must produce bit-identical event streams,
  final instances and peer views;
* ``dataflow`` — pushing each event's delta through a
  :class:`~repro.dataflow.graph.DeltaGraph` (materialized peer views)
  and advancing an
  :class:`~repro.workflow.eventindex.ApplicableEventIndex` over that
  graph with the resulting effect (every rule body's cached
  valuations and update-check outcomes) must equal from-scratch
  recomputation;
* ``recovery`` — journaling the run and recovering it (full
  ``recover_run`` re-execution and the ``fast_recover`` checkpoint
  path) must reproduce the run, its views and its provenance;
* ``service`` — an in-process :class:`WorkflowService` (the router's
  worker) must acknowledge every submitted event in order, offer in
  ``applicable`` only events that extend the acknowledged prefix to a
  run (head-only values globally fresh), and answer each peer's
  ``view`` and ``explain`` as the offline run does.

On divergence the report carries a copy-pasteable reproduce one-liner,
and :func:`shrink_program` greedily minimizes a failing program by
dropping rules, then unused relations and peers, to a local fixpoint.

Reproduce a failure (or re-check any seed) from the command line::

    PYTHONPATH=src python -m repro.workloads.fuzz --seed 7 --steps 12
"""

from __future__ import annotations

import argparse
import asyncio
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..dataflow.graph import DeltaGraph
from ..runtime.checkpoint import fast_recover
from ..runtime.journal import journal_run, recover_run
from ..storage.backend import MemoryBackend
from ..workflow.engine import apply_event_with_delta
from ..workflow.enumerate import RunGenerator, applicable_events
from ..workflow.eventindex import ApplicableEventIndex
from ..workflow.instance import Instance
from ..workflow.parser import parse_program
from ..workflow.planner import set_backend
from ..workflow.program import WorkflowProgram
from ..workflow.runs import Run, execute
from ..workflow.schema import Schema
from ..workflow.serialization import event_to_dict, program_to_text
from ..workflow.views import CollaborativeSchema

__all__ = [
    "DifferentialReport",
    "FuzzConfig",
    "PAIRS",
    "PairOutcome",
    "differential_check",
    "fuzz_corpus",
    "fuzz_program",
    "shrink_program",
]

#: The engine pairs :func:`differential_check` exercises, in order.
PAIRS = ("backends", "dataflow", "recovery", "service")

_QUERY_BACKENDS = ("naive", "compiled")


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of the program fuzzer (all ranges inclusive)."""

    min_relations: int = 2
    max_relations: int = 5
    max_arity: int = 3
    min_peers: int = 2
    max_peers: int = 4
    min_rules: int = 3
    max_rules: int = 8
    max_body: int = 3
    #: Probability an acting peer sees any given relation.
    visibility: float = 0.65
    #: Probability the observer sees any given relation.
    observer_visibility: float = 0.45
    #: Probability an observer view projects attributes away.
    projection_rate: float = 0.4
    #: Probability an observer view carries a ``where`` selection.
    selection_rate: float = 0.2
    #: Fraction of rules that are bodyless fresh-key creations.
    creation_rate: float = 0.35
    #: Probability a derived rule's head is a keyed deletion.
    deletion_rate: float = 0.2
    #: Probability of adding a negative literal / comparison / key literal.
    negation_rate: float = 0.45
    comparison_rate: float = 0.3
    key_literal_rate: float = 0.3


DEFAULT_CONFIG = FuzzConfig()


def _constant(rng: random.Random) -> str:
    return str(rng.randrange(3))


def fuzz_program(seed: int, config: FuzzConfig = DEFAULT_CONFIG) -> WorkflowProgram:
    """A random valid workflow program, deterministic in *seed*."""
    # String seeding is hash-randomization-proof (sha512 path), so the
    # same seed reproduces the same program in any process.
    rng = random.Random(f"repro-fuzz-{seed}")
    n_relations = rng.randint(config.min_relations, config.max_relations)
    arities = [rng.randint(1, config.max_arity) for _ in range(n_relations)]
    n_peers = rng.randint(config.min_peers, config.max_peers)
    acting = [f"p{i}" for i in range(n_peers)]
    observer = "observer"

    lines: List[str] = ["peers " + ", ".join(acting + [observer])]
    attrs: Dict[str, List[str]] = {}
    for r, arity in enumerate(arities):
        name = f"R{r}"
        attrs[name] = ["K"] + [f"a{j}" for j in range(1, arity)]
        lines.append(f"relation {name}({', '.join(attrs[name])})")

    # Visibility matrix: acting peers see full-width views; every
    # relation has at least one acting holder so some rule can touch it.
    sees: Dict[str, List[str]] = {peer: [] for peer in acting}
    for name in attrs:
        holders = [peer for peer in acting if rng.random() < config.visibility]
        if not holders:
            holders = [rng.choice(acting)]
        for peer in holders:
            sees[peer].append(name)
    for peer in acting:
        for name in sees[peer]:
            lines.append(f"view {name}@{peer}({', '.join(attrs[name])})")

    # The observer's views may project attributes and select by value.
    observed = [name for name in attrs if rng.random() < config.observer_visibility]
    if not observed:
        observed = [rng.choice(sorted(attrs))]
    for name in observed:
        columns = attrs[name]
        if len(columns) > 1 and rng.random() < config.projection_rate:
            kept = ["K"] + [c for c in columns[1:] if rng.random() < 0.6]
        else:
            kept = list(columns)
        decl = f"view {name}@{observer}({', '.join(kept)})"
        if rng.random() < config.selection_rate:
            decl += f" where {rng.choice(columns)} != {_constant(rng)}"
        lines.append(decl)

    n_rules = rng.randint(config.min_rules, config.max_rules)
    creations = max(1, round(n_rules * config.creation_rate))
    eligible = [peer for peer in acting if sees[peer]]
    for index in range(n_rules):
        peer = rng.choice(eligible)
        visible = sees[peer]
        if index < creations:
            lines.append(_creation_rule(rng, index, peer, visible, attrs))
        else:
            lines.append(_derived_rule(rng, config, index, peer, visible, attrs))
    return parse_program("\n".join(lines))


def _creation_rule(
    rng: random.Random,
    index: int,
    peer: str,
    visible: Sequence[str],
    attrs: Dict[str, List[str]],
) -> str:
    """A bodyless insertion minting a fresh key."""
    name = rng.choice(list(visible))
    terms = ["k"]
    for position in range(1, len(attrs[name])):
        roll = rng.random()
        if roll < 0.4:
            terms.append(_constant(rng))
        elif roll < 0.55:
            terms.append("null")
        else:
            terms.append(f"f{position}")
    return f"[r{index}] +{name}@{peer}({', '.join(terms)}) :-"


def _derived_rule(
    rng: random.Random,
    config: FuzzConfig,
    index: int,
    peer: str,
    visible: Sequence[str],
    attrs: Dict[str, List[str]],
) -> str:
    """A rule with a positive join body plus optional extras."""
    fresh_counter = [0]

    def new_var() -> str:
        fresh_counter[0] += 1
        return f"v{fresh_counter[0]}"

    bound: List[str] = []
    positives: List[Tuple[str, List[str]]] = []
    for _ in range(rng.randint(1, config.max_body)):
        name = rng.choice(list(visible))
        terms: List[str] = []
        for position in range(len(attrs[name])):
            roll = rng.random()
            if position == 0:
                # Join chains re-use a bound key half the time.
                if bound and roll < 0.5:
                    terms.append(rng.choice(bound))
                else:
                    var = new_var()
                    bound.append(var)
                    terms.append(var)
            elif bound and roll < 0.3:
                terms.append(rng.choice(bound))
            elif roll < 0.5:
                terms.append(_constant(rng))
            else:
                var = new_var()
                bound.append(var)
                terms.append(var)
        positives.append((name, terms))
    body = [f"{name}@{peer}({', '.join(terms)})" for name, terms in positives]

    if rng.random() < config.negation_rate:
        name = rng.choice(list(visible))
        terms = [
            rng.choice(bound) if rng.random() < 0.6 else _constant(rng)
            for _ in attrs[name]
        ]
        body.append(f"not {name}@{peer}({', '.join(terms)})")
    if rng.random() < config.key_literal_rate:
        name = rng.choice(list(visible))
        polarity = "not " if rng.random() < 0.6 else ""
        body.append(f"{polarity}Key[{name}]@{peer}({rng.choice(bound)})")
    if rng.random() < config.comparison_rate:
        left = rng.choice(bound)
        right = rng.choice(bound) if len(bound) > 1 and rng.random() < 0.5 else _constant(rng)
        if left != right:
            op = "=" if rng.random() < 0.25 else "!="
            body.append(f"{left} {op} {right}")

    if rng.random() < config.deletion_rate:
        # Normal form: delete by the key of a positive body witness.
        name, terms = rng.choice(positives)
        head = f"-Key[{name}]@{peer}({terms[0]})"
    else:
        name = rng.choice(list(visible))
        terms = []
        for position in range(len(attrs[name])):
            roll = rng.random()
            if position == 0:
                if bound and roll < 0.45:
                    terms.append(rng.choice(bound))
                elif roll < 0.8:
                    terms.append(new_var())  # fresh key
                else:
                    terms.append(_constant(rng))
            elif bound and roll < 0.4:
                terms.append(rng.choice(bound))
            elif roll < 0.7:
                terms.append(_constant(rng))
            else:
                terms.append(new_var())  # fresh attribute value
        head = f"+{name}@{peer}({', '.join(terms)})"
    return f"[r{index}] {head} :- {', '.join(body)}"


def fuzz_corpus(
    count: int, base_seed: int = 0, config: FuzzConfig = DEFAULT_CONFIG
) -> Iterator[Tuple[int, WorkflowProgram]]:
    """``(seed, program)`` for *count* consecutive seeds."""
    for seed in range(base_seed, base_seed + count):
        yield seed, fuzz_program(seed, config)


# ----------------------------------------------------------------------
# Differential harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairOutcome:
    """The verdict of one engine pair on one program."""

    pair: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class DifferentialReport:
    """Every pair's verdict plus a reproduce one-liner."""

    seed: int
    steps: int
    events: int
    outcomes: Tuple[PairOutcome, ...]
    label: str = "fuzz"

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> Tuple[PairOutcome, ...]:
        return tuple(outcome for outcome in self.outcomes if not outcome.ok)

    def reproduce(self) -> str:
        """A copy-pasteable command that re-runs exactly this check."""
        source = (
            f"--family {self.label}" if self.label != "fuzz" else ""
        )
        parts = [
            "PYTHONPATH=src python -m repro.workloads.fuzz",
            f"--seed {self.seed}",
            f"--steps {self.steps}",
        ]
        if source:
            parts.insert(1, source)
        return " ".join(parts)

    def summary(self) -> str:
        verdicts = ", ".join(
            f"{o.pair}={'ok' if o.ok else 'DIVERGED'}" for o in self.outcomes
        )
        status = "ok" if self.ok else "DIVERGED"
        text = (
            f"differential {self.label} seed={self.seed} steps={self.steps} "
            f"events={self.events}: {status} ({verdicts})"
        )
        if not self.ok:
            details = "; ".join(
                f"{o.pair}: {o.detail}" for o in self.failures if o.detail
            )
            text += f"\n  {details}\n  reproduce: {self.reproduce()}"
        return text


def _canonical_views(program: WorkflowProgram, instance: Instance) -> Dict[str, object]:
    """Every peer's view rendered order-independently for comparison."""
    schema = program.schema
    rendered: Dict[str, object] = {}
    for peer in schema.peers:
        view = schema.view_instance(instance, peer)
        rendered[peer] = {
            name: sorted(repr(t) for t in view.relation(name))
            for name in view.schema.relation_names
        }
    return rendered


def _run_fingerprint(program: WorkflowProgram, run: Run) -> Dict[str, object]:
    return {
        "events": [event_to_dict(event) for event in run.events],
        "views": _canonical_views(program, run.final_instance),
    }


def _initial_instance(program: WorkflowProgram, run: Run) -> Instance:
    if run.initial is not None:
        return run.initial
    return Instance.empty(program.schema.schema)


def _check_backends(
    program: WorkflowProgram, run: Run, seed: int, steps: int
) -> PairOutcome:
    """The naive and compiled backends on the same event stream.

    Each backend replays the run's fixed events (query evaluation gates
    every application) and enumerates the applicable events at the final
    instance.  Replays must be bit-identical; the applicable sets are
    compared *as sets*, because a backend's join order legitimately
    changes enumeration order (``random_run`` samples from that order,
    so regenerating per backend would flag spurious divergences).
    """
    fingerprints: Dict[str, Dict[str, object]] = {}
    for backend in _QUERY_BACKENDS:
        previous = set_backend(backend)
        try:
            replayed = execute(
                program, run.events, run.initial, check_freshness=False
            )
            # Compare candidates modulo head-only values: those are
            # freshly minted in enumeration order, so their identities
            # (though not their existence) legitimately differ.
            candidates = sorted(
                repr(
                    (
                        event.rule.name,
                        sorted(
                            (str(var), repr(value))
                            for var, value in event.valuation
                            if var not in event.rule.head_only_variables()
                        ),
                    )
                )
                for event in applicable_events(
                    program, replayed.final_instance
                )
            )
        finally:
            set_backend(previous)
        fingerprints[backend] = {
            "replay": _run_fingerprint(program, replayed),
            "applicable": candidates,
        }
    baseline_name = _QUERY_BACKENDS[0]
    baseline = fingerprints[baseline_name]
    for backend, fingerprint in fingerprints.items():
        if fingerprint != baseline:
            what = (
                "replayed run"
                if fingerprint["replay"] != baseline["replay"]
                else "applicable-event set"
            )
            return PairOutcome(
                "backends",
                False,
                f"{backend} and {baseline_name} disagree on the {what}",
            )
    return PairOutcome("backends", True)


def _valuation_rows(valuations) -> List[str]:
    """A valuation multiset rendered order-independently."""
    return sorted(
        repr(sorted((var.name, repr(value)) for var, value in valuation.items()))
        for valuation in valuations
    )


def _check_dataflow(program: WorkflowProgram, run: Run) -> PairOutcome:
    """Graph-patched views and index-maintained rule bodies vs from-scratch.

    The applicable-event index reads the graph's views and advances with
    each push's :class:`~repro.dataflow.graph.DeltaEffect`, as on the
    service, and
    every rule body is brought up to date and every candidate
    update-checked after every event: a cached valuation list or check
    outcome the delta should have dropped survives to the final
    comparison.  At the final instance each peer's answer from the
    index (the service's ``applicable`` op) must then equal that peer's
    share of the from-scratch enumeration, fresh values included.
    """
    schema = program.schema
    instance = _initial_instance(program, run)
    graph = DeltaGraph(schema, instance)
    for peer in schema.peers:
        graph.snapshot(peer)
    index = ApplicableEventIndex(program, instance, graph=graph)
    list(index.events())
    for event in run.events:
        instance, delta = apply_event_with_delta(
            schema, instance, event, forbidden_fresh=None, check_body=False
        )
        index.advance(graph.push(delta, instance), instance)
        list(index.events())
    if _canonical_views(program, graph.instance) != _canonical_views(
        program, run.final_instance
    ):
        return PairOutcome("dataflow", False, "replayed global instance diverged")
    for peer in schema.peers:
        incremental = graph.snapshot(peer)
        scratch = schema.view_instance(run.final_instance, peer)
        rows = lambda inst: {
            name: sorted(repr(t) for t in inst.relation(name))
            for name in inst.schema.relation_names
        }
        if rows(incremental) != rows(scratch):
            return PairOutcome(
                "dataflow", False, f"maintained view of peer {peer!r} diverged"
            )
    for i, rule in enumerate(index.rules):
        scratch_view = schema.view_instance(run.final_instance, rule.peer)
        expected = _valuation_rows(rule.body.valuations(scratch_view))
        if _valuation_rows(index.body_valuations(i)) != expected:
            return PairOutcome(
                "dataflow",
                False,
                f"index-maintained body of rule {rule.name!r} diverged",
            )
    scratch_events = list(applicable_events(program, run.final_instance))
    for peer in schema.peers:
        expected_events = [
            event_to_dict(event) for event in scratch_events if event.peer == peer
        ]
        answered = [event_to_dict(event) for event in index.events(peer=peer)]
        if answered != expected_events:
            return PairOutcome(
                "dataflow",
                False,
                f"index-enumerated events of peer {peer!r} diverged",
            )
    return PairOutcome("dataflow", True)


def _check_recovery(program: WorkflowProgram, run: Run) -> PairOutcome:
    """Journal round-trip: full re-execution and the checkpoint fast path."""
    from ..core.explain import run_provenance

    store = MemoryBackend().store("fuzz")
    journal_run(run, store, snapshot_every=4)
    records, _ = store.read()
    recovered = recover_run(program, records)
    if _run_fingerprint(program, recovered.run) != _run_fingerprint(program, run):
        return PairOutcome("recovery", False, "recover_run diverged from the live run")
    if run_provenance(recovered.run).to_dicts() != run_provenance(run).to_dicts():
        return PairOutcome("recovery", False, "recovered provenance diverged")
    resumed = fast_recover(program, records)
    if _canonical_views(program, resumed.instance) != _canonical_views(
        program, run.final_instance
    ):
        return PairOutcome("recovery", False, "fast_recover instance diverged")
    if [event_to_dict(e) for e in resumed.events] != [
        event_to_dict(e) for e in run.events
    ]:
        return PairOutcome("recovery", False, "fast_recover event stream diverged")
    return PairOutcome("recovery", True)


def _check_service(program: WorkflowProgram, run: Run) -> PairOutcome:
    """One in-process :class:`WorkflowService` transcript vs the offline run.

    Every submit must be acknowledged ``applied`` with seq 0…n−1; after
    each one, every event any peer's ``applicable`` offers must extend
    the acknowledged prefix to a run under :func:`execute` with
    freshness checked; each peer's ``view`` must equal its view of the
    run's final instance, and each ``explain`` must equal
    :func:`minimal_faithful_scenario`.  The full subprocess router
    differential lives in ``tests/cluster``.
    """
    from ..core.faithful import minimal_faithful_scenario
    from ..service.loadgen import _canonical_view
    from ..service.server import WorkflowService
    from ..workflow.errors import RunError
    from ..workflow.serialization import event_from_dict, instance_to_dict

    initial = _initial_instance(program, run)

    async def drive() -> Optional[str]:
        service = WorkflowService(program, snapshot_every=None)
        try:
            await service.handle(
                {
                    "op": "open",
                    "run": "diff",
                    "initial": instance_to_dict(initial),
                }
            )
            for index, event in enumerate(run.events):
                ack = await service.handle(
                    {"op": "submit", "run": "diff", "event": event_to_dict(event)}
                )
                if ack.get("status") != "applied" or ack.get("seq") != index:
                    return f"event {index} acknowledged as {ack}"
                acked = list(run.events[: index + 1])
                for peer in program.schema.peers:
                    offered = await service.handle(
                        {"op": "applicable", "run": "diff", "peer": peer}
                    )
                    for entry in offered["events"]:
                        try:
                            execute(
                                program,
                                acked + [event_from_dict(program, entry)],
                                initial,
                                check_freshness=True,
                            )
                        except RunError as exc:
                            return (
                                f"after event {index}, {peer!r} was offered "
                                f"an event that is no run step: {exc}"
                            )
            for peer in program.schema.peers:
                view = await service.handle({"op": "view", "run": "diff", "peer": peer})
                expected = instance_to_dict(
                    program.schema.view_instance(run.final_instance, peer)
                )
                if _canonical_view(view["instance"]) != _canonical_view(expected):
                    return f"view of peer {peer!r} diverged"
                explain = await service.handle(
                    {"op": "explain", "run": "diff", "peer": peer}
                )
                offline = list(minimal_faithful_scenario(run, peer).indices)
                if explain["scenario"] != offline:
                    return f"explanation to peer {peer!r} diverged"
        finally:
            await service.aclose()
        return None

    detail = asyncio.run(drive())
    if detail is not None:
        return PairOutcome("service", False, detail)
    return PairOutcome("service", True)


def differential_check(
    program: WorkflowProgram,
    seed: int = 0,
    steps: int = 12,
    pairs: Sequence[str] = PAIRS,
    label: str = "fuzz",
) -> DifferentialReport:
    """Run *program* through the requested engine pairs.

    The seeded baseline run is generated once under the ambient query
    backend and shared by every pair; the ``backends`` pair replays it
    under both backends.
    """
    unknown = set(pairs) - set(PAIRS)
    if unknown:
        raise ValueError(f"unknown differential pairs: {sorted(unknown)}")
    run = RunGenerator(program, seed=seed).random_run(steps)
    outcomes: List[PairOutcome] = []
    for pair in pairs:
        if pair == "backends":
            outcomes.append(_check_backends(program, run, seed, steps))
        elif pair == "dataflow":
            outcomes.append(_check_dataflow(program, run))
        elif pair == "recovery":
            outcomes.append(_check_recovery(program, run))
        elif pair == "service":
            outcomes.append(_check_service(program, run))
    return DifferentialReport(
        seed=seed,
        steps=steps,
        events=len(run.events),
        outcomes=tuple(outcomes),
        label=label,
    )


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _mentioned_relations(rules: Sequence[object]) -> set:
    """Relation names any surviving rule's head or body touches."""
    mentioned = set()
    for rule in rules:
        for atom in rule.head:
            mentioned.add(atom.view.relation.name)
        for literal in rule.body.literals:
            view = getattr(literal, "view", None)
            if view is not None:
                mentioned.add(view.relation.name)
    return mentioned


def _rebuild(
    program: WorkflowProgram, rules: Sequence[object]
) -> Optional[WorkflowProgram]:
    """A program with *rules* and the schema pruned to what they mention."""
    schema = program.schema
    mentioned = _mentioned_relations(rules)
    keep_relations = [
        relation for relation in schema.schema.relations if relation.name in mentioned
    ]
    views = [
        view
        for peer in schema.peers
        for view in schema.views_of_peer(peer)
        if view.relation.name in mentioned
    ]
    peers = [peer for peer in schema.peers if any(v.peer == peer for v in views)]
    try:
        collaborative = CollaborativeSchema(Schema(keep_relations), peers, views)
        return WorkflowProgram(collaborative, list(rules))
    except Exception:
        return None


def shrink_program(
    program: WorkflowProgram,
    still_failing: Callable[[WorkflowProgram], bool],
    max_passes: int = 8,
) -> WorkflowProgram:
    """Greedily minimize *program* while *still_failing* stays true.

    Tries dropping one rule at a time (then pruning relations, views and
    peers no surviving rule mentions) until a pass removes nothing.  A
    predicate that *raises* on a candidate counts as still failing —
    crashing smaller is still smaller.
    """

    def fails(candidate: WorkflowProgram) -> bool:
        try:
            return bool(still_failing(candidate))
        except Exception:
            return True

    current = program
    for _ in range(max_passes):
        shrunk = False
        rules = list(current.rules)
        index = 0
        while index < len(rules):
            candidate_rules = rules[:index] + rules[index + 1 :]
            if not candidate_rules:
                index += 1
                continue
            candidate = _rebuild(current, candidate_rules)
            if candidate is not None and fails(candidate):
                rules = candidate_rules
                current = candidate
                shrunk = True
            else:
                index += 1
        if not shrunk:
            break
    return current


# ----------------------------------------------------------------------
# Command-line reproduction entry
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.fuzz",
        description="Re-run the cross-backend differential check for one seed.",
    )
    parser.add_argument("--seed", type=int, default=0, help="fuzz/run seed")
    parser.add_argument("--steps", type=int, default=12, help="events per run")
    parser.add_argument(
        "--family",
        default=None,
        help="check a family spec (e.g. ecommerce:items=4) instead of a fuzzed program",
    )
    parser.add_argument(
        "--pairs",
        default=",".join(PAIRS),
        help=f"comma-separated subset of {', '.join(PAIRS)}",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking when the check fails",
    )
    args = parser.parse_args(argv)

    pairs = tuple(p for p in args.pairs.split(",") if p)
    if args.family:
        from .families import make_family_program

        program, _ = make_family_program(args.family)
        label = args.family
    else:
        program = fuzz_program(args.seed)
        label = "fuzz"
    report = differential_check(
        program, seed=args.seed, steps=args.steps, pairs=pairs, label=label
    )
    print(report.summary())
    if report.ok:
        return 0
    if not args.no_shrink:
        failing_pairs = tuple(o.pair for o in report.failures)

        def still_failing(candidate: WorkflowProgram) -> bool:
            return not differential_check(
                candidate, seed=args.seed, steps=args.steps, pairs=failing_pairs
            ).ok

        minimal = shrink_program(program, still_failing)
        print("\nminimal failing program:\n")
        print(program_to_text(minimal))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
