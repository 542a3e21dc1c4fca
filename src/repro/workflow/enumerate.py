"""Enumeration of applicable events and generation of runs.

These helpers drive the model: they enumerate, for a program and a
global instance, the events (rule instantiations) that can fire, and use
that to produce random runs (for workloads and tests) and exhaustive run
spaces (for the bounded decision procedures of Section 5).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from ..obs.metrics import METRICS
from ..obs.trace import span
from .domain import FreshValueSource
from .engine import apply_event, apply_event_with_delta, event_applicable
from .errors import EventError
from .eventindex import ApplicableEventIndex, head_only_assignments
from .events import Event
from .instance import Instance
from .program import WorkflowProgram
from .rules import Rule
from .runs import Run, execute

_ENUM_SCANS = METRICS.counter(
    "repro_enumerate_scans_total", "Applicable-event enumeration passes"
)
_ENUM_CANDIDATES = METRICS.counter(
    "repro_enumerate_candidates_total", "Applicable events yielded by enumeration"
)


def applicable_events(
    program: WorkflowProgram,
    instance: Instance,
    fresh_source: Optional[FreshValueSource] = None,
    used_values: Optional[Set[object]] = None,
    rules: Optional[Sequence[Rule]] = None,
    peers: Optional[Iterable[str]] = None,
    head_only_values: Optional[Sequence[object]] = None,
) -> Iterator[Event]:
    """Enumerate the events applicable at *instance*.

    For each rule, the body is evaluated over the acting peer's view;
    head-only variables are instantiated with fresh values minted from
    *fresh_source* (a shared default source if omitted).  Events whose
    updates are not all applicable are skipped.

    When *head_only_values* is given, head-only variables instead range
    over every combination of those values (plus one fresh value each).
    This implements event *applicability* in the sense of Definition 5.5,
    where freshness — a run-level condition — is not imposed.
    """
    _ENUM_SCANS.inc()
    schema = program.schema
    if fresh_source is None:
        fresh_source = FreshValueSource()
        fresh_source.observe(program.constants())
        fresh_source.observe(instance.active_domain())
        if used_values:
            fresh_source.observe(used_values)
    peer_filter = set(peers) if peers is not None else None
    candidate_rules = rules if rules is not None else program.rules
    view_cache: Dict[str, Instance] = {}
    for rule in candidate_rules:
        if peer_filter is not None and rule.peer not in peer_filter:
            continue
        if rule.peer not in view_cache:
            view_cache[rule.peer] = schema.view_instance(instance, rule.peer)
        view_instance = view_cache[rule.peer]
        head_only = rule.sorted_head_only_variables
        for valuation in rule.body.valuations(view_instance):
            for head_values in head_only_assignments(
                head_only, fresh_source, head_only_values
            ):
                full = dict(valuation)
                full.update(zip(head_only, head_values))
                event = Event(rule, full)
                if not event_applicable(schema, instance, event, check_body=False):
                    continue
                _ENUM_CANDIDATES.inc()
                yield event


# Shared with the incremental index; re-exported for compatibility.
_head_only_assignments = head_only_assignments


class RunGenerator:
    """Random generation of runs of a program.

    >>> # gen = RunGenerator(program, seed=0)
    >>> # run = gen.random_run(steps=20)
    """

    def __init__(
        self,
        program: WorkflowProgram,
        seed: Optional[int] = None,
        use_event_index: bool = True,
    ) -> None:
        self.program = program
        self.rng = random.Random(seed)
        self.use_event_index = use_event_index

    def random_run(
        self,
        steps: int,
        initial: Optional[Instance] = None,
        rule_weights: Optional[Dict[str, float]] = None,
        stop_when_stuck: bool = True,
    ) -> Run:
        """A random run of at most *steps* events.

        At each step an applicable event is chosen uniformly (or with
        per-rule *rule_weights*); generation stops early when no event is
        applicable and *stop_when_stuck* is set, and raises otherwise.

        By default candidates come from an incrementally maintained
        :class:`~repro.workflow.eventindex.ApplicableEventIndex` — only
        rules whose bodies the previous event's delta touched are
        re-evaluated per step.  The candidate sequence is identical to
        the from-scratch enumeration, so seeded generation is unaffected
        by the ``use_event_index`` switch.
        """
        schema = self.program.schema
        instance = initial if initial is not None else Instance.empty(schema.schema)
        # Each event adds only values this source minted (it never mints
        # one twice) or constants of the program, so the source stays
        # fresh without observing each successor instance.
        fresh = FreshValueSource()
        fresh.observe(self.program.constants())
        fresh.observe(instance.active_domain())
        index = (
            ApplicableEventIndex(self.program, instance)
            if self.use_event_index
            else None
        )
        events: List[Event] = []
        with span("random_run", steps=steps, indexed=index is not None) as trace:
            for _ in range(steps):
                if index is not None:
                    candidates = list(index.events(fresh))
                else:
                    candidates = list(applicable_events(self.program, instance, fresh))
                if not candidates:
                    if stop_when_stuck:
                        break
                    raise EventError("no applicable event (workflow is stuck)")
                if rule_weights:
                    weights = [rule_weights.get(e.rule.name, 1.0) for e in candidates]
                    event = self.rng.choices(candidates, weights=weights, k=1)[0]
                else:
                    event = self.rng.choice(candidates)
                if index is not None:
                    instance, delta = apply_event_with_delta(
                        schema, instance, event, forbidden_fresh=None, check_body=False
                    )
                    index.advance(delta, instance)
                else:
                    instance = apply_event(
                        schema, instance, event, forbidden_fresh=None, check_body=False
                    )
                events.append(event)
            trace.set("events", len(events))
        return execute(self.program, events, initial)


def enumerate_event_sequences(
    program: WorkflowProgram,
    max_depth: Optional[int] = None,
    initial: Optional[Instance] = None,
    prune: Optional[object] = None,
    fresh_start: int = 10_000,
) -> Iterator[PyTuple[PyTuple[Event, ...], Instance]]:
    """Depth-first enumeration of event sequences applicable from *initial*.

    Yields pairs ``(events, final_instance)`` for every applicable
    sequence of length 1..max_depth, including intermediate prefixes.
    Fresh values for head-only variables are minted canonically, which is
    sufficient up to isomorphism (Lemma A.2).  *prune*, if given, is a
    predicate ``prune(events, instance) -> bool``; sequences for which it
    returns True are not extended further (but are still yielded).
    """
    if max_depth is None:
        raise TypeError(
            "enumerate_event_sequences() missing required argument 'max_depth'"
        )
    schema = program.schema
    start = initial if initial is not None else Instance.empty(schema.schema)

    def recurse(
        prefix: PyTuple[Event, ...], instance: Instance, fresh_index: int
    ) -> Iterator[PyTuple[PyTuple[Event, ...], Instance]]:
        if len(prefix) >= max_depth:
            return
        source = FreshValueSource(start=fresh_index)
        source.observe(program.constants())
        source.observe(instance.active_domain())
        for event in applicable_events(program, instance, source):
            successor = apply_event(schema, instance, event, forbidden_fresh=None, check_body=False)
            extended = prefix + (event,)
            yield extended, successor
            if prune is not None and prune(extended, successor):
                continue
            yield from recurse(extended, successor, fresh_index + len(extended) * 16)

    yield from recurse((), start, fresh_start)
