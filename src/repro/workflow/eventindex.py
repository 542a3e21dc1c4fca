"""Incremental maintenance of the applicable-event set.

:func:`~repro.workflow.enumerate.applicable_events` re-evaluates every
rule body over a freshly computed peer view after every event — an
O(|program| · |I|) recomputation per step even when the event touched
one tuple.  :class:`ApplicableEventIndex` makes the per-step cost
proportional to the *delta*:

* a **dependency map** relates each view relation to the rules whose
  bodies read it;
* the index keeps **no views of its own**: it reads the peers' view
  instances from a :class:`~repro.dataflow.graph.DeltaGraph`
  (:meth:`~repro.dataflow.graph.DeltaGraph.snapshot`) — a hosted run's
  own graph, whose views the service's reads share, or a private graph
  over the acting peers in standalone searches;
* each rule's **body valuations are cached** and invalidated only when
  the graph's :class:`~repro.dataflow.graph.DeltaEffect` reports that
  the delta changed the peer's view of a relation the body reads —
  rules untouched by the delta are served from cache.

* each body valuation's **update-check outcome is cached** too, and a
  rule's outcomes are dropped when a delta touches one of the relations
  its head updates (or its valuations are re-evaluated).  An update
  check reads only the tuples at the event's keys in those relations,
  and a minted value matters only through being fresh, so any fresh
  value gives the same outcome.

Head-only variables are *not* cached: they are minted at
:meth:`events` time exactly as the from-scratch enumeration does, for
every valuation whether or not its cached check passes.  The index
therefore yields the same events as ``applicable_events`` — the property
suite in ``tests/workflow/test_eventindex.py`` asserts equality modulo
the identity of freshly minted values.

Two advancement styles cover the two search shapes:

* :meth:`advance` mutates the index in place — for linear runs (the
  run generator, the hosted service runs);
* :meth:`advanced` returns a derived index and leaves this one intact —
  for branching searches (state-space exploration), sharing the cached
  valuation lists and check outcomes and, through a forked private
  graph, the persistent view instances with the parent.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from ..dataflow.delta import Delta
from ..dataflow.graph import DeltaEffect, DeltaGraph
from .domain import FreshValueSource
from .engine import event_applicable
from .evalstats import EVAL_STATS
from .events import Event
from .instance import Instance
from .program import WorkflowProgram
from .rules import Rule

__all__ = ["ApplicableEventIndex", "head_only_assignments"]


def head_only_assignments(
    head_only: Sequence,
    fresh_source: FreshValueSource,
    head_only_values: Optional[Sequence[object]],
) -> Iterator[PyTuple[object, ...]]:
    """Assignments for head-only variables.

    Without *head_only_values* each variable gets one globally fresh
    value; with it, variables range over the pool plus one fresh value
    each (Definition 5.5 applicability, where freshness is a run-level
    condition and is not imposed here).
    """
    if not head_only:
        yield ()
        return
    if head_only_values is None:
        yield tuple(fresh_source.fresh() for _ in head_only)
        return
    pool = list(head_only_values) + [fresh_source.fresh() for _ in head_only]
    yield from itertools.product(pool, repeat=len(head_only))


class ApplicableEventIndex:
    """Delta-maintained applicable events of a program.

    >>> # index = ApplicableEventIndex(program, instance)
    >>> # events = list(index.events(fresh_source))
    >>> # successor, delta = apply_event_with_delta(schema, instance, e, None)
    >>> # index.advance(delta, successor)

    Without *graph* the index owns a private
    :class:`~repro.dataflow.graph.DeltaGraph` over the acting peers and
    pushes each advanced delta through it.  With *graph* (whose current
    instance must be *instance*) the graph's owner pushes every
    transition and hands :meth:`advance` the push's
    :class:`~repro.dataflow.graph.DeltaEffect`; the index then reads the
    very view instances the owner's other readers see.
    """

    def __init__(
        self,
        program: WorkflowProgram,
        instance: Instance,
        graph: Optional[DeltaGraph] = None,
    ) -> None:
        self.program = program
        self.schema = program.schema
        self.rules: PyTuple[Rule, ...] = tuple(program.rules)
        self._peers: PyTuple[str, ...] = tuple(rule.peer for rule in self.rules)
        # Per peer: one past its last rule, where a per-peer answer stops.
        self._ends: Dict[str, int] = {
            peer: i + 1 for i, peer in enumerate(self._peers)
        }
        self._owns_graph = graph is None
        if graph is None:
            acting = dict.fromkeys(rule.peer for rule in self.rules)
            graph = DeltaGraph(self.schema, instance, peers=acting)
            # Materialize every acting peer's view up front: a branch
            # forked while events() is still enumerating then shares the
            # views of rules not yet evaluated instead of rebuilding them.
            for peer in acting:
                graph.snapshot(peer)
        elif graph.instance is not instance:
            raise ValueError("the graph is not at the index's instance")
        self.graph = graph
        # Per rule: the view-relation names its body reads (the literals
        # of a rule all query the rule's own peer, so view names are the
        # right invalidation granularity — a delta invisible to the peer
        # cannot change the body's value).
        self._body_views: PyTuple[FrozenSet[str], ...] = tuple(
            frozenset(
                literal.view.name
                for literal in rule.body.literals
                if getattr(literal, "view", None) is not None
            )
            for rule in self.rules
        )
        # Per rule: the relations its head updates, the only ones an
        # update check of its events reads.
        self._head_relations: PyTuple[FrozenSet[str], ...] = tuple(
            frozenset(atom.view.relation.name for atom in rule.head)
            for rule in self.rules
        )
        # Cached body valuations per rule; None marks a stale entry that
        # the next events() call re-evaluates lazily.  The lists are
        # never mutated once built, so derived indexes share them.
        self._valuations: List[Optional[List[Dict]]] = [None] * len(self.rules)
        # Per rule: the update-check outcome of each cached valuation, by
        # position in the valuation list — False, True, or for a rule
        # without head-only variables its applicable event itself — and
        # None when dropped.  A derived index (advanced()) shares these
        # dicts with its parent until a delta touches the rule's head
        # relations or body views, so every index holding a dict is at
        # the head-relation state the dict was built at, and an outcome
        # any of them adds is valid for all.
        self._checks: List[Optional[Dict[int, object]]] = [None] * len(self.rules)
        # Label the plans with rule names so --profile-queries reads well.
        from . import planner

        for rule in self.rules:
            planner.label_query(rule.body, f"{rule.name}@{rule.peer}")

    @property
    def instance(self) -> Instance:
        """The current global instance (the graph's)."""
        return self.graph.instance

    # ------------------------------------------------------------------
    # Advancement
    # ------------------------------------------------------------------

    def advance(self, delta: Delta, successor: Instance) -> None:
        """Move the index past one applied event, in place.

        *delta* is the :class:`~repro.dataflow.delta.Delta` of the
        transition from the index's current instance to *successor* (as
        returned by :func:`~repro.workflow.engine.apply_event_with_delta`)
        when the index owns its graph, and the
        :class:`~repro.dataflow.graph.DeltaEffect` of the owner's push of
        that transition otherwise.  Cost is O(|delta| · #peers + #stale
        rules), independent of |I| and of the rules the delta does not
        touch.
        """
        self._advance(((delta, successor),))

    def advance_many(
        self, steps: Iterable[PyTuple[Delta, Instance]]
    ) -> None:
        """Move the index past a batch of applied events, in place.

        *steps* holds the ``(delta, successor)`` of each transition in
        application order, each delta as :meth:`advance` takes it.  The
        stale-rule invalidation sweep runs once over the union of
        changed view names instead of once per event.  Invalidation is
        monotone (entries only go stale), so the resulting cache state
        equals a sequential :meth:`advance` fold exactly.
        """
        self._advance(steps)

    def _advance(self, steps: Iterable[PyTuple[Delta, Instance]]) -> None:
        changed: Set[str] = set()
        touched: Set[str] = set()
        for delta, successor in steps:
            EVAL_STATS.event_index_advances += 1
            effect: DeltaEffect = (
                self.graph.push(delta, successor) if self._owns_graph else delta
            )
            for views in effect.changed.values():
                changed |= views
            touched.update(effect.changes)
        if changed:
            for i, body_views in enumerate(self._body_views):
                if self._valuations[i] is not None and body_views & changed:
                    self._valuations[i] = None
        if touched:
            for i, head_relations in enumerate(self._head_relations):
                if self._checks[i] is not None and not head_relations.isdisjoint(touched):
                    self._checks[i] = None

    def advanced(self, delta: Delta, successor: Instance) -> "ApplicableEventIndex":
        """A derived index past one applied event; this one is untouched.

        The derived index owns a fork of this index's graph (sharing its
        persistent view instances) and shares the cached valuation lists
        and check outcomes with the parent — the per-branch cost is the
        same O(|delta|) push as :meth:`advance` plus a few small list and
        dict copies.  *delta* is the plain transition delta.
        """
        clone = object.__new__(type(self))
        clone.program = self.program
        clone.schema = self.schema
        clone.rules = self.rules
        clone._peers = self._peers
        clone._ends = self._ends
        clone.graph = self.graph.fork()
        clone._owns_graph = True
        clone._body_views = self._body_views
        clone._head_relations = self._head_relations
        clone._valuations = list(self._valuations)
        clone._checks = list(self._checks)
        clone.advance(delta, successor)
        return clone

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def body_valuations(self, index: int) -> List[Dict]:
        """Rule *index*'s cached body valuations, re-evaluated if stale."""
        valuations = self._valuations[index]
        if valuations is None:
            EVAL_STATS.event_index_rules_reevaluated += 1
            rule = self.rules[index]
            valuations = list(rule.body.valuations(self.graph.snapshot(rule.peer)))
            self._valuations[index] = valuations
            self._checks[index] = None  # outcomes of the old list's positions
        else:
            EVAL_STATS.event_index_rules_skipped += 1
        return valuations

    def events(
        self,
        fresh_source: Optional[FreshValueSource] = None,
        used_values: Optional[Set[object]] = None,
        head_only_values: Optional[Sequence[object]] = None,
        peer: Optional[str] = None,
    ) -> Iterator[Event]:
        """The events applicable at the current instance.

        Same contract as
        :func:`~repro.workflow.enumerate.applicable_events`: rules in
        declaration order, head-only variables minted from
        *fresh_source* (or ranging over *head_only_values*), and every
        event checked for update applicability against the current
        global instance — a check made once per body valuation and
        cached until a delta touches the rule's head relations.  The
        cache assumes minted values are fresh for the current instance,
        as the default source's are; with *head_only_values* it is
        bypassed.

        With *peer*, exactly *peer*'s subsequence of that enumeration,
        fresh values included: another peer's rule builds and checks no
        event, but a rule with head-only variables still mints (and
        discards) the fresh values the full enumeration would mint for
        it, so the asking peer's values are numbered identically.  A
        rule without head-only variables is skipped unevaluated, and no
        rule after *peer*'s last one is visited.
        """
        schema = self.schema
        instance = self.instance
        if fresh_source is None:
            fresh_source = FreshValueSource()
            fresh_source.observe(self.program.constants())
            fresh_source.observe(instance.active_domain())
            if used_values:
                fresh_source.observe(used_values)
        end = len(self.rules) if peer is None else self._ends.get(peer, 0)
        for i, rule in enumerate(self.rules[:end]):
            head_only = rule.sorted_head_only_variables
            if peer is not None and self._peers[i] != peer:
                if head_only:
                    # Each valuation's first assignment mints one value
                    # per head-only variable, with or without a pool.
                    for _ in range(len(self.body_valuations(i)) * len(head_only)):
                        fresh_source.fresh()
                continue
            valuations = self.body_valuations(i)
            checks = None
            if not (head_only and head_only_values is not None):
                checks = self._checks[i]
                if checks is None:
                    checks = self._checks[i] = {}
            for j, valuation in enumerate(valuations):
                for head_values in head_only_assignments(
                    head_only, fresh_source, head_only_values
                ):
                    outcome = None if checks is None else checks.get(j)
                    if outcome is False:
                        continue
                    if isinstance(outcome, Event):  # a rule that mints nothing
                        yield outcome
                        continue
                    full = dict(valuation)
                    full.update(zip(head_only, head_values))
                    event = Event(rule, full)
                    if outcome is None:
                        applicable = event_applicable(
                            schema, instance, event, check_body=False
                        )
                        if checks is not None:
                            checks[j] = applicable and (True if head_only else event)
                        if not applicable:
                            continue
                    yield event
