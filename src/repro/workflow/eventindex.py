"""Incremental maintenance of the applicable-event set.

:func:`~repro.workflow.enumerate.applicable_events` re-evaluates every
rule body over a freshly computed peer view after every event — an
O(|program| · |I|) recomputation per step even when the event touched
one tuple.  :class:`ApplicableEventIndex` makes the per-step cost
proportional to the *delta*:

* a **dependency map** relates each view relation to the rules whose
  bodies read it;
* the acting peers' **view instances are maintained incrementally**
  from the :class:`~repro.dataflow.delta.Delta` of each applied event
  (one O(|delta|) patch instead of an O(|I|) view computation); when the
  caller routes events through a
  :class:`~repro.dataflow.graph.DeltaGraph` and passes its
  :class:`~repro.dataflow.graph.DeltaEffect`, the patch reuses the
  graph's already-observed per-view keys instead of re-observing them;
* each rule's **body valuations are cached** and invalidated only when
  the delta actually changed the peer's view of a relation the body
  reads — rules untouched by the delta are served from cache.

Head-only variables are *not* cached: they are minted at
:meth:`events` time exactly as the from-scratch enumeration does, and
every candidate event is re-checked for update applicability against
the current global instance (update applicability depends on head
relations, which the cache deliberately ignores).  The index therefore
yields the same events as ``applicable_events`` — the property suite in
``tests/workflow/test_eventindex.py`` asserts equality modulo the
identity of freshly minted values.

Two advancement styles cover the two search shapes:

* :meth:`advance` mutates the index in place — for linear runs (the
  run generator, the hosted service runs);
* :meth:`advanced` returns a derived index and leaves this one intact —
  for branching searches (state-space exploration), sharing the cached
  valuation lists and the persistent view instances with the parent.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple as PyTuple

from ..dataflow.delta import Delta
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
    """

    def __init__(
        self,
        program: WorkflowProgram,
        instance: Instance,
        rules: Optional[Sequence[Rule]] = None,
        peers: Optional[Iterable[str]] = None,
    ) -> None:
        self.program = program
        self.schema = program.schema
        self.instance = instance
        peer_filter = set(peers) if peers is not None else None
        candidates = rules if rules is not None else program.rules
        self.rules: PyTuple[Rule, ...] = tuple(
            rule
            for rule in candidates
            if peer_filter is None or rule.peer in peer_filter
        )
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
        # Maintained view instances for every acting peer (computed once
        # here, then patched per delta).
        self._views: Dict[str, Instance] = {
            peer: self.schema.view_instance(instance, peer)
            for peer in {rule.peer for rule in self.rules}
        }
        # Cached body valuations per rule; None marks a stale entry that
        # the next events() call re-evaluates lazily.  The lists are
        # never mutated once built, so derived indexes share them.
        self._valuations: List[Optional[List[Dict]]] = [None] * len(self.rules)
        # Label the plans with rule names so --profile-queries reads well.
        from . import planner

        for rule in self.rules:
            planner.label_query(rule.body, f"{rule.name}@{rule.peer}")

    # ------------------------------------------------------------------
    # Advancement
    # ------------------------------------------------------------------

    def _refresh(self, peer: str, delta: Delta) -> Instance:
        """*peer*'s maintained view patched past *delta*, in O(|delta|).

        Accepts a plain :class:`~repro.dataflow.delta.Delta` (the
        touched keys are re-observed through the peer's views) or a
        :class:`~repro.dataflow.graph.DeltaEffect` whose fused
        observation pass already computed them (graph-driven callers
        skip the re-observation).  Either way the patch is identity on a
        no-op, so ``result is old`` stays the visibility test.
        """
        old = self._views[peer]
        observed_for = getattr(delta, "observed_for", None)
        if observed_for is not None:
            observed = observed_for(peer)
            if observed is not None:
                result = old
                for view_name, keys in observed.items():
                    result = result.replace_tuples(
                        view_name,
                        {key: after for key, (_, after) in keys.items()},
                    )
                return result
        return delta.refresh_view(self.schema, peer, old)

    def advance(self, delta: Delta, successor: Instance) -> None:
        """Move the index past one applied event, in place.

        *delta* must be the :class:`~repro.dataflow.delta.Delta` of the
        transition from the index's current instance to *successor* (as
        returned by :func:`~repro.workflow.engine.apply_event_with_delta`)
        or the :class:`~repro.dataflow.graph.DeltaEffect` of the
        corresponding graph push.  Cost is O(|delta| · #views + #stale
        rules), independent of |I| and of the rules the delta does not
        touch.
        """
        EVAL_STATS.event_index_advances += 1
        self.instance = successor
        changed: Set[str] = set()
        for peer in self._views:
            refreshed = self._refresh(peer, delta)
            if refreshed is not self._views[peer]:
                for relation in delta.changes:
                    view = self.schema.view(relation, peer)
                    if view is not None:
                        changed.add(view.name)
                self._views[peer] = refreshed
        if changed:
            for i, body_views in enumerate(self._body_views):
                if self._valuations[i] is not None and body_views & changed:
                    self._valuations[i] = None

    def advance_many(
        self, steps: Iterable[PyTuple[Delta, Instance]]
    ) -> None:
        """Move the index past a batch of applied events, in place.

        *steps* holds the ``(delta, successor)`` of each transition in
        application order.  The view instances are patched once per
        delta (they must be — each patch reads the previous view), but
        the stale-rule invalidation sweep runs once over the union of
        changed view names instead of once per event.  Invalidation is
        monotone (entries only go stale), so the resulting cache state
        equals a sequential :meth:`advance` fold exactly.
        """
        changed: Set[str] = set()
        for delta, successor in steps:
            EVAL_STATS.event_index_advances += 1
            self.instance = successor
            for peer in self._views:
                refreshed = self._refresh(peer, delta)
                if refreshed is not self._views[peer]:
                    for relation in delta.changes:
                        view = self.schema.view(relation, peer)
                        if view is not None:
                            changed.add(view.name)
                    self._views[peer] = refreshed
        if changed:
            for i, body_views in enumerate(self._body_views):
                if self._valuations[i] is not None and body_views & changed:
                    self._valuations[i] = None

    def advanced(self, delta: Delta, successor: Instance) -> "ApplicableEventIndex":
        """A derived index past one applied event; this one is untouched.

        Shares the cached valuation lists and the persistent view
        instances with the parent — the per-branch cost is the same
        O(|delta|) patch as :meth:`advance` plus two small dict copies.
        """
        clone = object.__new__(type(self))
        clone.program = self.program
        clone.schema = self.schema
        clone.instance = self.instance
        clone.rules = self.rules
        clone._body_views = self._body_views
        clone._views = dict(self._views)
        clone._valuations = list(self._valuations)
        clone.advance(delta, successor)
        return clone

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def view_of(self, peer: str) -> Instance:
        """The maintained view instance ``I@p`` (computed if unknown)."""
        view = self._views.get(peer)
        if view is None:
            view = self.schema.view_instance(self.instance, peer)
            self._views[peer] = view
        return view

    def body_valuations(self, index: int) -> List[Dict]:
        """Rule *index*'s cached body valuations, re-evaluated if stale."""
        valuations = self._valuations[index]
        if valuations is None:
            EVAL_STATS.event_index_rules_reevaluated += 1
            rule = self.rules[index]
            valuations = list(rule.body.valuations(self.view_of(rule.peer)))
            self._valuations[index] = valuations
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
        global instance.

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
        end = len(self.rules)
        if peer is not None:
            end = max(
                (i + 1 for i, rule in enumerate(self.rules) if rule.peer == peer),
                default=0,
            )
        for i, rule in enumerate(self.rules[:end]):
            head_only = rule.sorted_head_only_variables
            if peer is not None and rule.peer != peer:
                if head_only:
                    for _ in self.body_valuations(i):
                        next(head_only_assignments(
                            head_only, fresh_source, head_only_values
                        ))
                continue
            for valuation in self.body_valuations(i):
                for head_values in head_only_assignments(
                    head_only, fresh_source, head_only_values
                ):
                    full = dict(valuation)
                    full.update(zip(head_only, head_values))
                    event = Event(rule, full)
                    if event_applicable(schema, instance, event, check_body=False):
                        yield event
