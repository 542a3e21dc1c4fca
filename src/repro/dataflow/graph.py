"""The per-run dataflow graph: one delta stream in, every derived
artifact maintained.

Before this module each derived artifact re-derived the same
observations from the transition delta on its own: the view cache
re-observed every touched key per peer, each visibility question
observed them again, the applicable-event index a third
time per acting peer, and the provenance log walked the delta once
more.  :class:`DeltaGraph` performs the observation pass **once** per
transition — every touched key through every peer's view — and hands
the resulting :class:`DeltaEffect` to all consumers:

* subscribers registered with :meth:`DeltaGraph.subscribe` (the
  service's provenance recorder);
* the graph's own lazily-materialized per-peer view instances
  (:meth:`snapshot`), patched copy-on-write via
  :meth:`~repro.workflow.instance.Instance.replace_tuples` — the only
  materialized views a run keeps: the service's view reads and the
  applicable-event index both read them.

The graph derives no global state of its own: each push is handed the
engine's successor instance, which becomes :attr:`DeltaGraph.instance`.

Rule bodies are not maintained here: the applicable-event index
(:class:`~repro.workflow.eventindex.ApplicableEventIndex`) consumes each
effect, invalidates the rules whose views changed and re-runs their
compiled closures over :meth:`snapshot` — the system's one incremental
rule-maintenance path.  Nor are explanations: a hosted run advances its
explainers itself, after the push, with the provenance record its
subscriber wrote.

Per transition the cost is O(|delta| · #peers) plus O(|delta|) per
consumer and per materialized view — never O(|instance|).  The
differential suites in ``tests/dataflow/test_graph.py`` hold every
maintained artifact bit-identical to from-scratch recomputation after
each event.
"""

from __future__ import annotations

from time import perf_counter_ns
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Tuple as PyTuple,
)

from ..workflow.evalstats import EVAL_STATS
from ..workflow.instance import Instance
from ..workflow.views import CollaborativeSchema
from .delta import Delta

__all__ = ["DeltaEffect", "DeltaGraph"]


class DeltaEffect:
    """One transition's delta, observed through every peer's views.

    The fused result of a :meth:`DeltaGraph.push`: the raw
    :class:`~repro.dataflow.delta.Delta` plus, per peer, the touched
    keys as that peer saw them before and after.  Exposes the same
    ``changes`` / ``touched()`` / ``filled()`` surface as ``Delta`` (it
    is accepted anywhere a delta is), so consumers read the precomputed
    observations instead of re-deriving them.
    """

    __slots__ = ("delta", "observed", "changed", "changed_peers", "context")

    def __init__(
        self,
        delta: Delta,
        observed: Dict[str, Dict[str, Dict[object, PyTuple]]],
        changed: Dict[str, FrozenSet[str]],
        changed_peers: PyTuple[str, ...],
        context: Dict[str, object],
    ) -> None:
        self.delta = delta
        #: peer -> view name -> key -> (seen before, seen after); covers
        #: every peer the graph tracks that has a view of a touched
        #: relation, whether or not anything it sees changed.
        self.observed = observed
        #: peer -> the view names whose content actually changed.
        self.changed = changed
        #: Peers whose view changed, in the graph's peer order.
        self.changed_peers = changed_peers
        #: Keyword context given to push() (seq, event, span id, ...).
        self.context = context

    # -- the Delta surface, delegated ----------------------------------

    @property
    def changes(self):
        return self.delta.changes

    @property
    def chase_merged(self) -> bool:
        return self.delta.chase_merged

    def is_empty(self) -> bool:
        return self.delta.is_empty()

    def touched(self) -> PyTuple[PyTuple[str, object, str], ...]:
        return self.delta.touched()

    def filled(self) -> PyTuple[PyTuple[str, object, str], ...]:
        return self.delta.filled()

    # -- the per-peer observations -------------------------------------

    def changed_views(self, peer: str) -> FrozenSet[str]:
        """The view names whose content changed for *peer*."""
        return self.changed.get(peer, frozenset())

    def visible_to(self, peer: str) -> bool:
        """True iff the transition changed *peer*'s view."""
        if peer in self.observed:
            return bool(self.changed.get(peer))
        raise KeyError(f"peer {peer!r} is not tracked by this graph")


class DeltaGraph:
    """One run's incremental dataflow: push deltas, read derived state.

    Construct with the run's collaborative schema and its current global
    instance; thereafter feed every transition's
    :class:`~repro.dataflow.delta.Delta` and successor instance through
    :meth:`push`.  The graph patches any materialized per-peer view
    instances in O(|delta|) per push and notifies subscribers with the
    fused :class:`DeltaEffect`.
    """

    __slots__ = (
        "schema",
        "peers",
        "instance",
        "pushes",
        "_subscribers",
        "_views",
        "_serial",
    )

    def __init__(
        self,
        schema: CollaborativeSchema,
        instance: Instance,
        peers: Optional[Iterable[str]] = None,
    ) -> None:
        self.schema = schema
        self.peers: PyTuple[str, ...] = (
            tuple(peers) if peers is not None else tuple(schema.peers)
        )
        #: The current global instance: the successor of the last push.
        self.instance = instance
        self.pushes = 0
        self._subscribers: "Dict[str, Callable[[DeltaEffect], object]]" = {}
        #: Materialized per-peer view instances, created on first
        #: snapshot() and patched per push.
        self._views: Dict[str, Instance] = {}
        self._serial = 0

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------

    def subscribe(
        self,
        subscriber: "Callable[[DeltaEffect], object]",
        name: Optional[str] = None,
    ) -> str:
        """Register *subscriber* to receive every pushed effect.

        Subscribers are called synchronously, in subscription order,
        after the graph's own state (instance, views) has advanced.
        Returns the subscription name for :meth:`unsubscribe`.
        """
        if name is None:
            self._serial += 1
            name = f"subscriber-{self._serial}"
        self._subscribers[name] = subscriber
        return name

    def unsubscribe(self, name: str) -> bool:
        """Drop a subscription; True when it existed."""
        return self._subscribers.pop(name, None) is not None

    # ------------------------------------------------------------------
    # Pushing deltas
    # ------------------------------------------------------------------

    def push(self, delta: Delta, successor: Instance, **context: object) -> DeltaEffect:
        """Advance every derived artifact past one transition.

        *delta* is the transition from :attr:`instance` to *successor*
        (the engine returns both).  Computes the fused observation pass,
        adopts *successor* as the global instance, patches the
        materialized views whose content changed, then notifies
        subscribers.  Keyword arguments become ``effect.context`` — the
        service passes ``seq``, ``event`` and ``span_id`` through to its
        provenance subscriber this way.
        """
        started = perf_counter_ns()
        effect = self._observe(delta, context)
        self.instance = successor
        views = self._views
        for peer, view_instance in views.items():
            changed = effect.changed.get(peer)
            if not changed:
                continue
            observed = effect.observed[peer]
            for view_name in changed:
                view_instance = view_instance.replace_tuples(
                    view_name,
                    {key: after for key, (_, after) in observed[view_name].items()},
                )
            views[peer] = view_instance
        for subscriber in list(self._subscribers.values()):
            subscriber(effect)
        self.pushes += 1
        EVAL_STATS.dataflow_pushes += 1
        EVAL_STATS.dataflow_ns += perf_counter_ns() - started
        return effect

    def _observe(self, delta: Delta, context: Dict[str, object]) -> DeltaEffect:
        """The fused pass: every touched key through every peer's view."""
        schema = self.schema
        observed: Dict[str, Dict[str, Dict[object, PyTuple]]] = {
            peer: {} for peer in self.peers
        }
        changed: Dict[str, set] = {}
        for relation, keys in delta.changes.items():
            for peer in self.peers:
                view = schema.view(relation, peer)
                if view is None:
                    continue
                out = observed[peer].setdefault(view.name, {})
                for key, (before, after) in keys.items():
                    seen_before = view.observe(before) if before is not None else None
                    seen_after = view.observe(after) if after is not None else None
                    out[key] = (seen_before, seen_after)
                    if seen_before != seen_after:
                        changed.setdefault(peer, set()).add(view.name)
        return DeltaEffect(
            delta,
            observed,
            {peer: frozenset(views) for peer, views in changed.items()},
            tuple(peer for peer in self.peers if peer in changed),
            context,
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def snapshot(self, peer: Optional[str] = None) -> Instance:
        """The maintained instance: global, or ``I@p`` for *peer*.

        A peer's view instance is materialized (O(|I|)) on first read
        and patched in O(|delta|) on every later push.
        """
        if peer is None:
            return self.instance
        view_instance = self._views.get(peer)
        if view_instance is None:
            if peer not in self.peers:
                raise KeyError(f"peer {peer!r} is not tracked by this graph")
            view_instance = self.schema.view_instance(self.instance, peer)
            self._views[peer] = view_instance
        return view_instance

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------

    def fork(self) -> "DeltaGraph":
        """A subscriber-less copy at this graph's state.

        For branching searches: the copy shares the (immutable) global
        and view instances copy-on-write, so pushing to one leaves the
        other untouched.  Subscribers are *not* carried over — they hold
        mutable state owned by this graph's consumers.
        """
        clone = object.__new__(type(self))
        clone.schema = self.schema
        clone.peers = self.peers
        clone.instance = self.instance
        clone.pushes = self.pushes
        clone._subscribers = {}
        clone._views = dict(self._views)
        clone._serial = 0
        return clone

    def advanced(self, delta: Delta, successor: Instance) -> "DeltaGraph":
        """A :meth:`fork` pushed past *delta*; this graph is untouched."""
        clone = self.fork()
        clone.push(delta, successor)
        return clone

    def stats(self) -> Dict[str, object]:
        return {
            "pushes": self.pushes,
            "peers": len(self.peers),
            "materialized_views": sorted(self._views),
            "subscribers": sorted(self._subscribers),
        }

    def __repr__(self) -> str:
        return (
            f"DeltaGraph(peers={len(self.peers)}, pushes={self.pushes}, "
            f"views={sorted(self._views)})"
        )
