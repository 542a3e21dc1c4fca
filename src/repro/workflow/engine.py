"""Transition semantics: applying events to global instances.

The semantics of an update requested by a peer is specified directly on
the global instance (Section 2), which circumvents the view update
problem:

* a deletion ``−Key_R@p(k)`` is applicable when ``k`` is a key value in
  ``I@p(R@p)`` (the peer sees the tuple); it removes the tuple with key
  ``k`` from ``I(R)``;
* an insertion ``+R@p(u)`` is applicable when
  ``J = chase_K(I ∪ {R(u^⊥)})`` is valid and ``u`` is subsumed by some
  tuple of ``J@p(R@p)`` (the peer sees its insertion afterwards); the
  result is ``J``.

An event fires when its body holds on the peer's view, its head-only
variables are globally fresh, and *all* of its updates are applicable;
the updates (which touch pairwise distinct tuples) are then applied in
any order.

Every one of these checks is a keyed read: the body through
:meth:`~repro.workflow.views.CollaborativeSchema.view_probe` (one
lookup per literal, never a materialized ``I@p``), each update at its
own key.  Applying an event therefore costs O(#body literals +
#updates) plus one copy of each touched relation's row map for the
successor.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, List, Optional, Set, Tuple as PyTuple

from ..dataflow.delta import Delta
from ..obs.metrics import METRICS
from ..obs.trace import span
from ..runtime.budget import ambient_checkpoint
from .domain import is_null
from .errors import ChaseFailure, EventError, FreshnessViolation, UpdateNotApplicable
from .events import Event
from .instance import Instance
from .rules import Deletion, Insertion
from .tuples import Tuple
from .views import CollaborativeSchema

#: Engine metrics, their unlabelled children bound once at import so the
#: hot path pays one method call per tick, not a ``labels()`` lookup (see
#: docs/OBSERVABILITY.md for the full catalogue).
_EVENTS_APPLIED = METRICS.counter(
    "repro_engine_events_applied_total", "Events successfully applied"
).labels()
_EVENT_REJECTIONS = METRICS.counter(
    "repro_engine_event_rejections_total",
    "Event applications rejected (body/freshness/update violations)",
    labelnames=("error",),
)
_DELTA_KEYS = METRICS.histogram(
    "repro_engine_delta_keys",
    "Keys touched per transition delta",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
).labels()


def _view_tuple(insertion: Insertion) -> Tuple:
    """The ground insertion's tuple ``u`` over ``att(R@p)``."""
    values = tuple(term.value for term in insertion.terms)  # ground: Const terms
    return Tuple(insertion.view.attributes, values)


def _chase_into(relation: str, existing: Optional[Tuple], tup: Tuple) -> Tuple:
    """The tuple the key chase leaves when *tup* meets *existing* at its key."""
    if existing is None:
        return tup
    try:
        return existing.merge(tup)
    except ValueError as exc:
        raise ChaseFailure(f"insert into {relation}: {exc}") from exc


def _inserted_tuple(instance: Instance, insertion: Insertion) -> Tuple:
    """The tuple a ground insertion leaves at its key, or raise
    :class:`UpdateNotApplicable`.

    ``J = chase_K(I ∪ {R(u^⊥)})`` differs from ``I`` at most at ``u``'s
    key, so applicability is decided on that one tuple.
    """
    view = insertion.view
    u = _view_tuple(insertion)
    if is_null(u.key):
        raise UpdateNotApplicable(f"insertion {insertion!r} has a null key")
    relation = view.relation.name
    try:
        merged = _chase_into(
            relation,
            instance.tuple_with_key(relation, u.key),
            u.pad(view.relation.attributes),
        )
    except ChaseFailure as exc:
        raise UpdateNotApplicable(f"insertion {insertion!r}: chase failed ({exc})") from exc
    observed = view.observe(merged)
    if observed is None or not u.subsumed_by(observed):
        raise UpdateNotApplicable(
            f"insertion {insertion!r}: inserted tuple is not subsumed by the "
            f"peer's view after the update"
        )
    return merged


def _check_deletion(instance: Instance, deletion: Deletion) -> None:
    """Raise :class:`UpdateNotApplicable` unless the peer sees the key."""
    view = deletion.view
    key = deletion.term.value  # ground: Const term
    tup = instance.tuple_with_key(view.relation.name, key)
    if tup is None or not view.sees_tuple(tup):
        raise UpdateNotApplicable(
            f"deletion {deletion!r}: peer {view.peer} sees no tuple with key {key!r}"
        )


def insertion_result(
    schema: CollaborativeSchema, instance: Instance, insertion: Insertion
) -> Instance:
    """The result of a ground insertion, or raise :class:`UpdateNotApplicable`."""
    merged = _inserted_tuple(instance, insertion)
    return instance.replace_tuples(insertion.view.relation.name, {merged.key: merged})


def deletion_result(
    schema: CollaborativeSchema, instance: Instance, deletion: Deletion
) -> Instance:
    """The result of a ground deletion, or raise :class:`UpdateNotApplicable`."""
    _check_deletion(instance, deletion)
    return instance.delete(deletion.view.relation.name, deletion.term.value)


def apply_event(
    schema: CollaborativeSchema,
    instance: Instance,
    event: Event,
    forbidden_fresh: Optional[AbstractSet[object]] = None,
    check_body: bool = True,
) -> Instance:
    """Fire *event* at *instance* and return the successor instance.

    Checks, in order: the body holds on the acting peer's view; head-only
    variables carry pairwise-distinct values outside *forbidden_fresh*
    (pass None to skip the freshness check; the set is only read); every
    update is applicable.
    Raises a :class:`~repro.workflow.errors.EventError` subclass on any
    violation.
    """
    # Event application is the unit of work every search loop performs,
    # so one ambient-budget poll here bounds any library entry point
    # wrapped in repro.runtime.budget.use_budget.
    ambient_checkpoint()
    with span("apply_event", rule=event.rule.name, peer=event.peer):
        try:
            result = _apply_event(
                schema, instance, event, forbidden_fresh, check_body
            )
        except EventError as exc:
            _EVENT_REJECTIONS.labels(error=type(exc).__name__).inc()
            raise
    _EVENTS_APPLIED.inc()
    return result


def _transition(
    schema: CollaborativeSchema,
    instance: Instance,
    event: Event,
    forbidden_fresh: Optional[AbstractSet[object]],
    check_body: bool,
    written: AbstractSet[object] = frozenset(),
) -> Dict[str, Dict[object, Optional[Tuple]]]:
    """Check that *event* fires at *instance*; return what it writes.

    Raises the :class:`EventError` :func:`apply_event` raises; with
    *forbidden_fresh* set, a head-only value in *written* (what earlier
    events of the same batch wrote) is not fresh either.  The
    result maps each touched relation to ``key -> tuple`` (None for a
    deleted key): the successor instance differs from *instance* there
    and nowhere else.  Every check is a keyed read, so the cost is
    O(#body literals + #updates) and nothing of size |I| is built.
    """
    if check_body:
        # The body is checked through a read-through of I@p: one keyed
        # lookup per literal, the answers of the materialized view.
        probe = schema.view_probe(instance, event.peer)
        if not event.rule.body.satisfied_by(probe, event.valuation_dict()):
            raise EventError(
                f"event {event!r}: body does not hold on {event.peer}'s view"
            )
    head_only = event.rule.sorted_head_only_variables
    if head_only:
        valuation = event.valuation_dict()
        values = [valuation[v] for v in head_only]
        if len(set(values)) != len(values):
            raise FreshnessViolation(
                f"event {event!r}: head-only variables share a value"
            )
        if forbidden_fresh is not None:
            clashes = [
                v for v in values if v in forbidden_fresh or v in written
            ]
            if clashes:
                raise FreshnessViolation(
                    f"event {event!r}: values {clashes!r} are not globally fresh"
                )
    ground_head = event.ground_head()
    # Check applicability of every update against the *current* instance
    # first: an event fires only if all its updates are applicable.
    inserted: List[PyTuple[Insertion, Tuple]] = []
    for atom in ground_head:
        if isinstance(atom, Insertion):
            inserted.append((atom, _inserted_tuple(instance, atom)))
        else:
            _check_deletion(instance, atom)
    # The updates affect pairwise distinct tuples, so the application
    # order is irrelevant; apply deletions first, then insertions.
    writes: Dict[str, Dict[object, Optional[Tuple]]] = {}
    for atom in ground_head:
        if isinstance(atom, Deletion):
            writes.setdefault(atom.view.relation.name, {})[atom.term.value] = None
    for atom, merged in inserted:
        relation = atom.view.relation.name
        rows = writes.setdefault(relation, {})
        if merged.key in rows:
            # A key this event already wrote (a head-only key valued like
            # another update's key): chase into what it wrote.
            padded = _view_tuple(atom).pad(atom.view.relation.attributes)
            merged = _chase_into(relation, rows[merged.key], padded)
        rows[merged.key] = merged
    return writes


def _apply_event(
    schema: CollaborativeSchema,
    instance: Instance,
    event: Event,
    forbidden_fresh: Optional[AbstractSet[object]],
    check_body: bool,
    written: AbstractSet[object] = frozenset(),
) -> Instance:
    """The successor of *instance* under *event*, built once.

    All checks are keyed reads (:func:`_transition`): the body through
    :meth:`~repro.workflow.views.CollaborativeSchema.view_probe`, the
    updates at their keys.  The successor then shares every untouched
    relation with *instance* and copies each touched one once.
    """
    result = instance
    for relation, rows in _transition(
        schema, instance, event, forbidden_fresh, check_body, written
    ).items():
        result = result.replace_tuples(relation, rows)
    return result


def event_delta(before: Instance, after: Instance, event: Event) -> Delta:
    """The :class:`~repro.dataflow.delta.Delta` of ``before ⊢_event after``.

    Costs O(#update atoms): the touched keys are read off the event's
    ground head and looked up on both sides, never scanning an instance.
    """
    changes: Dict[str, Dict[object, PyTuple[Optional[Tuple], Optional[Tuple]]]] = {}
    chase_merged = False
    for atom in event.ground_head():
        relation = atom.view.relation.name
        if isinstance(atom, Insertion):
            key = _view_tuple(atom).key
        else:
            key = atom.term.value
        old = before.tuple_with_key(relation, key)
        new = after.tuple_with_key(relation, key)
        if old == new:
            continue
        if isinstance(atom, Insertion) and old is not None and new is not None:
            chase_merged = True
        changes.setdefault(relation, {})[key] = (old, new)
    return Delta(changes, chase_merged)


def apply_event_with_delta(
    schema: CollaborativeSchema,
    instance: Instance,
    event: Event,
    forbidden_fresh: Optional[AbstractSet[object]] = None,
    check_body: bool = True,
) -> PyTuple[Instance, Delta]:
    """Like :func:`apply_event`, also returning the transition's delta.

    The delta is the :class:`~repro.dataflow.delta.Delta` a
    :class:`~repro.dataflow.graph.DeltaGraph` consumes: callers that
    maintain derived state (peer views, provenance, the
    applicable-event index) push it once and every subscriber refreshes
    from the touched keys instead of recomputing from the whole
    instance.
    """
    result = apply_event(schema, instance, event, forbidden_fresh, check_body)
    delta = event_delta(instance, result, event)
    _DELTA_KEYS.observe(sum(len(keys) for keys in delta.changes.values()))
    return result, delta


def apply_events(
    schema: CollaborativeSchema,
    instance: Instance,
    events: Iterable[Event],
    forbidden_fresh: Optional[AbstractSet[object]] = None,
    check_body: bool = True,
) -> "list[PyTuple[Instance, Delta]]":
    """Fold :func:`apply_event_with_delta` over *events* under one span.

    Returns one ``(successor, delta)`` pair per event — ``pairs[i][0]``
    is the instance after ``events[:i+1]`` — with the per-event tracing
    span replaced by a single batch span (the budget checkpoint and the
    engine metrics still tick per event, so cancellation stays
    responsive and counters agree with a sequential fold).  Instances
    are immutable, so the fold is pure: the caller commits the pairs —
    or any prefix of them — wherever it keeps state.

    With *forbidden_fresh* set, each event's head-only values must also
    avoid those of the batch's earlier events, as in a sequential fold
    that grows the set; the fold keeps them apart and never mutates
    *forbidden_fresh*.

    On a failing event the same :class:`EventError` a sequential fold
    would raise propagates, with the clean prefix attached as
    ``exc.batch_prefix`` so callers can commit it before handling the
    failure.
    """
    events = list(events)
    pairs: "list[PyTuple[Instance, Delta]]" = []
    current = instance
    written: Set[object] = set()
    with span("apply_events", count=len(events)):
        for event in events:
            ambient_checkpoint()
            try:
                result = _apply_event(
                    schema, current, event, forbidden_fresh, check_body, written
                )
            except EventError as exc:
                _EVENT_REJECTIONS.labels(error=type(exc).__name__).inc()
                exc.batch_prefix = pairs
                raise
            _EVENTS_APPLIED.inc()
            delta = event_delta(current, result, event)
            _DELTA_KEYS.observe(sum(len(keys) for keys in delta.changes.values()))
            pairs.append((result, delta))
            current = result
            if forbidden_fresh is not None and event.rule.sorted_head_only_variables:
                written.update(event.head_only_values())
    return pairs


def event_applicable(
    schema: CollaborativeSchema,
    instance: Instance,
    event: Event,
    forbidden_fresh: Optional[AbstractSet[object]] = None,
    check_body: bool = True,
) -> bool:
    """True iff :func:`apply_event` would succeed.

    An applicability probe: it makes the same checks (and the same budget
    poll) but builds no successor and ticks no engine counter, which
    count applications only.
    """
    ambient_checkpoint()
    try:
        _transition(schema, instance, event, forbidden_fresh, check_body)
    except EventError:
        return False
    return True


def event_effect(
    schema: CollaborativeSchema, before: Instance, after: Instance, relation: str
) -> Dict[str, Set[object]]:
    """Summarise the effect of a transition on *relation*.

    Returns a dict with keys ``created`` (keys newly present),
    ``deleted`` (keys removed) and ``modified`` (keys present on both
    sides whose tuple changed).
    """
    old = set(before.keys(relation))
    new = set(after.keys(relation))
    modified = {
        k
        for k in old & new
        if before.tuple_with_key(relation, k) != after.tuple_with_key(relation, k)
    }
    return {"created": new - old, "deleted": old - new, "modified": modified}
