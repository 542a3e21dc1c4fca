"""Per-run provenance: the one record of what each transition did.

ProvDB-style lifecycle provenance for hosted runs: every applied event
leaves one :class:`ProvenanceRecord` — its sequence number, rule, acting
peer, the ``(relation, key, action)`` pairs its transition touched, the
attributes a chase merge filled in (``filled``), and the peers whose
views the transition changed — all read off the transition's
:class:`~repro.dataflow.delta.Delta` (or the dataflow graph's
:class:`~repro.dataflow.graph.DeltaEffect` wrapping it), so recording is
O(|delta|).  The log is queryable in both directions:

* :meth:`ProvenanceLog.events_touching` — "which events wrote this
  tuple?" (key-level provenance of the current database state);
* :meth:`ProvenanceLog.events_visible_to` — "which events changed what
  this peer sees?" (view-level provenance);

and by position: seqs run 0, 1, 2, ... (:meth:`ProvenanceLog.record`
refuses a gap), so :meth:`ProvenanceLog.get` and
:meth:`ProvenanceLog.citations` index the log instead of scanning it.

The paper's explanations are provenance queries over exactly this
structure: a scenario is a set of event positions, and citing each
position's record grounds the explanation in what the system *recorded*
happening rather than a replay.  The service's ``explain`` op attaches
these citations; the ``provenance`` op exposes the queries directly.
The record is also what the explanations are computed from: a hosted
:class:`~repro.core.incremental.IncrementalExplainer` reads Section 4's
lifecycle opens (``insert``) and closes (``delete``), attribute
modifications (``filled``) and visibility (``visible_to``) off it.
``filled`` is recorded but never cited — :meth:`ProvenanceRecord.to_dict`
leaves it out, so citations keep their wire format.  A record builds its
citation once, read-only, and every answer citing the record shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from ..dataflow.delta import Delta
    from ..dataflow.graph import DeltaEffect

__all__ = ["ProvenanceLog", "ProvenanceRecord"]


@dataclass(frozen=True)
class ProvenanceRecord:
    """What one applied event touched, as recorded at application time."""

    seq: int
    rule: str
    peer: str
    #: ``(relation, key, action)`` triples; action is ``insert``,
    #: ``delete`` or ``update`` (a chase merge rewriting an existing key).
    touched: Tuple[Tuple[str, Any, str], ...]
    #: Peers whose view the transition changed (always includes any peer
    #: that observed the event as visible).
    visible_to: Tuple[str, ...]
    #: The id of the tracing span that covered the application, when
    #: tracing was on — lets a provenance answer link back to timings.
    span_id: Optional[int] = None
    #: ``(relation, key, attribute)`` triples a chase merge filled in
    #: (⊥ → value).  Recorded for the explainers, not cited.
    filled: Tuple[Tuple[str, Any, str], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """The record's citation, built on first use and then shared.

        Read-only throughout (mutating it raises :class:`TypeError`):
        every answer that cites the record carries this one object.  The
        memo is not a dataclass field, so it leaves ``==``, ``hash`` and
        ``repr`` alone.
        """
        citation = self.__dict__.get("_citation")
        if citation is None:
            citation = _ReadOnlyDict(
                seq=self.seq,
                rule=self.rule,
                peer=self.peer,
                touched=_ReadOnlyList(
                    _ReadOnlyDict(relation=relation, key=_jsonable(key), action=action)
                    for relation, key, action in self.touched
                ),
                visible_to=_ReadOnlyList(self.visible_to),
                **({"span_id": self.span_id} if self.span_id is not None else {}),
            )
            object.__setattr__(self, "_citation", citation)
        return citation


def _read_only(self: Any, *args: Any, **kwargs: Any) -> None:
    raise TypeError("a provenance citation is shared by every answer: copy it to change it")


class _ReadOnlyDict(dict):
    """A dict that refuses mutation (JSON-encodes as a plain object)."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> Any:  # copy and pickle rebuild, never mutate
        return (type(self), (dict(self),))


class _ReadOnlyList(list):
    """A list that refuses mutation (JSON-encodes as a plain array)."""

    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = clear = extend = insert = pop = remove = reverse = sort = _read_only

    def __reduce__(self) -> Any:
        return (type(self), (list(self),))


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class ProvenanceLog:
    """The append-only provenance log of one run.

    Indexed on append: key-level lookups (:meth:`events_touching`) and
    view-level lookups (:meth:`events_visible_to`) are O(answer), not
    O(run length).
    """

    def __init__(self) -> None:
        self._records: List[ProvenanceRecord] = []
        #: (relation, repr(key)) -> seqs that touched it, in order.
        self._by_key: Dict[Tuple[str, str], List[int]] = {}
        #: relation -> seqs that touched it, in order.
        self._by_relation: Dict[str, List[int]] = {}
        #: peer -> seqs visible to it, in order.
        self._by_peer: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self,
        seq: int,
        rule: str,
        peer: str,
        delta: "Union[Delta, DeltaEffect]",
        visible_to: Iterable[str],
        span_id: Optional[int] = None,
    ) -> ProvenanceRecord:
        """Append the provenance of one applied event.

        *seq* must be the log's length: the run's events are recorded in
        order, from the first.  *visible_to* are the peers whose views
        the transition changed (the acting peer should be included by
        the caller when its event is visible-by-definition).
        """
        if seq != len(self._records):
            raise ValueError(
                f"provenance seq {seq} out of order (next is {len(self._records)})"
            )
        record = ProvenanceRecord(
            seq=seq,
            rule=rule,
            peer=peer,
            touched=delta.touched(),
            visible_to=tuple(sorted(set(visible_to))),
            span_id=span_id,
            filled=delta.filled(),
        )
        self._records.append(record)
        for relation, key, _action in record.touched:
            self._by_key.setdefault((relation, repr(key)), []).append(seq)
            by_rel = self._by_relation.setdefault(relation, [])
            if not by_rel or by_rel[-1] != seq:
                by_rel.append(seq)
        for observer in record.visible_to:
            self._by_peer.setdefault(observer, []).append(seq)
        return record

    def record_push(self, effect: "DeltaEffect") -> None:
        """Record one pushed event: the log as a dataflow subscriber.

        Reads the application context (``seq``, ``event``, optionally
        ``span_id``) off the effect; a push without an event, or onto a
        log still missing the run's earlier events, records nothing.
        The visible-to peers are the acting peer and those whose view
        the graph's fused observation pass found changed, so recording
        is exact whether or not any view has been materialized.
        """
        context = effect.context
        event = context.get("event")
        if event is None or context["seq"] != len(self._records):
            return
        self.record(
            context["seq"],
            event.rule.name,
            event.peer,
            effect,
            {event.peer, *effect.changed_peers},
            span_id=context.get("span_id"),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Tuple[ProvenanceRecord, ...]:
        return tuple(self._records)

    def get(self, seq: int) -> Optional[ProvenanceRecord]:
        """The record with sequence number *seq* (None when unknown)."""
        if 0 <= seq < len(self._records):
            return self._records[seq]
        return None

    def events_touching(
        self, relation: str, key: Any = None
    ) -> Tuple[int, ...]:
        """Seqs of events that touched *relation* (or one of its keys)."""
        if key is None:
            return tuple(self._by_relation.get(relation, ()))
        return tuple(self._by_key.get((relation, repr(key)), ()))

    def events_visible_to(self, peer: str) -> Tuple[int, ...]:
        """Seqs of events that changed *peer*'s view."""
        return tuple(self._by_peer.get(peer, ()))

    def citations(self, seqs: Iterable[int]) -> List[Dict[str, Any]]:
        """The records for *seqs* as dicts (for explain responses).

        In seq order, each once; unknown seqs are skipped.
        """
        records = self._records
        return [
            records[seq].to_dict()
            for seq in sorted(set(seqs))
            if 0 <= seq < len(records)
        ]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [record.to_dict() for record in self._records]
