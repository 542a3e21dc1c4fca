"""Fast resume from a journal's latest checkpoint.

:func:`repro.runtime.journal.recover_run` replays a journal from its
initial instance, re-validating every event and verifying every
snapshot — the paranoid path.  For long runs the journal's periodic
snapshots allow a *fast resume*: jump to the latest snapshot and replay
only the tail, which is what :func:`fast_recover` implements.  Both
read the journal through one record scan
(:func:`~repro.runtime.journal.scan_journal`).  The tail events are
still applied through the engine, so their validity is re-checked; only
the prefix before the snapshot is trusted (audit it with a full
:func:`~repro.runtime.journal.recover_run`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..workflow.engine import apply_event
from ..workflow.errors import EventError, RecoveryError
from ..workflow.events import Event
from ..workflow.instance import Instance
from ..workflow.program import WorkflowProgram
from ..workflow.serialization import instance_from_dict
from .journal import JournalSource, scan_journal

__all__ = ["ResumedRun", "fast_recover"]


@dataclass
class ResumedRun:
    """A journal resumed from its latest checkpoint (the fast path).

    Unlike :class:`~repro.runtime.journal.RecoveredRun` this carries no
    per-step :class:`~repro.workflow.runs.Run`: the prefix up to the
    latest snapshot is *decoded* but not re-executed, so the engine work
    is O(events since the last checkpoint) regardless of run length.
    ``engine_replayed`` counts the events actually re-applied (and thus
    re-validated) — the quantity the regression tests pin.
    ``checkpoint_tuples`` is the size of the instance the replay started
    from (the latest snapshot's, or the initial one), from which a
    reopened journal continues its snapshot cadence.
    """

    initial: Instance
    instance: Instance
    events: List[Event]
    engine_replayed: int
    snapshot_position: int
    checkpoint_tuples: int
    status: Optional[str]
    quarantined: List[Dict[str, Any]]
    warnings: List[str]

    @property
    def complete(self) -> bool:
        return self.status == "completed"

    @property
    def events_total(self) -> int:
        return len(self.events)


def fast_recover(program: WorkflowProgram, source: JournalSource) -> ResumedRun:
    """Resume a journal from its latest snapshot, replaying only the tail.

    The snapshot is trusted (audit it separately with a full
    :func:`~repro.runtime.journal.recover_run`); the events after it are
    re-applied through the engine, so their validity is still checked.
    The full event history is decoded — explanations and provenance need
    it — but decoding is a constant-factor JSON walk, not engine work.
    """
    scan = scan_journal(program, source)
    instance, snapshot_position = scan.initial, 0
    if scan.snapshots:
        snapshot_position, record = scan.snapshots[-1]
        instance = instance_from_dict(program, record.get("instance", {}))
    events = scan.events
    checkpoint_tuples = instance.size()
    for offset, event in enumerate(events[snapshot_position:]):
        try:
            instance = apply_event(program.schema, instance, event, None)
        except EventError as exc:
            raise RecoveryError(
                f"journaled event {snapshot_position + offset} no longer applies "
                f"on resume: {exc}"
            ) from exc
    return ResumedRun(
        initial=scan.initial,
        instance=instance,
        events=events,
        engine_replayed=len(events) - snapshot_position,
        snapshot_position=snapshot_position,
        checkpoint_tuples=checkpoint_tuples,
        status=scan.status,
        quarantined=scan.quarantined,
        warnings=scan.warnings,
    )
