"""High-level runtime explanation API.

Wraps scenarios and faithful scenarios into a single report object: for
a run and an observing peer, the :class:`Explanation` carries the peer's
view, the unique minimal faithful scenario, and — for every transition
the peer observes — the *provenance*: the scenario events that the
observed transition depends on (the faithful closure of the underlying
event).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple as PyTuple

from ..obs.provenance import ProvenanceLog
from ..workflow.events import Event
from ..workflow.runs import OMEGA, Run, RunView
from .faithful import FaithfulnessAnalysis, FaithfulScenario, minimal_faithful_scenario
from .subruns import EventSubsequence


@dataclass(frozen=True)
class ObservationExplanation:
    """Why one observed transition happened.

    ``position`` is the index of the underlying event in the global run;
    ``cause_positions`` are the global-run indices of the events in its
    minimal faithful explanation (all of them members of the minimal
    faithful scenario when the observation is visible).
    """

    position: int
    observed_label: object  # the event itself, or OMEGA
    cause_positions: PyTuple[int, ...]

    def describe(self, run: Run) -> str:
        causes = ", ".join(
            f"[{i}] {run.events[i]!r}" for i in self.cause_positions
        )
        label = "own event" if self.observed_label is not OMEGA else "side-effect"
        return f"transition {self.position} ({label}) caused by: {causes}"


@dataclass(frozen=True)
class Explanation:
    """The complete runtime explanation of a run for one peer."""

    run: Run
    peer: str
    view: RunView
    scenario: FaithfulScenario
    observations: PyTuple[ObservationExplanation, ...]

    def scenario_subrun(self) -> Run:
        """The minimal faithful scenario replayed as a run."""
        return self.scenario.subrun()

    def scenario_events(self) -> PyTuple[Event, ...]:
        return EventSubsequence(self.run, self.scenario.indices).events()

    def irrelevant_indices(self) -> PyTuple[int, ...]:
        """Run positions with no bearing on what the peer observed."""
        relevant = set(self.scenario.indices)
        return tuple(i for i in range(len(self.run)) if i not in relevant)

    def compression_ratio(self) -> float:
        """Fraction of the run the explanation discards (0 = nothing)."""
        if not len(self.run):
            return 0.0
        return 1.0 - len(self.scenario.indices) / len(self.run)

    def to_text(self) -> str:
        """A human-readable rendering of the explanation."""
        lines = [
            f"Explanation of a {len(self.run)}-event run for peer {self.peer!r}",
            f"  visible transitions: {len(self.view)}",
            f"  minimal faithful scenario: {len(self.scenario.indices)} events "
            f"(discards {self.compression_ratio():.0%} of the run)",
        ]
        for observation in self.observations:
            lines.append("  " + observation.describe(self.run))
        return "\n".join(lines)


def explain_run(run: Run, peer: str) -> Explanation:
    """Explain *run* to *peer* via its minimal faithful scenario.

    >>> # explanation = explain_run(run, "sue")
    >>> # print(explanation.to_text())
    """
    analysis = FaithfulnessAnalysis(run, peer)
    visible = run.visible_indices(peer)
    scenario_indices = tuple(sorted(analysis.closure(visible)))
    scenario = FaithfulScenario(run, peer, scenario_indices)
    view = run.view(peer)
    observations: List[ObservationExplanation] = []
    for step in view.steps:
        causes = tuple(sorted(analysis.closure([step.index])))
        observations.append(
            ObservationExplanation(step.index, step.label, causes)
        )
    return Explanation(run, peer, view, scenario, tuple(observations))


def run_provenance(run: Run) -> ProvenanceLog:
    """The per-event provenance log of *run*, rebuilt by replay.

    The service records provenance live, at application time
    (:class:`repro.service.registry.HostedRun`); this is the one replay
    for runs that exist only as event logs — offline runs, and hosted
    runs rebuilding their log after a recovery.  Only ``run.program``,
    ``run.initial`` and ``run.events`` are read, so a hosted run passes
    itself.  Each transition is pushed through a
    :class:`~repro.dataflow.graph.DeltaGraph` to the log's
    :meth:`~repro.obs.provenance.ProvenanceLog.record_push`, as on the
    live path, so the records equal live ones (span ids aside).
    O(|delta|) recording per event.
    """
    from ..dataflow.graph import DeltaGraph
    from ..workflow.engine import apply_event_with_delta

    schema = run.program.schema
    instance = run.initial
    graph = DeltaGraph(schema, instance)
    log = ProvenanceLog()
    graph.subscribe(log.record_push)
    for seq, event in enumerate(run.events):
        instance, delta = apply_event_with_delta(
            schema, instance, event, forbidden_fresh=None, check_body=False
        )
        graph.push(delta, instance, seq=seq, event=event)
    return log


def explain_event(run: Run, peer: str, position: int) -> FrozenSet[int]:
    """The minimal faithful explanation ``T_p^ω(ρ, {f})`` of one event.

    The event need not be visible at the peer; the result is the
    smallest boundary- and modification-faithful subsequence containing
    it (used as auxiliary state by incremental maintenance).
    """
    analysis = FaithfulnessAnalysis(run, peer)
    return analysis.closure([position])
