"""Testing soundness and completeness of view programs.

A view-program ``P'`` for ``P`` at ``p`` must satisfy (Section 5):

* completeness — every run of ``P`` has a run of ``P'`` whose view at
  ``p`` matches (ω-events standing for other peers' visible events);
* soundness — every run of ``P'`` is matched by some run of ``P``.

Both directions are checked here by explicit search: completeness by
replaying a run's observation sequence inside ``P'`` (instantiating
fresh values to match the observed data), soundness by searching ``P``
for a run producing the observations with at most ``h`` silent events
between consecutive visible ones.  The searches are exact within their
bounds and drive the Theorem 5.13 validation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple as PyTuple

from ..workflow.engine import apply_event, apply_event_with_delta
from ..workflow.enumerate import applicable_events
from ..workflow.events import Event
from ..workflow.instance import Instance
from ..workflow.program import WorkflowProgram
from ..workflow.runs import OMEGA, Run, RunView
from .viewprogram import WORLD, ViewProgramSynthesis


def _base_name(relation_name: str) -> str:
    """Strip a ``@peer`` suffix from a view-relation name."""
    return relation_name.split("@", 1)[0]


def canonical_content(instance: Instance) -> FrozenSet:
    """A name-normalized, order-insensitive rendering of an instance.

    View instances of ``P`` use relation names ``R@p`` while instances
    of ``P@p`` use plain ``R``; both normalize to the same content.
    """
    facts = []
    for relation in instance.schema:
        for tup in instance.relation(relation.name):
            facts.append((_base_name(relation.name), tup.values))
    return frozenset(facts)


@dataclass(frozen=True)
class Observation:
    """One visible transition: who caused it and what the peer then saw."""

    own_event: Optional[PyTuple[str, PyTuple]]  # (rule name, valuation) or None for ω
    content: FrozenSet

    @classmethod
    def from_view_step(cls, step) -> "Observation":
        if step.label is OMEGA:
            own = None
        else:
            own = (step.label.rule.name, step.label.valuation)
        return cls(own, canonical_content(step.instance))


def observations_of_run(run: Run, peer: str) -> PyTuple[Observation, ...]:
    """The observation sequence of ``ρ@p`` in comparable form."""
    return tuple(Observation.from_view_step(s) for s in run.view(peer).steps)


def observations_of_view_run(run: Run, peer: str) -> PyTuple[Observation, ...]:
    """Observations of a run of a view program (ω = the WORLD peer)."""
    schema = run.program.schema
    out: List[Observation] = []
    for i in range(len(run)):
        if not run.visible_at(peer, i):
            continue
        event = run.events[i]
        own = (event.rule.name, event.valuation) if event.peer == peer else None
        out.append(
            Observation(
                own, canonical_content(schema.view_instance(run.instance_after(i), peer))
            )
        )
    return tuple(out)


def _target_values(observations: Sequence[Observation]) -> List[object]:
    """All data values appearing in the observation contents."""
    values: Set[object] = set()
    for observation in observations:
        for _, tuple_values in observation.content:
            values.update(v for v in tuple_values if v is not None)
    return sorted(values, key=repr)


def _fresh_ok(event: Event, used: Set[object]) -> bool:
    """Run-level freshness: head-only values must not have been used."""
    return not (event.head_only_values() & used)


def find_view_run(
    view_program: WorkflowProgram,
    peer: str,
    observations: Sequence[Observation],
) -> Optional[List[Event]]:
    """Completeness direction: a run of the view program matching *observations*.

    Every event of a view program is visible at *peer* in the intended
    runs, so the search fires exactly one event per observation.
    Head-only variables are instantiated over the values appearing in
    the target observations (fresh values in the source run appear as
    data in what the peer saw), subject to run-level freshness.
    """
    pool = _target_values(observations)
    schema = view_program.schema
    base_used: Set[object] = set(view_program.constants())

    def recurse(
        instance: Instance, position: int, used: Set[object], chosen: List[Event]
    ) -> Optional[List[Event]]:
        if position == len(observations):
            return list(chosen)
        observation = observations[position]
        if observation.own_event is not None:
            rule_name, valuation = observation.own_event
            try:
                rule = view_program.rule(rule_name)
            except Exception:
                return None
            candidates = [Event(rule, dict(valuation))]
        else:
            candidates = list(
                applicable_events(
                    view_program, instance, peers=[WORLD], head_only_values=pool
                )
            )
        for event in candidates:
            if not _fresh_ok(event, used):
                continue
            try:
                successor = apply_event(schema, instance, event, None)
            except Exception:
                continue
            if canonical_content(schema.view_instance(successor, peer)) != observation.content:
                continue
            chosen.append(event)
            found = recurse(
                successor,
                position + 1,
                used | successor.active_domain(),
                chosen,
            )
            if found is not None:
                return found
            chosen.pop()
        return None

    return recurse(Instance.empty(schema.schema), 0, base_used, [])


def find_source_run(
    program: WorkflowProgram,
    peer: str,
    observations: Sequence[Observation],
    max_silent_gap: int,
) -> Optional[List[Event]]:
    """Soundness direction: a run of ``P`` producing *observations* at *peer*.

    Allows at most *max_silent_gap* silent events before each visible
    one (h-boundedness makes this complete for minimal behaviours).
    The peer's own events are replayed with the observed valuations
    verbatim (the view-program shares the peer's rules); other peers'
    head-only variables range over the observed values plus fresh ones.
    """
    pool = _target_values(observations)
    schema = program.schema
    seen_states: Set[PyTuple[Instance, int, int]] = set()
    base_used: Set[object] = set(program.constants())

    def recurse(
        instance: Instance,
        position: int,
        silent_used: int,
        used: Set[object],
        chosen: List[Event],
    ) -> Optional[List[Event]]:
        if position == len(observations):
            return list(chosen)
        state = (instance, position, silent_used)
        if state in seen_states:
            return None
        seen_states.add(state)
        observation = observations[position]
        candidates: List[Event] = []
        if observation.own_event is not None:
            rule_name, valuation = observation.own_event
            try:
                candidates.append(Event(program.rule(rule_name), dict(valuation)))
            except Exception:
                pass
        candidates.extend(
            applicable_events(program, instance, head_only_values=pool)
        )
        for event in candidates:
            if not _fresh_ok(event, used):
                continue
            try:
                successor, delta = apply_event_with_delta(schema, instance, event, None)
            except Exception:
                continue
            # Visibility from the transition's delta: O(touched keys)
            # instead of two whole-instance view computations.
            if event.peer == peer or delta.visible_to(schema, peer):
                if observation.own_event is not None:
                    rule_name, valuation = observation.own_event
                    if event.peer != peer or event.rule.name != rule_name:
                        continue
                    if dict(event.valuation) != dict(valuation):
                        continue
                elif event.peer == peer:
                    continue
                content = canonical_content(schema.view_instance(successor, peer))
                if content != observation.content:
                    continue
                chosen.append(event)
                found = recurse(
                    successor, position + 1, 0, used | successor.active_domain(), chosen
                )
                if found is not None:
                    return found
                chosen.pop()
            elif silent_used < max_silent_gap:
                if successor == instance:
                    continue  # silent no-ops never help
                chosen.append(event)
                found = recurse(
                    successor,
                    position,
                    silent_used + 1,
                    used | successor.active_domain(),
                    chosen,
                )
                if found is not None:
                    return found
                chosen.pop()
        return None

    return recurse(Instance.empty(schema.schema), 0, 0, base_used, [])


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of sampled soundness/completeness checking."""

    completeness_failures: PyTuple[PyTuple[Observation, ...], ...]
    soundness_failures: PyTuple[PyTuple[Observation, ...], ...]
    runs_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.completeness_failures and not self.soundness_failures


def check_view_program(
    synthesis: ViewProgramSynthesis,
    source_runs: Sequence[Run],
    view_runs: Sequence[Run],
    max_silent_gap: Optional[int] = None,
) -> EquivalenceReport:
    """Check soundness/completeness of a synthesized view program on samples.

    *source_runs* are runs of the original program (completeness);
    *view_runs* are runs of the view program (soundness).  The silent
    gap for the soundness search defaults to the synthesis bound ``h``.
    """
    gap = max_silent_gap if max_silent_gap is not None else synthesis.h
    completeness_failures: List[PyTuple[Observation, ...]] = []
    for run in source_runs:
        observations = observations_of_run(run, synthesis.peer)
        if find_view_run(synthesis.program, synthesis.peer, observations) is None:
            completeness_failures.append(observations)
    soundness_failures: List[PyTuple[Observation, ...]] = []
    for run in view_runs:
        observations = observations_of_view_run(run, synthesis.peer)
        if find_source_run(synthesis.source, synthesis.peer, observations, gap) is None:
            soundness_failures.append(observations)
    return EquivalenceReport(
        tuple(completeness_failures),
        tuple(soundness_failures),
        len(source_runs) + len(view_runs),
    )
