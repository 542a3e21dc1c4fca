"""Deciding h-boundedness (Theorem 5.10).

A program ``P`` is *h-bounded* for peer ``p`` when every minimum
p-faithful run (on any initial instance) whose events are all silent at
``p`` except the last has length at most ``h``.  By Lemmas A.2/A.3 it
suffices to search initial instances and event sequences over the
bounded constant pool ``C_{h+1}``, which is what
:func:`check_h_bounded` does — an exponential enumeration, as the
PSPACE bound allows, governed by an explicit :class:`SearchBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple as PyTuple

from ..runtime.budget import Budget, checkpoint
from ..workflow.errors import BudgetExceeded
from ..workflow.instance import Instance
from ..workflow.program import WorkflowProgram
from .faithful_runs import SilentFaithfulRun, iter_silent_faithful_runs
from .instances import constant_pool, default_pool_size, enumerate_instances


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the bounded-model-checking searches of Section 5.

    ``pool_extra``: fresh constants added to ``const(P)`` (None: use the
    theorem's polynomial default — often large; cap it for big schemas).
    ``max_tuples_per_relation``: initial-instance size cap per relation.
    ``max_instances``: stop after enumerating this many initial
    instances (None: no cap — exact within the pool).
    """

    pool_extra: Optional[int] = None
    max_tuples_per_relation: int = 2
    max_instances: Optional[int] = None

    def resolve_pool(self, program: WorkflowProgram, h: int) -> PyTuple[object, ...]:
        extra = self.pool_extra
        if extra is None:
            extra = default_pool_size(program, h)
        return constant_pool(program, extra)


@dataclass(frozen=True)
class BoundednessResult:
    """Outcome of an h-boundedness check."""

    bounded: bool
    h: int
    witness: Optional[SilentFaithfulRun] = None
    instances_checked: int = 0
    exhausted: bool = True  # False when the budget cut the search short
    truncated: bool = False  # True when a runtime Budget killed the search
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.bounded


def iter_boundedness_witnesses(
    program: WorkflowProgram,
    peer: str,
    h: int,
    budget: SearchBudget = SearchBudget(),
    slack: int = 0,
    runtime_budget: Optional[Budget] = None,
) -> Iterator[SilentFaithfulRun]:
    """All violations found: silent minimum-faithful runs longer than *h*.

    Searches lengths in ``[h+1, h+1+slack]``; by the proof of Theorem
    5.10 a violation is witnessed at length exactly ``h+1``, so the
    default ``slack=0`` is complete (within the pool/budget).
    """
    pool = budget.resolve_pool(program, h)
    checked = 0
    for initial in enumerate_instances(
        program.schema.schema, pool, budget.max_tuples_per_relation
    ):
        if budget.max_instances is not None and checked >= budget.max_instances:
            return
        checked += 1
        checkpoint(runtime_budget)
        for candidate in iter_silent_faithful_runs(
            program, peer, initial, max_length=h + 1 + slack, budget=runtime_budget
        ):
            if len(candidate) > h:
                yield candidate


def check_h_bounded(
    program: WorkflowProgram,
    peer: str,
    h: int,
    budget: SearchBudget = SearchBudget(),
    runtime_budget: Optional[Budget] = None,
    anytime: bool = False,
) -> BoundednessResult:
    """Decide whether *program* is h-bounded for *peer* (Theorem 5.10).

    Exact relative to the budget: with the default unbounded
    ``max_instances`` and the theorem's pool size, a ``bounded=True``
    answer is a proof; with a trimmed budget it is a bounded search.

    *runtime_budget* bounds the wall-clock/step cost of the exponential
    search; when it trips, :class:`~repro.workflow.errors.BudgetExceeded`
    propagates unless *anytime* is set, in which case the result so far
    is returned with ``exhausted=False, truncated=True`` — a "no
    violation found yet", never a silent proof.

    >>> # result = check_h_bounded(program, "sue", h=3)
    >>> # result.bounded, result.witness
    """
    pool = budget.resolve_pool(program, h)
    checked = 0
    exhausted = True
    try:
        for initial in enumerate_instances(
            program.schema.schema, pool, budget.max_tuples_per_relation
        ):
            if budget.max_instances is not None and checked >= budget.max_instances:
                exhausted = False
                break
            checked += 1
            checkpoint(runtime_budget)
            for candidate in iter_silent_faithful_runs(
                program, peer, initial, max_length=h + 1, budget=runtime_budget
            ):
                if len(candidate) > h:
                    return BoundednessResult(False, h, candidate, checked, True)
    except BudgetExceeded as exc:
        if not anytime:
            raise
        return BoundednessResult(
            True, h, None, checked, exhausted=False, truncated=True, reason=str(exc)
        )
    return BoundednessResult(True, h, None, checked, exhausted)


def guess_bound_from_traces(
    program: WorkflowProgram,
    peer: str,
    samples: int = 10,
    run_length: int = 20,
    seed: int = 0,
    confirm_budget: Optional[SearchBudget] = None,
) -> PyTuple[int, Optional[bool]]:
    """The heuristic route to ``h`` the paper suggests (Section 5).

    "One approach is heuristic: by examining traces of runs, one can
    'guess' h and then test h-boundedness using Theorem 5.10."  Sampled
    random runs are split into p-stages and the largest minimal faithful
    stage subrun observed becomes the guess; when *confirm_budget* is
    given, the guess is confirmed (or refuted) by the exact decision.

    Returns ``(guess, confirmed)`` where *confirmed* is None without a
    budget, True/False otherwise.

    >>> # h, confirmed = guess_bound_from_traces(program, "sue",
    >>> #                                        confirm_budget=SearchBudget())
    """
    from ..design.run_properties import run_stage_bound
    from ..workflow.enumerate import RunGenerator

    guess = 0
    for index in range(samples):
        run = RunGenerator(program, seed=seed + index).random_run(run_length)
        guess = max(guess, run_stage_bound(run, peer))
    guess = max(guess, 1)
    if confirm_budget is None:
        return guess, None
    verdict = check_h_bounded(program, peer, guess, confirm_budget)
    return guess, verdict.bounded


def smallest_bound(
    program: WorkflowProgram,
    peer: str,
    max_h: int,
    budget: SearchBudget = SearchBudget(),
    runtime_budget: Optional[Budget] = None,
) -> Optional[int]:
    """The least ``h ≤ max_h`` for which the program is h-bounded.

    Returns None when the program is not even ``max_h``-bounded.  (By
    Theorem 5.9 the existence of *some* bound is undecidable, so a None
    answer is only relative to ``max_h``.)
    """
    # A single pass: find the longest silent minimum-faithful run up to
    # max_h + 1; the program is h-bounded exactly for h >= that length.
    longest = 0
    pool = budget.resolve_pool(program, max_h)
    checked = 0
    for initial in enumerate_instances(
        program.schema.schema, pool, budget.max_tuples_per_relation
    ):
        if budget.max_instances is not None and checked >= budget.max_instances:
            break
        checked += 1
        checkpoint(runtime_budget)
        for candidate in iter_silent_faithful_runs(
            program, peer, initial, max_length=max_h + 1, budget=runtime_budget
        ):
            longest = max(longest, len(candidate))
            if longest > max_h:
                return None
    return longest
