"""The resilient runtime layer: budgets, journaling, supervision, faults.

* :mod:`repro.runtime.budget` — composable execution budgets (wall
  clock, steps, depth) with cooperative cancellation, polled inside
  every worst-case-exponential search;
* :mod:`repro.runtime.journal` — the run-journal record format and
  full-replay crash recovery;
* :mod:`repro.runtime.checkpoint` — fast resume from the latest
  snapshot;
* :mod:`repro.runtime.supervisor` — supervised event application with
  bounded retry, quarantine of poisoned events, and anytime search
  entry points that degrade gracefully under a budget;
* :mod:`repro.runtime.faults` — deterministic seed-driven fault
  injection used to prove recovery equals uninterrupted execution.

Only :mod:`~repro.runtime.budget` is imported eagerly: the engine polls
the ambient budget on every event application, and a heavier package
import here would cycle back into :mod:`repro.workflow`.  The other
submodules load lazily on first attribute access.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

# NB: budget.checkpoint (the polling function) is deliberately not
# re-exported here: the name would collide with the ``checkpoint``
# submodule.  Import it from repro.runtime.budget directly.
from .budget import (
    AnytimeResult,
    Budget,
    BudgetExceeded,
    CancellationToken,
    ambient_checkpoint,
    current_budget,
    use_budget,
)

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from .checkpoint import ResumedRun, fast_recover
    from .faults import (
        CrashFault,
        FaultInjector,
        FaultPlan,
        InjectedChaseFailure,
        InjectedFault,
        TransientFault,
    )
    from .journal import (
        JOURNAL_SUFFIX,
        RecoveredRun,
        journal_path,
        journal_run,
        read_journal,
        recover_run,
        run_id_from_path,
    )
    from .supervisor import (
        QuarantinedEvent,
        RetryPolicy,
        SupervisedRun,
        Supervisor,
        anytime_minimum_scenario,
        anytime_reachable_states,
    )

_LAZY = {
    # journal
    "JOURNAL_SUFFIX": "journal",
    "RecoveredRun": "journal",
    "journal_path": "journal",
    "journal_run": "journal",
    "read_journal": "journal",
    "read_journal_ex": "journal",
    "recover_run": "journal",
    "run_id_from_path": "journal",
    "begin_record": "journal",
    "end_record": "journal",
    "event_record": "journal",
    "quarantine_record": "journal",
    "snapshot_record": "journal",
    # checkpoint
    "ResumedRun": "checkpoint",
    "fast_recover": "checkpoint",
    # supervisor
    "QuarantinedEvent": "supervisor",
    "RetryPolicy": "supervisor",
    "SupervisedRun": "supervisor",
    "Supervisor": "supervisor",
    "POISON_ERRORS": "supervisor",
    "anytime_minimum_scenario": "supervisor",
    "anytime_reachable_states": "supervisor",
    # faults
    "CrashFault": "faults",
    "DiskFault": "faults",
    "DiskFaultInjector": "faults",
    "DiskFaultPlan": "faults",
    "FaultInjector": "faults",
    "FaultPlan": "faults",
    "InjectedChaseFailure": "faults",
    "InjectedFault": "faults",
    "TransientFault": "faults",
}

_SUBMODULES = ("budget", "checkpoint", "faults", "journal", "supervisor")

__all__ = [
    "AnytimeResult",
    "Budget",
    "BudgetExceeded",
    "CancellationToken",
    "ambient_checkpoint",
    "current_budget",
    "use_budget",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    target = _LAZY.get(name)
    if target is not None:
        module = importlib.import_module(f".{target}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
