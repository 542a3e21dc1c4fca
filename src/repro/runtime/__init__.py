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

Only :mod:`~repro.runtime.budget` is imported here: the engine polls
the ambient budget on every event application, and a heavier package
import here would cycle back into :mod:`repro.workflow`.  Import the
other submodules' names from the submodules themselves.
"""

from __future__ import annotations

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

__all__ = [
    "AnytimeResult",
    "Budget",
    "BudgetExceeded",
    "CancellationToken",
    "ambient_checkpoint",
    "current_budget",
    "use_budget",
]
