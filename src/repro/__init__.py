"""Explanations and transparency in collaborative workflows.

A faithful reproduction of *"Explanations and Transparency in
Collaborative Workflows"* (Abiteboul, Bourhis, Vianu; PODS 2018):

* :mod:`repro.workflow` — the data-driven collaborative workflow model
  (peer views, FCQ¬ rules, the key chase, runs);
* :mod:`repro.core` — runtime explanations: scenarios, faithful
  scenarios, the unique minimal faithful scenario, the semiring, and
  incremental maintenance;
* :mod:`repro.transparency` — static explanations: the h-boundedness
  and transparency decision procedures and view-program synthesis with
  provenance;
* :mod:`repro.design` — the transparent-program design methodology and
  enforcement;
* :mod:`repro.reductions` — the executable hardness gadgets of the
  proofs;
* :mod:`repro.workloads` — the paper's running examples and synthetic
  workload families.

The public API is :mod:`repro.api`; this package exports nothing but
``__version__`` and its subpackages.  Quickstart::

    from repro.api import parse_program, RunGenerator, explain_run

    program = parse_program('''
        peers hr, sue
        relation Hire(K)
        view Hire@hr(K)
        view Hire@sue(K)
        [hire] +Hire@hr(x) :-
    ''')
    run = RunGenerator(program, seed=0).random_run(5)
    print(explain_run(run, "sue").to_text())
"""

# Loaded eagerly, in this order, for two reasons: a deep import such as
# ``repro.cluster.router`` would otherwise enter the cycle
# runtime.budget -> workflow.errors -> workflow -> engine -> runtime.budget
# from its middle and fail; and every entry point (CLI, server, router)
# then loads the same modules in the same order.
from . import core, design, analysis, runtime, transparency, workflow  # noqa: F401

__version__ = "1.0.0"
