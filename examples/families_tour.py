"""Tour of the realistic workflow families and Shapley explanations.

Four parameterized program families ship with the reproduction —
e-commerce fulfillment, healthcare approvals, CI/CD pipelines, and
multi-party procurement.  Each is sized by knobs (peers, items, stages,
visibility density) and emits both a valid FCQ¬ program and seeded,
plausible event streams.  We:

1. walk the family catalog and size one family with knobs,
2. generate a seeded run and explain it to the family's observer,
3. rank the run's events by Shapley value toward a visible fact —
   which events actually *mattered* for what the observer sees,
4. cross-check one family through the differential fuzz harness
   (the naive vs compiled backends, the dataflow graph and the one
   incremental rule path, recovery).

Run with: ``python examples/families_tour.py``
"""

from repro.api import (
    differential_check,
    explain_run,
    family_names,
    get_family,
    make_family_program,
    shapley_rank,
)


def main() -> None:
    print("Workflow family catalog:")
    for name in family_names():
        family = get_family(name)
        knobs = ", ".join(f"{k}={v}" for k, v in family.knobs().items())
        print(f"  {name:12s} observer={family.observer:9s} knobs: {knobs}")

    # Size the e-commerce family down and generate a plausible run.
    spec = "ecommerce:items=2,warehouses=1,couriers=1"
    program, family = make_family_program(spec)
    run = family.run(seed=7, steps=12, items=2, warehouses=1, couriers=1)
    print(f"\n{spec}: {len(program.rules)} rules, "
          f"{len(run.events)} events, observer {family.observer!r}")

    # The classic explanation: the minimal faithful scenario.
    explanation = explain_run(run, family.observer)
    print(f"\nExplaining the run to {family.observer!r}:")
    print(explanation.to_text())

    # Shapley ranking: fair attribution of each event's contribution
    # to the observer's final view (exact for small runs).
    report = shapley_rank(run, family.observer)
    print(f"\nShapley ranking toward {report.target} ({report.method}):")
    for entry in report.top(3):
        event = report.attributions[entry]
        print(f"  event {event.position}: {event.rule}@{event.peer} "
              f"-> {event.value:+.3f}")
    print(f"  efficiency: total {report.total():.3f} "
          f"= v(N) {report.grand:.3f} - v(empty) {report.baseline:.3f}")

    # Every family doubles as differential-fuzz input: the same seeded
    # run must be bit-identical across all engine backends.
    outcome = differential_check(
        program, seed=7, steps=10, pairs=("backends", "dataflow", "recovery"),
        label=spec,
    )
    print(f"\nDifferential check over {spec}: "
          f"{'OK' if outcome.ok else outcome.summary()}")
    assert outcome.ok, outcome.summary()


if __name__ == "__main__":
    main()
