#!/usr/bin/env python
"""Coverage ratchet: gate CI on a coverage.xml report (stdlib only).

Per-package floors plus a total ratchet, all read from
``coverage_ratchet.json`` at the repo root:

* ``workflow_floor`` — the ``repro.workflow`` package (the engine, the
  planner and the query compiler) must stay at or above this line
  coverage; the compiled backend is only trustworthy to the extent the
  equivalence suites actually reach its codegen paths.
* ``dataflow_floor`` — the ``repro.dataflow`` package (the transition
  delta and the delta graph) must stay at or above this line coverage;
  every derived artifact in the service rides on the graph's fused
  observation pass being exercised.
* ``workloads_floor`` — the ``repro.workloads`` package (the program
  generators, the realistic families, the fuzzer and its differential
  harness) must stay at or above this line coverage; a fuzzer whose own
  rule shapes go unexercised silently stops finding divergences.
* ``total`` / ``allowed_total_drop`` — total line coverage may not fall
  more than ``allowed_total_drop`` percentage points below the recorded
  ``total``.  The recorded value only moves when someone runs
  ``--update`` and commits the result, so coverage ratchets up and
  cannot silently erode.

Usage::

    python tools/check_coverage.py coverage.xml            # gate (CI)
    python tools/check_coverage.py coverage.xml --update   # re-baseline

The parser consumes the Cobertura XML that ``pytest --cov`` emits via
``--cov-report=xml`` and needs nothing outside the standard library, so
the gate itself has no install step to fail.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

RATCHET_PATH = Path(__file__).resolve().parent.parent / "coverage_ratchet.json"

#: Gated packages: ratchet key prefix -> filename matcher.  The
#: ``workloads`` pattern allows one directory level for the family
#: subpackage (``workloads/families/*.py``).
PACKAGES = {
    "workflow": re.compile(r"(^|/)(src/)?(repro/)?workflow/[^/]+\.py$"),
    "dataflow": re.compile(r"(^|/)(src/)?(repro/)?dataflow/[^/]+\.py$"),
    "workloads": re.compile(
        r"(^|/)(src/)?(repro/)?workloads/([^/]+/)?[^/]+\.py$"
    ),
}


def measure(xml_path: Path) -> dict:
    """Total and per-package line coverage (percent)."""
    root = ET.parse(str(xml_path)).getroot()
    total_valid = total_covered = 0
    valid = {name: 0 for name in PACKAGES}
    covered = {name: 0 for name in PACKAGES}
    for cls in root.iter("class"):
        filename = (cls.get("filename") or "").replace("\\", "/")
        members = [
            name
            for name, pattern in PACKAGES.items()
            if pattern.search(filename)
        ]
        for line in cls.iter("line"):
            total_valid += 1
            hit = int(line.get("hits", "0")) > 0
            total_covered += hit
            for name in members:
                valid[name] += 1
                covered[name] += hit
    if total_valid == 0:
        raise SystemExit(f"error: no line data found in {xml_path}")

    def pct(hits: int, lines: int) -> float:
        return 100.0 * hits / lines if lines else 0.0

    measured = {"total": round(pct(total_covered, total_valid), 2)}
    for name in PACKAGES:
        measured[name] = round(pct(covered[name], valid[name]), 2)
        measured[f"{name}_lines"] = valid[name]
    return measured


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", type=Path, help="coverage.xml to check")
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the measured totals back into the ratchet file",
    )
    args = parser.parse_args(argv)

    ratchet = json.loads(RATCHET_PATH.read_text())
    measured = measure(args.report)
    parts = [f"total {measured['total']:.2f}%"]
    parts.extend(
        f"repro.{name} {measured[name]:.2f}% over "
        f"{measured[f'{name}_lines']} lines"
        for name in PACKAGES
    )
    print("coverage: " + " | ".join(parts))

    if args.update:
        ratchet["total"] = measured["total"]
        RATCHET_PATH.write_text(json.dumps(ratchet, indent=2) + "\n")
        print(f"ratchet updated: total floor now {measured['total']:.2f}%")
        return 0

    failures = []
    for name in PACKAGES:
        floor = ratchet.get(f"{name}_floor")
        if floor is None:
            continue
        if measured[f"{name}_lines"] == 0:
            failures.append(
                f"no repro.{name} lines in the report (wrong --cov target?)"
            )
        elif measured[name] < floor:
            failures.append(
                f"repro.{name} coverage {measured[name]:.2f}% is below the "
                f"{floor:.2f}% floor"
            )
    floor = ratchet["total"] - ratchet["allowed_total_drop"]
    if measured["total"] < floor:
        failures.append(
            f"total coverage {measured['total']:.2f}% dropped more than "
            f"{ratchet['allowed_total_drop']:.2f}pt below the recorded "
            f"{ratchet['total']:.2f}% (floor {floor:.2f}%)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("coverage ratchet: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
