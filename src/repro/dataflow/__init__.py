"""Incremental dataflow: one delta stream in, every derived artifact out.

The unified transition delta (:class:`~repro.dataflow.delta.Delta`)
and the per-run :class:`~repro.dataflow.graph.DeltaGraph` that consumes
one delta stream and keeps every derived artifact — the one
materialized view per peer, visibility, provenance triples, and through
its effects the applicable-event index — fresh at O(|delta|) per
event.  See ``docs/DATAFLOW.md`` for the design and the migration table
from the pre-dataflow entry points.
"""

from .delta import Delta
from .graph import DeltaEffect, DeltaGraph

__all__ = ["Delta", "DeltaEffect", "DeltaGraph"]
