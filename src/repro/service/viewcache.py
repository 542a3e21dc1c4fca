"""The read handle for one peer's materialized view of a hosted run.

The paper's peers interact only through their views ``I@p(R@p)``
(Section 2), so a serving layer answers every read against a view
instance.  A hosted run keeps exactly one materialized copy of each
peer's view: its :class:`~repro.dataflow.graph.DeltaGraph` materializes
``I@p`` on the first read (O(|I|)) and patches it copy-on-write from
every later transition's delta (O(|delta|)), and the applicable-event
index evaluates the peer's rule bodies over that same instance.

:class:`CachedPeerView` holds no state beyond the graph and the peer:
it is the service's named entry point for a view read, which
``HostedRun.view_instance`` goes through.
"""

from __future__ import annotations

from ..dataflow.graph import DeltaGraph
from ..workflow.instance import Instance

__all__ = ["CachedPeerView"]


class CachedPeerView:
    """``I@p`` of one peer, read from the run's dataflow graph.

    >>> # CachedPeerView(hosted.dataflow, "sue").instance()
    >>> # == schema.view_instance(hosted.instance, "sue")
    """

    __slots__ = ("graph", "peer")

    def __init__(self, graph: DeltaGraph, peer: str) -> None:
        self.graph = graph
        self.peer = peer

    def instance(self) -> Instance:
        """The graph's materialized view instance of the peer."""
        return self.graph.snapshot(self.peer)

    def __repr__(self) -> str:
        return f"CachedPeerView(peer={self.peer!r})"
