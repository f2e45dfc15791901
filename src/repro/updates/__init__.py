"""Graph updates: deltas and the overlay that applies them.

The dynamic-graph layer of the reproduction (motivated by the
FO+MOD-under-updates line of work in PAPERS.md): a
:class:`~repro.updates.delta.GraphDelta` describes a batch of mutations and
a :class:`~repro.updates.overlay.MutableOverlay` applies it op by op on top
of an immutable CSR base, then freezes into the next serving graph.  The
prepared state is then built again on that graph, with answers identical to
a fresh prepare as the contract.  ``GraphService.update`` is the public
entry point.
"""

from repro.updates.delta import AppliedDelta, DeltaOp, GraphDelta
from repro.updates.overlay import MutableOverlay, overlay_digraph_equal

__all__ = [
    "AppliedDelta",
    "DeltaOp",
    "GraphDelta",
    "MutableOverlay",
    "overlay_digraph_equal",
]
