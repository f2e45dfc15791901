"""Incremental graph updates: deltas, overlays, condensation/index repair.

The dynamic-graph layer of the reproduction (motivated by the
FO+MOD-under-updates line of work in PAPERS.md): a
:class:`~repro.updates.delta.GraphDelta` describes a batch of mutations, a
:class:`~repro.updates.overlay.MutableOverlay` absorbs it on top of an
immutable CSR base, and the maintenance modules patch the prepared state —
SCC condensation (``scc``), hierarchical landmark indexes
(``index_repair``) — instead of rebuilding it, with bit-identical answers
as the contract.  ``GraphService.update`` is the public entry point.
"""

from repro.updates.delta import AppliedDelta, DeltaOp, GraphDelta
from repro.updates.overlay import MutableOverlay, overlay_digraph_equal
from repro.updates.scc import CondensationMaintainer, PatchResult
from repro.updates.index_repair import index_equivalent, repair_index

__all__ = [
    "AppliedDelta",
    "CondensationMaintainer",
    "DeltaOp",
    "GraphDelta",
    "MutableOverlay",
    "PatchResult",
    "index_equivalent",
    "overlay_digraph_equal",
    "repair_index",
]
