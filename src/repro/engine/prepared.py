"""Once-per-graph prepared state shared by every query in a batch.

The paper's premise is that queries "arrive by the thousands" while the
expensive work — freezing the graph into CSR, condensing SCCs, building the
hierarchical landmark index, summarising labels and degrees — happens *once*.
:class:`PreparedGraph` is that one-time product: an immutable-after-prepare
bundle the engine consults per query, and the state the daemon pool forks
its workers from once per state version, never per query.  An update
(:meth:`PreparedGraph.apply_delta`) re-runs the same prepare on the next
graph; there is no second, incremental copy of it.

:class:`SharedPreparedGraph` exports the array-shaped parts — CSR
adjacency, the neighbour-label presence bits behind the ``Sl`` summaries,
and the condensation and rank columns — into shared-memory segments and
pickles the rest.  No serving path uses it (the daemons inherit the state
by ``fork``); the end-to-end benchmark's ``shm.*`` probe still does.
"""

from __future__ import annotations

import io
import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Set, Tuple, Type, TypeVar

from repro import obs
from repro.core.budget import ResourceBudget
from repro.core.rbsim import BoundedMatcher, RBSim, RBSimConfig
from repro.core.rbsub import RBSub
from repro.exceptions import EngineError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import NodeId
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.protocol import GraphLike
from repro.graph.statistics import summarize_for_report
from repro.reachability.compression import CompressedGraph, compress, component_changes
from repro.reachability.hierarchy import HierarchicalLandmarkIndex, build_index, index_equivalent
from repro.reachability.rbreach import RBReach
from repro.updates.delta import AppliedDelta, GraphDelta
from repro.updates.overlay import MutableOverlay

Matcher = TypeVar("Matcher", bound=BoundedMatcher)


@dataclass
class UpdateSummary:
    """What one ``apply_delta`` call did to the prepared state.

    ``mode`` is ``"noop"`` (delta had no effect), ``"fresh"`` (no
    reachability state existed yet, so nothing was compared), ``"patched"``
    (the state was re-prepared and compared with the old one, which decides
    the retention fields below) or ``"rebuilt"`` (a node was removed: the
    state was re-prepared and nothing is vouched for).  The names predate
    the single re-prepare path and stay because reports read them.  The
    cache-invalidation fields say which cached answers provably survived:
    see ``GraphService.update``.
    """

    mode: str
    seconds: float = 0.0
    delta_ops: int = 0
    touched_nodes: Set[NodeId] = field(default_factory=set)
    #: ``|G|`` before/after the delta (reported; pattern retention reads
    #: the caps themselves, :meth:`PreparedGraph.pattern_caps`).
    size_before: int = 0
    size_after: int = 0
    #: Per prepared α: the fresh index is answer-identical to the old one
    #: and no surviving component moved rank, so untouched cached answers
    #: are still exact.
    reach_alphas_preserved: Dict[float, bool] = field(default_factory=dict)
    #: Original nodes whose condensed component changed (merges/splits).
    membership_dirty: Set[NodeId] = field(default_factory=set)
    #: Always 0: no landmark is re-swept in place.  Kept for the reports
    #: that read it.
    dirty_landmarks: int = 0


def _child_only(span):
    """``span`` inside an open trace, a no-op outside one.

    A trace is one query batch or update.  A prepare stage belongs to one
    when it re-prepares after an update or builds lazily under a query; at
    set-up nothing is in flight, and a root span there would file a one-span
    "query" timeline with the flight recorder.  Either way the stage lands on
    its ``prepare.*.seconds`` histogram.
    """
    return span if obs.context.current() is not None else nullcontext()


def _freeze(graph: GraphLike) -> CSRGraph:
    """The serving substrate: ``graph`` itself when CSR, else its order-exact freeze."""
    if isinstance(graph, CSRGraph):
        return graph
    started = time.perf_counter()
    with _child_only(obs.span("prepare.freeze")):
        frozen = graph.freeze() if isinstance(graph, MutableOverlay) else CSRGraph.from_digraph(graph)
    obs.histogram("prepare.freeze.seconds").observe(time.perf_counter() - started)
    return frozen


class PreparedGraph:
    """The engine's prepared, read-only view of one data graph.

    Parameters
    ----------
    graph:
        The data graph.  Anything but a :class:`CSRGraph` (a ``DiGraph``, a
        ``MutableOverlay``) is frozen on entry with
        ``CSRGraph.from_digraph`` (an overlay over a CSR base with
        :meth:`MutableOverlay.freeze`), which preserves node and neighbour
        iteration order, so answers are those of the graph as given.
    reach_reference_size:
        Optional ``|G|`` used for the ``RBReach`` index budget instead of
        the serving graph's own size.  The sharded serving layer pins each
        shard's share of the global ``α·|G|`` budget here, so the per-shard
        indexes together stay within the paper's bound.
    pattern_reference_size / pattern_visit_coefficient:
        Optional overrides for the pattern matchers' resource budget
        (``α·|G|`` storage cap and visit coefficient ``c = d_G``).  A shard
        evaluates pattern queries on its subgraph but under the *global*
        graph's budget parameters, which is what makes shard-contained
        answers bit-identical to single-graph evaluation.
    """

    def __init__(
        self,
        graph: GraphLike,
        reach_reference_size: Optional[int] = None,
        pattern_reference_size: Optional[int] = None,
        pattern_visit_coefficient: Optional[float] = None,
    ):
        self.original = graph
        self.graph: CSRGraph = _freeze(graph)
        self._statistics: Optional[Mapping[str, object]] = None
        self._compressed: Optional[CompressedGraph] = None
        self._indexes: Dict[float, HierarchicalLandmarkIndex] = {}
        self._index_build_seconds: Dict[float, float] = {}
        self._rbreach: Dict[float, RBReach] = {}
        self._neighborhood: Optional[NeighborhoodIndex] = None
        self._rbsim: Dict[float, RBSim] = {}
        self._rbsub: Dict[float, RBSub] = {}
        self._reach_reference_size = reach_reference_size
        self._pattern_reference_size = pattern_reference_size
        self._pattern_visit_coefficient = pattern_visit_coefficient

    @property
    def backend(self) -> str:
        """Class name of the serving substrate (always ``CSRGraph``)."""
        return type(self.graph).__name__

    @property
    def statistics(self) -> Mapping[str, object]:
        """Label/degree statistics of the serving graph, computed on first use."""
        if self._statistics is None:
            self._statistics = summarize_for_report(self.graph, "prepared")
        return self._statistics

    def max_degree(self) -> int:
        """``d_G`` of the serving graph: one ``max`` over its degree column."""
        return self.graph.max_degree()

    # ------------------------------------------------------------------ #
    # Reachability state
    # ------------------------------------------------------------------ #
    def compressed(self) -> CompressedGraph:
        """The SCC condensation, built on first use (paper Section 5)."""
        if self._compressed is None:
            started = time.perf_counter()
            with _child_only(obs.span("prepare.compress")):
                self._compressed = compress(self.graph)
            obs.histogram("prepare.compress.seconds").observe(time.perf_counter() - started)
        return self._compressed

    def _reach_reference(self) -> int:
        """``|G|`` the α reachability budget is stated on (override-aware)."""
        if self._reach_reference_size is not None:
            return self._reach_reference_size
        return self.graph.size()

    def reachability_index(self, alpha: float) -> HierarchicalLandmarkIndex:
        """The hierarchical landmark index for ``alpha``, built on first use."""
        index = self._indexes.get(alpha)
        if index is None:
            compressed = self.compressed()
            started = time.perf_counter()
            with _child_only(obs.span("prepare.index", alpha=alpha)):
                index = build_index(compressed, alpha, reference_size=self._reach_reference())
            self._index_build_seconds[alpha] = time.perf_counter() - started
            obs.histogram("prepare.index.seconds").observe(self._index_build_seconds[alpha])
            self._indexes[alpha] = index
        return index

    def index_build_seconds(self, alpha: float) -> float:
        """Wall-clock cost of building the α index (0.0 if never built)."""
        return self._index_build_seconds.get(alpha, 0.0)

    def rbreach(self, alpha: float) -> RBReach:
        """A matcher over the α index (one per α, shared by all queries)."""
        matcher = self._rbreach.get(alpha)
        if matcher is None:
            matcher = RBReach(self.reachability_index(alpha))
            self._rbreach[alpha] = matcher
        return matcher

    # ------------------------------------------------------------------ #
    # Pattern state
    # ------------------------------------------------------------------ #
    def neighborhood_index(self) -> NeighborhoodIndex:
        """The shared ``Sl`` summaries consulted by the dynamic reduction.

        On a CSR substrate building it *is* the paper's offline pass: one
        vectorised sweep (about a millisecond per 10^5 edges) that leaves
        every node summarised.
        """
        if self._neighborhood is None:
            self._neighborhood = NeighborhoodIndex(self.graph)
        return self._neighborhood

    def _visit_coefficient(self) -> float:
        """The pinned ``c``, else ``d_G`` of the serving graph."""
        if self._pattern_visit_coefficient is not None:
            return self._pattern_visit_coefficient
        return float(max(1, self.max_degree()))

    def pattern_caps(self, alpha: float) -> Tuple[int, int]:
        """The caps ``(⌊α·|G|⌋, ⌊c·α·|G|⌋)`` a pattern search at ``alpha`` runs
        under on this graph: the matchers' budget, read without a search."""
        size = self._pattern_reference_size
        budget = ResourceBudget(alpha, self.graph.size() if size is None else size, self._visit_coefficient())
        return budget.size_limit, budget.visit_limit

    def rbsim(self, alpha: float) -> RBSim:
        """The strong-simulation matcher for ``alpha`` (shared index)."""
        return self._matcher(self._rbsim, RBSim, alpha)

    def rbsub(self, alpha: float) -> RBSub:
        """The subgraph-isomorphism matcher for ``alpha`` (shared index)."""
        return self._matcher(self._rbsub, RBSub, alpha)

    def _matcher(self, matchers: Dict[float, Matcher], matcher_class: Type[Matcher], alpha: float) -> Matcher:
        matcher = matchers.get(alpha)
        if matcher is None:
            matcher = matchers[alpha] = matcher_class(
                self.graph,
                alpha,
                config=RBSimConfig(visit_coefficient=self._visit_coefficient()),
                neighborhood_index=self.neighborhood_index(),
                reference_size=self._pattern_reference_size,
            )
        return matcher

    # ------------------------------------------------------------------ #
    # Eager preparation
    # ------------------------------------------------------------------ #
    def prepare(self, kind: str, alpha: float) -> None:
        """Eagerly build the state one query kind needs at one α.

        The engine calls this *before* dispatching to a worker pool so every
        worker receives finished state instead of rebuilding it: the build
        happens once in the parent, not once per worker.  For pattern kinds
        that includes the neighbourhood summaries, which on a CSR substrate
        are complete as soon as the matcher exists.
        """
        from repro.engine.queries import KINDS, REACH, SIMULATION

        if kind not in KINDS:
            raise EngineError(f"unknown query kind {kind!r}; known kinds: {', '.join(KINDS)}")
        if kind == REACH:
            self.rbreach(alpha)
        elif kind == SIMULATION:
            self.rbsim(alpha)
        else:
            self.rbsub(alpha)

    def state_signature(self) -> tuple:
        """Hashable token of which derived structures currently exist.

        The daemon pool re-forks its workers when this changes between
        batches (a new α index built, matchers dropped by an update), so
        long-lived workers never serve stale state.
        """
        return (
            tuple(sorted(self._indexes)),
            tuple(sorted(self._rbsim)),
            tuple(sorted(self._rbsub)),
            self._compressed is not None,
        )

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #
    def apply_delta(self, delta: GraphDelta) -> UpdateSummary:
        """Absorb a :class:`GraphDelta`: apply it, then re-prepare from arrays.

        The ops land one by one on a :class:`MutableOverlay` over the serving
        graph, which validates each with ``DiGraph`` semantics; the overlay
        then freezes into the next serving ``CSRGraph``
        (:meth:`MutableOverlay.freeze`, order exact) and what was built on
        the old graph — the condensation and each α index — is built again
        on the new one at once.  Matchers, summaries and statistics rebuild
        lazily.  Answers are therefore those of a :class:`PreparedGraph`
        freshly built on the updated graph.

        Cached answers survive by comparison of the old and the fresh
        state (``UpdateSummary``): an α index survives when it is
        answer-identical to the old one and no surviving component moved
        rank; the nodes of every component that split or merged join the
        touched region.  A delta that removes a node renumbers the graph,
        so nothing is compared (``rebuilt``).

        If an op in the delta is invalid (removing a missing edge, ...), the
        error propagates after the already-applied prefix is re-prepared
        the same way.
        """
        started = time.perf_counter()
        old_graph = self.graph
        overlay = MutableOverlay(old_graph)
        record = AppliedDelta()
        try:
            overlay.apply(delta, applied=record)
        except Exception:
            self._reprepare(overlay)
            raise

        summary = UpdateSummary(
            mode="noop",
            delta_ops=delta.size(),
            size_before=old_graph.size(),
            size_after=old_graph.size(),
        )
        if record.is_empty():
            summary.seconds = time.perf_counter() - started
            obs.counter("update.noop").inc()
            return summary
        old_compressed, old_indexes = self._compressed, self._indexes
        self._reprepare(overlay)
        summary.touched_nodes = record.touched_nodes()
        summary.size_after = self.graph.size()
        if record.nodes_removed:
            summary.mode = "rebuilt"
        elif old_compressed is None:
            summary.mode = "fresh"
        else:
            summary.mode = "patched"
            summary.membership_dirty, ranks_moved = component_changes(
                old_compressed, self._compressed, summary.touched_nodes
            )
            for alpha, old_index in old_indexes.items():
                summary.reach_alphas_preserved[alpha] = not ranks_moved and index_equivalent(
                    old_index, self._indexes[alpha]
                )
        summary.seconds = time.perf_counter() - started
        obs.counter("update." + summary.mode).inc()
        return summary

    def _reprepare(self, overlay: MutableOverlay) -> None:
        """Serve the overlay's freeze, rebuilding the condensation and α indexes that existed."""
        alphas = list(self._indexes)
        condensed = self._compressed is not None
        self.graph = _freeze(overlay)
        self.invalidate()
        self._neighborhood = None
        if condensed:
            self.compressed()
        for alpha in alphas:
            self.reachability_index(alpha)

    def invalidate(self) -> None:
        """Drop every derived structure, keeping the substrate; all of it rebuilds lazily."""
        self._compressed = None
        self._indexes = {}
        self._index_build_seconds = {}
        self._rbreach = {}
        self._rbsim = {}
        self._rbsub = {}
        self._statistics = None


# ----------------------------------------------------------------------- #
# Shared-memory publication (daemon pools)
# ----------------------------------------------------------------------- #
class _SubstitutingPickler(pickle.Pickler):
    """Pickler that swaps registered objects for persistent-id tokens.

    Used to publish prepared state without serialising the CSR substrate:
    every registered graph object (by identity) pickles as a token the
    unpickler resolves to the shared-memory attachment instead.
    """

    def __init__(self, file: io.BytesIO, substitutes: Dict[int, str]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._substitutes = substitutes

    def persistent_id(self, obj: Any) -> Optional[str]:
        return self._substitutes.get(id(obj))


class _ResolvingUnpickler(pickle.Unpickler):
    """Unpickler resolving persistent-id tokens to attached shared graphs."""

    def __init__(self, file: io.BytesIO, resolved: Dict[str, Any]):
        super().__init__(file)
        self._resolved = resolved

    def persistent_load(self, key: Any) -> Any:
        try:
            return self._resolved[key]
        except KeyError:  # pragma: no cover - publish/attach always agree
            raise EngineError(f"shared state payload references unknown segment {key!r}") from None


def _prepared_components(state: Any) -> "Iterator[PreparedGraph]":
    """Every :class:`PreparedGraph` reachable inside a publishable state.

    The engine publishes a bare prepared graph; the sharded engine publishes
    a mapping of per-shard states each carrying a ``prepared`` attribute.
    """
    if isinstance(state, PreparedGraph):
        yield state
    elif isinstance(state, Mapping):
        for value in state.values():
            prepared = getattr(value, "prepared", None)
            if isinstance(prepared, PreparedGraph):
                yield prepared


class SharedPreparedGraph:
    """Pickle-light handle to prepared state whose CSR arrays are shared.

    :meth:`publish` exports every CSR substrate (and condensation DAG
    mirror) found in the state into shared-memory segments
    (:meth:`CSRGraph.to_shared`) — adjacency arrays plus, for a substrate
    whose neighbourhood index exists, the label-presence bits that index
    reads, and, beside the DAG mirror, the columns behind the condensation
    and the ranks (``CompressedGraph.columns()``) — and pickles the *rest*
    (the landmark indexes, matchers) once, with the big graphs and columns
    replaced by attach-by-name tokens.  Workers call :meth:`attach` to
    rebuild the state: the derived structures unpickle, the graphs, the
    compression and the summaries over them resolve to zero-copy views of
    the shared pages.  ``state`` may be a :class:`PreparedGraph` or the sharded engine's
    ``{shard_id: ShardState}`` table.

    The publishing process owns the segments: :meth:`close` unlinks them.
    Unpickled copies (in workers) only ever detach.
    """

    def __init__(self, payload: bytes, segments: Dict[str, Any]):
        self._payload = payload
        self._segments = segments
        self._closed = False

    @classmethod
    def publish(cls, state: Any) -> "SharedPreparedGraph":
        """Export ``state`` for cross-process attachment."""
        segments: Dict[str, Any] = {}
        substitutes: Dict[int, str] = {}

        def share(graph: Any, columns: Optional[Mapping[str, Any]] = None) -> Optional[str]:
            if not isinstance(graph, CSRGraph):
                return None
            token = substitutes.get(id(graph))
            if token is None:
                token = f"csr{len(segments)}"
                segments[token] = graph.to_shared(columns=columns)
                substitutes[id(graph)] = token
                for name, column in (columns or {}).items():
                    substitutes[id(column)] = f"{token}/{name}"
            return token

        for prepared in _prepared_components(state):
            substrate = prepared.graph
            token = share(substrate)
            if prepared.original is not substrate:
                # Workers never consult the pre-freeze graph; resolving it
                # to the shared substrate keeps the multi-hundred-MB source
                # DiGraph out of the payload (order-exact mirror, so
                # membership/label reads agree).
                substitutes.setdefault(id(prepared.original), token)
            compressed = prepared._compressed
            if compressed is not None:
                # The compression's backing columns and the label columns of
                # every index over it ride in its DAG mirror's segment; the
                # pickle then carries a token per column.
                columns = compressed.columns()
                for alpha, index in prepared._indexes.items():
                    if index.compressed is compressed:
                        columns.update(
                            (f"{alpha}:{name}", column) for name, column in index.columns().items()
                        )
                share(compressed.dag_csr, columns)

        buffer = io.BytesIO()
        _SubstitutingPickler(buffer, substitutes).dump(state)
        return cls(buffer.getvalue(), segments)

    def attach(self) -> Any:
        """Rebuild the state in this process (zero-copy graph arrays)."""
        if self._closed:
            raise EngineError("shared prepared state is closed")
        resolved: Dict[str, Any] = {}
        for token, handle in self._segments.items():
            resolved[token] = handle.graph
            for name, column in handle.columns.items():
                resolved[f"{token}/{name}"] = column
        return _ResolvingUnpickler(io.BytesIO(self._payload), resolved).load()

    def segment_names(self) -> "list[str]":
        """Names of the shared segments backing this handle."""
        return sorted(handle.name for handle in self._segments.values())

    @property
    def payload_bytes(self) -> int:
        """Size of the pickled non-array payload (telemetry)."""
        return len(self._payload)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release every segment (unlink when owning).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for handle in self._segments.values():
            handle.close()

    def __enter__(self) -> "SharedPreparedGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def publish_state(state: Any) -> SharedPreparedGraph:
    """Publish any executor state (engine or sharded) for worker attachment."""
    return SharedPreparedGraph.publish(state)
