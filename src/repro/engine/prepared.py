"""Once-per-graph prepared state shared by every query in a batch.

The paper's premise is that queries "arrive by the thousands" while the
expensive work — freezing the graph into CSR, condensing SCCs, building the
hierarchical landmark index, summarising labels and degrees — happens *once*.
:class:`PreparedGraph` is that one-time product: an immutable-after-prepare
bundle the engine consults per query and ships to worker processes once per
state version, never per query.

The daemon pool reaches its workers through :class:`SharedPreparedGraph`,
under every start method: the array-shaped parts — CSR adjacency, the
neighbour-label presence bits behind the ``Sl`` summaries, and the
condensation and rank columns of a fresh CSR prepare — are copied into
shared-memory segments that workers map zero-copy, and only the rest
(landmark indexes, matchers: plain dicts and dataclasses) is pickled.
"""

from __future__ import annotations

import io
import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Set

from repro import obs
from repro.core.rbsim import RBSim, RBSimConfig
from repro.core.rbsub import RBSub, RBSubConfig
from repro.exceptions import EngineError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import NodeId
from repro.graph.neighborhood import NeighborhoodIndex
from repro.graph.protocol import GraphLike
from repro.graph.statistics import summarize_for_report
from repro.reachability.compression import CompressedGraph, compress
from repro.reachability.hierarchy import HierarchicalLandmarkIndex, build_index
from repro.reachability.rbreach import RBReach
from repro.updates.delta import AppliedDelta, GraphDelta
from repro.updates.overlay import MutableOverlay

DEFAULT_PATCH_THRESHOLD = 0.05
"""Deltas above this fraction of ``|G|`` skip patching (rebuild wins)."""

DEFAULT_COMPACT_THRESHOLD = 0.25
"""Overlay churn fraction beyond which the overlay folds into a fresh CSR."""


@dataclass
class UpdateSummary:
    """What one ``apply_delta`` call did to the prepared state.

    ``mode`` is ``"noop"`` (delta had no effect), ``"fresh"`` (no derived
    state existed yet — substrate updated, nothing to patch), ``"patched"``
    (condensation and indexes repaired in place) or ``"rebuilt"`` (derived
    state dropped, lazily rebuilt from scratch).  The cache-invalidation
    fields say which cached answers provably survived: see
    ``GraphService.update``.
    """

    mode: str
    seconds: float = 0.0
    delta_ops: int = 0
    touched_nodes: Set[NodeId] = field(default_factory=set)
    compacted: bool = False
    size_changed: bool = False
    #: ``|G|`` before/after the delta — the inputs of the per-α resource
    #: budget ``⌊α·|G|⌋``, so invalidation can tell a size drift that moves
    #: a budget from one that does not (see ``repro.engine.invalidation``).
    size_before: int = 0
    size_after: int = 0
    #: Per prepared α: the repaired index (plus ranks) is answer-identical
    #: to the pre-update one, so untouched cached answers are still exact.
    reach_alphas_preserved: Dict[float, bool] = field(default_factory=dict)
    #: Original nodes whose condensed component changed (merges/splits).
    membership_dirty: Set[NodeId] = field(default_factory=set)
    #: Nodes whose neighbourhood summary was invalidated.
    summaries_evicted: int = 0
    #: Degrees of the delta's touched nodes before/after the update — the
    #: only degrees that can move, so the engine's pattern-cache guard can
    #: detect max-degree changes without a full-graph scan.
    touched_degrees_before: Dict[NodeId, int] = field(default_factory=dict)
    touched_degrees_after: Dict[NodeId, int] = field(default_factory=dict)
    #: Landmarks re-swept across all repaired α indexes (``patched`` mode
    #: only) — the dominant cost of an in-place repair.
    dirty_landmarks: int = 0


def _child_only(span):
    """``span`` inside an open trace, a no-op outside one.

    A trace is one query batch or update.  A prepare stage belongs to one
    when it rebuilds after an update or builds lazily under a query; at
    set-up nothing is in flight, and a root span there would file a one-span
    "query" timeline with the flight recorder.  Either way the stage lands on
    its ``prepare.*.seconds`` histogram.
    """
    return span if obs.context.current() is not None else nullcontext()


def _timed_thaw(structure: str, thaw):
    """Run one array → container thaw on the ``prepare.thaw.*`` instruments."""
    started = time.perf_counter()
    thawed = thaw()
    obs.histogram("prepare.thaw.seconds").observe(time.perf_counter() - started)
    obs.counter("prepare.thaw." + structure).inc()
    return thawed


def maintained_max_degree(
    cached: Optional[int],
    before: Mapping[NodeId, int],
    after: Mapping[NodeId, int],
    nodes_removed: bool,
) -> Optional[int]:
    """``d_G`` after a delta, from the degrees of the nodes it named.

    Only a named node's degree can grow, so the maximum of ``cached`` and
    the ``after`` degrees is exact — unless a node at the cached maximum
    shrank (it may have been the unique holder) or a node was removed (its
    neighbours shrink without being named).  Then, or when nothing was
    cached, the answer is ``None``: only a scan can tell.
    """
    if cached is None or nodes_removed:
        return None
    if any(degree == cached and after.get(node, 0) < cached for node, degree in before.items()):
        return None
    return max(cached, max(after.values(), default=0))


def _freeze(graph: GraphLike) -> CSRGraph:
    """The serving substrate: ``graph`` itself when CSR, else its order-exact freeze."""
    if isinstance(graph, CSRGraph):
        return graph
    started = time.perf_counter()
    with _child_only(obs.span("prepare.freeze")):
        frozen = CSRGraph.from_digraph(graph)
    obs.histogram("prepare.freeze.seconds").observe(time.perf_counter() - started)
    return frozen


class PreparedGraph:
    """The engine's prepared, read-only view of one data graph.

    Parameters
    ----------
    graph:
        The data graph.  Anything but a :class:`CSRGraph` (a ``DiGraph``, a
        ``MutableOverlay``) is frozen on entry with
        ``CSRGraph.from_digraph``, which preserves node and neighbour
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
        self.graph: GraphLike = _freeze(graph)
        self._statistics: Optional[Mapping[str, object]] = None
        self._compressed: Optional[CompressedGraph] = None
        self._indexes: Dict[float, HierarchicalLandmarkIndex] = {}
        self._index_build_seconds: Dict[float, float] = {}
        self._rbreach: Dict[float, RBReach] = {}
        self._neighborhood: Optional[NeighborhoodIndex] = None
        self._rbsim: Dict[float, RBSim] = {}
        self._rbsub: Dict[float, RBSub] = {}
        self._maintainer = None  # CondensationMaintainer, built on first patch
        self._max_degree_cache: Optional[int] = None
        self._reach_reference_size = reach_reference_size
        self._pattern_reference_size = pattern_reference_size
        self._pattern_visit_coefficient = pattern_visit_coefficient

    @property
    def backend(self) -> str:
        """Class name of the serving substrate (``CSRGraph``; ``MutableOverlay`` after an update)."""
        return type(self.graph).__name__

    @property
    def statistics(self) -> Mapping[str, object]:
        """Label/degree statistics of the serving graph, computed on first use."""
        if self._statistics is None:
            self._statistics = summarize_for_report(self.graph, "prepared")
        return self._statistics

    def max_degree(self) -> int:
        """``d_G`` of the serving graph, scanned once and then maintained.

        ``apply_delta`` keeps the cached value current from the touched
        nodes' degree changes (the only degrees a delta can move), so
        repeated callers — the engine's pattern-cache guard — avoid paying
        a full-graph scan per update.
        """
        if self._max_degree_cache is None:
            self._max_degree_cache = self.graph.max_degree()
        return self._max_degree_cache

    # ------------------------------------------------------------------ #
    # Reachability state
    # ------------------------------------------------------------------ #
    def compressed(self) -> CompressedGraph:
        """The SCC condensation, built on first use (paper Section 5).

        Always condensed on a ``CSRGraph``: an overlay left by updates (a
        rebuild drops the condensation) is frozen first (``prepare.freeze``),
        so the array passes are the only prepare.
        """
        if self._compressed is None:
            if isinstance(self.graph, MutableOverlay):
                self._rebind_substrate(_freeze(self.graph))
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
        """The pinned ``c``, else ``d_G`` as :meth:`max_degree` maintains it.

        Handed to every matcher so a rebuilt one (each update drops them)
        does not rescan the degrees of the whole substrate for a value the
        delta's touched nodes already settled.
        """
        if self._pattern_visit_coefficient is not None:
            return self._pattern_visit_coefficient
        return float(max(1, self.max_degree()))

    def rbsim(self, alpha: float) -> RBSim:
        """The strong-simulation matcher for ``alpha`` (shared index)."""
        matcher = self._rbsim.get(alpha)
        if matcher is None:
            matcher = RBSim(
                self.graph,
                alpha,
                config=RBSimConfig(visit_coefficient=self._visit_coefficient()),
                neighborhood_index=self.neighborhood_index(),
                reference_size=self._pattern_reference_size,
            )
            self._rbsim[alpha] = matcher
        return matcher

    def rbsub(self, alpha: float) -> RBSub:
        """The subgraph-isomorphism matcher for ``alpha`` (shared index)."""
        matcher = self._rbsub.get(alpha)
        if matcher is None:
            matcher = RBSub(
                self.graph,
                alpha,
                config=RBSubConfig(visit_coefficient=self._visit_coefficient()),
                neighborhood_index=self.neighborhood_index(),
                reference_size=self._pattern_reference_size,
            )
            self._rbsub[alpha] = matcher
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

        The daemon pool republishes shared state when this changes between
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
    # Incremental updates
    # ------------------------------------------------------------------ #
    def apply_delta(
        self,
        delta: GraphDelta,
        patch_threshold: float = DEFAULT_PATCH_THRESHOLD,
        compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
    ) -> UpdateSummary:
        """Absorb a :class:`GraphDelta` into the prepared state.

        The substrate always updates in O(|delta|) via a
        :class:`MutableOverlay`; the derived state (condensation, per-α
        landmark indexes, neighbourhood summaries, statistics) is *patched*
        when the delta is small and free of node removals, and otherwise
        dropped for lazy rebuild.  Either way the post-update answers are
        bit-identical to a :class:`PreparedGraph` freshly built on the
        updated substrate — the rebuild-equivalence contract.

        If an op in the delta is invalid (removing a missing edge, ...), the
        error propagates after the already-applied prefix is made consistent
        by dropping all derived state.
        """
        started = time.perf_counter()
        if not isinstance(self.graph, MutableOverlay):
            self._rebind_substrate(MutableOverlay(self.graph))
        overlay: MutableOverlay = self.graph
        pre_size = overlay.size()

        # The maintainer's edge multiplicities must be bootstrapped from the
        # *pre-delta* graph, so build it before mutating the substrate.
        may_patch = (
            self._compressed is not None
            and not delta.has_node_removals()
            and delta.size() <= patch_threshold * max(1, pre_size)
        )
        if may_patch and self._maintainer is None:
            from repro.updates.scc import CondensationMaintainer

            compressed = self._compressed
            condensation = compressed.condensation
            if condensation.array_backed:
                # The first patch of a fresh CSR prepare: materialise the
                # containers the maintainer mutates, once and in bulk.
                condensation = _timed_thaw("condensation", condensation.thaw)
            self._maintainer = CondensationMaintainer.from_fresh(
                overlay, condensation, compressed.ranks, compressed.dag_csr
            )

        delta_touched = delta.touched_nodes()
        degrees_before = {
            node: overlay.degree(node) for node in delta_touched if node in overlay
        }

        record = AppliedDelta()
        try:
            overlay.apply(delta, applied=record)
        except Exception:
            self.invalidate()
            # The applied prefix touched summaries too; a fresh index reads
            # what the overlay has accumulated (touched_neighborhoods()).
            self._neighborhood = None
            raise

        summary = UpdateSummary(
            mode="noop", delta_ops=delta.size(), size_before=pre_size, size_after=pre_size
        )
        if record.is_empty():
            summary.seconds = time.perf_counter() - started
            obs.counter("update.noop").inc()
            return summary
        summary.touched_nodes = record.touched_nodes()
        summary.size_after = overlay.size()
        summary.size_changed = summary.size_after != pre_size
        summary.touched_degrees_before = degrees_before
        summary.touched_degrees_after = {
            node: overlay.degree(node) for node in delta_touched if node in overlay
        }
        # ``None`` re-derives it lazily.
        self._max_degree_cache = maintained_max_degree(
            self._max_degree_cache,
            degrees_before,
            summary.touched_degrees_after,
            bool(record.nodes_removed),
        )

        if self._compressed is None:
            summary.mode = "fresh"
        else:
            patch = None
            if may_patch and self._maintainer is not None:
                patch = self._maintainer.apply(overlay, record)
            if patch is None:
                self.invalidate()
                summary.mode = "rebuilt"
            else:
                summary.mode = "patched"
                self._patch_reachability(patch, summary)

        # Pattern-side state: matchers cache α·|G| budgets and max-degree
        # coefficients, so they are always rebuilt lazily; the shared
        # summaries survive minus the touched neighbourhoods.
        self._rbsim = {}
        self._rbsub = {}
        self._statistics = None
        if self._neighborhood is not None:
            summary.summaries_evicted = self._neighborhood.invalidate(record.summary_dirty)

        if overlay.fraction() > compact_threshold:
            self._rebind_substrate(overlay.compact())
            summary.compacted = True

        summary.seconds = time.perf_counter() - started
        obs.counter("update." + summary.mode).inc()
        if summary.dirty_landmarks:
            obs.counter("update.dirty.landmarks").inc(summary.dirty_landmarks)
        return summary

    def _patch_reachability(self, patch, summary: UpdateSummary) -> None:
        """Swap in the patched condensation and repair every built α index."""
        from repro.updates.index_repair import index_equivalent, repair_index

        new_compressed = CompressedGraph(
            original=self.graph,
            condensation=patch.condensation,
            ranks=patch.rank_index,
            dag_csr=self._maintainer.dag_mirror(),
        )
        self._compressed = new_compressed
        members = patch.condensation.members
        for component in patch.changed_components:
            summary.membership_dirty |= members[component]

        old_indexes = self._indexes
        self._indexes = {}
        self._rbreach = {}
        reference_size = self._reach_reference()
        dirty = patch.dirty_forward | patch.dirty_backward
        for alpha, old_index in old_indexes.items():
            summary.dirty_landmarks += sum(
                1 for landmark in old_index.landmarks if landmark in dirty
            )
            if type(old_index.forward_labels) is not dict:
                _timed_thaw("labels", old_index.thaw_labels)  # the repair patches dicts
            repaired = repair_index(old_index, new_compressed, patch, reference_size)
            self._indexes[alpha] = repaired
            summary.reach_alphas_preserved[alpha] = not patch.ranks_changed and index_equivalent(
                old_index, repaired
            )

    def _rebind_substrate(self, graph: GraphLike) -> None:
        """Swap the serving substrate, keeping content-derived state valid."""
        self.graph = graph
        if self._compressed is not None:
            self._compressed.original = graph
        if self._neighborhood is not None:
            self._neighborhood.rebind(graph)
        # Matchers hold direct substrate references; rebuild them lazily.
        self._rbsim = {}
        self._rbsub = {}
        self._rbreach = {}

    def invalidate(self) -> None:
        """Drop every derived structure, keeping the substrate; all of it rebuilds lazily."""
        self._compressed = None
        self._indexes = {}
        self._index_build_seconds = {}
        self._rbreach = {}
        self._rbsim = {}
        self._rbsub = {}
        self._statistics = None
        self._maintainer = None
        self._max_degree_cache = None


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
    reads, and, beside the DAG mirror of a fresh CSR prepare, the columns
    behind the condensation and the ranks (``CompressedGraph.columns()``) —
    and pickles the *rest* (the landmark indexes, matchers, the handful of
    per-node summaries an overlay has patched) once, with the big graphs
    and columns replaced by attach-by-name tokens.  Workers call
    :meth:`attach` to rebuild the state: the derived structures unpickle,
    the graphs, the compression and the summaries over them resolve to
    zero-copy views of the shared pages.  A compression an update has
    patched is container-backed and pickles whole, as before.
    ``state`` may be a :class:`PreparedGraph` or the sharded engine's
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
            if token is None and isinstance(substrate, MutableOverlay):
                # Post-update serving: the overlay deltas are small and
                # pickle; its frozen base is the big array payload.
                share(substrate.base)
            if token is not None and prepared.original is not substrate:
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
