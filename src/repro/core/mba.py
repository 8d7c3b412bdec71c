"""MBA — the MBRQT-Based ANN algorithm (paper Algorithms 2–4).

The traversal is *index-agnostic*: it works against any
:class:`~repro.index.base.PagedIndex`.  Run it over two MBRQTs and you
have **MBA**; run it over two R*-trees and you have **RBA** (Section
3.3.2 notes the algorithm is general purpose).  The public wrappers in
:mod:`repro.api` pick the index.

Structure (mirroring the paper):

* ``MBA`` (Algorithm 2): seed the root LPQ — owner is ``IR``'s root entry,
  containing ``IS``'s root entry — then drive the traversal.
* ``ANN-DFBI`` (Algorithm 3): depth-first recursion over the FIFO queue of
  child LPQs produced by each expansion.
* ``ExpandAndPrune`` (Algorithm 4): the three-stage pruning.

  - **Expand Stage** (node owner): the owner node and each surviving
    candidate entry are expanded *bi-directionally*; every child of the
    candidate is probed against every child LPQ with one vectorised
    cross-metric call, and enqueued only if ``MIND <= LPQ.MAXD``.
  - **Filter Stage**: tighter incoming MAXD values retire queued entries —
    implemented lazily inside :class:`~repro.core.lpq.LPQ`.
  - **Gather Stage** (object owner): pop in MIND order; every popped
    *object* is the next nearest neighbour (its MIND is exact and no
    remaining entry can beat it), so the first k objects popped are the
    kNN.

Counter contract: every entry pair the Expand Stage scores is charged two
``distance_evaluations`` (MINMINDIST plus the pruning bound), except an
object × object pair — a leaf owner's point probed against a target
point — which is charged one: for two points MINMINDIST, NXNDIST and
MAXMAXDIST all equal the exact distance, so
:func:`~repro.core.metrics.dist_points_cross` computes it once and it
serves as both bounds (bit-identical to the bound kernels).  The Gather
Stage likewise charges one per point it scores exactly.

Traversal-variant knobs reproduce the design-space ablation of Section
3.3.2: ``depth_first=False`` processes the LPQ queue breadth-first, and
``bidirectional=False`` descends only the query index per step, expanding
target entries exclusively in the Gather Stage.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import ExitStack

import numpy as np

from ..core.geometry import RectArray
from ..core.lpq import (
    OBJECT,
    LPQ,
    batch_bounds_rows,
    make_node_lpq,
    make_object_lpq,
)
from ..core.metrics import (
    dist_point_points,
    dist_points_cross,
    minmindist,
    minmindist_point_batch,
)
from ..core.pruning import PruningMetric
from ..core.result import NeighborResult
from ..core.stats import QueryStats
from ..index.base import Node, PagedIndex, ShardRoot
from ..obs.tracer import Tracer

__all__ = ["mba_join"]


def mba_join(
    index_r: PagedIndex,
    index_s: PagedIndex,
    metric: PruningMetric = PruningMetric.NXNDIST,
    k: int = 1,
    exclude_self: bool = False,
    depth_first: bool = True,
    bidirectional: bool = True,
    filter_stage: bool = True,
    batch_tighten: bool = True,
    early_break: bool = True,
    stats: QueryStats | None = None,
    root_entry: ShardRoot | None = None,
    seed_bound: float = math.inf,
    trace: Tracer | None = None,
) -> tuple[NeighborResult, QueryStats]:
    """All-(k-)nearest-neighbour join: for each point of ``index_r``'s
    dataset, find its k nearest neighbours among ``index_s``'s dataset.

    Parameters
    ----------
    index_r, index_s:
        Paged spatial indexes (MBRQT or R*-tree) over the query dataset R
        and target dataset S.
    metric:
        Pruning upper bound — ``NXNDIST`` (the paper's) or ``MAXMAXDIST``
        (the traditional baseline).
    k:
        Neighbours per query point (k=1 is ANN, k>1 is AkNN, Section 3.4).
    exclude_self:
        For self-joins (R and S are the same dataset with shared ids):
        do not report a point as its own neighbour.
    depth_first, bidirectional:
        Traversal-variant knobs; the defaults are the paper's MBA choice
        (DF-BI).
    filter_stage:
        Disable only for the Filter-Stage ablation benchmark.
    stats:
        Optional pre-existing counter bundle to accumulate into.
    root_entry:
        Optional query-side subtree to join instead of the whole of
        ``index_r`` (a :class:`~repro.index.base.ShardRoot`, typically
        from :meth:`~repro.index.base.PagedIndex.shard_roots`).  By Lemma
        3.2 the traversal rooted at any ``IR`` subtree is an independent,
        complete sub-join over that subtree's query points — the basis of
        the sharded executor in :mod:`repro.parallel`.  ``None`` (the
        default) joins the whole index, exactly as before.
    seed_bound:
        Inherited pruning bound seeding the root LPQ (default ``inf``,
        today's behaviour).  A shard coordinator may pass a tighter bound
        it has already established for ``root_entry``; it must be a valid
        upper bound on the k-NN distance of *every* query point under the
        shard root, or results will be wrong.
    trace:
        Optional :class:`~repro.obs.Tracer`.  When given, every Expand
        and Gather step accumulates into the current span's stage
        aggregates (with counter deltas), and a ``stats`` counter source
        is bound for the traversal unless an enclosing scope already
        bound one.  Tracing only *reads* counters, so traced and
        untraced runs are bit-identical; when ``None`` (the default) the
        only cost is one ``is None`` check per node expansion.

    Returns
    -------
    (result, stats):
        The :class:`NeighborResult` and the cost counters.  Simulated I/O
        time is *not* added here — the benchmark harness snapshots the
        storage manager around the call.
    """
    if index_r.dims != index_s.dims:
        raise ValueError(
            f"index dimensionality mismatch: {index_r.dims} vs {index_s.dims}"
        )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stats = stats if stats is not None else QueryStats()
    result = NeighborResult(k)
    need_count = k + 1 if exclude_self else k
    # MAXMAXDIST bounds every point of an entry, so subtree counts may feed
    # the AkNN bound; NXNDIST guarantees one point per entry (Lemma 3.1).
    counts_valid = metric is PruningMetric.MAXMAXDIST

    engine = _Engine(
        index_r,
        index_s,
        metric,
        k,
        exclude_self,
        bidirectional,
        filter_stage,
        need_count,
        counts_valid,
        batch_tighten,
        early_break,
        result,
        stats,
        trace,
    )

    # Algorithm 2 (MBA): seed the root LPQ with IS's root entry.  With a
    # shard root the LPQ is owned by that subtree's entry instead of IR's
    # root, inheriting the coordinator's seed bound.
    if root_entry is None:
        query_rect, query_id = index_r.root_rect, index_r.root_id
    else:
        query_rect, query_id = root_entry.rect, root_entry.node_id
    root_lpq = make_node_lpq(
        query_rect,
        query_id,
        seed_bound,
        stats,
        need_count=need_count,
        filter_enabled=filter_stage,
        counts_valid=counts_valid,
    )
    root_mind = minmindist(query_rect, index_s.root_rect)
    root_maxd = metric.scalar(query_rect, index_s.root_rect)
    stats.record_distances(2)
    root_rect = index_s.root_rect
    root_lpq.push_nodes(
        np.asarray([index_s.root_id]),
        np.asarray([index_s.size]),
        np.asarray([root_mind]),
        np.asarray([root_maxd]),
        rects=(root_rect.lo[None, :], root_rect.hi[None, :]) if not bidirectional else None,
    )

    with ExitStack() as scope:
        # Bind this traversal's stats as a counter source unless an
        # enclosing scope (a shard worker) already bound a wider one.
        if trace is not None and not trace.has_source("stats"):
            scope.enter_context(trace.source("stats", stats.as_dict))
        if depth_first:
            _run_depth_first(engine, root_lpq)
        else:
            queue = deque([root_lpq])
            while queue:
                lpq = queue.popleft()
                queue.extend(engine.expand_and_prune(lpq))

    result.finalize()
    stats.result_pairs += result.pair_count()
    return result, stats


def _run_depth_first(engine: "_Engine", lpq: LPQ) -> None:
    # Algorithm 3 (ANN-DFBI): recurse into each child LPQ in FIFO order.
    # An explicit stack avoids Python recursion limits on skewed quadtrees.
    stack = [lpq]
    while stack:
        current = stack.pop()
        children = engine.expand_and_prune(current)
        stack.extend(reversed(children))


class _Engine:
    """Shared state for one ``mba_join`` execution."""

    def __init__(
        self,
        index_r: PagedIndex,
        index_s: PagedIndex,
        metric: PruningMetric,
        k: int,
        exclude_self: bool,
        bidirectional: bool,
        filter_stage: bool,
        need_count: int,
        counts_valid: bool,
        batch_tighten: bool,
        early_break: bool,
        result: NeighborResult,
        stats: QueryStats,
        trace: Tracer | None = None,
    ) -> None:
        self.index_r = index_r
        self.index_s = index_s
        self.metric = metric
        self.k = k
        self.exclude_self = exclude_self
        self.bidirectional = bidirectional
        self.filter_stage = filter_stage
        self.need_count = need_count
        self.counts_valid = counts_valid
        self.batch_tighten = batch_tighten
        self.early_break = early_break
        self.result = result
        self.stats = stats
        self.trace = trace

    # -- Algorithm 4 -----------------------------------------------------------

    def expand_and_prune(self, lpq: LPQ) -> list[LPQ]:
        # The untraced branches are the hot path: tracing disabled costs
        # exactly one identity check here, and the traced branches call
        # the same methods, so results are bit-identical either way.
        trace = self.trace
        if lpq.owner_kind == OBJECT:
            if trace is None:
                self._gather(lpq)
            else:
                with trace.stage("gather"):
                    self._gather(lpq)
            return []
        if trace is None:
            return self._expand_node_owner(lpq)
        with trace.stage("expand"):
            return self._expand_node_owner(lpq)

    # -- Gather Stage (owner is a data object) ---------------------------------

    def _gather(self, lpq: LPQ) -> None:
        owner_point = lpq.owner_point
        owner_id = lpq.owner_id
        found = 0
        while found < self.k:
            popped = lpq.pop()
            if popped is None:
                break
            mind, kind, ident, __, ___, extra = popped
            if kind == OBJECT:
                if self.exclude_self and ident == owner_id:
                    continue
                # Objects pop in exact-distance order; no remaining entry
                # has a smaller lower bound, so this is the next NN.
                self.result.add(owner_id, ident, mind)
                found += 1
                continue
            snode = self.index_s.node(ident)
            self.stats.node_expansions += 1
            if snode.is_leaf:
                dists = dist_point_points(owner_point, snode.points)
                self.stats.record_distances(len(dists))
                bound = lpq.batch_bound(dists) if self.batch_tighten else lpq.bound
                mask = dists <= bound
                if np.any(mask):
                    d = dists[mask]
                    lpq.push_objects(snode.point_ids[mask], d, d, snode.points[mask])
            else:
                # Score the cheap lower bound first; the pruning metric only
                # needs evaluating on rows that can still make the queue.
                # Rows with MIND above the pre-batch bound cannot tighten
                # the batch bound either (their MAXD >= MIND exceeds every
                # candidate bound value), so the effective bound — and the
                # surviving set — is identical to scoring every row.
                minds = minmindist_point_batch(owner_point, snode.rects)
                pre = lpq.bound
                cand = minds <= pre
                n_cand = int(np.count_nonzero(cand))
                self.stats.record_distances(len(minds) + n_cand)
                if n_cand:
                    rects = snode.rects
                    sub = RectArray(rects.lo[cand], rects.hi[cand])
                    maxds = self.metric.batch(lpq.owner_rect, sub)
                    counts_sub = snode.counts[cand]
                    if self.batch_tighten:
                        bound = lpq.batch_bound(maxds, counts_sub)
                    else:
                        bound = pre
                    mask = minds[cand] <= bound
                    if np.any(mask):
                        # Gather-stage expansion reads nodes from the index,
                        # so entry rects never need to be retained here.
                        lpq.push_nodes(
                            snode.child_ids[cand][mask],
                            counts_sub[mask],
                            minds[cand][mask],
                            maxds[mask],
                        )

    # -- Expand Stage (owner is an index node) ----------------------------------

    def _expand_node_owner(self, lpq: LPQ) -> list[LPQ]:
        rnode = self.index_r.node(lpq.owner_node_id)
        self.stats.node_expansions += 1
        inherited = lpq.bound
        child_lpqs = self._make_child_lpqs(rnode, inherited)
        if not child_lpqs:
            # A childless owner cannot absorb any entry: everything still
            # queued is pruned wholesale.  (Previously this path crashed —
            # the snapshot refresh took ``bounds.max()`` over an empty
            # array.)
            self.stats.pruned_entries += len(lpq)
            return []
        owner_rects = rnode.rects
        # A leaf owner's children are data points: pairs they form with
        # target points are scored by exact distance, not the bound kernels.
        owner_points = rnode.points if rnode.is_leaf else None

        # Every child LPQ mirrors its bound into one shared array (updated
        # in place on push/pop), so reading all current bounds is a copy,
        # not a Python sweep over bound properties.
        shared = np.empty(len(child_lpqs), dtype=np.float64)
        for i, c in enumerate(child_lpqs):
            c.bind_bound_slot(shared, i)

        # Child bounds only tighten while this loop runs (their entries are
        # pushed here, never popped), so a periodically refreshed snapshot
        # of the max bound is a *conservative* gate: it can only delay the
        # break/skip, never cause a wrong prune.
        bounds = shared.copy()
        max_bound = float(bounds.max())
        pops_since_refresh = 0
        while True:
            popped = lpq.pop()
            if popped is None:
                break
            mind, kind, ident, count, maxd, extra = popped
            if mind > max_bound or pops_since_refresh >= 8:
                np.copyto(bounds, shared)
                max_bound = float(bounds.max())
                pops_since_refresh = 0
            pops_since_refresh += 1
            if mind > max_bound:
                if self.early_break:
                    # Every remaining entry has a larger MIND (the queue is
                    # MIND-ordered): prune them all at once.
                    self.stats.pruned_entries += len(lpq) + 1
                    break
                # Without the early break this entry still cannot
                # contribute to any child LPQ; skip it individually.
                self.stats.pruned_entries += 1
                continue
            if kind == OBJECT:
                self._probe_object(
                    child_lpqs, owner_rects, owner_points, bounds, ident, extra
                )
            elif self.bidirectional:
                self._probe_node_children(
                    child_lpqs, owner_rects, owner_points, shared, ident
                )
            else:
                self._probe_node_entry(child_lpqs, owner_rects, bounds, ident, count, extra)

        return [c for c in child_lpqs if not c.empty]

    def _make_child_lpqs(self, rnode: Node, inherited: float) -> list[LPQ]:
        if rnode.is_leaf:
            return [
                make_object_lpq(
                    rnode.points[i],
                    int(rnode.point_ids[i]),
                    inherited,
                    self.stats,
                    need_count=self.need_count,
                    filter_enabled=self.filter_stage,
                    counts_valid=self.counts_valid,
                )
                for i in range(rnode.n_entries)
            ]
        rects = rnode.rects
        return [
            make_node_lpq(
                rects[i],
                int(rnode.child_ids[i]),
                inherited,
                self.stats,
                need_count=self.need_count,
                filter_enabled=self.filter_stage,
                counts_valid=self.counts_valid,
            )
            for i in range(rnode.n_entries)
        ]

    @staticmethod
    def _single_rect(lo: np.ndarray, hi: np.ndarray) -> RectArray:
        """One-rect :class:`RectArray` without re-validating the invariant
        (the rows come from an index node or a data point — already valid).
        """
        target = RectArray.__new__(RectArray)
        target.lo = lo[None, :]
        target.hi = hi[None, :]
        return target

    def _probe_object(
        self,
        child_lpqs: list[LPQ],
        owner_rects: RectArray,
        owner_points: np.ndarray | None,
        bounds: np.ndarray,
        point_id: int,
        point: np.ndarray,
    ) -> None:
        """Probe a single target data object against every child LPQ."""
        if owner_points is not None:
            minds = maxds = dist_points_cross(owner_points, point[None, :])[:, 0]
            self.stats.record_distances(len(minds))
        else:
            target = self._single_rect(point, point)
            minds, maxds = self.metric.cross_pair(owner_rects, target)
            minds = minds[:, 0]
            maxds = maxds[:, 0]
            self.stats.record_distances(2 * len(minds))
        hits = np.nonzero(minds <= bounds)[0]
        for c in hits:
            child_lpqs[c].push_object_single(
                point_id, float(minds[c]), float(maxds[c]), point
            )
        self.stats.pruned_entries += len(minds) - len(hits)

    def _probe_node_children(
        self,
        child_lpqs: list[LPQ],
        owner_rects: RectArray,
        owner_points: np.ndarray | None,
        lpq_bounds: np.ndarray,
        node_id: int,
    ) -> None:
        """Bi-directional expansion: probe the target node's children.

        ``lpq_bounds`` is the *live* shared bounds array (every child LPQ
        writes its bound there eagerly), so this stage always sees current
        bounds — exactly as when it recomputed them per call.  Leaf owner
        × leaf target is a point × point block: the exact distance is
        both bounds, one evaluation per pair.
        """
        snode = self.index_s.node(node_id)
        self.stats.node_expansions += 1
        is_leaf = snode.is_leaf
        if owner_points is not None and is_leaf:
            mind_mat = maxd_mat = dist_points_cross(owner_points, snode.points)
            self.stats.record_distances(mind_mat.size)
        else:
            mind_mat, maxd_mat = self.metric.cross_pair(owner_rects, snode.rects)
            self.stats.record_distances(2 * mind_mat.size)
        counts = None if is_leaf else snode.counts

        if self.batch_tighten:
            eff_bounds = batch_bounds_rows(
                maxd_mat, counts, self.need_count, self.counts_valid, lpq_bounds
            )
        else:
            eff_bounds = lpq_bounds
        mask_mat = mind_mat <= eff_bounds[:, None]
        hit_total = int(np.count_nonzero(mask_mat))
        self.stats.pruned_entries += int(mask_mat.size) - hit_total
        if hit_total == 0:
            return

        # One pass extracts every surviving (child, entry) pair in row-major
        # order — grouped by child, entries ascending — as Python scalars;
        # the per-child boolean-mask slicing this replaces dominated the
        # probe's CPU cost (a handful of hits per probe, but four masked
        # gathers per child that had any).
        rows, cols = np.nonzero(mask_mat)
        rows_l = rows.tolist()
        cols_l = cols.tolist()
        minds_l = mind_mat[mask_mat].tolist()
        maxds_l = maxd_mat[mask_mat].tolist()
        ids_l = snode.entry_ids_list
        counts_l = None if is_leaf else snode.counts_list
        point_rows = snode.point_rows if is_leaf else None
        i = 0
        while i < hit_total:
            c = rows_l[i]
            j = i + 1
            while j < hit_total and rows_l[j] == c:
                j += 1
            child = child_lpqs[c]
            sel = cols_l[i:j]
            if point_rows is not None:
                child.push_object_rows(
                    [ids_l[t] for t in sel],
                    minds_l[i:j],
                    maxds_l[i:j],
                    [point_rows[t] for t in sel],
                )
            else:
                # Bi-directional expansion reads child nodes from the index
                # on their own expansion, so entry rects need not be
                # retained here; only `_probe_node_entry` (the
                # uni-directional variant) carries rects forward.
                child.push_node_rows(
                    [ids_l[t] for t in sel],
                    [counts_l[t] for t in sel],  # type: ignore[index]
                    minds_l[i:j],
                    maxds_l[i:j],
                )
            i = j

    def _probe_node_entry(
        self,
        child_lpqs: list[LPQ],
        owner_rects: RectArray,
        bounds: np.ndarray,
        node_id: int,
        count: int,
        extra: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Uni-directional variant: re-score the entry itself (no expansion)."""
        lo, hi = extra
        target = self._single_rect(lo, hi)
        minds, maxds = self.metric.cross_pair(owner_rects, target)
        minds = minds[:, 0]
        maxds = maxds[:, 0]
        self.stats.record_distances(2 * len(minds))
        rect = (lo, hi)
        hits = np.nonzero(minds <= bounds)[0]
        for c in hits:
            child_lpqs[c].push_node_single(
                node_id, count, float(minds[c]), float(maxds[c]), rect=rect
            )
        self.stats.pruned_entries += len(minds) - len(hits)
