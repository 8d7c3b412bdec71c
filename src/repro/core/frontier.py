"""Level-synchronous frontier engine for multi-query MBA traversal.

:func:`~repro.core.mba.mba_join` realises the paper's Algorithms 2–4 as a
recursion over Local Priority Queues: every query-side entry owns an LPQ,
and each ``ExpandAndPrune`` call drains one queue entry-by-entry in
Python.  This module flattens that recursion into **frontier-at-a-time**
batches: the whole traversal state lives in two columnar tables —

* the **owner table** — one row per live query-side entry (an ``IR``
  node/child or a data object): kind, id, MBR (``lo``/``hi`` rows) and
  the entry's current pruning bound (the LPQ's MAXD field);
* the **pair table** — one row per live (owner, candidate) pair (an LPQ
  entry): owner row id, candidate kind/id/subtree count, candidate MBR,
  and the pair's MIND/MAXD scores.

One level of the traversal is the paper's ``ExpandAndPrune`` unrolled
into whole-frontier array passes, in the same distribute → filter →
expand order Algorithm 3 uses so bounds are always tightened *before*
the expensive target-side fan-out:

* **Split** (Algorithm 3's distribute step) — every node owner splits
  into its children (leaf nodes into object owners) and its pairs are
  re-scored against each child in one fused row-wise kernel call
  (:meth:`~repro.core.pruning.PruningMetric.pair_rows`), inheriting the
  parent's bound; pairs of object owners carry over untouched.
* **Filter** — every owner's bound is recomputed from its live pairs
  (the smallest MAXD whose sorted prefix guarantees ``need_count``
  points, exactly the LPQ bound rule of Section 3.3.1) with one
  ``lexsort`` + segmented cumulative sum over the whole pair table, and
  pairs with ``MIND > bound`` retire in one boolean mask.  Filter runs
  after every Split pass, so the target fan-out only ever sees
  post-filter survivors.
* **Expand** — node pairs expand bi-directionally into their children
  and are scored against their (unchanged) owners in two phases: the
  ``need`` closest node pairs per owner expand first and their
  children's MAXDs re-tighten the owner bounds, then the remaining
  pairs face the tightened bounds — whole pairs whose MIND now exceeds
  the bound drop without building a single combination, first-phase
  rows and carried object pairs re-test retroactively, so no separate
  Filter pass follows.  Every index node referenced anywhere in the
  frontier is fetched and decoded **once per pass** (the per-level
  dedup rides the decoded-node LRU above the buffer pool).
* **Gather** — when every owner is an object and every pair is an
  object, one ``lexsort`` ranks candidates per owner by ``(distance,
  id)`` and the k best per owner become the answer.

The engine is *answer-identical* to ``mba_join``: exact object-object
distances come from :func:`~repro.core.metrics.dist_points_rows`, the
helper ``mba_join`` shares for point pairs (bit-identical to
:func:`~repro.core.metrics.dist_point_points` and to either half of the
bound kernels on point rects), bounds are valid by the
same Lemma 3.1/3.2 arguments, and a valid bound can never retire a true
k-NN member — so after :meth:`~repro.core.result.NeighborResult.
finalize` both engines report the same pairs with the same float
distances (the golden tests replay this against the recorded fixture).
Traversal *order* is deliberately different (level-synchronous instead
of depth-first), so per-pop goldens do not apply; the frontier defines
its own counter contract:

* ``node_expansions`` — deduplicated node fetches (each node once per
  pass, query and target side);
* ``distance_evaluations`` — two per scored (owner, candidate) row
  (MIND + MAXD), except object-object rows where one exact distance
  serves as both — the same rule as the recursive engine;
* ``pruned_entries`` — scored rows rejected by the owner's inherited
  bound at creation time;
* ``lpq_filter_discards`` — pairs retired by a synchronous Filter pass
  or by an Expand pass's mid-level bound tightening (whole node pairs
  pre-dropped, first-phase rows retired retroactively, carried object
  pairs re-tested);
* ``lpq_enqueues`` — pair rows created (by Split re-scoring or Expand);
* ``lpq_pops`` — node pairs consumed by Expand passes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import ExitStack

import numpy as np

from ..index.base import PagedIndex
from ..obs.tracer import Tracer
from .metrics import dist_points_rows
from .pruning import PruningMetric
from .result import NeighborResult
from .stats import QueryStats

__all__ = ["frontier_join"]

_NODE = 0
_OBJECT = 1


def frontier_join(
    index_r: PagedIndex,
    index_s: PagedIndex,
    metric: PruningMetric = PruningMetric.NXNDIST,
    k: int = 1,
    exclude_self: bool = False,
    stats: QueryStats | None = None,
    trace: Tracer | None = None,
) -> tuple[NeighborResult, QueryStats]:
    """All-(k-)nearest-neighbour join, one numpy dispatch per level.

    Same contract as :func:`~repro.core.mba.mba_join` (answer-identical;
    see the module docstring for the counter differences).  The
    traversal-variant knobs (``depth_first``, ``bidirectional``, …) do
    not apply: the frontier is inherently breadth-first and
    bi-directional — the paper's recommended MBA configuration.

    Parameters
    ----------
    index_r, index_s:
        Paged spatial indexes (MBRQT or R*-tree) over query dataset R
        and target dataset S.
    metric:
        Pruning upper bound — ``NXNDIST`` (the paper's) or
        ``MAXMAXDIST``.
    k:
        Neighbours per query point.
    exclude_self:
        Self-join convention: do not report a point as its own
        neighbour.
    stats:
        Optional pre-existing counter bundle to accumulate into.
    trace:
        Optional :class:`~repro.obs.Tracer`; the Split/Expand passes and
        the final Gather accumulate into the current span's ``expand``
        and ``gather`` stage aggregates and every bound-tightening pass
        into ``filter``, and a ``stats`` counter source is bound unless
        an enclosing scope already bound one.
    """
    if index_r.dims != index_s.dims:
        raise ValueError(
            f"index dimensionality mismatch: {index_r.dims} vs {index_s.dims}"
        )
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stats = stats if stats is not None else QueryStats()
    result = NeighborResult(k)
    engine = _FrontierEngine(index_r, index_s, metric, k, exclude_self, stats)

    with ExitStack() as scope:
        if trace is not None and not trace.has_source("stats"):
            scope.enter_context(trace.source("stats", stats.as_dict))
        _staged(trace, "filter", engine.filter_level)
        while not engine.done:
            if bool(np.any(engine.own_kind == _NODE)):
                _staged(trace, "expand", engine.split_owners)
                _staged(trace, "filter", engine.filter_level)
            if bool(np.any(engine.p_kind == _NODE)):
                # No separate Filter pass here: expand_pairs tightens
                # bounds mid-pass from its first-phase exact scores and
                # leaves only pairs those bounds admit.
                _staged(trace, "expand", engine.expand_pairs)
        _staged(trace, "gather", lambda: engine.gather(result))

    result.finalize()
    stats.result_pairs += result.pair_count()
    return result, stats


def _staged(trace: Tracer | None, stage: str, fn: Callable[[], None]) -> None:
    """Run one traversal pass, attributed to a trace stage when tracing."""
    if trace is None:
        fn()
    else:
        with trace.stage(stage):
            fn()


class _FrontierEngine:
    """Columnar state of one :func:`frontier_join` execution.

    Single-threaded: both tables are private to the running join, so no
    cross-thread guards apply.  All columns are rebuilt wholesale each
    pass — rows are never mutated in place except the owner-bound
    column, which only ever tightens (a bound established from any valid
    live pair set is a true statement about the data, so it remains
    valid for the owner and every descendant forever).
    """

    def __init__(
        self,
        index_r: PagedIndex,
        index_s: PagedIndex,
        metric: PruningMetric,
        k: int,
        exclude_self: bool,
        stats: QueryStats,
    ) -> None:
        self.index_r = index_r
        self.index_s = index_s
        self.metric = metric
        self.k = k
        self.exclude_self = exclude_self
        # With exclude_self the self point may be among the guaranteed
        # points, so the bound must cover one extra (as in mba_join).
        self.need = k + 1 if exclude_self else k
        # MAXMAXDIST bounds every point of an entry, so subtree counts
        # feed the AkNN bound; NXNDIST guarantees one point (Lemma 3.1).
        self.counts_valid = metric is PruningMetric.MAXMAXDIST
        self.stats = stats

        # Owner table seed: IR's root entry.
        root = index_r.root_rect
        self.own_kind = np.array([_NODE], dtype=np.int8)
        self.own_id = np.array([index_r.root_id], dtype=np.int64)
        self.own_lo = root.lo[None, :]
        self.own_hi = root.hi[None, :]
        self.own_bound = np.array([math.inf], dtype=np.float64)

        # Pair table seed: IS's root entry in the root owner's queue
        # (Algorithm 2).
        s_root = index_s.root_rect
        mind, maxd = metric.pair_rows(
            self.own_lo, self.own_hi, s_root.lo[None, :], s_root.hi[None, :]
        )
        stats.record_distances(2)
        self.p_owner = np.zeros(1, dtype=np.int64)
        self.p_kind = np.array([_NODE], dtype=np.int8)
        self.p_id = np.array([index_s.root_id], dtype=np.int64)
        self.p_count = np.array([index_s.size], dtype=np.int64)
        self.p_lo = np.array(s_root.lo[None, :])
        self.p_hi = np.array(s_root.hi[None, :])
        self.p_mind = mind
        self.p_maxd = maxd

    @property
    def done(self) -> bool:
        """True once nothing is left to split or expand."""
        return not (
            bool(np.any(self.own_kind == _NODE)) or bool(np.any(self.p_kind == _NODE))
        )

    # -- Filter pass ---------------------------------------------------------

    def filter_level(self) -> None:
        """Synchronous Filter Stage over the whole frontier.

        Recomputes every owner's bound from its live pairs — the
        smallest MAXD whose prefix of the (MAXD-sorted) pairs guarantees
        ``need`` points, i.e. the LPQ bound rule of Section 3.3.1 — then
        retires every pair whose MIND exceeds its owner's bound.  Live
        pairs of one owner always hold pairwise-disjoint point sets
        (each Expand pass replaces a node pair by its children), so
        claims may accumulate under MAXMAXDIST exactly as in the LPQ.
        """
        n = len(self.p_owner)
        if n == 0:
            return
        self._tighten_bounds(self.p_owner, self.p_maxd, self.p_count)
        keep = self.p_mind <= self.own_bound[self.p_owner]
        dropped = n - int(np.count_nonzero(keep))
        if dropped:
            self.stats.lpq_filter_discards += dropped
            self._take_pairs(keep)

    def _tighten_bounds(
        self, p_owner: np.ndarray, p_maxd: np.ndarray, p_count: np.ndarray
    ) -> None:
        """Tighten owner bounds from any disjoint live subset of pairs.

        A bound derived from *any* subset of an owner's live pairs is
        valid (it only states that ``need`` points exist within it), so
        callers may pass a partial view to tighten early — the Expand
        pass uses this to re-bound owners from the closest pairs' exact
        distances before scoring the bulk of a level.
        """
        n = len(p_owner)
        if n == 0:
            return
        # Grouped-by-owner, MAXD-ascending order.  Equivalent to
        # np.lexsort((p_maxd, p_owner)) but ~2x faster: quicksort on the
        # float key, then a stable integer sort on the owner key (equal
        # MAXDs may permute, which cannot change any bound value).
        o1 = np.argsort(p_maxd)
        o2 = np.argsort(p_owner[o1], kind="stable")
        order = o1[o2]
        own_s = p_owner[order]
        maxd_s = p_maxd[order]
        seg_first = np.flatnonzero(np.r_[True, own_s[1:] != own_s[:-1]])
        bound = self.own_bound
        if self.need == 1:
            owners = own_s[seg_first]
            bound[owners] = np.minimum(bound[owners], maxd_s[seg_first])
        else:
            if self.counts_valid:
                claims = p_count[order]
            else:
                claims = np.ones(n, dtype=np.int64)
            cum = np.cumsum(claims)
            seg_len = np.diff(np.r_[seg_first, n])
            base = np.zeros(len(seg_first), dtype=np.int64)
            base[1:] = cum[seg_first[1:] - 1]
            within = cum - np.repeat(base, seg_len)
            reach = np.flatnonzero(within >= self.need)
            if len(reach):
                # First reaching position per owner segment: ``reach``
                # ascends, so np.unique's first-occurrence index is it.
                seg_of = np.searchsorted(seg_first, reach, side="right") - 1
                first_seg, first_at = np.unique(seg_of, return_index=True)
                owners = own_s[seg_first[first_seg]]
                bound[owners] = np.minimum(bound[owners], maxd_s[reach[first_at]])

    def _tighten_unit_grouped(self, owners: np.ndarray, maxd: np.ndarray) -> None:
        """Sort-free bound tightening for unit-claim, owner-grouped rows.

        When every row claims exactly one point (always under NXNDIST;
        under MAXMAXDIST whenever the rows are object entries) the bound
        candidate is simply the ``need``-th smallest MAXD per owner.
        Rows grouped contiguously by owner scatter into an
        ``(owners, max segment)`` rectangle padded with ``inf``, and one
        ``np.partition`` per row yields every owner's candidate in O(n)
        — no argsort.  Produces bit-identical bounds to
        :meth:`_tighten_bounds` on the same rows.
        """
        n = len(owners)
        if n == 0:
            return
        seg_first = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
        seg_len = np.diff(np.r_[seg_first, n])
        width = max(int(seg_len.max()), self.need)
        if len(seg_first) * width > 16 * n:
            # Pathologically ragged segments: the padded rectangle would
            # dwarf the row count, so the sort-based path is cheaper.
            self._tighten_bounds(owners, maxd, np.ones(n, dtype=np.int64))
            return
        pad = np.full((len(seg_first), width), np.inf)
        rows = np.repeat(np.arange(len(seg_first), dtype=np.int64), seg_len)
        pos = np.arange(n, dtype=np.int64) - np.repeat(seg_first, seg_len)
        pad[rows, pos] = maxd
        kth = np.partition(pad, self.need - 1, axis=1)[:, self.need - 1]
        owners_u = owners[seg_first]
        self.own_bound[owners_u] = np.minimum(self.own_bound[owners_u], kth)

    def _take_pairs(self, sel: np.ndarray) -> None:
        self.p_owner = self.p_owner[sel]
        self.p_kind = self.p_kind[sel]
        self.p_id = self.p_id[sel]
        self.p_count = self.p_count[sel]
        self.p_lo = self.p_lo[sel]
        self.p_hi = self.p_hi[sel]
        self.p_mind = self.p_mind[sel]
        self.p_maxd = self.p_maxd[sel]

    # -- Split pass (Algorithm 3's distribute step) --------------------------

    def split_owners(self) -> None:
        """Split every node owner into its children, re-scoring its pairs.

        The query-side half of one ``ExpandAndPrune`` level: a node
        owner's pairs are distributed to all of its children with fresh
        MIND/MAXD scores under the parent's inherited bound — the
        target side stays untouched, so the fan-out is ``children`` per
        pair rather than ``children x entries`` (the Filter pass that
        follows tightens every child's bound before
        :meth:`expand_pairs` pays for the target side).  Pairs of
        object owners carry over unchanged, merely re-pointed at the
        owner's new row.
        """
        active = np.unique(self.p_owner)
        dims = self.own_lo.shape[1]
        if len(active) == 0:
            # Owners without live pairs produce no results; drop them.
            self._install_owners(
                np.empty(0, dtype=np.int8),
                np.empty(0, dtype=np.int64),
                np.empty((0, dims)),
                np.empty((0, dims)),
                np.empty(0, dtype=np.float64),
            )
            return
        a_kind = self.own_kind[active]
        node_sel = np.flatnonzero(a_kind == _NODE)
        obj_sel = np.flatnonzero(a_kind == _OBJECT)

        # New owner table.  Every owner row references a distinct IR
        # node, so this fetch loop touches each node exactly once.
        rnodes = [self.index_r.node(int(i)) for i in self.own_id[active[node_sel]]]
        self.stats.node_expansions += len(rnodes)
        new_count = np.ones(len(active), dtype=np.int64)
        for j, rnode in zip(node_sel.tolist(), rnodes):
            new_count[j] = rnode.n_entries
        new_start = np.zeros(len(active), dtype=np.int64)
        np.cumsum(new_count[:-1], out=new_start[1:])
        total_new = int(new_start[-1] + new_count[-1])
        n_kind = np.empty(total_new, dtype=np.int8)
        n_id = np.empty(total_new, dtype=np.int64)
        n_lo = np.empty((total_new, dims), dtype=np.float64)
        n_hi = np.empty((total_new, dims), dtype=np.float64)
        # Children inherit the parent's bound (valid for any entry
        # contained in the parent; Lemma 3.2 for the NXNDIST half).
        n_bound = np.repeat(self.own_bound[active], new_count)
        if len(obj_sel):
            rows = new_start[obj_sel]
            src = active[obj_sel]
            n_kind[rows] = _OBJECT
            n_id[rows] = self.own_id[src]
            n_lo[rows] = self.own_lo[src]
            n_hi[rows] = self.own_hi[src]
        for j, rnode in zip(node_sel.tolist(), rnodes):
            s = int(new_start[j])
            e = s + int(new_count[j])
            if rnode.is_leaf:
                assert rnode.point_ids is not None and rnode.points is not None
                n_kind[s:e] = _OBJECT
                n_id[s:e] = rnode.point_ids
                n_lo[s:e] = rnode.points
                n_hi[s:e] = rnode.points
            else:
                assert rnode.child_ids is not None
                rects = rnode.rects
                n_kind[s:e] = _NODE
                n_id[s:e] = rnode.child_ids
                n_lo[s:e] = rects.lo
                n_hi[s:e] = rects.hi

        # Distribute: pairs of splitting owners replicate to each child
        # and re-score; pairs of object owners only re-point.
        ao = np.searchsorted(active, self.p_owner)
        owner_is_node = self.own_kind[self.p_owner] == _NODE
        exp = np.flatnonzero(owner_is_node)
        carry = np.flatnonzero(~owner_is_node)
        carry_owner = new_start[ao[carry]]
        r_mult = new_count[ao[exp]]
        total = int(r_mult.sum())
        if total:
            pair_rep = np.repeat(exp, r_mult)
            cumstart = np.zeros(len(exp), dtype=np.int64)
            np.cumsum(r_mult[:-1], out=cumstart[1:])
            offs = np.arange(total, dtype=np.int64) - np.repeat(cumstart, r_mult)
            a_row = np.repeat(new_start[ao[exp]], r_mult) + offs
            mind, maxd = self.metric.pair_rows(
                n_lo[a_row], n_hi[a_row], self.p_lo[pair_rep], self.p_hi[pair_rep]
            )
            self.stats.record_distances(2 * total)
            keep = mind <= n_bound[a_row]
            kept = int(np.count_nonzero(keep))
            self.stats.pruned_entries += total - kept
            self.stats.lpq_enqueues += kept
            rep_keep = pair_rep[keep]
            self.p_owner = np.concatenate([a_row[keep], carry_owner])
            self.p_kind = np.concatenate([self.p_kind[rep_keep], self.p_kind[carry]])
            self.p_id = np.concatenate([self.p_id[rep_keep], self.p_id[carry]])
            self.p_count = np.concatenate([self.p_count[rep_keep], self.p_count[carry]])
            self.p_lo = np.concatenate([self.p_lo[rep_keep], self.p_lo[carry]])
            self.p_hi = np.concatenate([self.p_hi[rep_keep], self.p_hi[carry]])
            self.p_mind = np.concatenate([mind[keep], self.p_mind[carry]])
            self.p_maxd = np.concatenate([maxd[keep], self.p_maxd[carry]])
        else:
            self._take_pairs(carry)
            self.p_owner = carry_owner

        self._install_owners(n_kind, n_id, n_lo, n_hi, n_bound)

    def _install_owners(
        self,
        kind: np.ndarray,
        ids: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        bound: np.ndarray,
    ) -> None:
        self.own_kind = kind
        self.own_id = ids
        self.own_lo = lo
        self.own_hi = hi
        self.own_bound = bound

    # -- Expand pass ---------------------------------------------------------

    def expand_pairs(self) -> None:
        """Expand every node pair into its children, fully vectorised.

        The target-side half of one level: every distinct IS node in
        the frontier is fetched and decoded once, all (owner, child
        entry) rows are flattened into gather indices and scored by one
        fused row-wise kernel call against the owners' current bounds.
        Object pairs carry over unchanged.
        """
        pair_is_node = self.p_kind == _NODE
        exp = np.flatnonzero(pair_is_node)
        carry = np.flatnonzero(~pair_is_node)
        dims = self.own_lo.shape[1]

        s_ids, s_inv = np.unique(self.p_id[exp], return_inverse=True)
        snodes = [self.index_s.node(int(i)) for i in s_ids]
        self.stats.node_expansions += len(snodes)
        self.stats.lpq_pops += len(exp)
        ent_counts = np.array([nd.n_entries for nd in snodes], dtype=np.int64)
        ent_starts = np.zeros(len(snodes), dtype=np.int64)
        if len(snodes):
            np.cumsum(ent_counts[:-1], out=ent_starts[1:])
        total_ent = int(ent_counts.sum())
        e_kind = np.empty(total_ent, dtype=np.int8)
        e_id = np.empty(total_ent, dtype=np.int64)
        e_count = np.empty(total_ent, dtype=np.int64)
        e_lo = np.empty((total_ent, dims), dtype=np.float64)
        e_hi = np.empty((total_ent, dims), dtype=np.float64)
        for i, snode in enumerate(snodes):
            s = int(ent_starts[i])
            e = s + int(ent_counts[i])
            if snode.is_leaf:
                assert snode.point_ids is not None and snode.points is not None
                e_kind[s:e] = _OBJECT
                e_id[s:e] = snode.point_ids
                e_count[s:e] = 1
                e_lo[s:e] = snode.points
                e_hi[s:e] = snode.points
            else:
                assert snode.child_ids is not None and snode.counts is not None
                rects = snode.rects
                e_kind[s:e] = _NODE
                e_id[s:e] = snode.child_ids
                e_count[s:e] = snode.counts
                e_lo[s:e] = rects.lo
                e_hi[s:e] = rects.hi

        degenerate = not np.any(e_kind == _NODE) and not np.any(
            self.own_kind == _NODE
        )

        def score(sub: np.ndarray) -> tuple[np.ndarray, ...]:
            """Score all (owner, child entry) rows of the given node pairs.

            ``sub`` holds positions into ``exp``.  Combination c of pair
            i targets entry-block row ``ent_starts[node(i)] + c``; the
            whole flattened batch goes through one fused row-wise kernel
            call and the keep-test against the owners' current bounds.
            Returns the kept rows as pair-table columns.
            """
            s_mult = ent_counts[s_inv[sub]]
            total = int(s_mult.sum())
            if total == 0:
                return (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int8),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty((0, dims), dtype=np.float64),
                    np.empty((0, dims), dtype=np.float64),
                    np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.float64),
                )
            pair_rep = np.repeat(exp[sub], s_mult)
            cumstart = np.zeros(len(sub), dtype=np.int64)
            np.cumsum(s_mult[:-1], out=cumstart[1:])
            offs = np.arange(total, dtype=np.int64) - np.repeat(cumstart, s_mult)
            b_row = np.repeat(ent_starts[s_inv[sub]], s_mult) + offs
            a_owner = self.p_owner[pair_rep]
            if degenerate:
                # Object-owner x leaf-point rows: both rects degenerate,
                # so MIND == MAXD == the exact distance — one evaluation
                # serves as both bounds.
                mind = maxd = dist_points_rows(self.own_lo[a_owner], e_lo[b_row])
                self.stats.record_distances(total)
            else:
                mind, maxd = self.metric.pair_rows(
                    self.own_lo[a_owner],
                    self.own_hi[a_owner],
                    e_lo[b_row],
                    e_hi[b_row],
                )
                self.stats.record_distances(2 * total)
            keep = mind <= self.own_bound[a_owner]
            kept = int(np.count_nonzero(keep))
            self.stats.pruned_entries += total - kept
            self.stats.lpq_enqueues += kept
            b_keep = b_row[keep]
            return (
                a_owner[keep],
                e_kind[b_keep],
                e_id[b_keep],
                e_count[b_keep],
                e_lo[b_keep],
                e_hi[b_keep],
                mind[keep],
                maxd[keep],
            )

        # Two-phase scoring — the batch analogue of mba_join's
        # incremental bound tightening.  The ``need`` closest node pairs
        # per owner (by MIND) expand first; their children's MAXDs
        # re-bound the owner, so the bulk of the level faces bounds that
        # already reflect this level's nearest candidates, and whole
        # node pairs whose MIND now exceeds the bound are dropped
        # without ever building their combinations (every child's MIND
        # is at least the parent's, so none could survive).
        eo1 = np.argsort(self.p_mind[exp])
        eo2 = np.argsort(self.p_owner[exp][eo1], kind="stable")
        gorder = eo1[eo2]
        own_g = self.p_owner[exp[gorder]]
        gseg = np.flatnonzero(np.r_[True, own_g[1:] != own_g[:-1]])
        glen = np.diff(np.r_[gseg, len(own_g)])
        grank = np.arange(len(own_g), dtype=np.int64) - np.repeat(gseg, glen)
        close = grank < self.need
        cols_a = score(gorder[close])
        rest = gorder[~close]
        if len(rest):
            # The first phase's rows are grouped contiguously by owner
            # (score preserves the grouped pair order), so the sort-free
            # tighten applies whenever every row claims one point.
            if self.counts_valid and not bool(np.all(cols_a[3] == 1)):
                self._tighten_bounds(cols_a[0], cols_a[7], cols_a[3])
            else:
                self._tighten_unit_grouped(cols_a[0], cols_a[7])
            # Retire first-phase rows the tightened bounds no longer
            # admit (they were kept against the pre-tighten bounds) —
            # this replaces the post-Expand Filter pass.
            alive_a = cols_a[6] <= self.own_bound[cols_a[0]]
            dropped_a = len(alive_a) - int(np.count_nonzero(alive_a))
            if dropped_a:
                self.stats.lpq_filter_discards += dropped_a
                cols_a = tuple(c[alive_a] for c in cols_a)
            alive = self.p_mind[exp[rest]] <= self.own_bound[self.p_owner[exp[rest]]]
            self.stats.lpq_filter_discards += len(rest) - int(np.count_nonzero(alive))
            cols_b = score(rest[alive])
            groups = (cols_a, cols_b)
        else:
            groups = (cols_a,)

        # Carried object pairs re-test against the (possibly tightened)
        # bounds, also standing in for the post-Expand Filter pass.
        if len(carry):
            c_alive = self.p_mind[carry] <= self.own_bound[self.p_owner[carry]]
            dropped_c = len(carry) - int(np.count_nonzero(c_alive))
            if dropped_c:
                self.stats.lpq_filter_discards += dropped_c
                carry = carry[c_alive]

        self.p_owner = np.concatenate([*(g[0] for g in groups), self.p_owner[carry]])
        self.p_kind = np.concatenate([*(g[1] for g in groups), self.p_kind[carry]])
        self.p_id = np.concatenate([*(g[2] for g in groups), self.p_id[carry]])
        self.p_count = np.concatenate([*(g[3] for g in groups), self.p_count[carry]])
        self.p_lo = np.concatenate([*(g[4] for g in groups), self.p_lo[carry]])
        self.p_hi = np.concatenate([*(g[5] for g in groups), self.p_hi[carry]])
        self.p_mind = np.concatenate([*(g[6] for g in groups), self.p_mind[carry]])
        self.p_maxd = np.concatenate([*(g[7] for g in groups), self.p_maxd[carry]])

    # -- Gather pass ---------------------------------------------------------

    def gather(self, result: NeighborResult) -> None:
        """Rank the surviving object pairs and emit the k best per owner.

        Candidates are ranked by ``(distance, target id)`` — the same
        order :meth:`~repro.core.result.NeighborResult.finalize` sorts
        buckets by, so the reported lists match the recursive engine's.
        """
        if len(self.p_owner) == 0:
            return
        p_owner = self.p_owner
        p_id = self.p_id
        p_mind = self.p_mind
        if self.exclude_self:
            mask = p_id != self.own_id[p_owner]
            p_owner = p_owner[mask]
            p_id = p_id[mask]
            p_mind = p_mind[mask]
        if len(p_owner) == 0:
            return
        order = np.lexsort((p_id, p_mind, p_owner))
        own_s = p_owner[order]
        seg_first = np.flatnonzero(np.r_[True, own_s[1:] != own_s[:-1]])
        seg_len = np.diff(np.r_[seg_first, len(own_s)])
        rank = np.arange(len(own_s), dtype=np.int64) - np.repeat(seg_first, seg_len)
        sel = order[rank < self.k]
        own_sel = p_owner[sel]
        b_first = np.flatnonzero(np.r_[True, own_sel[1:] != own_sel[:-1]])
        b_end = np.r_[b_first[1:], len(sel)]
        ids_arr = p_id[sel]
        dists = p_mind[sel]
        owner_pid = self.own_id[own_sel[b_first]]
        for o, s, e in zip(owner_pid.tolist(), b_first.tolist(), b_end.tolist()):
            result.add_many(o, ids_arr[s:e], dists[s:e])
