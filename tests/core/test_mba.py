"""Correctness tests for the MBA/RBA traversal (Algorithms 2–4)."""

import numpy as np
import pytest

from repro.api import all_nearest_neighbors, build_index, build_join_indexes
from repro.config import JoinConfig
from repro.core.mba import mba_join
from repro.core.pruning import PruningMetric
from repro.data import gstd
from repro.data.datasets import tac_surrogate
from repro.join.naive import brute_force_join
from repro.storage.manager import StorageManager


def make_pair(rng, n=300, dims=2, kind="mbrqt", distribution="uniform"):
    storage = StorageManager(page_size=512, pool_pages=64)
    r = gstd.generate(n, dims, distribution, seed=rng)
    s = gstd.generate(n + 37, dims, distribution, seed=rng)
    ir, is_ = build_join_indexes(r, s, storage, kind=kind)
    return r, s, ir, is_, storage


METRICS = [PruningMetric.NXNDIST, PruningMetric.MAXMAXDIST]


class TestAnnCorrectness:
    @pytest.mark.parametrize("kind", ["mbrqt", "rstar"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_basic_ann(self, rng, kind, metric):
        r, s, ir, is_, __ = make_pair(rng, kind=kind)
        res, stats = mba_join(ir, is_, metric=metric)
        ref = brute_force_join(r, s)
        assert res.same_pairs_as(ref)
        assert stats.result_pairs == len(r)

    @pytest.mark.parametrize("dims", [1, 3, 4, 6])
    def test_dimensionalities(self, rng, dims):
        r, s, ir, is_, __ = make_pair(rng, n=200, dims=dims)
        res, __ = mba_join(ir, is_)
        assert res.same_pairs_as(brute_force_join(r, s))

    @pytest.mark.parametrize("distribution", ["gaussian", "skewed", "correlated"])
    def test_distributions(self, rng, distribution):
        r, s, ir, is_, __ = make_pair(rng, n=400, distribution=distribution)
        res, __ = mba_join(ir, is_)
        assert res.same_pairs_as(brute_force_join(r, s))

    def test_asymmetric_sizes(self, rng):
        storage = StorageManager(page_size=512, pool_pages=64)
        r = rng.random((50, 2))
        s = rng.random((2000, 2))
        ir, is_ = build_join_indexes(r, s, storage)
        res, __ = mba_join(ir, is_)
        assert res.same_pairs_as(brute_force_join(r, s))
        # And the reverse direction (big R, small S).
        res2, __ = mba_join(is_, ir)
        assert res2.same_pairs_as(brute_force_join(s, r))

    def test_self_join_excluding_self(self, rng):
        storage = StorageManager(page_size=512, pool_pages=64)
        pts = tac_surrogate(600, seed=3)
        index = build_index(pts, storage)
        res, __ = mba_join(index, index, exclude_self=True)
        assert res.same_pairs_as(brute_force_join(pts, pts, exclude_self=True))

    def test_self_join_including_self_is_trivial(self, rng):
        storage = StorageManager(page_size=512, pool_pages=64)
        pts = rng.random((200, 2))
        index = build_index(pts, storage)
        res, __ = mba_join(index, index, exclude_self=False)
        for r_id, s_id, dist in res.pairs():
            assert dist == 0.0

    def test_tiny_datasets(self, rng):
        storage = StorageManager(page_size=512, pool_pages=64)
        r = np.array([[0.0, 0.0], [1.0, 1.0]])
        s = np.array([[0.1, 0.0]])
        ir, is_ = build_join_indexes(r, s, storage)
        res, __ = mba_join(ir, is_)
        assert res.nn_of(0) == (pytest.approx(0.1), 0)
        assert res.nn_of(1)[1] == 0

    def test_dim_mismatch_rejected(self, rng):
        storage = StorageManager(page_size=512, pool_pages=64)
        i2 = build_index(rng.random((10, 2)), storage)
        i3 = build_index(rng.random((10, 3)), storage)
        with pytest.raises(ValueError):
            mba_join(i2, i3)
        with pytest.raises(ValueError):
            mba_join(i2, i2, k=0)


class TestAknnCorrectness:
    @pytest.mark.parametrize("k", [2, 5, 10])
    @pytest.mark.parametrize("metric", METRICS)
    def test_aknn(self, rng, k, metric):
        r, s, ir, is_, __ = make_pair(rng, n=250)
        res, __ = mba_join(ir, is_, k=k, metric=metric)
        assert res.same_pairs_as(brute_force_join(r, s, k=k))

    @pytest.mark.parametrize("metric", METRICS)
    def test_aknn_self_join(self, rng, metric):
        storage = StorageManager(page_size=512, pool_pages=64)
        pts = gstd.gaussian_clusters(400, 2, seed=rng)
        index = build_index(pts, storage)
        res, __ = mba_join(index, index, k=4, exclude_self=True, metric=metric)
        assert res.same_pairs_as(brute_force_join(pts, pts, k=4, exclude_self=True))

    def test_k_larger_than_dataset(self, rng):
        storage = StorageManager(page_size=512, pool_pages=64)
        r = rng.random((20, 2))
        s = rng.random((5, 2))
        ir, is_ = build_join_indexes(r, s, storage)
        res, __ = mba_join(ir, is_, k=10)
        ref = brute_force_join(r, s, k=10)
        assert res.same_pairs_as(ref)
        assert all(len(res.neighbors_of(i)) == 5 for i in range(20))


class TestTraversalVariants:
    """Section 3.3.2: DF/BF x bi-/uni-directional all return the same answer."""

    @pytest.mark.parametrize("depth_first", [True, False])
    @pytest.mark.parametrize("bidirectional", [True, False])
    @pytest.mark.parametrize("kind", ["mbrqt", "rstar"])
    def test_variants_agree(self, rng, depth_first, bidirectional, kind):
        r, s, ir, is_, __ = make_pair(rng, n=250, kind=kind)
        res, __ = mba_join(ir, is_, depth_first=depth_first, bidirectional=bidirectional)
        assert res.same_pairs_as(brute_force_join(r, s))

    def test_variants_agree_aknn(self, rng):
        r, s, ir, is_, __ = make_pair(rng, n=200)
        ref = brute_force_join(r, s, k=3)
        for df in (True, False):
            for bi in (True, False):
                res, __ = mba_join(ir, is_, k=3, depth_first=df, bidirectional=bi)
                assert res.same_pairs_as(ref)

    def test_unidirectional_retains_entry_rects(self, rng, monkeypatch):
        # Regression for the dead `keep_rects = not self.bidirectional`
        # branch that used to sit in `_probe_node_children` (a path only
        # reachable with bidirectional=True): the uni-directional variant
        # must keep carrying entry rects through `_probe_node_entry`, whose
        # re-scoring would crash on a `None` extra if rects were dropped.
        from repro.core.mba import _Engine

        probed_extras = []
        original = _Engine._probe_node_entry

        def spy(self, child_lpqs, owner_rects, bounds, node_id, count, extra):
            probed_extras.append(extra)
            return original(self, child_lpqs, owner_rects, bounds, node_id, count, extra)

        monkeypatch.setattr(_Engine, "_probe_node_entry", spy)
        r, s, ir, is_, __ = make_pair(rng, n=400)
        res, __ = mba_join(ir, is_, bidirectional=False)
        assert res.same_pairs_as(brute_force_join(r, s))
        assert probed_extras, "uni-directional traversal never re-scored a node entry"
        for extra in probed_extras:
            lo, hi = extra
            assert lo is not None and hi is not None

    def test_filter_stage_off_still_correct(self, rng):
        r, s, ir, is_, __ = make_pair(rng, n=300)
        res, __ = mba_join(ir, is_, filter_stage=False)
        assert res.same_pairs_as(brute_force_join(r, s))

    def test_optimization_knobs_off_still_correct(self, rng):
        r, s, ir, is_, __ = make_pair(rng, n=300)
        res, __ = mba_join(ir, is_, batch_tighten=False, early_break=False)
        assert res.same_pairs_as(brute_force_join(r, s))


class TestEmptyOwnerExpansion:
    """Regression: a childless owner node must prune, not crash.

    ``_expand_node_owner`` used to take ``bounds.max()`` over the child
    bounds before checking there were any children; with zero children the
    empty-array reduction raised.  The guard now prunes every queued entry
    wholesale and returns no child LPQs.
    """

    def test_childless_owner_prunes_queue(self, rng, monkeypatch):
        from repro.core.lpq import make_node_lpq
        from repro.core.mba import _Engine
        from repro.core.stats import QueryStats

        r, s, ir, is_, __ = make_pair(rng, n=60)
        stats = QueryStats()
        engine = _Engine(
            index_r=ir,
            index_s=is_,
            metric=PruningMetric.NXNDIST,
            k=1,
            exclude_self=False,
            bidirectional=True,
            filter_stage=True,
            need_count=1,
            counts_valid=False,
            batch_tighten=True,
            early_break=True,
            result=None,
            stats=stats,
        )
        monkeypatch.setattr(_Engine, "_make_child_lpqs", lambda self, rnode, b: [])

        root = ir.node(ir.root_id)
        lpq = make_node_lpq(ir.root_rect, ir.root_id, np.inf, stats)
        snode = is_.node(is_.root_id)
        lpq.push_nodes(
            snode.child_ids if not snode.is_leaf else snode.point_ids,
            np.ones(snode.n_entries, dtype=np.int64),
            np.zeros(snode.n_entries),
            np.full(snode.n_entries, 5.0),
        )
        queued = len(lpq)
        assert queued > 0 and root.n_entries > 0

        children = engine._expand_node_owner(lpq)
        assert children == []
        assert stats.pruned_entries >= queued

    def test_join_survives_empty_expansion(self, rng, monkeypatch):
        # End to end: if some expansion yields no children the traversal
        # must terminate cleanly (with fewer result pairs, never an error).
        from repro.core.mba import _Engine

        original = _Engine._make_child_lpqs
        starved = {"done": False}

        def starve_once(self, rnode, inherited):
            if not starved["done"]:
                starved["done"] = True
                return []
            return original(self, rnode, inherited)

        monkeypatch.setattr(_Engine, "_make_child_lpqs", starve_once)
        __, __, ir, is_, __ = make_pair(rng, n=120)
        res, stats = mba_join(ir, is_)
        assert starved["done"]
        assert stats.pruned_entries > 0
        assert len(list(res.pairs())) == 0  # the starved root expansion


class TestCounters:
    def test_counters_populated(self, rng):
        r, s, ir, is_, storage = make_pair(rng, n=400)
        storage.reset_counters()
        storage.drop_caches()
        res, stats = mba_join(ir, is_)
        assert stats.distance_evaluations > 0
        assert stats.node_expansions > 0
        assert stats.lpq_enqueues > 0
        assert storage.pool.misses > 0

    def test_pruning_beats_brute_force(self, rng):
        # On enough data the traversal must evaluate far fewer distances
        # than the quadratic baseline.
        storage = StorageManager(page_size=512, pool_pages=64)
        pts = gstd.gaussian_clusters(2000, 2, seed=rng)
        index = build_index(pts, storage)
        __, stats = mba_join(index, index, exclude_self=True)
        assert stats.distance_evaluations < 2000 * 2000 / 2

    def test_point_pairs_charge_one_evaluation(self, rng):
        # 50 points fit one MBRQT leaf: the root seed charges MINMINDIST
        # and the pruning bound (2), then the leaf x leaf probe scores
        # every point pair once by exact distance (50 * 50).
        pts = rng.random((50, 2))
        __, stats = all_nearest_neighbors(pts, JoinConfig())
        assert stats.distance_evaluations == 2 + 50 * 50

    def test_stats_accumulate_across_calls(self, rng):
        from repro.core.stats import QueryStats

        r, s, ir, is_, __ = make_pair(rng, n=100)
        stats = QueryStats()
        mba_join(ir, is_, stats=stats)
        first = stats.distance_evaluations
        mba_join(ir, is_, stats=stats)
        assert stats.distance_evaluations > first
