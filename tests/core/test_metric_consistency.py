"""Bit-exact agreement of the scalar, batch, cross and fused metric forms.

The columnar traversal engine mixes kernel granularities freely: a bound
seeded by a scalar call must be comparable against values produced by the
batch kernels, and the fused ``cross_pair`` forms (including the 2-D
per-dimension fast path) feed the same LPQs as the standalone cross
kernels.  Equality here must be *bitwise*, not approximate — the golden
replay tests pin pop sequences and checksums to the exact float values,
so a 1-ulp drift between forms (e.g. an FMA-contracted ``np.dot`` vs. a
plain ``np.sum`` reduction) would silently change traversal order.

Hypothesis drives the rectangle geometry, deliberately including
degenerate point rects (zero-extent sides) on both operands: those hit
the tent-function and sweep-substitution tie cases where the 2-D fused
path is most likely to diverge from the general reduction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import Rect, RectArray
from repro.core.metrics import (
    dist_point_points,
    dist_points_cross,
    dist_points_rows,
    maxmaxdist,
    maxmaxdist_batch,
    maxmaxdist_cross,
    minmindist,
    minmindist_batch,
    minmindist_cross,
    minmindist_maxmaxdist_cross,
    minmindist_maxmaxdist_pairs,
    minmindist_nxndist_cross,
    minmindist_nxndist_pairs,
    nxndist,
    nxndist_batch,
    nxndist_cross,
)
from repro.core.pruning import PruningMetric


def rect_arrays(dims, max_rects=6):
    """Strategy for a RectArray with a mix of proper rects and point rects.

    Coordinates are drawn from float32-representable values on a coarse
    range so that degenerate (``side == 0``) and tied-coordinate cases
    appear often; sides may be exactly zero to force point rects.
    """
    coord = st.floats(-40, 40, allow_nan=False, allow_infinity=False, width=16)
    side = st.one_of(
        st.just(0.0),
        st.floats(0, 15, allow_nan=False, allow_infinity=False, width=16),
    )

    def build(vals):
        rects = []
        for lo, s in vals:
            lo_a = np.array(lo, dtype=np.float64)
            rects.append(Rect(lo_a, lo_a + np.array(s, dtype=np.float64)))
        return RectArray.from_rects(rects)

    one_rect = st.tuples(
        st.lists(coord, min_size=dims, max_size=dims),
        st.lists(side, min_size=dims, max_size=dims),
    )
    return st.lists(one_rect, min_size=1, max_size=max_rects).map(build)


def pair_2d(draw):
    return draw(rect_arrays(2)), draw(rect_arrays(2))


class TestFusedCrossBitExact:
    """The fused kernels must equal their standalone components bitwise."""

    @given(a=rect_arrays(2), b=rect_arrays(2))
    @settings(max_examples=150, deadline=None)
    def test_fused_2d_paths(self, a, b):
        mm, mx = minmindist_maxmaxdist_cross(a, b)
        assert np.array_equal(mm, minmindist_cross(a, b))
        assert np.array_equal(mx, maxmaxdist_cross(a, b))
        mm2, nx = minmindist_nxndist_cross(a, b)
        assert np.array_equal(mm2, minmindist_cross(a, b))
        assert np.array_equal(nx, nxndist_cross(a, b))

    @given(a=rect_arrays(3), b=rect_arrays(3))
    @settings(max_examples=75, deadline=None)
    def test_fused_general_paths(self, a, b):
        mm, mx = minmindist_maxmaxdist_cross(a, b)
        assert np.array_equal(mm, minmindist_cross(a, b))
        assert np.array_equal(mx, maxmaxdist_cross(a, b))
        mm2, nx = minmindist_nxndist_cross(a, b)
        assert np.array_equal(mm2, minmindist_cross(a, b))
        assert np.array_equal(nx, nxndist_cross(a, b))

    @given(a=rect_arrays(2), b=rect_arrays(2))
    @settings(max_examples=50, deadline=None)
    def test_cross_pair_dispatch(self, a, b):
        mm, bound = PruningMetric.NXNDIST.cross_pair(a, b)
        assert np.array_equal(mm, minmindist_cross(a, b))
        assert np.array_equal(bound, nxndist_cross(a, b))
        mm, bound = PruningMetric.MAXMAXDIST.cross_pair(a, b)
        assert np.array_equal(mm, minmindist_cross(a, b))
        assert np.array_equal(bound, maxmaxdist_cross(a, b))


class TestPairRowsBitExact:
    """The frontier's row-wise kernels must equal the cross kernels.

    ``pair_rows(a[i], b[i])`` scores an arbitrary gather of rect pairs;
    its values (both the 2-D columnar fast path and the general-D
    reduction) must match the corresponding ``cross`` elements bitwise —
    the frontier engine's answer-identity to ``mba_join`` rests on it.
    """

    @given(a=rect_arrays(2), b=rect_arrays(2))
    @settings(max_examples=150, deadline=None)
    def test_pairs_2d_fast_path(self, a, b):
        self._check(a, b)

    @given(a=rect_arrays(3), b=rect_arrays(3))
    @settings(max_examples=75, deadline=None)
    def test_pairs_general_path(self, a, b):
        self._check(a, b)

    @staticmethod
    def _check(a, b):
        # Pair up every (i, j) combination as row gathers.
        ii, jj = np.meshgrid(np.arange(len(a)), np.arange(len(b)), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        a_lo, a_hi = a.lo[ii], a.hi[ii]
        b_lo, b_hi = b.lo[jj], b.hi[jj]
        mm_c = minmindist_cross(a, b).ravel()
        mm, nx = minmindist_nxndist_pairs(a_lo, a_hi, b_lo, b_hi)
        assert np.array_equal(mm, mm_c)
        assert np.array_equal(nx, nxndist_cross(a, b).ravel())
        mm2, mx = minmindist_maxmaxdist_pairs(a_lo, a_hi, b_lo, b_hi)
        assert np.array_equal(mm2, mm_c)
        assert np.array_equal(mx, maxmaxdist_cross(a, b).ravel())

    @given(a=rect_arrays(2), b=rect_arrays(2))
    @settings(max_examples=50, deadline=None)
    def test_pair_rows_dispatch(self, a, b):
        n = min(len(a), len(b))
        a_lo, a_hi, b_lo, b_hi = a.lo[:n], a.hi[:n], b.lo[:n], b.hi[:n]
        for metric, ref in (
            (PruningMetric.NXNDIST, minmindist_nxndist_pairs),
            (PruningMetric.MAXMAXDIST, minmindist_maxmaxdist_pairs),
        ):
            mm, bound = metric.pair_rows(a_lo, a_hi, b_lo, b_hi)
            mm_ref, bound_ref = ref(a_lo, a_hi, b_lo, b_hi)
            assert np.array_equal(mm, mm_ref)
            assert np.array_equal(bound, bound_ref)


class TestScalarBatchCrossBitExact:
    """Scalar, batch and cross forms agree bitwise, element by element."""

    @given(a=rect_arrays(2, max_rects=4), b=rect_arrays(2, max_rects=4))
    @settings(max_examples=75, deadline=None)
    def test_2d(self, a, b):
        self._check(a, b)

    @given(a=rect_arrays(3, max_rects=3), b=rect_arrays(3, max_rects=3))
    @settings(max_examples=40, deadline=None)
    def test_3d(self, a, b):
        self._check(a, b)

    @staticmethod
    def _check(a, b):
        mm_c = minmindist_cross(a, b)
        mx_c = maxmaxdist_cross(a, b)
        nx_c = nxndist_cross(a, b)
        for i in range(len(a)):
            r = a[i]
            assert np.array_equal(minmindist_batch(r, b), mm_c[i])
            assert np.array_equal(maxmaxdist_batch(r, b), mx_c[i])
            assert np.array_equal(nxndist_batch(r, b), nx_c[i])
            for j in range(len(b)):
                assert minmindist(r, b[j]) == mm_c[i, j]
                assert maxmaxdist(r, b[j]) == mx_c[i, j]
                assert nxndist(r, b[j]) == nx_c[i, j]


class TestDegenerateIdentities:
    """Sanity identities specific to point rects, checked exactly."""

    @given(a=rect_arrays(2), pts=st.lists(
        st.lists(st.floats(-40, 40, allow_nan=False, allow_infinity=False, width=16),
                 min_size=2, max_size=2),
        min_size=1, max_size=6))
    @settings(max_examples=75, deadline=None)
    def test_point_targets_nxn_equals_maxmax(self, a, pts):
        # A point target has a single witness, so the sweep saves nothing:
        # NXNDIST must equal MAXMAXDIST bit-for-bit, on every code path.
        b = RectArray.from_points(np.array(pts, dtype=np.float64))
        assert np.array_equal(nxndist_cross(a, b), maxmaxdist_cross(a, b))
        _, nx = minmindist_nxndist_cross(a, b)
        _, mx = minmindist_maxmaxdist_cross(a, b)
        assert np.array_equal(nx, mx)

    def test_coincident_point_rects_are_zero(self):
        p = Rect.from_point(np.array([3.0, -7.0]))
        arr = RectArray.from_points(np.array([[3.0, -7.0]]))
        assert minmindist(p, p) == 0.0
        assert maxmaxdist(p, p) == 0.0
        assert nxndist(p, p) == 0.0
        mm, nx = minmindist_nxndist_cross(arr, arr)
        assert mm[0, 0] == 0.0 and nx[0, 0] == 0.0


def point_sets(dims, max_points=6):
    """Strategy for an ``(n, dims)`` point array at mixed scales.

    Each coordinate is a mantissa in ``[-10, 10]`` times a power of ten
    in ``[1e-6, 1e6]``, so one array mixes magnitudes twelve orders apart;
    a drawn list of row indices is overwritten with row 0, giving
    coincident points (zero distance) on the same draw.
    """
    coord = st.builds(
        lambda m, e: m * 10.0**e,
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        st.integers(-6, 6),
    )
    rows = st.lists(st.lists(coord, min_size=dims, max_size=dims),
                    min_size=1, max_size=max_points)

    @st.composite
    def build(draw):
        pts = np.array(draw(rows), dtype=np.float64)
        dup = draw(st.lists(st.integers(0, len(pts) - 1), max_size=len(pts)))
        pts[dup] = pts[0]
        return pts

    return build()


class TestExactPointDistanceBitExact:
    """The point-pair helpers equal both halves of the bound kernels.

    ``mba_join`` and the frontier score point × point pairs with
    ``dist_points_cross`` / ``dist_points_rows`` instead of the fused
    (MINMINDIST, bound) kernels; the golden replay and the frontier's
    answer identity need that substitution to be bitwise.  D=10 takes
    numpy's unrolled multi-accumulator summation over the last axis.
    """

    @staticmethod
    def _check(p, q):
        a = RectArray(p, p)
        b = RectArray(q, q)
        cross = dist_points_cross(p, q)
        assert cross.shape == (len(p), len(q))
        for metric in (PruningMetric.NXNDIST, PruningMetric.MAXMAXDIST):
            mind, bound = metric.cross_pair(a, b)
            assert np.array_equal(cross, mind)
            assert np.array_equal(cross, bound)
        for i in range(len(p)):
            assert np.array_equal(cross[i], dist_point_points(p[i], q))

        ii, jj = np.meshgrid(np.arange(len(p)), np.arange(len(q)), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        rows = dist_points_rows(p[ii], q[jj])
        assert np.array_equal(rows, cross.ravel())
        for metric in (PruningMetric.NXNDIST, PruningMetric.MAXMAXDIST):
            mind, bound = metric.pair_rows(p[ii], p[ii], q[jj], q[jj])
            assert np.array_equal(rows, mind)
            assert np.array_equal(rows, bound)

    @given(p=point_sets(2), q=point_sets(2))
    @settings(max_examples=150, deadline=None)
    def test_2d(self, p, q):
        self._check(p, q)

    @given(p=point_sets(3), q=point_sets(3))
    @settings(max_examples=75, deadline=None)
    def test_3d(self, p, q):
        self._check(p, q)

    @given(p=point_sets(10), q=point_sets(10))
    @settings(max_examples=75, deadline=None)
    def test_10d(self, p, q):
        self._check(p, q)
