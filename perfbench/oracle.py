"""Answer checks that fail the run on any mismatch.

Joins are checked against numpy brute force on a seeded sample of query
points; served reads against an exact k-NN oracle (scipy's kd-tree,
independent of the program's own indexes) over the point set of an epoch
published between the read's submit and its answer.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

REL_TOL = 1e-9
"""Distances from two summation orders agree to well inside this."""

JOIN_SAMPLE = 256


class WrongAnswer(AssertionError):
    """An answer differs from the oracle's."""


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(np.abs(a - b) <= REL_TOL * np.maximum(1.0, np.abs(b))))


def check_join(result, points: np.ndarray, k: int, seed: int) -> int:
    """Check one self-join result; returns the number of points answered.

    Every point must have exactly ``k`` neighbours in non-decreasing
    distance; a seeded sample is compared with brute force (a point is
    not its own neighbour).
    """
    n = len(points)
    for r_id in range(n):
        bucket = result.neighbors_of(r_id)
        if len(bucket) != k:
            raise WrongAnswer(f"point {r_id} has {len(bucket)} neighbours, want {k}")
        dists = [d for d, __ in bucket]
        if any(b < a for a, b in zip(dists, dists[1:])):
            raise WrongAnswer(f"point {r_id} neighbours out of order: {dists}")
    rng = np.random.default_rng(seed)
    sample = rng.choice(n, size=min(JOIN_SAMPLE, n), replace=False)
    for r_id in sample:
        want = np.sqrt(((points - points[r_id]) ** 2).sum(axis=1))
        want[r_id] = np.inf
        want = np.sort(np.partition(want, k - 1)[:k])
        bucket = result.neighbors_of(int(r_id))
        got = np.array([d for d, __ in bucket])
        ids = np.array([s for __, s in bucket], dtype=np.int64)
        if not _close(got, want):
            raise WrongAnswer(f"point {r_id}: distances {got} != brute force {want}")
        if np.any(ids == r_id):
            raise WrongAnswer(f"point {r_id} answered as its own neighbour")
        if not _close(np.sqrt(((points[ids] - points[r_id]) ** 2).sum(axis=1)), got):
            raise WrongAnswer(f"point {r_id}: ids {ids} do not lie at {got}")
    return n


class EpochOracle:
    """Exact k-NN over each published epoch's point set.

    The benchmark issued every insert and delete itself, so it knows
    which rows of ``points`` (the initial points followed by every point
    it may insert; a point's id is its row) each epoch holds, and an
    answer can be checked against any epoch in its submit-to-answer
    window.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.points = np.asarray(points, dtype=np.float64)
        self._alive: dict[int, np.ndarray] = {}
        self._trees: dict[int, cKDTree] = {}

    def publish(self, epoch: int, alive: np.ndarray) -> None:
        self._alive[epoch] = alive

    def _tree(self, epoch: int) -> cKDTree:
        if epoch not in self._trees:
            self._trees[epoch] = cKDTree(self.points[self._alive[epoch]])
        return self._trees[epoch]

    def check(self, reads: list[tuple[np.ndarray, int, int, tuple, tuple]], k: int) -> int:
        """``reads`` are ``(point, epoch_lo, epoch_hi, ids, dists)``; returns
        how many were checked.  Raises :class:`WrongAnswer` on a read that
        no epoch in its window explains."""
        by_lo: dict[int, list[int]] = {}
        for i, read in enumerate(reads):
            by_lo.setdefault(read[1], []).append(i)
        for lo, pending in by_lo.items():
            epoch = lo
            while pending:
                if epoch not in self._alive:
                    bad = reads[pending[0]]
                    raise WrongAnswer(
                        f"read at {bad[0]} answered {bad[3]} @ {bad[4]}, which no epoch in "
                        f"[{bad[1]}, {bad[2]}] explains"
                    )
                tree = self._tree(epoch)
                alive = self._alive[epoch]
                want_d, __ = tree.query(np.array([reads[i][0] for i in pending]), k=k)
                want_d = np.asarray(want_d).reshape(len(pending), k)
                still = []
                for row, i in enumerate(pending):
                    point, __, hi, got_ids, got_d = reads[i]
                    if self._explains(point, got_ids, got_d, want_d[row], alive):
                        continue
                    if epoch >= hi:
                        raise WrongAnswer(
                            f"read at {point} answered {got_ids} @ {got_d}; epochs "
                            f"{lo}..{hi} give {want_d[row]}"
                        )
                    still.append(i)
                pending = still
                epoch += 1
        return len(reads)

    def _explains(self, point, got_ids, got_d, want_d, alive) -> bool:
        """The answer has k ids, all live in the epoch, lying at the
        oracle's k-NN distances."""
        got_ids = np.asarray(got_ids, dtype=np.int64)
        if len(got_ids) != len(want_d) or not _close(np.asarray(got_d), want_d):
            return False
        if np.any(got_ids < 0) or np.any(got_ids >= len(self.points)) or not alive[got_ids].all():
            return False
        real = np.sqrt(((self.points[got_ids] - point) ** 2).sum(axis=1))
        return _close(real, np.asarray(got_d))
