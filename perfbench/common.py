"""Shared pieces of the benchmark: outside-in timing, statistics, host probes.

Nothing here reaches inside ``src/``.  Layer time is measured by
wrapping the public functions a workload calls (:func:`patch`) and by
reading the tracer stages and counters the program already exposes.
"""

from __future__ import annotations

import heapq
import math
import os
import platform
import resource
import statistics
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import tac_surrogate

SETUP_REPEATS = 3
"""Set-ups per end-to-end run; ``setup_s`` is their median."""

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ref_ms": "ms",
    "throughput_ref_per_s": "1/s",
    "answered_ratio": "ratio",
}
"""The end-to-end metrics every workload reports from an untraced run.
The two ``_ref`` timings are at reference speed (:func:`at_ref`)."""

PER_LAYER = {
    "index.build_s": "s",
    "core.query_s": "s",
    "core.expand_s": "s",
    "core.filter_s": "s",
    "core.gather_s": "s",
    "core.distance_evaluations": "count",
    "core.node_expansions": "count",
    "core.lpq_pops": "count",
    "core.lpq_enqueues": "count",
    "core.pruned_entries": "count",
    "core.evals_per_point": "evals/point",
    "core.modeled_cpu_s": "s",
    "storage.read_s": "s",
    "storage.logical_reads": "count",
    "storage.page_misses": "count",
    "storage.pool_hit_ratio": "ratio",
    "storage.shared_cache_lookups": "count",
    "storage.shared_cache_hit_ratio": "ratio",
    "storage.modeled_io_s": "s",
    "service.flush_ms": "ms",
    "service.traverse_ms": "ms",
    "service.batch_size": "count",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "serve.replica_rtt_ms": "ms",
    "serve.ipc_ms": "ms",
    "serve.frontend_ms": "ms",
    "serve.batches": "count",
    "serve.shed": "count",
    "serve.gen_late_p99_ms": "ms",
    "serve.read_p99_ms": "ms",
    "write.compactions": "count",
    "write.p50_ms": "ms",
    "write.p99_ms": "ms",
    "write.compact_ms": "ms",
    "write.rebuild_ms": "ms",
    "write.export_ms": "ms",
    "write.swap_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead_pct": "%",
    "host.calib_ms": "ms",
    "host.cores": "count",
}
"""Every per-layer metric, named by module, with its unit.  Every traced
run reports all of them: a layer a workload never enters reads 0 because
it did no work there, never because it was not collected."""


CATALOGUE_JITTER = 0.01
"""Standard deviation (degrees) of the seeded jitter on catalogue points."""


def catalogue(n: int, seed: int) -> np.ndarray:
    """The workload's points: one fixed ``tac_surrogate`` catalogue, reordered
    and jittered by ``seed``.

    Like the paper's single TAC catalogue, the structure is the same on
    every run; the seed still changes every input.  Independent
    ``tac_surrogate`` draws differ by up to 20% in join work (distance
    evaluations), which would swamp the regression bounds; these copies
    differ by under 1%.
    """
    base = tac_surrogate(n)
    rng = np.random.default_rng(seed)
    return base[rng.permutation(n)] + rng.normal(0.0, CATALOGUE_JITTER, base.shape)


def zero_layer_metrics() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def filter_s(stages: dict[str, float], query_s: float) -> float:
    """Filter-stage seconds.  ``mba_join`` filters lazily as it pops its
    LPQs, outside the expand and gather stages, so for it this is the
    query time the two stages leave uncovered."""
    if "filter" in stages:
        return stages["filter"]
    return query_s - stages.get("expand", 0.0) - stages.get("gather", 0.0)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


PROBE_REF_MS = 4.0
"""The host probe's time on the reference host.  A time "at reference
speed" is a wall time scaled by ``PROBE_REF_MS / probe`` with the probe
taken on the same CPU right beside it; 4.0 ms is about what the probe
reads on a 2-core Xeon VM when its CPU is not contended."""


class HostProbe:
    """A fixed, short mix of the kinds of work the program does, timed on
    the benchmark's CPU: the host-speed yardstick.

    On a shared host a CPU's speed swings by half within seconds and
    drifts over minutes as neighbours load its sibling threads; pure wall
    times of the same code then spread by a quarter from run to run.
    The probe is benchmark code, the same on every commit, so a change in
    it is the host, never the program.  Its four kernels (an integer
    loop, a pure-Python heap k-NN scan, small numpy calls, long numpy
    vector passes) track the program's own mix; their geometric mean
    follows the joins' wall time far better than any one of them.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._pts = rng.random((400, 2))
        self._xy = self._pts.tolist()
        self._long = rng.random(200_000)
        self.samples: list[float] = []

    def _int_loop(self) -> None:
        acc = 0
        for i in range(40_000):
            acc += i * i % 7

    def _heap_knn(self) -> None:
        for qx, qy in self._xy[::8]:
            heap: list[tuple[float, int]] = []
            for j, (x, y) in enumerate(self._xy):
                d = (x - qx) * (x - qx) + (y - qy) * (y - qy)
                if len(heap) < 4:
                    heapq.heappush(heap, (-d, j))
                elif -heap[0][0] > d:
                    heapq.heapreplace(heap, (-d, j))

    def _small_numpy(self) -> None:
        pts = self._pts
        for i in range(300):
            d = np.hypot(pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1])
            np.argpartition(d, 4)[:4]

    def _long_numpy(self) -> None:
        for __ in range(3):
            np.sort(self._long)
            np.cumsum(self._long)

    def ms(self) -> float:
        """Geometric mean over the kernels of each one's median of three
        timings, in ms; also kept in :attr:`samples`."""
        logs = []
        for kernel in (self._int_loop, self._heap_knn, self._small_numpy, self._long_numpy):
            reps = []
            for __ in range(3):
                t0 = time.perf_counter()
                kernel()
                reps.append(time.perf_counter() - t0)
            logs.append(math.log(sorted(reps)[1] * 1e3))
        value = math.exp(sum(logs) / len(logs))
        self.samples.append(value)
        return value


def at_ref(seconds: float, probe_ms: float) -> float:
    """``seconds`` of wall time on a host whose probe read ``probe_ms``,
    scaled to the reference host's speed."""
    return seconds * PROBE_REF_MS / probe_ms


def pin_to_one_cpu() -> int:
    """Pin this process, and every process it starts later, to one CPU.

    The host probe must run on the CPU that did the measured work: each
    CPU of a shared host slows and recovers on its own.  Returns the CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_fingerprint() -> dict[str, Any]:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


@dataclass
class Timings:
    """``(start, end)`` wall times of calls through one wrapped function."""

    spans: list[tuple[float, float]] = field(default_factory=list)

    @property
    def durations(self) -> list[float]:
        return [end - start for start, end in self.spans]

    @property
    def total_s(self) -> float:
        return float(sum(self.durations))


@contextmanager
def patch(owner: Any, name: str, timings: Timings,
          record: Callable[[tuple, Any, tuple[float, float]], None] | None = None,
          ) -> Iterator[None]:
    """Time every call to ``owner.name`` for the duration of the block.

    ``owner`` is a module, a class, or an instance; the original
    attribute is restored on exit.  ``record(args, result, (start, end))``
    optionally keeps per-call details.
    """
    had_own = name in vars(owner)
    original = getattr(owner, name)

    def timed(*args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        out = original(*args, **kwargs)
        span = (t0, time.perf_counter())
        timings.spans.append(span)
        if record is not None:
            record(args, out, span)
        return out

    setattr(owner, name, timed)
    try:
        yield
    finally:
        if had_own:
            setattr(owner, name, original)
        else:
            delattr(owner, name)


class Spans:
    """Spans kept in memory during a traced run, written once at the end."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, int, str, float, float, int]] = []

    def add(self, name: str, start_s: float, end_s: float,
            parent: int = -1, request: int = -1) -> int:
        self.rows.append((len(self.rows), parent, name, start_s, end_s, request))
        return len(self.rows) - 1

    def as_json(self) -> list[dict[str, Any]]:
        return [
            {"id": i, "parent": p, "name": n, "start_s": s, "end_s": e, "request": r}
            for i, p, n, s, e, r in self.rows
        ]


@dataclass
class Outcome:
    """What one workload run hands back to :mod:`run`.  A wrong answer
    raises :class:`oracle.WrongAnswer` instead."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    summary: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] | None = None
