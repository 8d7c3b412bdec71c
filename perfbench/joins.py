"""The offline join workloads: ``join-tac`` and ``join-frontier``.

One timed operation is one whole self-join, index build plus query, of a
10,000-point catalogue (:func:`common.catalogue`) at k=1 with the default ``JoinConfig``
(MBRQT, NXNDIST, 64-page pool).  The host probe runs between joins, so
each join is scaled to reference speed by the probes on either side of it.  ``join-tac`` enters through
``repro.all_nearest_neighbors`` (serial ``mba_join``); ``join-frontier``
through ``repro.join.registry.run_join("mba-frontier", ...)``, the path
``repro join --method mba-frontier`` takes.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Any

import numpy as np

import repro.api
import repro.join.registry
from repro import JoinConfig, StorageManager, Tracer, all_nearest_neighbors
from repro.bench.harness import modeled_cpu_seconds
from repro.join.registry import run_join
from repro.storage.node_file import NodeFile

from common import (
    SETUP_REPEATS,
    HostProbe,
    Outcome,
    Spans,
    Timings,
    at_ref,
    catalogue,
    filter_s,
    median,
    patch,
    peak_rss_mb,
    zero_layer_metrics,
)
from oracle import check_join

JOIN_N = 10_000
K = 1
MIN_JOINS = 3
DIMS = 2


def _join(workload: str, points: np.ndarray, tracer: Tracer | None = None):
    if workload == "join-tac":
        return all_nearest_neighbors(points, JoinConfig(), trace=tracer)
    outcome = run_join("mba-frontier", points, StorageManager(), JoinConfig(), tracer=tracer)
    return outcome.result, outcome.stats


def _timed_joins(workload: str, points: np.ndarray, seconds: float, at_least: int,
                 seed: int, probe: HostProbe) -> tuple[list[float], list[float], int]:
    """Untraced joins until ``seconds`` pass; returns (wall times, times at
    reference speed, points answered).  Each result is checked, then
    dropped, outside the timed region, and each join starts from a
    collected heap."""
    wall, ref, answered = [], [], 0
    before = probe.ms()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(wall) < at_least:
        gc.collect()
        t0 = time.perf_counter()
        result, __ = _join(workload, points)
        wall.append(time.perf_counter() - t0)
        after = probe.ms()
        ref.append(at_ref(wall[-1], math.sqrt(before * after)))
        before = after
        answered += check_join(result, points, K, seed + len(wall))
    return wall, ref, answered


def run(workload: str, seed: int, seconds: float, scale: float, trace: bool,
        probe: HostProbe) -> Outcome:
    n = max(200, int(JOIN_N * scale))
    setups, setups_ref = [], []
    before = probe.ms()
    for __ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        points = catalogue(n, seed)
        warm, __ = _join(workload, points)
        setups.append(time.perf_counter() - t0)
        after = probe.ms()
        setups_ref.append(at_ref(setups[-1], math.sqrt(before * after)))
        before = after
    check_join(warm, points, K, seed)
    if trace:
        return _traced(workload, points, seed, seconds, probe)

    wall, ref, answered = _timed_joins(workload, points, seconds, MIN_JOINS, seed, probe)
    rss = peak_rss_mb()
    join_s, join_ref_s = median(wall), median(ref)
    return Outcome(
        attempted=len(wall),
        failed=0,
        metrics={
            "setup_s": median(setups_ref),
            "peak_rss_mb": rss,
            "op_p50_ref_ms": join_ref_s * 1e3,
            "throughput_ref_per_s": n / join_ref_s,
            "answered_ratio": answered / (n * len(wall)),
        },
        summary={
            "setup_wall_s": median(setups),
            "join_s": join_s,
            "join_ref_s": join_ref_s,
            "joins": len(wall),
            "join_min_s": min(wall),
            "join_max_s": max(wall),
            "n": n,
            "k": K,
        },
    )


def _traced(workload: str, points: np.ndarray, seed: int, seconds: float,
            probe: HostProbe) -> Outcome:
    """Half the window untraced (the overhead baseline), half traced."""
    __, plain_ref, __ = _timed_joins(workload, points, seconds / 2, 2, seed, probe)

    query_owner, query_name = (
        (repro.api, "mba_join") if workload == "join-tac"
        else (repro.join.registry, "frontier_join")
    )
    spans = Spans()
    rows: list[dict[str, Any]] = []
    before = probe.ms()
    t_end = time.perf_counter() + seconds / 2
    while time.perf_counter() < t_end or len(rows) < 2:
        build, query, reads = Timings(), Timings(), Timings()
        tracer = Tracer()
        gc.collect()
        with patch(repro.api, "build_index", build), \
                patch(query_owner, query_name, query), \
                patch(NodeFile, "read_node", reads):
            t0 = time.perf_counter()
            result, stats = _join(workload, points, tracer)
            t1 = time.perf_counter()
        after = probe.ms()
        check_join(result, points, K, seed)
        top = spans.add("join", t0, t1)
        for name, timings in (("index.build", build), ("core.query", query)):
            for s, e in timings.spans:
                spans.add(name, s, e, top)
        q0, q1 = query.spans[0]
        storage_s = sum(e - s for s, e in reads.spans if q0 <= s <= q1)
        stages = _query_stages(tracer)
        rows.append({
            "wall_s": t1 - t0,
            "ref_s": at_ref(t1 - t0, math.sqrt(before * after)),
            "build_s": build.total_s,
            "query_s": query.total_s,
            "storage_s": storage_s,
            "stages": stages,
            "stats": stats,
        })
        before = after

    traced_s = median([r["wall_s"] for r in rows])
    traced_ref_s = median([r["ref_s"] for r in rows])
    stats = rows[-1]["stats"]
    n = len(points)
    logical = stats.logical_reads
    metrics = zero_layer_metrics()
    metrics.update({
        "index.build_s": median([r["build_s"] for r in rows]),
        "core.query_s": median([r["query_s"] for r in rows]),
        "core.expand_s": median([r["stages"].get("expand", 0.0) for r in rows]),
        "core.filter_s": median([filter_s(r["stages"], r["query_s"]) for r in rows]),
        "core.gather_s": median([r["stages"].get("gather", 0.0) for r in rows]),
        "core.distance_evaluations": stats.distance_evaluations,
        "core.node_expansions": stats.node_expansions,
        "core.lpq_pops": stats.lpq_pops,
        "core.lpq_enqueues": stats.lpq_enqueues,
        "core.pruned_entries": stats.pruned_entries,
        "core.evals_per_point": stats.distance_evaluations / n,
        "core.modeled_cpu_s": modeled_cpu_seconds(stats, DIMS),
        "storage.read_s": median([r["storage_s"] for r in rows]),
        "storage.logical_reads": logical,
        "storage.page_misses": stats.page_misses,
        "storage.pool_hit_ratio": 1.0 - stats.page_misses / logical if logical else 0.0,
        "storage.modeled_io_s": stats.io_time_s,
        "trace.coverage": median([(r["build_s"] + r["query_s"]) / r["wall_s"] for r in rows]),
        "trace.overhead_pct": (traced_ref_s / median(plain_ref) - 1.0) * 100.0,
    })
    return Outcome(
        attempted=len(plain_ref) + len(rows),
        failed=0,
        metrics=metrics,
        summary={"traced_joins": len(rows), "plain_joins": len(plain_ref),
                 "traced_join_s": traced_s, "traced_join_ref_s": traced_ref_s,
                 "plain_join_ref_s": median(plain_ref)},
        spans=spans.as_json(),
    )


def _query_stages(tracer: Tracer) -> dict[str, float]:
    """Expand/Filter/Gather self times from the tracer's ``query`` span."""
    for child in tracer.root.children:
        if child["name"] == "query":
            return {name: agg["time_s"] for name, agg in child["stages"].items()}
    return {}
