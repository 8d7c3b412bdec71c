"""The serving workloads: ``serve-read`` and ``serve-churn``.

Both drive ``repro.serve.Frontend`` over a ``ReplicaCluster`` of a
40,000-point catalogue (:func:`common.catalogue`) with one spawned replica (the host has two
cores; a second replica makes three busy processes and its figures
swing by a quarter run to run), a 256-slot shared node cache and
``max_batch=16``.  The 160-page index fits the shared cache but not
the 64-page pool.

The front-end and the replica share the one CPU the benchmark is
pinned to (:func:`common.pin_to_one_cpu`), so the host probe, run on
that CPU while the cluster is idle, measures the speed of everything
that served the reads.  Each phase runs in rounds; the probe runs
between rounds, after the previous round's reads have drained, and each
round is scaled to reference speed by the probes on either side of it.

* Phase A is open-loop Poisson reads at a fixed 300 rps; each read is
  timed from the moment it was due to be sent, so a stalled loop charges
  every read queued behind the stall.
* Phase B is a closed loop of 64 clients; the median over its rounds of
  completed reads per second is the capacity.
* ``serve-churn`` adds an open-loop writer of alternating insert/delete
  calls at 100 ops/s through ``ReplicaCluster`` on the front-end's event
  loop, so with ``compact_threshold=64`` a compaction (rebuild, export,
  swap) runs inline about every 0.64 s.

The gated timings, ``op_p50_ref_ms`` and ``throughput_ref_per_s``, come
from Phase B: in a closed loop on one CPU both scale with that CPU's
speed, so the probe accounts for the host.  Phase A latency also holds
thread and process wake-ups that do not scale so; scaled, it spread more
from run to run than unscaled, so it is reported raw, on the summary
line and in the traced run.
"""

from __future__ import annotations

import asyncio
import gc
import math
import shutil
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any

import numpy as np

import repro.serve.cluster
import repro.service.engine
from repro import Tracer
from repro.bench.harness import modeled_cpu_seconds
from repro.core.stats import QueryStats
from repro.index.delta import EMPTY_DELTA
from repro.serve import Frontend, ReplicaCluster, ServeConfig, load_epoch_version
from repro.service.engine import execute_pinned
from repro.service.queueing import Overloaded, ServiceClosed
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
    percentile,
    zero_layer_metrics,
)
from oracle import EpochOracle, WrongAnswer

SERVE_N = 40_000
CONFIG = ServeConfig(replicas=1, cache_slots=256, max_batch=16)
K = 1
READ_RPS = 300.0
CLOSED_CLIENTS = 64
WRITE_RPS = 100.0
PHASE_A_SHARE = 0.35
JITTER = 0.05
"""Standard deviation (degrees) of the Gaussian jitter added to data
points to make read queries."""
QUERY_POOL = 8192
"""Distinct read queries; the load generators cycle through them."""
A_ROUND_S = 2.0
B_ROUND_S = 1.0
"""Target round lengths of Phase A and Phase B; a phase runs a whole
number of rounds, at least one."""
WARMUP_READS = 200
DRAIN_TIMEOUT_S = 10.0
"""How long a phase waits, past its scheduled end, for its outstanding
reads before it counts them as timed out."""
DIMS = 2


@dataclass
class Workload:
    """Inputs fixed by the seed: dataset, read queries and write ops."""

    points: np.ndarray
    queries: np.ndarray
    insert_points: np.ndarray
    delete_order: np.ndarray

    @classmethod
    def make(cls, n: int, seed: int, n_writes: int) -> "Workload":
        points = catalogue(n, seed)
        rng = np.random.default_rng(seed + 1)
        picks = rng.integers(0, n, size=QUERY_POOL)
        queries = points[picks] + rng.normal(0.0, JITTER, size=(QUERY_POOL, DIMS))
        ins = points[rng.integers(0, n, size=n_writes)] + rng.normal(0.0, JITTER, (n_writes, DIMS))
        # Inserts stay inside the initial points' bounding box.  One outside
        # it widens the MBRQT universe, which rebuilds the writer's whole
        # mirror inline (about 1.8 s at n=40K); jitter pushes about one
        # insert in a thousand out, which made runs bimodal.
        ins = np.clip(ins, points.min(axis=0), points.max(axis=0))
        return cls(points, queries, ins, rng.permutation(n)[:n_writes])


@dataclass
class Read:
    point: np.ndarray
    epoch_lo: int
    due_s: float
    late_s: float
    epoch_hi: int = -1
    done_s: float = 0.0
    answer: Any = None
    probe_ms: float = 0.0
    """The host probe around the read's round (geometric mean of the two)."""


@dataclass
class Phase:
    """Accounting of one phase: every attempt lands in exactly one bucket."""

    name: str
    reads: list[Read] = field(default_factory=list)
    read_shed: int = 0
    read_failed: int = 0
    read_timeouts: int = 0
    writes: list[float] = field(default_factory=list)
    writes_attempted: int = 0
    write_failed: int = 0
    seconds: float = 0.0
    drained: bool = True
    rounds: list[tuple[int, float, float]] = field(default_factory=list)
    """Closed-loop rounds: (reads completed in the round, its seconds, probe ms)."""

    @property
    def answered(self) -> list[Read]:
        return [r for r in self.reads if r.answer is not None]

    def latencies_ms(self) -> list[float]:
        return [(r.done_s - r.due_s) * 1e3 for r in self.answered]

    def latencies_ref_ms(self) -> list[float]:
        return [at_ref(r.done_s - r.due_s, r.probe_ms) * 1e3 for r in self.answered]

    def capacity_rps(self) -> float:
        """Median over rounds of reads completed per second."""
        return median([done / secs for done, secs, __ in self.rounds])

    def capacity_ref_rps(self) -> float:
        """:meth:`capacity_rps` at reference speed."""
        return median([done / at_ref(secs, probe) for done, secs, probe in self.rounds])

    def report(self) -> dict[str, Any]:
        return {
            "reads_attempted": len(self.reads),
            "reads_answered": len(self.answered),
            "reads_shed": self.read_shed,
            "reads_failed": self.read_failed,
            "reads_timed_out": self.read_timeouts,
            "writes_attempted": self.writes_attempted,
            "writes_failed": self.write_failed,
            "backlog_drained": self.drained,
            "gen_late_p99_ms": percentile([r.late_s * 1e3 for r in self.reads], 99),
            "write_p50_ms": percentile([w * 1e3 for w in self.writes], 50),
            "write_p99_ms": percentile([w * 1e3 for w in self.writes], 99),
            "seconds": self.seconds,
        }


class LoadGen:
    """Load generator and write path bookkeeping around one cluster."""

    def __init__(self, cluster: ReplicaCluster, fe: Frontend, work: Workload,
                 oracle: EpochOracle, n: int, probe: HostProbe) -> None:
        self.cluster = cluster
        self.probe = probe
        self.fe = fe
        self.work = work
        self.oracle = oracle
        self.n = n
        self.alive = np.zeros(n + len(work.insert_points), dtype=bool)
        self.alive[:n] = True
        self.next_write = 0
        self.next_query = 0
        self.published = cluster.epoch
        oracle.publish(cluster.epoch, self.alive.copy())

    def _query(self) -> np.ndarray:
        q = self.work.queries[self.next_query % len(self.work.queries)]
        self.next_query += 1
        return q

    async def read(self, phase: Phase, due_s: float) -> None:
        loop = asyncio.get_running_loop()
        read = Read(self._query(), self.cluster.epoch, due_s, loop.time() - due_s)
        phase.reads.append(read)
        try:
            answer = await self.fe.submit(read.point, K)
        except Overloaded:
            phase.read_shed += 1
            return
        except asyncio.CancelledError:
            # Cancelled by _finish: the read outlived the drain timeout.
            phase.read_timeouts += 1
            raise
        except ServiceClosed:
            phase.read_failed += 1
            return
        read.done_s = loop.time()
        read.epoch_hi = self.cluster.epoch
        read.answer = answer

    def write(self, phase: Phase, due_s: float) -> None:
        """One insert or delete, synchronous on the event loop."""
        loop = asyncio.get_running_loop()
        j = self.next_write
        self.next_write += 1
        phase.writes_attempted += 1
        try:
            if j % 2 == 0:
                row = self.n + j // 2
                self.cluster.insert(self.work.insert_points[j // 2], row)
                self.alive[row] = True
            else:
                row = int(self.work.delete_order[j // 2])
                if not self.cluster.delete(row):
                    phase.write_failed += 1
                    return
                self.alive[row] = False
        except (ValueError, OSError, EOFError):
            phase.write_failed += 1
            return
        phase.writes.append(loop.time() - due_s)
        if self.cluster.epoch != self.published:
            # A compaction folded every pending op into the new epoch.
            self.published = self.cluster.epoch
            self.oracle.publish(self.published, self.alive.copy())

    async def writer(self, phase: Phase, seconds: float) -> None:
        loop = asyncio.get_running_loop()
        start = loop.time()
        for j in range(int(WRITE_RPS * seconds)):
            due = start + j / WRITE_RPS
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.write(phase, due)

    async def _rounds(self, phase: Phase, seconds: float, target_s: float, one_round) -> None:
        """Run ``one_round(round_s)`` a whole number of times in ``seconds``,
        with the host probe between rounds; stamps each round's reads and
        closed-loop tally with the probes on either side of it."""
        n_rounds = max(1, round(seconds / target_s))
        before = self.probe.ms()
        for __ in range(n_rounds):
            first, tallied = len(phase.reads), len(phase.rounds)
            drained = await one_round(seconds / n_rounds)
            phase.drained = phase.drained and drained
            after = self.probe.ms()
            speed = math.sqrt(before * after)
            for r in phase.reads[first:]:
                r.probe_ms = speed
            phase.rounds[tallied:] = [(done, secs, speed)
                                      for done, secs, __ in phase.rounds[tallied:]]
            before = after

    async def open_loop(self, phase: Phase, seconds: float, rng: np.random.Generator,
                        churn: bool) -> None:
        loop = asyncio.get_running_loop()

        async def one_round(round_s: float) -> bool:
            gaps = rng.exponential(1.0 / READ_RPS, size=int(READ_RPS * round_s))
            writer = asyncio.create_task(self.writer(phase, round_s)) if churn else None
            start = loop.time()
            tasks = []
            for due in start + np.cumsum(gaps):
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.create_task(self.read(phase, float(due))))
            if writer is not None:
                await writer
            phase.seconds += loop.time() - start
            return await _finish(tasks, DRAIN_TIMEOUT_S)

        await self._rounds(phase, seconds, A_ROUND_S, one_round)

    async def closed_loop(self, phase: Phase, seconds: float, churn: bool) -> None:
        loop = asyncio.get_running_loop()

        async def one_round(round_s: float) -> bool:
            start = loop.time()
            t_end = start + round_s
            first = len(phase.reads)

            async def client() -> None:
                while loop.time() < t_end:
                    await self.read(phase, loop.time())

            tasks = [asyncio.create_task(client()) for __ in range(CLOSED_CLIENTS)]
            if churn:
                tasks.append(asyncio.create_task(self.writer(phase, round_s)))
            drained = await _finish(tasks, round_s + DRAIN_TIMEOUT_S)
            done = sum(1 for r in phase.reads[first:]
                       if r.answer is not None and r.done_s <= t_end)
            phase.rounds.append((done, round_s, 0.0))
            phase.seconds += round_s
            return drained

        await self._rounds(phase, seconds, B_ROUND_S, one_round)


async def _finish(tasks: list[asyncio.Task], timeout_s: float) -> bool:
    """Wait for a phase's tasks; False when the backlog did not drain."""
    if not tasks:
        return True
    done, pending = await asyncio.wait(tasks, timeout=timeout_s)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()
    return not pending


async def _phases(gen: LoadGen, seconds: float, seed: int, churn: bool) -> tuple[Phase, Phase]:
    a, b = Phase("A"), Phase("B")
    await gen.open_loop(a, seconds * PHASE_A_SHARE, np.random.default_rng(seed + 2), churn)
    await gen.closed_loop(b, seconds * (1.0 - PHASE_A_SHARE), churn)
    return a, b


async def _warm(fe: Frontend, work: Workload) -> None:
    answers = await asyncio.gather(*(fe.submit(q, K) for q in work.queries[:WARMUP_READS]))
    if len(answers) != WARMUP_READS:
        raise WrongAnswer("warm-up reads went unanswered")


def _totals(phases: list[Phase]) -> tuple[int, int]:
    attempted = sum(len(p.reads) + p.writes_attempted for p in phases)
    failed = sum(p.read_shed + p.read_failed + p.read_timeouts + p.write_failed for p in phases)
    return attempted, failed


def _check(oracle: EpochOracle, phases: list[Phase]) -> int:
    reads = [
        (r.point, r.epoch_lo, r.epoch_hi, r.answer.neighbor_ids, r.answer.distances)
        for p in phases for r in p.answered
    ]
    if any(r.answer.approximate for p in phases for r in p.answered):
        raise WrongAnswer("a read came back approximate with no deadline set")
    return oracle.check(reads, K)


def run(workload: str, seed: int, seconds: float, scale: float, trace: bool,
        workdir: Path, probe: HostProbe) -> Outcome:
    churn = workload == "serve-churn"
    n = max(1_000, int(SERVE_N * scale))
    n_writes = int(WRITE_RPS * seconds) + 2 if churn else 0
    try:
        return asyncio.run(_run(churn, n, seed, seconds, trace, workdir, n_writes, probe))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # Multiprocessing starts a resource-tracker process with the first
        # shared-memory segment.  Collect the closed clusters' locks so
        # they unregister themselves, then stop the tracker and wait for it.
        gc.unfreeze()
        gc.collect()
        resource_tracker._resource_tracker._stop()


async def _run(churn: bool, n: int, seed: int, seconds: float, trace: bool,
               workdir: Path, n_writes: int, probe: HostProbe) -> Outcome:
    setups: list[float] = []
    setups_ref: list[float] = []
    cluster = fe = None
    try:
        for i in range(1 if trace else SETUP_REPEATS):
            if cluster is not None:
                await fe.drain()
                cluster.close()
            before = probe.ms()
            t0 = time.perf_counter()
            work = Workload.make(n, seed, n_writes)
            cluster = ReplicaCluster(work.points, CONFIG, workdir / f"setup-{i}")
            fe = Frontend(cluster)
            await fe.start()
            await _warm(fe, work)
            setups.append(time.perf_counter() - t0)
            setups_ref.append(at_ref(setups[-1], math.sqrt(before * probe.ms())))
        oracle = EpochOracle(np.concatenate([work.points, work.insert_points]))
        gen = LoadGen(cluster, fe, work, oracle, n, probe)
        # Every read's record is kept for the answer check at the end; with
        # the set-up heap frozen, those records do not make each full
        # collection the program triggers scan the whole index again.
        gc.collect()
        gc.freeze()
        if trace:
            return await _traced(gen, seconds, seed, churn)
        phases = list(await _phases(gen, seconds, seed, churn))
    finally:
        if cluster is not None:
            await fe.drain()
            cluster.close()
    rss = peak_rss_mb()
    checked = _check(oracle, phases)
    a, b = phases
    attempted, failed = _totals(phases)
    lat = a.latencies_ms()
    closed_ref = b.latencies_ref_ms()
    writes_ms = [w * 1e3 for p in phases for w in p.writes]
    return Outcome(
        attempted=attempted,
        failed=failed,
        metrics={
            "setup_s": median(setups_ref),
            "peak_rss_mb": rss,
            "op_p50_ref_ms": median(closed_ref),
            "throughput_ref_per_s": b.capacity_ref_rps(),
            "answered_ratio": (attempted - failed) / attempted,
        },
        summary={
            "setup_wall_s": median(setups),
            "read_p50_ms": median(lat),
            "read_p99_ms": percentile(lat, 99),
            "read_samples": len(lat),
            "closed_read_p50_ms": median(b.latencies_ms()),
            "closed_read_p50_ref_ms": median(closed_ref),
            "capacity_rps": b.capacity_rps(),
            "capacity_ref_rps": b.capacity_ref_rps(),
            "write_p50_ms": median(writes_ms),
            "write_p99_ms": percentile(writes_ms, 99),
            "write_samples": len(writes_ms),
            "error_ratio": failed / attempted,
            "reads_checked": checked,
            "epochs": gen.published,
            "phase_A": a.report(),
            "phase_B": b.report(),
        },
    )


@dataclass
class Batch:
    t0: float
    t1: float
    requests: list[Any]
    now_s: float
    answers: dict[int, Any]
    epoch: int
    stats: dict[str, float]


async def _traced(gen: LoadGen, seconds: float, seed: int, churn: bool) -> Outcome:
    """Half the window untraced (overhead baseline and tails), half traced."""
    cluster, fe = gen.cluster, gen.fe
    plain = list(await _phases(gen, seconds / 2, seed, churn))

    handle = cluster.replicas[0]
    batches: list[Batch] = []
    rtt, compact_t, rebuild_t, export_t, swap_t = (Timings() for __ in range(5))

    def keep_batch(args, out, span):
        batch_id, requests, now_s = args
        answers, info = out
        t0, t1 = span
        batches.append(Batch(t0, t1, requests, now_s, answers, info["epoch"], info["stats"]))

    before = _replica_io(cluster)
    counters_before = fe.counters.as_dict()
    with patch(handle, "query", rtt, keep_batch), \
            patch(cluster, "compact", compact_t), \
            patch(cluster.engine, "compact", rebuild_t), \
            patch(repro.serve.cluster, "write_epoch", export_t), \
            patch(handle, "swap", swap_t):
        traced = list(await _phases(gen, seconds / 2, seed + 100, churn))
    after = _replica_io(cluster)
    counters = {k: v - counters_before[k] for k, v in fe.counters.as_dict().items()}
    phases = plain + traced
    # The replay maps epochs from the workdir, so it runs before teardown.
    replay = _replay(cluster, batches)
    _check(gen.oracle, phases)
    attempted, failed = _totals(phases)

    spans = Spans()
    batch_of = {r.request_id: b for b in batches for r in b.requests}
    stats = QueryStats()
    for b in batches:
        stats.merge(_stats_from(b.stats))
    answered = [r for p in traced for r in p.answered]
    queue_wait = [r.answer.queue_wait_s * 1e3 for r in answered]
    frontend, covered, total = [], 0.0, 0.0
    for r in answered:
        b = batch_of[r.answer.request_id]
        span = spans.add("read", r.due_s, r.done_s, request=r.answer.request_id)
        spans.add("serve.gen_late", r.due_s, r.due_s + r.late_s, span, r.answer.request_id)
        spans.add("service.queue_wait", r.due_s + r.late_s,
                  r.due_s + r.late_s + r.answer.queue_wait_s, span, r.answer.request_id)
        frontend.append((r.answer.latency_s - r.answer.queue_wait_s - (b.t1 - b.t0)) * 1e3)
        covered += r.late_s + r.answer.queue_wait_s + (b.t1 - b.t0)
        total += r.done_s - r.due_s
    for b in batches:
        spans.add("serve.replica_rtt", b.t0, b.t1)
    reads = stats.logical_reads
    shared = {k: after[k] - before[k] for k in after}
    lookups = shared["shared_cache_hits"] + shared["shared_cache_misses"]
    plain_a, traced_a = plain[0], traced[0]
    writes_ms = [w * 1e3 for p in plain for w in p.writes]
    metrics = zero_layer_metrics()
    metrics.update({
        "index.build_s": replay["build_s"],
        "core.query_s": replay["query_s"],
        "core.expand_s": replay["stages"].get("expand", 0.0),
        "core.filter_s": filter_s(replay["stages"], replay["query_s"]),
        "core.gather_s": replay["stages"].get("gather", 0.0),
        "core.distance_evaluations": stats.distance_evaluations,
        "core.node_expansions": stats.node_expansions,
        "core.lpq_pops": stats.lpq_pops,
        "core.lpq_enqueues": stats.lpq_enqueues,
        "core.pruned_entries": stats.pruned_entries,
        "core.evals_per_point": stats.distance_evaluations / max(1, len(answered)),
        "core.modeled_cpu_s": modeled_cpu_seconds(stats, DIMS),
        "storage.read_s": replay["read_s"],
        "storage.logical_reads": reads,
        "storage.page_misses": stats.page_misses,
        "storage.pool_hit_ratio": 1.0 - stats.page_misses / reads if reads else 0.0,
        "storage.shared_cache_lookups": lookups,
        "storage.shared_cache_hit_ratio": shared["shared_cache_hits"] / lookups if lookups else 0.0,
        "storage.modeled_io_s": stats.io_time_s,
        "service.flush_ms": median(replay["flush_ms"]),
        "service.traverse_ms": median(replay["traverse_ms"]),
        "service.batch_size": float(np.mean([len(b.requests) for b in batches])),
        "service.queue_wait_p50_ms": median(queue_wait),
        "service.queue_wait_p99_ms": percentile(queue_wait, 99),
        "serve.replica_rtt_ms": median(rtt.durations) * 1e3,
        "serve.ipc_ms": median([(b.t1 - b.t0) * 1e3 - f
                                for b, f in zip(batches, replay["flush_ms"])]),
        "serve.frontend_ms": median(frontend),
        "serve.batches": counters["batches"],
        "serve.shed": counters["shed_quota"] + counters["shed_overload"]
        + counters["shed_deadline"],
        "serve.gen_late_p99_ms": percentile([r.late_s * 1e3 for r in traced_a.reads], 99),
        "serve.read_p99_ms": percentile(plain_a.latencies_ms(), 99),
        "write.compactions": len(compact_t.spans),
        "write.p50_ms": median(writes_ms),
        "write.p99_ms": percentile(writes_ms, 99),
        "write.compact_ms": median(compact_t.durations) * 1e3,
        "write.rebuild_ms": median(rebuild_t.durations) * 1e3,
        "write.export_ms": median(export_t.durations) * 1e3,
        "write.swap_ms": median(swap_t.durations) * 1e3,
        "trace.coverage": covered / total if total else 0.0,
        "trace.overhead_pct": (median(traced_a.latencies_ms()) / median(plain_a.latencies_ms())
                               - 1.0) * 100.0,
    })
    return Outcome(
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        summary={"batches": len(batches), "replayed": len(replay["flush_ms"]),
                 "phases": {f"{p.name}{i // 2}": p.report() for i, p in enumerate(phases)}},
        spans=spans.as_json(),
    )


def _replica_io(cluster: ReplicaCluster) -> dict[str, float]:
    io = cluster.stats()[0]["io"]
    return {k: float(io[k]) for k in ("shared_cache_hits", "shared_cache_misses")}


def _stats_from(d: dict[str, float]) -> QueryStats:
    stats = QueryStats()
    for key, value in d.items():
        if hasattr(stats, key) and key != "extra":
            setattr(stats, key, type(getattr(stats, key))(value))
    return stats


def _replay(cluster: ReplicaCluster, batches: list[Batch]) -> dict[str, Any]:
    """Re-run every recorded flush in-process through ``execute_pinned``
    against ``load_epoch_version`` of the epoch it was served from.

    Replayed answers must equal the served ones bit for bit; the replay
    gives the flush and traverse times and the core/index/storage self
    times that the replica process does not expose.
    """
    spec = cluster.replicas[0].spec
    versions: dict[int, Any] = {}
    flush_ms, traverse_ms = [], []
    stages: dict[str, float] = {}
    build, query, reads = Timings(), Timings(), Timings()
    with patch(repro.service.engine, "build_mbrqt", build), \
            patch(repro.service.engine, "mba_join", query), \
            patch(NodeFile, "read_node", reads):
        for b in batches:
            version = versions.get(b.epoch)
            if version is None:
                version = versions[b.epoch] = load_epoch_version(
                    str(cluster.workdir / f"epoch-{b.epoch:06d}"),
                    spec.pool_pages, spec.node_cache_entries,
                )
            tracer = Tracer()
            t0 = time.perf_counter()
            outcome = execute_pinned(spec.config, b.requests, b.now_s, version, EMPTY_DELTA,
                                     tracer)
            flush_ms.append((time.perf_counter() - t0) * 1e3)
            if outcome.answers != b.answers:
                raise WrongAnswer(f"replayed flush of requests {sorted(b.answers)} differs "
                                  "from the served answers")
            root_stages = tracer.root.stages
            traverse = root_stages.get("traverse")
            traverse_ms.append(traverse.time_s * 1e3 if traverse is not None else 0.0)
            for name, agg in root_stages.items():
                stages[name] = stages.get(name, 0.0) + agg.time_s
    return {
        "flush_ms": flush_ms,
        "traverse_ms": traverse_ms,
        "stages": stages,
        "build_s": build.total_s,
        "query_s": query.total_s,
        "read_s": reads.total_s,
    }
