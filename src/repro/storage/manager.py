"""SHORE-surrogate storage manager: one disk, one buffer pool, many files.

:class:`StorageManager` is the facade the rest of the library goes
through.  It mirrors the paper's experimental setup (Section 4.1): an
8 KB-page store and a shared LRU buffer pool whose size defaults to
64 pages (512 KB).  Both indexes of an ANN query — and GORDER's sorted
data files — live in files of the *same* manager, so they compete for the
same buffer pool, exactly as in the paper's runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, TypedDict

from .buffer_pool import BufferPool, pool_pages_for_bytes
from .disk import DEFAULT_PAGE_SIZE, DiskModel, PageStore
from .node_cache import DecodedNodeCache
from .node_file import NodeFile, PayloadCache

if TYPE_CHECKING:
    # Type-only: ``repro.core`` imports the index layer, which imports
    # this module, so an eager import would be circular.
    from ..core.stats import QueryStats

__all__ = [
    "StorageManager",
    "StorageSnapshot",
    "IOSnapshot",
    "DEFAULT_POOL_PAGES",
    "worker_pool_pages",
    "worker_node_cache_entries",
    "fold_io",
]


class IOSnapshot(TypedDict):
    """One observation of the manager's I/O + decoded-cache counters."""

    logical_reads: int
    page_misses: int
    physical_reads: int
    physical_writes: int
    io_time_s: float
    node_cache_hits: int
    node_cache_misses: int
    shared_cache_hits: int
    shared_cache_misses: int

DEFAULT_POOL_PAGES = 64
"""64 pages × 8 KB = the paper's default 512 KB buffer pool."""


@dataclass(frozen=True)
class StorageSnapshot:
    """Picklable frozen image of a manager's disk: pages + geometry.

    Everything a worker process needs to reopen the store read-only.  The
    buffer pool is deliberately *not* part of the snapshot — each reopened
    manager starts cold with its own (typically smaller) pool, so a
    worker's I/O counters reflect only its own traversal.
    """

    pages: tuple[bytes, ...]
    page_size: int
    disk: DiskModel


def _worker_share(budget: int, n_workers: int, worker_index: int) -> int:
    """Exact partition of ``budget`` units: worker ``i``'s share.

    The first ``budget % n_workers`` workers receive one extra unit, so
    the shares sum to exactly ``budget`` — never more.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if not 0 <= worker_index < n_workers:
        raise ValueError(
            f"worker_index must be in [0, {n_workers}), got {worker_index}"
        )
    base, remainder = divmod(budget, n_workers)
    return base + (1 if worker_index < remainder else 0)


def worker_pool_pages(pool_pages: int, n_workers: int, worker_index: int = 0) -> int:
    """Split one pool budget fairly across ``n_workers`` read-only reopens.

    Worker ``worker_index`` gets its share of an exact partition of
    ``pool_pages`` (the first ``pool_pages % n_workers`` workers get one
    page more), so the *aggregate* pool memory of a sharded run equals
    the serial run's and the Figure 3(b) I/O accounting stays honest:
    parallel speedup must not come from quietly multiplying cache.

    One irreducible exception: a :class:`BufferPool` cannot have zero
    capacity, so every worker keeps a one-page floor.  Only when
    ``pool_pages < n_workers`` — a degenerate configuration no benchmark
    uses — can the aggregate exceed the serial budget, and then by the
    minimum the pool implementation permits.
    """
    return max(1, _worker_share(pool_pages, n_workers, worker_index))


def worker_node_cache_entries(entries: int, n_workers: int, worker_index: int = 0) -> int:
    """Split a decoded-node cache budget across ``n_workers`` reopens.

    Worker ``worker_index`` gets its share of an exact partition of
    ``entries``: when ``entries < n_workers`` the first ``entries``
    workers get one entry and the rest get none (a cacheless reopen is
    valid, unlike a zero-page pool), so a sharded run's aggregate
    decoded-node memory **never** exceeds the serial run's.  A parent
    with no cache (``entries <= 0``) yields 0 for every worker.
    """
    if entries <= 0:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if not 0 <= worker_index < n_workers:
            raise ValueError(
                f"worker_index must be in [0, {n_workers}), got {worker_index}"
            )
        return 0
    return _worker_share(entries, n_workers, worker_index)


class StorageManager:
    """Bundles the simulated disk, the buffer pool, and file creation."""

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        pool_pages: int = DEFAULT_POOL_PAGES,
        disk: DiskModel | None = None,
        node_cache_entries: int = 0,
    ) -> None:
        self.page_size = page_size
        self.store = PageStore(page_size=page_size, disk=disk)  # guarded-by: owner
        self.pool = BufferPool(self.store, capacity_pages=pool_pages)  # guarded-by: owner
        # Decoded-node LRU above the pool; 0 entries disables the layer
        # and reproduces the pre-cache I/O counters exactly.
        self.node_cache = (  # guarded-by: owner
            DecodedNodeCache(node_cache_entries) if node_cache_entries > 0 else None
        )
        # Optional cross-process payload cache (see bind_shared_cache);
        # its hit/miss counters ride along in io_snapshot().
        self.shared_cache: PayloadCache | None = None
        self.readonly = False

    @classmethod
    def with_pool_bytes(
        cls,
        pool_bytes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        node_cache_entries: int = 0,
    ) -> "StorageManager":
        """Build a manager with the pool sized in bytes (the paper's unit)."""
        return cls(
            page_size=page_size,
            pool_pages=pool_pages_for_bytes(pool_bytes, page_size),
            node_cache_entries=node_cache_entries,
        )

    def create_file(self, pack_pages: bool = False) -> NodeFile:
        """A new node file sharing this manager's disk and buffer pool.

        ``pack_pages=True`` stores several small nodes per page (the
        disk-quadtree layout); the default dedicates pages per node (the
        R-tree layout).
        """
        if self.readonly:
            raise RuntimeError("read-only storage manager: cannot create files")
        return NodeFile(self.pool, pack_pages=pack_pages, node_cache=self.node_cache)

    # -- snapshot / read-only reopen ----------------------------------------

    def snapshot(self) -> StorageSnapshot:
        """Freeze the disk image for shipping to worker processes.

        Invalidates the decoded-node cache: the snapshot marks a
        process-boundary handoff, after which cached node objects must
        not be mistaken for reads of the (possibly diverging) live store.
        """
        if self.node_cache is not None:
            self.node_cache.clear()
        return StorageSnapshot(
            pages=self.store.dump_pages(),
            page_size=self.page_size,
            disk=self.store.disk,
        )

    @classmethod
    def reopen(
        cls,
        snapshot: StorageSnapshot,
        pool_pages: int = DEFAULT_POOL_PAGES,
        node_cache_entries: int = 0,
    ) -> "StorageManager":
        """Reopen a snapshot read-only with a fresh, cold buffer pool.

        The reopened manager shares no state with the original: it has its
        own pool (sized by the caller — see :func:`worker_pool_pages`), its
        own zeroed I/O counters, and refuses to create new files, so
        several workers can traverse the same snapshot concurrently while
        each accounts for exactly its own I/O.
        """
        manager = cls.__new__(cls)
        manager.page_size = snapshot.page_size
        manager.store = PageStore.from_pages(
            snapshot.pages, page_size=snapshot.page_size, disk=snapshot.disk
        )
        manager.pool = BufferPool(manager.store, capacity_pages=pool_pages)
        manager.node_cache = (
            DecodedNodeCache(node_cache_entries) if node_cache_entries > 0 else None
        )
        manager.shared_cache = None
        manager.readonly = True
        return manager

    @classmethod
    def attach_store(
        cls,
        store: PageStore,
        pool_pages: int = DEFAULT_POOL_PAGES,
        node_cache_entries: int = 0,
    ) -> "StorageManager":
        """Wrap an existing (typically mapped) store in a read-only manager.

        The zero-copy counterpart of :meth:`reopen`: instead of
        rebuilding the page list from a snapshot's page tuple, the
        caller supplies the store itself — e.g. a
        :class:`~repro.storage.mapped.MappedPageStore` over a published
        epoch artifact, so N replica processes map one file instead of
        each holding a copy.  Everything above the store (pool, decoded
        cache, counters) is fresh and private, exactly as in
        :meth:`reopen`.
        """
        manager = cls.__new__(cls)
        manager.page_size = store.page_size
        manager.store = store
        manager.pool = BufferPool(store, capacity_pages=pool_pages)
        manager.node_cache = (
            DecodedNodeCache(node_cache_entries) if node_cache_entries > 0 else None
        )
        manager.shared_cache = None
        manager.readonly = True
        return manager

    def bind_shared_cache(self, cache: PayloadCache | None) -> None:
        """Attach the cross-process payload cache for counter surfacing.

        The cache itself is consulted by :class:`~repro.storage.node_file.
        NodeFile` (bound per file with the epoch namespace); the manager
        only holds a reference so :meth:`io_snapshot` /
        :meth:`layer_counters` can report its hit/miss traffic alongside
        the local layers.
        """
        self.shared_cache = cache

    # -- accounting ---------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero I/O counters, typically after index build, before a query."""
        self.store.reset_counters()
        self.pool.reset_counters()
        if self.node_cache is not None:
            self.node_cache.reset_counters()

    def drop_caches(self) -> None:
        """Empty every cache layer so a query starts cold, as in the paper."""
        self.pool.clear()
        if self.node_cache is not None:
            self.node_cache.clear()

    def io_snapshot(self) -> IOSnapshot:
        """Current physical/logical I/O counters and simulated I/O time."""
        cache = self.node_cache
        shared = self.shared_cache.counters() if self.shared_cache is not None else {}
        return IOSnapshot(
            logical_reads=self.pool.logical_reads,
            page_misses=self.pool.misses,
            physical_reads=self.store.physical_reads,
            physical_writes=self.store.physical_writes,
            io_time_s=self.store.io_time_s,
            node_cache_hits=cache.hits if cache is not None else 0,
            node_cache_misses=cache.misses if cache is not None else 0,
            shared_cache_hits=shared.get("hits", 0),
            shared_cache_misses=shared.get("misses", 0),
        )

    def layer_counters(self) -> dict[str, float]:
        """Per-layer counters, prefixed by layer name — a tracer source.

        Spans bound to this source attribute their reads to the decoded-
        node cache, the buffer pool, or the simulated disk; the keys are
        stable (``cache.* / pool.* / disk.*``) so ``trace-report`` can
        build the layer table from any span's deltas.
        """
        out: dict[str, float] = {}
        for key, value in self.pool.counters().items():
            out[f"pool.{key}"] = float(value)
        if self.node_cache is not None:
            for key, value in self.node_cache.counters().items():
                out[f"cache.{key}"] = float(value)
        out["disk.physical_reads"] = float(self.store.physical_reads)
        out["disk.physical_writes"] = float(self.store.physical_writes)
        out["disk.io_time_s"] = self.store.io_time_s
        if self.shared_cache is not None:
            for key, count in self.shared_cache.counters().items():
                out[f"shared.{key}"] = float(count)
        return out


def fold_io(manager: StorageManager, stats: QueryStats) -> IOSnapshot:
    """Add ``manager``'s I/O counters to ``stats``; return the snapshot.

    The one mapping from :meth:`StorageManager.io_snapshot` onto the
    :class:`~repro.core.stats.QueryStats` I/O fields, shared by every
    engine, bench and flush path that charges a run its storage work.
    """
    io = manager.io_snapshot()
    stats.logical_reads += io["logical_reads"]
    stats.page_misses += io["page_misses"]
    stats.io_time_s += io["io_time_s"]
    stats.node_cache_hits += io["node_cache_hits"]
    stats.node_cache_misses += io["node_cache_misses"]
    return io
