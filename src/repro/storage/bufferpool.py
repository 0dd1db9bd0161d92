"""An adaptive (ARC) buffer pool between the access methods and the disk.

The paper charges every page access to the (simulated) disk, which is the
right accounting for its single-query experiments.  A serving system runs
*workloads*, and workloads have locality: consecutive queries revisit the
same index nodes and data pages.  The :class:`BufferPool` models the
memory layer that exploits that locality — a fixed-capacity cache of
``(file, page)`` frames with hit/miss accounting.

Accounting contract (relied on by the experiment harness and tests):

* a **logical** read is any page request made by an access method;
* a **physical** read is a logical read that missed the pool (or any read
  when no pool is attached / capacity is 0) — only these are charged to
  :class:`repro.storage.pager.IOCounter.reads`;
* with ``capacity=0`` the pool never retains a frame, so every logical
  read is physical and all counters reproduce the uncached (paper) numbers
  exactly.

Replacement is the Adaptive Replacement Cache of Megiddo & Modha.  Four
lists: ``T1`` (seen once, recency) and ``T2`` (seen twice+, frequency)
hold the at-most-``capacity`` resident frames; ghost lists ``B1``/``B2``
remember the *identities* of recently evicted T1/T2 frames (bounded so
``|T1|+|B1| <= capacity`` and the four lists together hold at most
``2*capacity`` entries).  A hit in a ghost list is a miss that LRU
*would have served* with a different recency/frequency split, so it
moves the adaptive target ``p`` (the size T1 aspires to): a B1 hit
grows ``p`` by ``max(1, |B2|/|B1|)``, a B2 hit shrinks it by
``max(1, |B1|/|B2|)``.  Eviction (``REPLACE``) takes T1's LRU frame
into B1 while ``|T1| > p`` (or ``== p`` on a B2 ghost hit), else T2's
LRU frame into B2.  A one-pass scan therefore only ever cycles T1: the
frames a workload touched twice sit in T2 and survive it.  Because
ghosts persist for up to ``capacity`` further misses, the *second* pass
of a repeated scan promotes its pages to T2 and the third pass hits.

**Scan-length calibration.**  Readers that know they are scanning pass
``sequential=True``.  The pool tracks an EWMA of observed sequential
run lengths (consecutive ``sequential=True`` accesses).  Ghosts of
sequential frames are tagged; when the calibrated scan length exceeds
``capacity`` — no target split could ever cache the scan — hits on
those tagged ghosts do *not* inflate ``p``, so an over-long looping scan
cannot steal target share from the hot random-access working set.  (The
ghost hit itself is still counted/promoted; only the target adaptation
is suppressed.)

Pages in this simulator are live Python objects, so the pool caches only
*identities*; hits skip the I/O charge, nothing else.  Writes are
write-through: they always cost a physical write, and the written frame is
retained (a just-written page is in memory).  All operations take an
internal lock, so one pool may be shared by the parallel batch executor's
fetch and filter threads.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict

__all__ = [
    "BufferPool",
    "charge_page_read",
    "pool_counters",
    "pools_of",
]

def charge_page_read(
    io,
    pool: "BufferPool | None",
    file_id: int,
    page_id: int,
    *,
    sequential: bool = False,
) -> bool:
    """Charge one logical page read to ``io``, routing through ``pool``.

    The single place that encodes the accounting contract: a pool hit
    costs a cache hit, anything else a physical read.  ``sequential``
    marks scan-shaped accesses for the pool's scan-length calibration.
    Returns True on a pool hit.
    """
    if pool is not None and pool.access(file_id, page_id, sequential=sequential):
        io.record_cache_hit()
        return True
    io.record_read()
    return False


def pools_of(method) -> "list[BufferPool]":
    """Every distinct :class:`BufferPool` reachable from an access method.

    Covers the method's own node-store pool, its data file's pool, and —
    for sharded methods — each child's node and data pools.  Duplicates
    (shared pools) are returned once, by identity.  Used by the
    executors to surface pool hit/miss/ghost counters into
    ``QueryStats``/``BatchStats``.
    """
    pools: list[BufferPool] = []

    def _add(pool) -> None:
        if pool is not None and all(pool is not seen for seen in pools):
            pools.append(pool)

    def _visit(node) -> None:
        _add(getattr(node, "pool", None))
        data_file = getattr(node, "data_file", None)
        if data_file is not None:
            _add(getattr(data_file, "pool", None))

    _visit(method)
    for shard in getattr(method, "shards", None) or []:
        _visit(shard)
    return pools


def pool_counters(pools) -> tuple[int, int, int]:
    """Summed ``(hits, misses, ghost_hits)`` across ``pools``."""
    hits = misses = ghosts = 0
    for pool in pools:
        hits += pool.hits
        misses += pool.misses
        ghosts += pool.ghost_hits
    return hits, misses, ghosts


class BufferPool:
    """A shared ARC cache of ``(file_id, page_id)`` frames.

    One pool may back several page files (an index's node store plus its
    data file, or several trees in a batch harness); each backing file
    registers itself to obtain a distinct ``file_id`` namespace.

    Args:
        capacity: maximum number of resident frames (``|T1|+|T2|``).
            ``0`` disables caching (every access is a miss and nothing
            is retained), reproducing uncached I/O accounting exactly.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.ghost_hits = 0
        # values in the four lists are the frame's sequential tag
        self._t1: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self._t2: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self._b1: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self._b2: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self._target = 0.0  # ARC's p: the size T1 aspires to
        # scan-length calibration
        self._scan_run = 0
        self.scan_length_ewma = 0.0
        self._next_file_id = 0
        self._lock = threading.RLock()

    @classmethod
    def partition(cls, capacity: int, shards: int) -> "list[BufferPool]":
        """Slice one frame budget into ``shards`` independent pools.

        A sharded access method gives each shard its own pool so one
        shard's working set cannot evict another's — the memory-layer
        analogue of the shard's private PageStore.  The total budget is
        preserved: slice capacities are as even as possible and sum to
        ``capacity`` exactly.  Remainder frames are *interleaved
        round-robin* across the slice list (slice 0 always takes the
        first bonus frame) rather than front-loaded onto a consecutive
        prefix, so when consumers are grouped — e.g. shard 0's node
        store next to shard 0's neighbours — the bonus capacity spreads
        across the groups instead of piling onto the first one.  A
        ``capacity`` of 0 yields all-disabled pools, keeping the
        uncached accounting contract shard by shard.

        A *nonzero* budget smaller than ``shards`` cannot give every
        slice a frame: the short slices — including the trailing one —
        come out capacity 0 (fully disabled, silently uncached), which
        is almost never what a caller sizing a cache wants, so this case
        raises a ``UserWarning`` naming the disabled slice count.  Order
        the consumers so the most valuable file takes slice 0, which is
        always funded when any slice is.
        """
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        capacity = int(capacity)
        # Bresenham-style spread, anchored so slice 0 gets ceil(c/s):
        # slice i receives the budget between the (shards-i-1)-th and
        # (shards-i)-th evenly spaced cut points.
        caps = [
            (capacity * (shards - i)) // shards
            - (capacity * (shards - i - 1)) // shards
            for i in range(shards)
        ]
        if capacity and caps[-1] == 0:
            warnings.warn(
                f"buffer-pool budget {capacity} spans only "
                f"{sum(1 for c in caps if c)} of {shards} slices; "
                f"{sum(1 for c in caps if not c)} trailing/interleaved "
                "slices are capacity 0 (uncached)",
                UserWarning,
                stacklevel=2,
            )
        return [cls(c) for c in caps]

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_file(self) -> int:
        """Reserve a fresh file-id namespace for one backing page file."""
        with self._lock:
            file_id = self._next_file_id
            self._next_file_id += 1
            return file_id

    # ------------------------------------------------------------------
    # the cache protocol
    # ------------------------------------------------------------------
    def access(self, file_id: int, page_id: int, *, sequential: bool = False) -> bool:
        """Request one page; returns True on a hit, False on a miss.

        A T1 hit promotes the frame to T2, a T2 hit refreshes its
        recency, a ghost hit adapts the target and re-admits the frame
        to T2, and a cold miss loads it into T1 (see the module
        docstring).  ``sequential`` feeds the scan-length calibration.
        """
        key = (file_id, page_id)
        with self._lock:
            self._observe_sequential(sequential)
            if self.capacity == 0:
                self.misses += 1
                return False
            if key in self._t1:
                del self._t1[key]
                self._t2[key] = sequential
                self.hits += 1
                return True
            if key in self._t2:
                self._t2.move_to_end(key)
                self._t2[key] = sequential
                self.hits += 1
                return True
            if key in self._b1:
                # Ghost hit on the recency side: LRU-with-larger-T1 would
                # have kept this frame, so grow the target — unless the
                # ghost came from a scan no feasible target could cache.
                self.ghost_hits += 1
                self.misses += 1
                ghost_sequential = self._b1.pop(key)
                if not (ghost_sequential and self._scan_uncacheable()):
                    delta = max(1.0, len(self._b2) / max(1, len(self._b1) + 1))
                    self._target = min(float(self.capacity), self._target + delta)
                self._replace(ghost_in_b2=False)
                self._t2[key] = sequential
                return False
            if key in self._b2:
                # Ghost hit on the frequency side: shrink the target.
                self.ghost_hits += 1
                self.misses += 1
                ghost_sequential = self._b2.pop(key)
                if not (ghost_sequential and self._scan_uncacheable()):
                    delta = max(1.0, len(self._b1) / max(1, len(self._b2) + 1))
                    self._target = max(0.0, self._target - delta)
                self._replace(ghost_in_b2=True)
                self._t2[key] = sequential
                return False
            # Cold miss.
            self.misses += 1
            self._make_room()
            self._t1[key] = sequential
            return False

    def admit(self, file_id: int, page_id: int) -> None:
        """Retain a frame without charging a hit or miss.

        Used by write paths: a page just written is resident in memory, so
        the next read of it should hit.
        """
        key = (file_id, page_id)
        with self._lock:
            if self.capacity == 0:
                return
            if key in self._t1:
                del self._t1[key]
                self._t2[key] = False
            elif key in self._t2:
                self._t2.move_to_end(key)
            else:
                self._b1.pop(key, None)
                self._b2.pop(key, None)
                self._make_room()
                self._t1[key] = False

    def invalidate(self, file_id: int, page_id: int) -> None:
        """Drop a frame (page freed/deallocated); no-op when absent."""
        key = (file_id, page_id)
        with self._lock:
            self._t1.pop(key, None)
            self._t2.pop(key, None)
            self._b1.pop(key, None)
            self._b2.pop(key, None)

    def clear(self) -> None:
        """Drop every frame and ghost (counters and calibration kept)."""
        with self._lock:
            self._t1.clear()
            self._t2.clear()
            self._b1.clear()
            self._b2.clear()
            self._target = 0.0

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction/ghost counters (frames are kept)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.ghost_hits = 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _observe_sequential(self, sequential: bool) -> None:
        """Fold consecutive sequential accesses into the scan-length EWMA."""
        if sequential:
            self._scan_run += 1
            return
        if self._scan_run:
            run = float(self._scan_run)
            self._scan_run = 0
            if self.scan_length_ewma:
                self.scan_length_ewma = 0.7 * self.scan_length_ewma + 0.3 * run
            else:
                self.scan_length_ewma = run

    def _scan_uncacheable(self) -> bool:
        """True when the calibrated scan is too long for any target split."""
        observed = max(self.scan_length_ewma, float(self._scan_run))
        return observed > self.capacity

    def _make_room(self) -> None:
        """Case IV of the ARC paper: bound the lists before a T1 insert."""
        c = self.capacity
        if len(self._t1) + len(self._b1) >= c:
            # L1 full: recycle a B1 ghost slot, or T1's LRU if no ghosts.
            if len(self._t1) < c:
                self._b1.popitem(last=False)
                self._replace(ghost_in_b2=False)
            else:
                self._t1.popitem(last=False)
                self.evictions += 1
        elif len(self._t1) + len(self._t2) + len(self._b1) + len(self._b2) >= c:
            if (
                len(self._t1) + len(self._t2) + len(self._b1) + len(self._b2)
                >= 2 * c
            ):
                self._b2.popitem(last=False)
            self._replace(ghost_in_b2=False)

    def _replace(self, *, ghost_in_b2: bool) -> None:
        """REPLACE: evict one resident frame into its ghost list."""
        if len(self._t1) + len(self._t2) < self.capacity:
            return
        t1_len = len(self._t1)
        if t1_len and (
            t1_len > self._target or (ghost_in_b2 and t1_len == int(self._target))
        ):
            key, seq = self._t1.popitem(last=False)
            self._b1[key] = seq
        elif self._t2:
            key, seq = self._t2.popitem(last=False)
            self._b2[key] = seq
        elif self._t1:
            key, seq = self._t1.popitem(last=False)
            self._b1[key] = seq
        else:
            return
        self.evictions += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._t1 or key in self._t2

    @property
    def accesses(self) -> int:
        """Total logical accesses routed through the pool."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from memory (0.0 when unused)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    @property
    def target_recency(self) -> float:
        """ARC's adaptive target ``p``."""
        return self._target

    def resident_pages(self) -> list[tuple[int, int]]:
        """Resident frames: the recency list (T1) then the frequency list
        (T2), each least- to most-recently used."""
        return list(self._t1) + list(self._t2)

    def ghost_pages(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """ARC's ``(B1, B2)`` ghost identities, oldest first."""
        return list(self._b1), list(self._b2)

    def __repr__(self) -> str:
        return (
            f"BufferPool(capacity={self.capacity}, "
            f"resident={len(self)}, hits={self.hits}, misses={self.misses}, "
            f"ghost_hits={self.ghost_hits})"
        )
