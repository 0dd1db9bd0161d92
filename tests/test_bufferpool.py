"""Tests for the ARC buffer pool and its pager integration.

The load-bearing contract: with no pool (or a capacity-0 pool) every
counter reproduces the paper's uncached accounting exactly; with a warm
pool, physical reads drop while all *logical* numbers (node accesses,
data-page reads, query answers) are unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import ProbRangeQuery
from repro.core.utree import UTree
from repro.geometry.rect import Rect
from repro.storage.bufferpool import BufferPool
from repro.storage.pager import DataFile, IOCounter, PageStore
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import UniformDensity
from repro.uncertainty.regions import BallRegion


class TestBufferPoolLRU:
    """The basic protocol; frames touched once live in ARC's recency list
    (T1), which evicts least-recently-used first."""

    def test_miss_then_hit(self):
        pool = BufferPool(4)
        fid = pool.register_file()
        assert pool.access(fid, 0) is False
        assert pool.access(fid, 0) is True
        assert pool.hits == 1
        assert pool.misses == 1
        assert pool.accesses == 2
        assert pool.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        pool = BufferPool(2)
        fid = pool.register_file()
        pool.access(fid, 1)
        pool.access(fid, 2)
        pool.access(fid, 3)  # evicts page 1 (least recently used)
        assert pool.evictions == 1
        assert pool.resident_pages() == [(fid, 2), (fid, 3)]
        assert pool.access(fid, 1) is False  # 1 was evicted -> evicts 2
        assert pool.access(fid, 3) is True
        assert pool.access(fid, 2) is False

    def test_access_refreshes_recency(self):
        pool = BufferPool(2)
        fid = pool.register_file()
        pool.access(fid, 1)
        pool.access(fid, 2)
        pool.access(fid, 1)  # 1 becomes most recent; 2 is now LRU
        pool.access(fid, 3)  # evicts 2, not 1
        assert pool.access(fid, 1) is True
        assert (fid, 2) not in pool

    def test_capacity_zero_never_retains(self):
        pool = BufferPool(0)
        fid = pool.register_file()
        for _ in range(5):
            assert pool.access(fid, 7) is False
        assert pool.hits == 0
        assert pool.misses == 5
        assert len(pool) == 0

    def test_file_namespaces_are_distinct(self):
        pool = BufferPool(4)
        fa = pool.register_file()
        fb = pool.register_file()
        pool.access(fa, 0)
        assert pool.access(fb, 0) is False  # same page id, different file
        assert pool.access(fa, 0) is True

    def test_admit_and_invalidate(self):
        pool = BufferPool(2)
        fid = pool.register_file()
        pool.admit(fid, 9)
        assert pool.hits == 0 and pool.misses == 0
        assert pool.access(fid, 9) is True
        pool.invalidate(fid, 9)
        assert pool.access(fid, 9) is False
        pool.invalidate(fid, 12345)  # absent frame: no-op

    def test_clear_and_reset_counters(self):
        pool = BufferPool(4)
        fid = pool.register_file()
        pool.access(fid, 1)
        pool.access(fid, 1)
        pool.clear()
        assert len(pool) == 0
        assert pool.hits == 1  # counters survive clear()
        pool.reset_counters()
        assert pool.hits == 0 and pool.misses == 0 and pool.evictions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(-1)


class TestScanResistance:
    """A sequential scan cycles ARC's recency list (T1); frames touched
    twice sit in the frequency list (T2) and survive it."""

    def test_scan_does_not_evict_main_frames(self):
        pool = BufferPool(16)
        fid = pool.register_file()
        hot = list(range(8))
        for _ in range(2):
            for page in hot:
                pool.access(fid, page)  # twice-touched: promoted to T2
        # A flat scan floods 100 pages through the pool, sequentially.
        scan_fid = pool.register_file()
        for page in range(100):
            pool.access(scan_fid, page, sequential=True)
        # Every hot frame survived; the scan only ever displaced itself.
        for page in hot:
            assert (fid, page) in pool
            assert pool.access(fid, page) is True
        assert len(pool) <= pool.capacity

    def test_ghost_lists_are_bounded(self):
        pool = BufferPool(8)
        fid = pool.register_file()
        for page in range(4):
            pool.access(fid, page)
            pool.access(fid, page)
        for page in range(100, 300):
            pool.access(fid, page, sequential=True)
        b1, b2 = pool.ghost_pages()
        assert len(pool) <= pool.capacity
        assert len(pool._t1) + len(b1) <= pool.capacity
        assert len(pool) + len(b1) + len(b2) <= 2 * pool.capacity
        # The twice-touched frames are still resident.
        assert all((fid, page) in pool for page in range(4))

    def test_rereferenced_scan_page_promotes_to_main(self):
        pool = BufferPool(8)
        fid = pool.register_file()
        for page in range(100, 108):
            pool.access(fid, page)  # fill the pool with once-touched frames
        assert pool.access(fid, 5, sequential=True) is False
        assert (fid, 5) in pool
        # Second touch (repeated scan, or a point read): hit + promote.
        assert pool.access(fid, 5, sequential=True) is True
        assert pool.resident_pages()[-1] == (fid, 5)  # MRU end of T2
        # Now a further scan flood cannot displace it.
        for page in range(200, 260):
            pool.access(fid, page, sequential=True)
        assert pool.access(fid, 5) is True

    def test_scan_uses_spare_main_capacity(self):
        # An under-committed pool keeps a scan's frames in its idle
        # capacity, so repeated scans over a small file hit.
        pool = BufferPool(16)
        fid = pool.register_file()
        for page in range(3):
            pool.access(fid, page, sequential=True)
        assert set(pool.resident_pages()) == {(fid, p) for p in range(3)}
        hits_before = pool.hits
        for page in range(3):
            assert pool.access(fid, page, sequential=True) is True
        assert pool.hits == hits_before + 3

    def test_capacity_zero_retains_no_scan_frames(self):
        pool = BufferPool(0)
        fid = pool.register_file()
        for _ in range(3):
            assert pool.access(fid, 1, sequential=True) is False
        assert len(pool) == 0
        assert pool.ghost_pages() == ([], [])

    def test_sequential_scan_structure_keeps_hot_frames(self):
        from repro.core.scan import SequentialScan
        from repro.uncertainty.montecarlo import AppearanceEstimator

        pool = BufferPool(128)
        scan = SequentialScan(
            2, pool=pool, estimator=AppearanceEstimator(n_samples=500, seed=1)
        )
        for obj in _objects(200):
            scan.insert(obj)
        pool.clear()
        pool.reset_counters()
        # A hot working set touched twice (T2), leaving idle capacity
        # for the ~9 summary pages of the scan.
        hot_fid = pool.register_file()
        hot = [(hot_fid, page) for page in range(64)]
        for _ in range(2):
            for key in hot:
                pool.access(*key)
        query = _workload(1)[0]
        scan.filter_candidates(query)
        assert all(key in pool for key in hot)
        # A repeat scan hits what the first one left resident.
        hits_before = pool.hits
        scan.filter_candidates(query)
        assert pool.hits - hits_before == scan.scan_pages
        assert all(key in pool for key in hot)


class TestMixedTrace:
    """ARC's exact accounting on a deterministic scan + point trace.

    Capacity 12; each of 30 rounds runs an 8-page scan repeated every
    round, 4 hot point pages each touched twice in a row, and 4 one-touch
    cold pages.  The ghost lists remember the scan between rounds, so
    its third pass onwards hits.  (Plain LRU served 120 of these 600
    accesses and 2Q 352.)
    """

    def test_counts(self):
        pool = BufferPool(12)
        fid = pool.register_file()
        cold = 1000
        for _ in range(30):
            for page in range(100, 108):
                pool.access(fid, page, sequential=True)
            for page in range(200, 204):
                pool.access(fid, page)
                pool.access(fid, page)
            for _ in range(4):
                pool.access(fid, cold)
                cold += 1
        assert (pool.hits, pool.misses, pool.ghost_hits) == (422, 178, 46)


class TestPagerIntegration:
    def test_pagestore_reads_route_through_pool(self):
        io = IOCounter()
        pool = BufferPool(8)
        store = PageStore(io, pool=pool)
        page = store.allocate()
        store.touch_read(page)
        store.touch_read(page)
        assert io.reads == 1  # second read was a pool hit
        assert io.cache_hits == 1
        assert io.logical_reads == 2

    def test_pagestore_write_through_admits_frame(self):
        io = IOCounter()
        pool = BufferPool(8)
        store = PageStore(io, pool=pool)
        page = store.allocate()
        store.touch_write(page)
        assert io.writes == 1
        store.touch_read(page)  # just-written page is resident
        assert io.reads == 0
        assert io.cache_hits == 1

    def test_pagestore_free_invalidates_frame(self):
        io = IOCounter()
        pool = BufferPool(8)
        store = PageStore(io, pool=pool)
        page = store.allocate()
        store.touch_read(page)
        assert (store._pool_file_id, page) in pool
        store.free(page)
        assert (store._pool_file_id, page) not in pool

    def test_datafile_reads_route_through_pool(self):
        io = IOCounter()
        pool = BufferPool(8)
        f = DataFile(io, page_size=64, pool=pool)
        addr = f.append("x", 40)
        io.reset()
        pool.clear()
        f.read_page(addr.page_id)
        f.read(addr)
        assert io.reads == 1
        assert io.cache_hits == 1

    def test_no_pool_behaviour_unchanged(self):
        io = IOCounter()
        store = PageStore(io)
        page = store.allocate()
        store.touch_read(page)
        store.touch_read(page)
        assert io.reads == 2
        assert io.cache_hits == 0
        assert io.logical_reads == 2


def _objects(n: int, dim: int = 2, radius: float = 250.0) -> list[UncertainObject]:
    rng = np.random.default_rng(13)
    centres = rng.uniform(0, 10_000, (n, dim))
    return [
        UncertainObject(i, UniformDensity(BallRegion(centres[i], radius)))
        for i in range(n)
    ]


def _workload(n: int, dim: int = 2, qs: float = 1500.0) -> list[ProbRangeQuery]:
    rng = np.random.default_rng(29)
    centres = rng.uniform(1000, 9000, (n, dim))
    return [
        ProbRangeQuery(Rect.from_center(c, qs / 2.0), threshold=0.5) for c in centres
    ]


class TestCapacityZeroReproducesSeedCounts:
    """A capacity-0 pool must be indistinguishable from no pool at all."""

    def test_utree_fixed_workload_page_counts_identical(self):
        objects = _objects(120)
        workload = _workload(12)

        plain = UTree(2)
        pooled = UTree(2, pool=BufferPool(0))
        for obj in objects:
            plain.insert(obj)
            pooled.insert(obj)

        plain.io.reset()
        pooled.io.reset()
        for query in workload:
            a = plain.query(query)
            b = pooled.query(query)
            assert a.object_ids == b.object_ids
            assert a.stats.node_accesses == b.stats.node_accesses
            assert a.stats.data_page_reads == b.stats.data_page_reads
            assert b.stats.cache_hits == 0
            assert b.stats.physical_reads == a.stats.physical_reads

        assert pooled.io.reads == plain.io.reads
        assert pooled.io.writes == plain.io.writes
        assert pooled.io.cache_hits == 0

    def test_warm_pool_same_logical_fewer_physical(self):
        objects = _objects(120)
        workload = _workload(12)

        plain = UTree(2)
        pooled = UTree(2, pool=BufferPool(512))
        for obj in objects:
            plain.insert(obj)
            pooled.insert(obj)

        plain.io.reset()
        pooled.io.reset()
        for query in workload:
            a = plain.query(query)
            b = pooled.query(query)
            assert a.object_ids == b.object_ids
            # Logical accounting (the paper's metric) is pool-independent.
            assert a.stats.node_accesses == b.stats.node_accesses
            assert a.stats.data_page_reads == b.stats.data_page_reads

        assert pooled.io.reads < plain.io.reads
        assert pooled.io.cache_hits > 0
        assert pooled.io.logical_reads == plain.io.logical_reads


class TestPartition:
    """Budget slicing: exact totals, round-robin remainders, 0-slice warning."""

    def test_budget_preserved_and_remainder_interleaved(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")  # no warning on healthy budgets
            caps = [p.capacity for p in BufferPool.partition(10, 4)]
        assert sum(caps) == 10
        # Remainder frames interleave round-robin across the slice list
        # (slice 0 first), instead of piling onto a consecutive prefix.
        assert caps == [3, 2, 3, 2]
        assert [p.capacity for p in BufferPool.partition(6, 4)] == [2, 1, 2, 1]
        # Even splits stay even and disabled budgets stay disabled.
        assert [p.capacity for p in BufferPool.partition(8, 4)] == [2, 2, 2, 2]
        assert all(p.capacity == 0 for p in BufferPool.partition(0, 5))

    def test_slice_zero_always_funded_first(self):
        # Slice 0 carries ceil(capacity / shards): the most valuable file
        # (the shared data file, by convention) never silently loses its
        # cache while any slice is funded.
        with pytest.warns(UserWarning):
            caps = [p.capacity for p in BufferPool.partition(2, 6)]
        assert caps[0] == 1
        assert sum(caps) == 2

    def test_starved_budget_warns(self):
        with pytest.warns(UserWarning, match="capacity 0"):
            pools = BufferPool.partition(3, 5)
        assert sum(p.capacity for p in pools) == 3
        assert any(p.capacity == 0 for p in pools)
        # A zero budget is deliberate (uncached accounting): no warning.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            BufferPool.partition(0, 5)
            BufferPool.partition(12, 4)
