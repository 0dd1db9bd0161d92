"""Tests for the paged storage simulator and entry layouts."""

from __future__ import annotations

import pytest

from repro.storage.layout import (
    FLOAT_SIZE,
    POINTER_SIZE,
    WAL_HEADER_BYTES,
    NodeLayout,
    record_span_pages,
    rstar_layout,
    upcr_layout,
    utree_layout,
    wal_entry_bytes,
)
from repro.storage.pager import DataFile, DiskAddress, IOCounter, PageStore


class TestIOCounter:
    def test_counts_and_reset(self):
        io = IOCounter()
        io.record_read()
        io.record_read(3)
        io.record_write()
        assert (io.reads, io.writes, io.total) == (4, 1, 5)
        io.reset()
        assert io.total == 0

    def test_snapshot_delta(self):
        io = IOCounter()
        io.record_read(2)
        snap = io.snapshot()
        io.record_read()
        io.record_write(4)
        assert io.delta(snap) == (1, 4)


class TestDataFile:
    def test_packing_first_fit(self):
        df = DataFile(page_size=100)
        addresses = [df.append(f"obj{i}", 40) for i in range(5)]
        # Two 40-byte records per 100-byte page.
        assert [a.page_id for a in addresses] == [0, 0, 1, 1, 2]
        assert df.page_count == 3

    def test_read_costs_one_io(self):
        io = IOCounter()
        df = DataFile(io, page_size=100)
        addr = df.append("payload", 10)
        io.reset()
        assert df.read(addr) == "payload"
        assert io.reads == 1

    def test_read_page_returns_all(self):
        df = DataFile(page_size=100)
        df.append("a", 30)
        df.append("b", 30)
        assert df.read_page(0) == ["a", "b"]

    def test_oversized_record_spills_across_pages(self):
        # Regression: append used to clamp size_bytes to one page, so
        # multi-page records under-counted bytes and write I/O.
        io = IOCounter()
        df = DataFile(io, page_size=100)
        a1 = df.append("big", 250)  # ceil(250/100) = 3 pages
        assert io.writes == 3
        assert df.page_count == 3
        assert df.size_bytes == 3 * 100
        assert df.live_bytes == 250
        # The spill run is dedicated: the next record starts a new page.
        a2 = df.append("next", 10)
        assert (a1.page_id, a1.slot) == (0, 0)
        assert a2.page_id == 3
        assert df.read(a1) == "big"

    def test_spilled_read_charges_span_pages(self):
        io = IOCounter()
        df = DataFile(io, page_size=100)
        addr = df.append("big", 350)
        io.reset()
        assert df.read(addr) == "big"
        assert io.reads == 4
        # peek stays free.
        assert df.peek(addr) == "big"
        assert io.reads == 4

    def test_exact_page_multiple_does_not_overallocate(self):
        io = IOCounter()
        df = DataFile(io, page_size=100)
        df.append("two", 200)
        assert (df.page_count, io.writes) == (2, 2)


class TestDataFileReclaim:
    def test_release_noop_by_default(self):
        io = IOCounter()
        df = DataFile(io, page_size=100)
        addr = df.append("a", 40)
        io.reset()
        assert df.release(addr) is False
        assert df.read(addr) is None  # slot kept, payload dropped
        assert (df.record_count, df.free_slots) == (1, 0)
        assert io.writes == 0

    def test_release_then_exact_size_reuse(self):
        io = IOCounter()
        df = DataFile(io, page_size=100, reclaim=True)
        a = df.append("a", 40)
        df.append("b", 40)
        io.reset()
        assert df.release(a) is True
        assert io.total == 0  # freeing is a metadata-only operation
        assert (df.free_slots, df.free_bytes) == (1, 40)
        reused = df.append("c", 40)
        assert reused == a  # same page, same slot
        assert io.writes == 1  # the reused page is rewritten in place
        assert df.page_count == 1  # the file did not grow
        assert df.reclaimed_slots == 1
        assert df.read(reused) == "c"

    def test_released_since_names_freed_addresses(self):
        df = DataFile(page_size=100)
        df.release(df.append("a", 40))  # reclaim off: nothing is counted
        assert (df.released_slots, df.released_since(0)) == (0, set())
        df = DataFile(page_size=100, reclaim=True)
        a = df.append("a", 40)
        b = df.append("b", 40)
        df.release(a)
        mark = df.released_slots
        df.release(b)
        assert df.released_slots == 2
        assert df.released_since(0) == {a, b}
        assert df.released_since(mark) == {b}
        df.release(df.append("c", 40))  # b's slot again: newest release wins
        assert df.released_since(mark) == {b}
        assert df.released_since(df.released_slots) == set()

    def test_reuse_requires_exact_size(self):
        df = DataFile(page_size=100, reclaim=True)
        a = df.append("a", 40)
        df.release(a)
        other = df.append("b", 30)  # smaller: must not take the 40-byte slot
        assert other != a
        again = df.append("c", 40)
        assert again == a

    def test_released_slot_guards(self):
        df = DataFile(page_size=100, reclaim=True)
        a = df.append("a", 40)
        df.append("b", 40)
        df.release(a)
        assert df.release(a) is False  # double release is a no-op
        with pytest.raises(KeyError):
            df.read(a)
        with pytest.raises(KeyError):
            df.peek(a)
        # read_page preserves slot positions; the freed slot reads None.
        assert df.read_page(0) == [None, "b"]
        # peek_page filters to live records for iteration-style callers.
        assert df.peek_page(0) == ["b"]

    def test_byte_accounting_through_churn(self):
        df = DataFile(page_size=100, reclaim=True)
        a = df.append("a", 60)
        b = df.append("b", 30)
        assert (df.live_bytes, df.free_bytes) == (90, 0)
        df.release(a)
        assert (df.live_bytes, df.free_bytes) == (30, 60)
        df.append("c", 60)
        assert (df.live_bytes, df.free_bytes) == (90, 0)
        assert df.record_count == 2
        df.release(b)
        assert df.record_count == 1
        assert (df.live_bytes, df.free_bytes) == (60, 30)

    def test_rejects_bad_sizes(self):
        df = DataFile(page_size=100)
        with pytest.raises(ValueError):
            df.append("x", 0)
        with pytest.raises(ValueError):
            DataFile(page_size=0)

    def test_append_charges_write_per_new_page(self):
        io = IOCounter()
        df = DataFile(io, page_size=100)
        df.append("a", 60)
        df.append("b", 60)  # does not fit -> new page
        assert io.writes == 2

    def test_size_bytes(self):
        df = DataFile(page_size=128)
        df.append("a", 100)
        df.append("b", 100)
        assert df.size_bytes == 2 * 128


class TestPageStore:
    def test_allocate_free(self):
        store = PageStore()
        p1 = store.allocate()
        p2 = store.allocate()
        assert p1 != p2
        assert store.page_count == 2
        store.free(p1)
        assert store.page_count == 1

    def test_touch_charges_io(self):
        io = IOCounter()
        store = PageStore(io)
        p = store.allocate()
        store.touch_read(p)
        store.touch_write(p)
        assert (io.reads, io.writes) == (1, 1)

    def test_touch_unallocated_raises(self):
        store = PageStore()
        with pytest.raises(KeyError):
            store.touch_read(99)

    def test_size_bytes(self):
        store = PageStore(page_size=4096)
        store.allocate()
        store.allocate()
        assert store.size_bytes == 8192


class TestLayouts:
    def test_utree_2d_matches_paper(self):
        """Section 6.3: two CFBs are 16 values in 2-D, 24 in 3-D."""
        layout2 = utree_layout(2)
        assert layout2.leaf_entry_bytes == 16 * FLOAT_SIZE + 4 * FLOAT_SIZE + POINTER_SIZE
        layout3 = utree_layout(3)
        assert layout3.leaf_entry_bytes == 24 * FLOAT_SIZE + 6 * FLOAT_SIZE + POINTER_SIZE

    def test_upcr_matches_paper(self):
        """Section 6.3: m PCRs are 36 values at m=9 (2-D), 60 at m=10 (3-D)."""
        layout2 = upcr_layout(2, 9)
        assert layout2.inner_entry_bytes == 36 * FLOAT_SIZE + POINTER_SIZE
        layout3 = upcr_layout(3, 10)
        assert layout3.inner_entry_bytes == 60 * FLOAT_SIZE + POINTER_SIZE

    def test_utree_fanout_larger_than_upcr(self):
        ut = utree_layout(2)
        up = upcr_layout(2, 9)
        assert ut.leaf_capacity > up.leaf_capacity
        assert ut.inner_capacity > up.inner_capacity

    def test_capacity_floor_is_two(self):
        tiny = NodeLayout(leaf_entry_bytes=5000, inner_entry_bytes=5000, page_size=4096)
        assert tiny.leaf_capacity == 2

    def test_min_fill(self):
        layout = rstar_layout(2)
        assert layout.min_fill(100) == 40
        assert layout.min_fill(2) == 1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            utree_layout(0)
        with pytest.raises(ValueError):
            upcr_layout(2, 0)

    def test_upcr_size_grows_with_catalog(self):
        assert upcr_layout(2, 12).leaf_entry_bytes > upcr_layout(2, 3).leaf_entry_bytes

    def test_record_span_pages(self):
        assert record_span_pages(1, 100) == 1
        assert record_span_pages(100, 100) == 1
        assert record_span_pages(101, 100) == 2
        assert record_span_pages(250, 100) == 3

    def test_wal_entry_bytes(self):
        assert wal_entry_bytes(0) == WAL_HEADER_BYTES
        assert wal_entry_bytes(17) == WAL_HEADER_BYTES + 17
