"""A simulated paged storage manager with I/O accounting.

The paper evaluates index structures on a real disk with 4096-byte pages
and reports *page accesses* as the I/O cost.  We reproduce that on top of
an in-memory page store: every node of a tree occupies one page, object
details (uncertainty region + pdf parameters) live in data-file pages, and
an :class:`IOCounter` tallies each logical page read/write.

Nothing here serialises real bytes — the simulator tracks *sizes* so that
fanout, tree size (Table 1) and page-access counts (Figs. 9-11) are
faithful, while payloads stay live Python objects for speed.
"""

from __future__ import annotations

import struct
import threading
import time
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.faults import CorruptPageError, DegradedWarning, TransientIOError
from repro.storage.bufferpool import BufferPool, charge_page_read
from repro.storage.layout import (
    PAGE_CHECKSUM_BYTES,
    record_span_pages,
    usable_page_bytes,
)

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "CompositeIOCounter",
    "IOCounter",
    "DiskAddress",
    "DataFile",
    "DataFileView",
    "PageStore",
]

DEFAULT_PAGE_SIZE = 4096


class IOCounter:
    """Counts physical page reads/writes plus cache-served logical reads.

    The same counter instance is shared by an index and its data file so a
    query's total I/O (filter-step node accesses + refinement-step data
    pages) accumulates in one place.

    ``reads``/``writes`` count *physical* (disk) accesses — with no buffer
    pool attached every logical read is physical, which is the paper's
    accounting.  When a :class:`~repro.storage.bufferpool.BufferPool`
    serves a read from memory the page file records a ``cache hit``
    instead, so ``logical_reads = reads + cache_hits`` while ``reads``
    keeps its uncached meaning.

    Counter updates take an internal lock so the parallel batch executor's
    filter and fetch threads can share one counter without losing
    increments; snapshot reads stay lock-free (they are monotonic ints).
    """

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.cache_hits = 0
        self._lock = threading.Lock()

    @property
    def total(self) -> int:
        """Physical reads plus writes."""
        return self.reads + self.writes

    @property
    def logical_reads(self) -> int:
        """All read requests, whether served by disk or by the pool."""
        return self.reads + self.cache_hits

    def record_read(self, pages: int = 1) -> None:
        with self._lock:
            self.reads += pages

    def record_write(self, pages: int = 1) -> None:
        with self._lock:
            self.writes += pages

    def record_cache_hit(self, pages: int = 1) -> None:
        with self._lock:
            self.cache_hits += pages

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.cache_hits = 0

    def snapshot(self) -> tuple[int, int]:
        """Current ``(reads, writes)`` pair, for delta measurements."""
        return (self.reads, self.writes)

    def delta(self, snapshot: tuple[int, int]) -> tuple[int, int]:
        """Physical reads/writes accumulated since ``snapshot``."""
        return (self.reads - snapshot[0], self.writes - snapshot[1])

    def __repr__(self) -> str:
        return (
            f"IOCounter(reads={self.reads}, writes={self.writes}, "
            f"cache_hits={self.cache_hits})"
        )


class CompositeIOCounter:
    """A read-only aggregate view over several :class:`IOCounter`\\ s.

    A sharded access method gives every shard its own counter (per-shard
    attribution stays exact even when shards filter concurrently) but the
    execution layer still wants "the method's I/O" as one number: this
    view sums the children on every property read.  It intentionally has
    no ``record_*`` methods — writes always go to a concrete child
    counter, so an aggregate read can never race a lost update.
    """

    def __init__(self, counters: "list[IOCounter]"):
        self._counters = list(counters)

    @property
    def reads(self) -> int:
        return sum(c.reads for c in self._counters)

    @property
    def writes(self) -> int:
        return sum(c.writes for c in self._counters)

    @property
    def cache_hits(self) -> int:
        return sum(c.cache_hits for c in self._counters)

    @property
    def total(self) -> int:
        return self.reads + self.writes

    @property
    def logical_reads(self) -> int:
        return self.reads + self.cache_hits

    def reset(self) -> None:
        """Zero every underlying counter."""
        for counter in self._counters:
            counter.reset()

    def snapshot(self) -> tuple[int, int]:
        return (self.reads, self.writes)

    def delta(self, snapshot: tuple[int, int]) -> tuple[int, int]:
        return (self.reads - snapshot[0], self.writes - snapshot[1])

    def __repr__(self) -> str:
        return (
            f"CompositeIOCounter(counters={len(self._counters)}, "
            f"reads={self.reads}, writes={self.writes}, "
            f"cache_hits={self.cache_hits})"
        )


@dataclass(frozen=True)
class DiskAddress:
    """Location of an object's detail record: ``(page_id, slot)``.

    Leaf entries store this address; the refinement step groups candidates
    by ``page_id`` so each data page is fetched once (Section 5.2).
    """

    page_id: int
    slot: int

    def __repr__(self) -> str:
        return f"@{self.page_id}:{self.slot}"


@dataclass
class _DataPage:
    payloads: list[Any] = field(default_factory=list)
    # Per-slot record sizes; a released slot holds the negated size (the
    # tombstone keeps byte accounting auditable after reuse churn).
    slot_bytes: list[int] = field(default_factory=list)
    used_bytes: int = 0
    # Checksum mode only: the page's shadow byte image — a deterministic
    # rendering of its slot layout, led by the stored crc32 of the rest.
    # ``None`` with checksums off (zero footprint, zero divergence).
    image: bytearray | None = None


class DataFile:
    """A paged file of object detail records, append-mostly.

    Records are packed into pages first-fit in arrival order, mimicking how
    the paper stores "the details of o.ur and the parameters of o.pdf" at a
    disk address referenced from the leaf entry.  Records longer than one
    page spill across ``ceil(size / page_size)`` dedicated pages (one write
    charged per spilled page; fetching charges the same span).

    With ``reclaim`` enabled, :meth:`release` returns a deleted record's
    slot to a per-size free list and :meth:`append` reuses an exact-size
    slot before growing the file — one page write per reused page, since
    the slot's page is physically rewritten.  The default (``reclaim``
    off) keeps the seed's strictly-append behavior and I/O counts
    byte-for-byte: ``release`` is a no-op and nothing is ever reused.

    **Integrity mode** (``checksum=True`` or :meth:`enable_checksum`):
    every page keeps a deterministic *shadow image* — a page-sized byte
    rendering of its slot layout whose first
    :data:`~repro.storage.layout.PAGE_CHECKSUM_BYTES` bytes store the
    crc32 of the rest — and every physical read verifies the stored crc
    before payloads are served.  A mismatch raises
    :class:`~repro.faults.CorruptPageError`, or — with ``scrub`` on —
    quarantines the page, rebuilds its image from the authoritative
    slot layout (one extra page read charged for the re-read) and
    continues with a :class:`~repro.faults.DegradedWarning`.  The crc
    header costs :data:`~repro.storage.layout.PAGE_CHECKSUM_BYTES` of
    packing capacity per page, accounted through
    :func:`~repro.storage.layout.usable_page_bytes`; with checksums off
    (the default) nothing changes, byte for byte.

    Transient disk faults are injectable through ``fault_injector`` (a
    callable invoked with the page id before every physical read; an
    ``OSError`` models a flaky read).  Failed attempts are retried up to
    ``io_retry_limit`` times — each failed attempt still charges one
    physical read — before :class:`~repro.faults.TransientIOError`
    gives up.  Fault-free, the gate is a no-op on every counter.
    """

    def __init__(
        self,
        io: IOCounter | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        pool: BufferPool | None = None,
        reclaim: bool = False,
        checksum: bool = False,
    ):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.io = io if io is not None else IOCounter()
        self.pool = pool
        self.reclaim = reclaim
        self.checksum = False
        self._pool_file_id = pool.register_file() if pool is not None else -1
        self._pages: list[_DataPage] = []
        self._free: dict[int, list[DiskAddress]] = {}  # size -> LIFO of slots
        self._live_records = 0
        self._live_bytes = 0
        self._free_bytes = 0
        self.reclaimed_slots = 0  # how many appends were served by the free list
        # Lifetime count of released slots, and for each released address
        # the count at its latest release: a cache keyed on addresses that
        # outlives the file's updates asks released_since() which of its
        # keys may now name another record.
        self.released_slots = 0
        self._released_at: dict[DiskAddress, int] = {}
        # Integrity machinery (all inert by default).
        self.scrub = False  # auto-repair corrupt pages instead of raising
        self.fault_injector = None  # callable(page_id) -> None, may raise OSError
        self.io_retry_limit = 2  # transient-read retries before giving up
        self.corrupt_pages_detected = 0
        self.pages_scrubbed = 0
        self.transient_retries = 0
        if checksum:
            self.enable_checksum()

    def append(self, payload: Any, size_bytes: int) -> DiskAddress:
        """Store ``payload`` (conceptually ``size_bytes`` long); return its address."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        usable = self.usable_page_bytes
        span = record_span_pages(size_bytes, usable)
        if self.reclaim and size_bytes <= usable:
            stack = self._free.get(size_bytes)
            if stack:
                address = stack.pop()
                page = self._pages[address.page_id]
                page.payloads[address.slot] = payload
                page.slot_bytes[address.slot] = size_bytes
                self._free_bytes -= size_bytes
                self._live_records += 1
                self._live_bytes += size_bytes
                self.reclaimed_slots += 1
                # The slot's page is physically rewritten in place.
                self.io.record_write()
                self._stamp_page(address.page_id)
                if self.pool is not None:
                    self.pool.admit(self._pool_file_id, address.page_id)
                return address
        if span > 1:
            # Spilled record: dedicated pages, one write each, payload
            # addressed at the first page.  The pages are marked full so
            # later small records never interleave with the spill run.
            first = len(self._pages)
            for _ in range(span):
                page = _DataPage(used_bytes=self.page_size)
                self._pages.append(page)
                self.io.record_write()
                if self.pool is not None:
                    self.pool.admit(self._pool_file_id, len(self._pages) - 1)
            head = self._pages[first]
            head.payloads.append(payload)
            head.slot_bytes.append(size_bytes)
            self._live_records += 1
            self._live_bytes += size_bytes
            for page_id in range(first, first + span):
                self._stamp_page(page_id)
            return DiskAddress(first, 0)
        if not self._pages or self._pages[-1].used_bytes + size_bytes > usable:
            self._pages.append(_DataPage())
            self.io.record_write()
            if self.pool is not None:
                self.pool.admit(self._pool_file_id, len(self._pages) - 1)
        page = self._pages[-1]
        page.payloads.append(payload)
        page.slot_bytes.append(size_bytes)
        page.used_bytes += size_bytes
        self._live_records += 1
        self._live_bytes += size_bytes
        self._stamp_page(len(self._pages) - 1)
        return DiskAddress(len(self._pages) - 1, len(page.payloads) - 1)

    def release(self, address: DiskAddress) -> bool:
        """Return a record's slot to the free list; True if reclaimed.

        No I/O is charged: freeing updates the in-memory allocator map,
        and the physical page write is charged when the slot is reused.
        With ``reclaim`` off the paper's append-only accounting stays
        untouched — slot, I/O, ``record_count``, ``live_bytes`` and
        ``size_bytes`` are as if nothing happened, and the call returns
        False — but the deleted payload is dropped, so the file does not
        keep every deleted object alive.  Also False when the slot was
        already released.
        """
        page = self._pages[address.page_id]
        if not self.reclaim:
            page.payloads[address.slot] = None
            return False
        size = page.slot_bytes[address.slot]
        if size <= 0:
            return False
        page.payloads[address.slot] = None
        page.slot_bytes[address.slot] = -size
        self._live_records -= 1
        self._live_bytes -= size
        self.released_slots += 1
        self._released_at[address] = self.released_slots
        self._stamp_page(address.page_id)
        if size <= self.usable_page_bytes:
            self._free.setdefault(size, []).append(address)
            self._free_bytes += size
        return True

    def released_since(self, count: int) -> set[DiskAddress]:
        """Addresses released after the ``released_slots`` value ``count``."""
        return {addr for addr, at in self._released_at.items() if at > count}

    @property
    def usable_page_bytes(self) -> int:
        """Record capacity per page (the crc header comes off in checksum mode)."""
        return usable_page_bytes(self.page_size, checksum=self.checksum)

    def _slot_span(self, address: DiskAddress) -> int:
        """Pages the record at ``address`` occupies (raises if released)."""
        page = self._pages[address.page_id]
        size = page.slot_bytes[address.slot]
        if size <= 0:
            raise KeyError(f"record at {address!r} was released")
        return record_span_pages(size, self.usable_page_bytes)

    # -- integrity: shadow images, verification, fault gate -------------
    def enable_checksum(self) -> None:
        """Switch the file into crc32 integrity mode (idempotent).

        Builds a shadow image for every existing page; pages appended
        later are stamped as they mutate.  Usable to harden a file that
        was built checksum-off — provided no stored record's page span
        would change under the reduced capacity (detail records are
        orders of magnitude below the threshold; the guard is for
        pathological page sizes).
        """
        if self.checksum:
            return
        full = self.page_size
        usable = usable_page_bytes(full, checksum=True)
        for page in self._pages:
            for size in page.slot_bytes:
                magnitude = abs(size)
                if record_span_pages(magnitude, full) != record_span_pages(
                    magnitude, usable
                ):
                    raise ValueError(
                        f"cannot enable checksums: a {magnitude}-byte record's "
                        f"page span changes under the {PAGE_CHECKSUM_BYTES}-byte "
                        "crc header"
                    )
        self.checksum = True
        for page_id in range(len(self._pages)):
            self._stamp_page(page_id)

    def _render_image(self, page_id: int) -> bytearray:
        """The page's deterministic shadow bytes (crc header zeroed).

        Slot contents are synthesised from ``(page_id, slot, offset)`` —
        payloads are live Python objects, so the simulator renders a
        stable stand-in byte stream instead of serialising them.  Freed
        slots render under a different mixing constant, so releasing a
        record changes the page's bytes exactly like a rewrite would.
        """
        page = self._pages[page_id]
        image = bytearray(self.page_size)
        offset = PAGE_CHECKSUM_BYTES
        for slot, size in enumerate(page.slot_bytes):
            salt = 13 if size > 0 else 29
            length = max(0, min(abs(size), self.page_size - offset))
            for i in range(length):
                image[offset + i] = (
                    page_id * 8191 + slot * 131 + i * 7 + salt
                ) & 0xFF
            offset += length
        return image

    def _stamp_page(self, page_id: int) -> None:
        """(Re)build a page's shadow image and stored crc (checksum mode)."""
        if not self.checksum:
            return
        image = self._render_image(page_id)
        image[:PAGE_CHECKSUM_BYTES] = struct.pack(
            ">I", zlib.crc32(bytes(image[PAGE_CHECKSUM_BYTES:]))
        )
        self._pages[page_id].image = image

    def corrupt_page(self, page_id: int, byte_index: int | None = None) -> None:
        """Fault injection: flip one byte of a page's stored image.

        Test-harness surface for the chaos suite — models a bit flip on
        disk.  The next verified read of the page detects the mismatch.
        """
        if not self.checksum:
            raise ValueError("corrupt_page requires checksum mode")
        image = self._pages[page_id].image
        assert image is not None
        index = PAGE_CHECKSUM_BYTES if byte_index is None else byte_index
        image[index] ^= 0xFF

    def _verify_page(self, page_id: int, io: IOCounter) -> None:
        """Check a page's stored crc against its bytes (checksum mode).

        A mismatch either raises :class:`~repro.faults.CorruptPageError`
        or — with ``scrub`` on — quarantines and rebuilds the page from
        the authoritative slot layout, charging one extra page read for
        the post-repair re-read and warning ``DegradedWarning``.
        """
        image = self._pages[page_id].image
        if image is None:  # pragma: no cover - stamped on every mutation
            self._stamp_page(page_id)
            return
        (stored,) = struct.unpack(">I", bytes(image[:PAGE_CHECKSUM_BYTES]))
        actual = zlib.crc32(bytes(image[PAGE_CHECKSUM_BYTES:]))
        if stored == actual:
            return
        self.corrupt_pages_detected += 1
        if not self.scrub:
            raise CorruptPageError(
                f"page {page_id} failed crc verification "
                f"(stored {stored:#010x}, computed {actual:#010x})",
                page_id=page_id,
            )
        self._stamp_page(page_id)
        self.pages_scrubbed += 1
        io.record_read()  # the re-read after the rebuild
        warnings.warn(
            f"scrubbed corrupt page {page_id} (crc mismatch); "
            "rebuilt from the authoritative slot layout",
            DegradedWarning,
            stacklevel=4,
        )

    def _guarded_access(
        self, page_id: int, io: IOCounter, *, allow_scrub: bool = True
    ) -> None:
        """The fault/integrity gate before one physical page read.

        Runs the fault injector (bounded retry on ``OSError``; every
        failed attempt still charges one physical read on ``io``), then
        crc verification in checksum mode.  Worker reader views pass
        ``allow_scrub=False``: repairing a page is the parent's single-
        writer job, so a forked worker fails fast and the degradation
        ladder re-runs the batch next to the authoritative copy.
        """
        if self.fault_injector is not None:
            failures = 0
            while True:
                try:
                    self.fault_injector(page_id)
                    break
                except OSError as exc:
                    failures += 1
                    io.record_read()  # the failed attempt hit the disk too
                    if failures > self.io_retry_limit:
                        raise TransientIOError(
                            f"page {page_id} read failed {failures} times "
                            f"(retry limit {self.io_retry_limit})",
                            page_id=page_id,
                            attempts=failures,
                        ) from exc
                    self.transient_retries += 1
        if self.checksum:
            if allow_scrub:
                self._verify_page(page_id, io)
            else:
                scrub = self.scrub
                self.scrub = False
                try:
                    self._verify_page(page_id, io)
                finally:
                    self.scrub = scrub

    def _charge_read(self, page_id: int) -> None:
        self._guarded_access(page_id, self.io)
        charge_page_read(self.io, self.pool, self._pool_file_id, page_id)

    def read(self, address: DiskAddress) -> Any:
        """Fetch one record, costing one page read per spanned page (unless pooled)."""
        for page_id in range(address.page_id, address.page_id + self._slot_span(address)):
            self._charge_read(page_id)
        return self._pages[address.page_id].payloads[address.slot]

    def peek(self, address: DiskAddress) -> Any:
        """Fetch one record without charging any I/O.

        For out-of-band access — serialisation, debugging — never for
        query execution, which must account every page touch.
        """
        self._slot_span(address)  # released-slot guard
        return self._pages[address.page_id].payloads[address.slot]

    def read_page(self, page_id: int) -> list[Any]:
        """Fetch a page's slot array with a single page read (unless pooled).

        Slot positions are preserved (callers index the result by
        ``DiskAddress.slot``); released slots read as ``None`` — they are
        never candidates, so refinement never dereferences them.
        """
        self._charge_read(page_id)
        return list(self._pages[page_id].payloads)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def record_count(self) -> int:
        """Live detail records stored across all pages."""
        return self._live_records

    @property
    def live_bytes(self) -> int:
        """Exact bytes of live records (spill-aware, excludes freed slots)."""
        return self._live_bytes

    @property
    def free_bytes(self) -> int:
        """Bytes sitting on the free list, awaiting reuse."""
        return self._free_bytes

    @property
    def free_slots(self) -> int:
        """Released slots currently available for exact-size reuse."""
        return sum(len(stack) for stack in self._free.values())

    @property
    def records_per_page(self) -> float:
        """Observed packing density (records / page), 0.0 when empty.

        The planner calibrates its ``data_records_per_page`` constant from
        this instead of guessing — the actual first-fit occupancy, not a
        layout upper bound.
        """
        return self.record_count / self.page_count if self._pages else 0.0

    @property
    def size_bytes(self) -> int:
        """Total file size: pages are the allocation unit."""
        return self.page_count * self.page_size

    def peek_page(self, page_id: int) -> list[Any]:
        """Every *live* record on a page without charging any I/O.

        Out-of-band access only (serialisation, worker prewarm) — query
        execution must go through :meth:`read_page`.  Unlike
        :meth:`read_page` this skips released slots, including those
        whose payload was dropped with ``reclaim`` off: its callers
        iterate records rather than indexing by slot.
        """
        return [p for p in self._pages[page_id].payloads if p is not None]

    def reader_view(
        self, *, io: IOCounter | None = None, latency_seconds: float = 0.0
    ) -> "DataFileView":
        """A read-only view with private accounting (see :class:`DataFileView`)."""
        return DataFileView(self, io=io, latency_seconds=latency_seconds)


class DataFileView:
    """A read-only reader over a :class:`DataFile` with private accounting.

    The process executor gives each worker one of these over the (fork-
    inherited) data file: reads charge the *view's* counter — merged back
    into batch totals by the parent — and apply the worker's simulated
    per-page latency, without touching the shared file's counter or
    buffer pool.  No pool is attached by design: each worker models its
    own disk arm, and the paper-exact accounting the process backend
    reproduces is the uncached (``pool_capacity=0``) one.

    Mutating methods are deliberately absent; the parent is the only
    writer, and it re-forks the pool whenever the file grows.
    """

    def __init__(
        self,
        base: DataFile,
        *,
        io: IOCounter | None = None,
        latency_seconds: float = 0.0,
    ):
        if latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        self.base = base
        self.io = io if io is not None else IOCounter()
        self.latency_seconds = float(latency_seconds)
        self.page_size = base.page_size

    def _charge(self, page_id: int) -> None:
        # Same fault/integrity gate as the base file, charged on the
        # view's private counter — but never scrubbing: a forked worker
        # repairing its COW copy would silently diverge from the parent,
        # so corruption fails fast here and the degradation ladder
        # re-runs the batch next to the authoritative copy.
        self.base._guarded_access(page_id, self.io, allow_scrub=False)
        self.io.record_read()
        if self.latency_seconds > 0.0:
            time.sleep(self.latency_seconds)

    def read(self, address: DiskAddress) -> Any:
        """Fetch one record, costing one page read per spanned page on the view's counter."""
        for page_id in range(
            address.page_id, address.page_id + self.base._slot_span(address)
        ):
            self._charge(page_id)
        return self.base._pages[address.page_id].payloads[address.slot]

    def read_page(self, page_id: int) -> list[Any]:
        """Fetch every record on a page with one (view-charged) page read."""
        self._charge(page_id)
        return list(self.base._pages[page_id].payloads)

    def peek(self, address: DiskAddress) -> Any:
        """Fetch one record without charging any I/O."""
        return self.base.peek(address)

    @property
    def page_count(self) -> int:
        return self.base.page_count

    @property
    def record_count(self) -> int:
        return self.base.record_count

    @property
    def records_per_page(self) -> float:
        return self.base.records_per_page

    def __repr__(self) -> str:
        return (
            f"DataFileView(pages={self.page_count}, io={self.io!r}, "
            f"latency={self.latency_seconds})"
        )


class PageStore:
    """Allocator for index-node pages with read/write accounting.

    Trees register each node here; visiting a node during a query costs one
    page read, writing a node during an update costs one page write.
    """

    def __init__(
        self,
        io: IOCounter | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
        *,
        pool: BufferPool | None = None,
    ):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.io = io if io is not None else IOCounter()
        self.pool = pool
        self._pool_file_id = pool.register_file() if pool is not None else -1
        self._next_id = 0
        self._live: set[int] = set()

    def allocate(self) -> int:
        """Reserve a fresh page and return its id (no I/O charged)."""
        page_id = self._next_id
        self._next_id += 1
        self._live.add(page_id)
        return page_id

    def free(self, page_id: int) -> None:
        """Release a page (no I/O charged)."""
        self._live.discard(page_id)
        if self.pool is not None:
            self.pool.invalidate(self._pool_file_id, page_id)

    def touch_read(self, page_id: int) -> None:
        """Charge one page read for visiting ``page_id`` (unless pooled)."""
        if page_id not in self._live:
            raise KeyError(f"page {page_id} is not allocated")
        charge_page_read(self.io, self.pool, self._pool_file_id, page_id)

    def touch_write(self, page_id: int) -> None:
        """Charge one page write for flushing ``page_id`` (write-through)."""
        if page_id not in self._live:
            raise KeyError(f"page {page_id} is not allocated")
        self.io.record_write()
        if self.pool is not None:
            self.pool.admit(self._pool_file_id, page_id)

    @property
    def page_count(self) -> int:
        return len(self._live)

    @property
    def size_bytes(self) -> int:
        return self.page_count * self.page_size
