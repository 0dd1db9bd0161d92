"""The U-tree: the paper's primary contribution (Section 5).

A U-tree is an R*-style dynamic index over uncertain objects:

* a **leaf entry** stores the object's two CFBs, the MBR of its
  uncertainty region and the disk address of its detail record;
* an **intermediate entry** stores two rectangles — ``MBR⊥``, bounding the
  children's ``cfb_out(p_1)``, and ``MBR``, bounding their
  ``cfb_out(p_m)`` — from which the linear function ``e.MBR(p)``
  (Eq. 15) is derived on demand;
* updates use the R* algorithms with summed penalty metrics and the
  median-catalog-value split heuristic (Section 5.3);
* a prob-range query prunes subtrees with Observation 4, prunes/validates
  leaf objects with Observation 3, and sends the survivors to Monte-Carlo
  refinement grouped by data page (Section 5.2).

The chord-interpolation behaviour of intermediate entries is provided by
the engine's ``chord_values`` mode; byte-faithful fanout comes from
:func:`repro.storage.layout.utree_layout`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.catalog import UCatalog
from repro.core.cfb import LinearBoxFunction, fit_cfbs
from repro.core.filterkernel import CFBFilterKernel, classify_records
from repro.core.pcr import compute_pcrs
from repro.core.pruning import observation4_layer
from repro.core.query import ProbRangeQuery, QueryAnswer
from repro.exec.access import FilterResult
from repro.exec.executor import execute_query
from repro.geometry.rect import Rect
from repro.index.engine import RStarEngine
from repro.storage.bufferpool import BufferPool
from repro.storage.layout import utree_layout
from repro.storage.pager import DataFile, IOCounter
from repro.uncertainty.montecarlo import AppearanceEstimator
from repro.uncertainty.objects import UncertainObject

__all__ = ["UTree", "UTreeLeafRecord", "UpdateCost"]


@dataclass
class UTreeLeafRecord:
    """Payload of a U-tree leaf entry (what one leaf slot stores on disk).

    ``row`` is the record's handle into the owning structure's columnar
    filter-kernel sidecar; it is in-memory bookkeeping, not part of the
    on-disk entry layout.
    """

    oid: int
    mbr: Rect
    outer: LinearBoxFunction
    inner: LinearBoxFunction
    address: DiskAddress
    row: int


@dataclass
class UpdateCost:
    """Cost breakdown of one insertion/deletion (Fig. 11)."""

    io_reads: int = 0
    io_writes: int = 0
    cpu_seconds: float = 0.0

    @property
    def io_total(self) -> int:
        return self.io_reads + self.io_writes


class UTree:
    """A dynamic U-tree over multi-dimensional uncertain objects."""

    def __init__(
        self,
        dim: int,
        catalog: UCatalog | None = None,
        *,
        page_size: int = 4096,
        io: IOCounter | None = None,
        pool: BufferPool | None = None,
        estimator: AppearanceEstimator | None = None,
        split_mode: str = "median-layer",
        intermediate_bounds: str = "linear",
    ):
        """Build an empty U-tree.

        ``intermediate_bounds`` selects how non-leaf entries summarise
        their subtree: ``"linear"`` is the paper's design (store MBR⊥ and
        MBR, derive e.MBR(p) by Eq. 15); ``"exact"`` stores the exact
        union at every catalog value — tighter pruning boxes at the same
        simulated entry size, used only for the ablation bench that
        quantifies what the linear approximation costs.

        ``pool`` attaches a shared buffer pool in front of both the node
        store and the data file; omit it (or use capacity 0) for the
        paper's uncached I/O accounting.
        """
        if intermediate_bounds not in ("linear", "exact"):
            raise ValueError(f"unknown intermediate_bounds {intermediate_bounds!r}")
        self.catalog = catalog if catalog is not None else UCatalog.paper_utree_default()
        self.dim = dim
        self.io = io if io is not None else IOCounter()
        self.pool = pool
        self.estimator = estimator if estimator is not None else AppearanceEstimator()
        layout = utree_layout(dim, page_size)
        self.engine = RStarEngine(
            dim,
            self.catalog.size,
            layout,
            io=self.io,
            pool=pool,
            chord_values=self.catalog.values if intermediate_bounds == "linear" else None,
            split_mode=split_mode,
        )
        self.data_file = DataFile(self.io, page_size, pool=pool)
        self._profiles: dict[int, object] = {}
        self.kernel = CFBFilterKernel(self.catalog, dim)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        objects,
        dim: int | None = None,
        catalog: UCatalog | None = None,
        fill: float = 1.0,
        **kwargs,
    ) -> "UTree":
        """Build a U-tree by STR packing instead of repeated insertion.

        Produces near-full nodes (fewer pages, better query I/O) at a
        build cost of one CFB fit per object plus a few sorts — see
        ``benchmarks/test_bulkload.py`` for the comparison against the
        paper's insert-based construction.
        """
        from repro.index.bulkload import bulk_load as engine_bulk_load

        objects = list(objects)
        if not objects and dim is None:
            raise ValueError("cannot infer dimensionality from an empty object list")
        tree = cls(dim if dim is not None else objects[0].dim, catalog, **kwargs)
        items = []
        for obj in objects:
            if obj.dim != tree.dim:
                raise ValueError(
                    f"object dimensionality {obj.dim} != tree dimensionality {tree.dim}"
                )
            pcrs = compute_pcrs(obj, tree.catalog)
            outer, inner = fit_cfbs(pcrs)
            address = tree.data_file.append(obj, obj.detail_size_bytes())
            record = UTreeLeafRecord(
                oid=obj.oid,
                mbr=obj.mbr,
                outer=outer,
                inner=inner,
                address=address,
                row=tree.kernel.add(obj.mbr, outer, inner),
            )
            profile = outer.profile(tree.catalog)
            items.append((profile, record))
            tree._profiles[obj.oid] = profile
        engine_bulk_load(tree.engine, items, fill=fill)
        return tree

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.engine)

    @property
    def size_bytes(self) -> int:
        """Index size in bytes (node pages only, as in Table 1)."""
        return self.engine.size_bytes

    @property
    def height(self) -> int:
        return self.engine.height

    def insert(self, obj: UncertainObject) -> UpdateCost:
        """Insert an object; returns the I/O + CPU cost breakdown.

        The CPU component covers PCR derivation and the CFB fit (closed
        form) — the paper's one-time per-object cost (Section 4.4,
        Fig. 11a).
        """
        if obj.dim != self.dim:
            raise ValueError(f"object dimensionality {obj.dim} != tree dimensionality {self.dim}")
        snapshot = self.io.snapshot()
        start = time.perf_counter()
        pcrs = compute_pcrs(obj, self.catalog)
        outer, inner = fit_cfbs(pcrs)
        profile = outer.profile(self.catalog)
        cpu = time.perf_counter() - start

        address = self.data_file.append(obj, obj.detail_size_bytes())
        record = UTreeLeafRecord(
            oid=obj.oid,
            mbr=obj.mbr,
            outer=outer,
            inner=inner,
            address=address,
            row=self.kernel.add(obj.mbr, outer, inner),
        )
        self.engine.insert(profile, record)
        self._profiles[obj.oid] = profile
        reads, writes = self.io.delta(snapshot)
        return UpdateCost(io_reads=reads, io_writes=writes, cpu_seconds=cpu)

    def delete(self, oid: int) -> UpdateCost | None:
        """Delete an object by id; returns its cost, or None if absent."""
        profile = self._profiles.get(oid)
        if profile is None:
            return None
        snapshot = self.io.snapshot()
        matched: list[UTreeLeafRecord] = []

        def match(rec: UTreeLeafRecord) -> bool:
            if rec.oid == oid:
                matched.append(rec)
                return True
            return False

        removed = self.engine.delete(match, profile)
        if not removed:
            return None
        if matched:
            self.kernel.release(matched[0].row)
            # Feed the data file's free list (a no-op unless reclaim is on).
            self.data_file.release(matched[0].address)
        del self._profiles[oid]
        reads, writes = self.io.delta(snapshot)
        return UpdateCost(io_reads=reads, io_writes=writes, cpu_seconds=0.0)

    def __contains__(self, oid: int) -> bool:
        return oid in self._profiles

    # ------------------------------------------------------------------
    # queries (the AccessMethod protocol)
    # ------------------------------------------------------------------
    def filter_candidates(self, query: ProbRangeQuery) -> FilterResult:
        """Filter phase: prune with Observation 4, classify leaves with
        Observation 3, leave survivors for the executor's refinement.

        Observation 4's layer is resolved once per query and each visited
        inner node decides all its children at once
        (:meth:`RStarEngine.traverse_layer`).  Visited leaf records are
        collected in traversal order and classified by one stacked
        Rules-1-5 call (:func:`classify_records`).
        """
        rq = query.rect
        pq = query.threshold
        result = FilterResult()
        j = observation4_layer(self.catalog, pq)
        records: list[UTreeLeafRecord] = []
        result.node_accesses = self.engine.traverse_layer(
            j, rq.lo, rq.hi,
            lambda entries: records.extend(e.data for e in entries),
        )
        classify_records(self.kernel, records, rq, pq, result)
        return result

    def query(self, query: ProbRangeQuery) -> QueryAnswer:
        """Answer a prob-range query through the shared executor."""
        return execute_query(self, query)

    # ------------------------------------------------------------------
    # maintenance helpers
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate the structural invariants of the underlying engine."""
        self.engine.check_invariants()
