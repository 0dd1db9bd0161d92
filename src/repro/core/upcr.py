"""U-PCR: the paper's comparison structure (Section 6).

U-PCR is "the U-tree's variation that stores the PCRs in (leaf and
intermediate) entries, as opposed to CFBs".  Concretely:

* a leaf entry stores all ``m`` PCR rectangles of its object (``2dm``
  floats) plus the object MBR and disk address — larger entries, smaller
  fanout (Table 1);
* an intermediate entry stores, for each catalog value, the exact MBR of
  its children's boxes at that value (no chord approximation), so its
  subtree pruning boxes are tighter than the U-tree's but cost ``2dm``
  floats;
* leaf-level filtering uses Observation 2 directly on exact PCRs, which
  is slightly stronger than the U-tree's CFB-based Observation 3.

The trade — fewer P_app computations but many more node accesses — is
exactly what Figs. 9-10 measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.catalog import UCatalog
from repro.core.filterkernel import PCRFilterKernel, classify_records
from repro.core.pcr import PCRSet, compute_pcrs
from repro.core.pruning import observation4_layer
from repro.core.query import ProbRangeQuery, QueryAnswer
from repro.core.utree import UpdateCost
from repro.exec.access import FilterResult
from repro.exec.executor import execute_query
from repro.index.engine import RStarEngine
from repro.storage.bufferpool import BufferPool
from repro.storage.layout import upcr_layout
from repro.storage.pager import DataFile, DiskAddress, IOCounter
from repro.uncertainty.montecarlo import AppearanceEstimator
from repro.uncertainty.objects import UncertainObject

__all__ = ["UPCRTree", "UPCRLeafRecord"]


@dataclass
class UPCRLeafRecord:
    """Payload of a U-PCR leaf entry.

    ``row`` is the record's handle into the owning tree's columnar
    filter-kernel sidecar.
    """

    oid: int
    pcrs: PCRSet
    address: DiskAddress
    row: int


class UPCRTree:
    """The PCR-storing comparison index."""

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
    ):
        self.catalog = catalog if catalog is not None else UCatalog.paper_upcr_default(dim)
        self.dim = dim
        self.io = io if io is not None else IOCounter()
        self.pool = pool
        self.estimator = estimator if estimator is not None else AppearanceEstimator()
        layout = upcr_layout(dim, self.catalog.size, page_size)
        self.engine = RStarEngine(
            dim,
            self.catalog.size,
            layout,
            io=self.io,
            pool=pool,
            chord_values=None,  # exact per-layer unions
            split_mode=split_mode,
        )
        self.data_file = DataFile(self.io, page_size, pool=pool)
        self._profiles: dict[int, object] = {}
        self.kernel = PCRFilterKernel(self.catalog, dim)

    @classmethod
    def bulk_load(
        cls,
        objects,
        dim: int | None = None,
        catalog: UCatalog | None = None,
        fill: float = 1.0,
        **kwargs,
    ) -> "UPCRTree":
        """Build a U-PCR tree by STR packing (see :meth:`UTree.bulk_load`)."""
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
            address = tree.data_file.append(obj, obj.detail_size_bytes())
            record = UPCRLeafRecord(
                oid=obj.oid, pcrs=pcrs, address=address, row=tree.kernel.add(pcrs)
            )
            profile = pcrs.profile().copy()
            items.append((profile, record))
            tree._profiles[obj.oid] = profile
        engine_bulk_load(tree.engine, items, fill=fill)
        return tree

    def __len__(self) -> int:
        return len(self.engine)

    @property
    def size_bytes(self) -> int:
        """Index size in bytes (node pages only, as in Table 1)."""
        return self.engine.size_bytes

    @property
    def height(self) -> int:
        return self.engine.height

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, obj: UncertainObject) -> UpdateCost:
        """Insert an object; the CPU component is PCR derivation only."""
        if obj.dim != self.dim:
            raise ValueError(f"object dimensionality {obj.dim} != tree dimensionality {self.dim}")
        snapshot = self.io.snapshot()
        start = time.perf_counter()
        pcrs = compute_pcrs(obj, self.catalog)
        profile = pcrs.profile().copy()
        cpu = time.perf_counter() - start

        address = self.data_file.append(obj, obj.detail_size_bytes())
        record = UPCRLeafRecord(
            oid=obj.oid, pcrs=pcrs, address=address, row=self.kernel.add(pcrs)
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
        matched: list[UPCRLeafRecord] = []

        def match(rec: UPCRLeafRecord) -> bool:
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
        """Filter phase: subtree pruning plus Observation-2 leaf checks.

        The descent is :meth:`RStarEngine.traverse_layer` at the
        Observation-4 layer; visited leaf records are classified by one
        stacked Rules-1-5 call over the exact-PCR sidecar.
        """
        rq = query.rect
        pq = query.threshold
        result = FilterResult()
        j = observation4_layer(self.catalog, pq)
        records: list[UPCRLeafRecord] = []
        result.node_accesses = self.engine.traverse_layer(
            j, rq.lo, rq.hi,
            lambda entries: records.extend(e.data for e in entries),
        )
        classify_records(self.kernel, records, rq, pq, result)
        return result

    def query(self, query: ProbRangeQuery) -> QueryAnswer:
        """Answer a prob-range query through the shared executor."""
        return execute_query(self, query)

    def check_invariants(self) -> None:
        """Validate the structural invariants of the underlying engine."""
        self.engine.check_invariants()
