"""Sequential-scan baseline (Section 5, opening paragraph).

Before introducing the U-tree the paper notes that CFBs already enable a
flat two-phase plan: scan every object summary, prune/validate with
Observation 3, and refine the survivors.  This class implements that plan
so experiments can show what the tree's filter step actually buys.

The summaries live in a simulated flat file: scanning charges
``ceil(n * entry_bytes / page_size)`` page reads per query.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from repro.core.catalog import UCatalog
from repro.core.cfb import fit_cfbs
from repro.core.filterkernel import CFBFilterKernel, classify_records
from repro.core.pcr import compute_pcrs
from repro.core.query import ProbRangeQuery, QueryAnswer
from repro.core.utree import UTreeLeafRecord
from repro.exec.access import FilterResult
from repro.exec.executor import execute_query
from repro.storage.bufferpool import BufferPool, charge_page_read
from repro.storage.layout import utree_layout
from repro.storage.pager import DataFile, IOCounter
from repro.uncertainty.montecarlo import AppearanceEstimator
from repro.uncertainty.objects import UncertainObject

__all__ = ["SequentialScan"]


class SequentialScan:
    """Flat-file filter-and-refine over CFB summaries."""

    def __init__(
        self,
        dim: int,
        catalog: UCatalog | None = None,
        *,
        page_size: int = 4096,
        io: IOCounter | None = None,
        pool: BufferPool | None = None,
        estimator: AppearanceEstimator | None = None,
    ):
        self.catalog = catalog if catalog is not None else UCatalog.paper_utree_default()
        self.dim = dim
        self.page_size = page_size
        self.io = io if io is not None else IOCounter()
        self.pool = pool
        self._summary_file_id = pool.register_file() if pool is not None else -1
        self.estimator = estimator if estimator is not None else AppearanceEstimator()
        self.data_file = DataFile(self.io, page_size, pool=pool)
        self._entry_bytes = utree_layout(dim, page_size).leaf_entry_bytes
        self._records: list[UTreeLeafRecord] = []
        self.kernel = CFBFilterKernel(self.catalog, dim)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> Iterator[UTreeLeafRecord]:
        """Iterate the stored summaries (no I/O charged; for cost models)."""
        return iter(self._records)

    @property
    def scan_pages(self) -> int:
        """Flat-file pages one full scan must read."""
        if not self._records:
            return 0
        return math.ceil(len(self._records) * self._entry_bytes / self.page_size)

    def insert(self, obj: UncertainObject) -> None:
        """Append an object summary to the flat file."""
        if obj.dim != self.dim:
            raise ValueError(f"object dimensionality {obj.dim} != scan dimensionality {self.dim}")
        pcrs = compute_pcrs(obj, self.catalog)
        outer, inner = fit_cfbs(pcrs)
        address = self.data_file.append(obj, obj.detail_size_bytes())
        record = UTreeLeafRecord(
            oid=obj.oid,
            mbr=obj.mbr,
            outer=outer,
            inner=inner,
            address=address,
            row=self.kernel.add(obj.mbr, outer, inner),
        )
        self._records.append(record)

    def delete(self, oid: int) -> bool:
        """Remove an object summary by id."""
        for i, record in enumerate(self._records):
            if record.oid == oid:
                self.kernel.release(record.row)
                # Feed the data file's free list (no-op unless reclaim is on).
                self.data_file.release(record.address)
                del self._records[i]
                return True
        return False

    def filter_candidates(self, query: ProbRangeQuery) -> FilterResult:
        """Filter phase: read the whole flat file, classify every summary."""
        result = FilterResult()
        result.node_accesses = self.scan_pages
        if self.pool is None:
            self.io.record_read(result.node_accesses)
        else:
            # A full scan touches every summary page exactly once, so it
            # declares itself sequential: the ARC pool's scan-length
            # calibration keeps an over-long scan from growing its
            # recency target at the hot working set's expense.
            for page_id in range(result.node_accesses):
                charge_page_read(
                    self.io, self.pool, self._summary_file_id, page_id,
                    sequential=True,
                )
        # One stacked Rules-1-5 call over the whole summary file.
        classify_records(
            self.kernel, self._records, query.rect, query.threshold, result
        )
        return result

    def query(self, query: ProbRangeQuery) -> QueryAnswer:
        """Answer a prob-range query through the shared executor."""
        return execute_query(self, query)
