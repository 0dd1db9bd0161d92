"""Vectorized filter-phase kernel over columnar pruning geometry.

The filter phase classifies every surviving leaf object with the paper's
Rules 1-5.  This module is the one classifier every structure runs:

* every object's pruning geometry — MBR, CFB face coefficients or raw PCR
  planes — lives in contiguous ``(n_objects, dim)`` float64 *columns* (a
  sidecar the owning structure fills at insert time and that
  :mod:`repro.storage.serialize` round-trips in bulk);
* one :meth:`classify` call evaluates Rules 1-5 for a whole candidate
  batch as stacked NumPy mask reductions.

The catalog indices the rules consult (``j`` per rule) depend only on the
query threshold, never on the object, so they are resolved once per batch
and the per-object work collapses into gathers and comparisons.

**Reference implementation.**  The per-object rule engines in
:mod:`repro.core.pruning` (:class:`PCRRules`, :class:`CFBRules`) state the
rules one ``Verdict`` at a time and stay as the oracle the tests compare
against.  Every arithmetic step here mirrors them exactly: CFB faces are
``intercept + slope * p`` (one multiply, one add, in float64 — the same
IEEE operations the rule engines perform), box collapses use the same
midpoint formula, crossed inner faces map to the same ``(-inf, +inf)``
empty bands, and every comparison is an exact boolean predicate.  The
kernel tests assert verdict equality with ``==`` (never ``approx``)
against both engines across every pdf family, and each structure's
whole filter pass against a per-record pass built from them.

Rows are allocated from a free list, so delete + re-insert reuses storage
without invalidating other records' row handles.
"""

from __future__ import annotations

import numpy as np

from repro.core.catalog import UCatalog
from repro.core.cfb import LinearBoxFunction
from repro.core.pcr import PCRSet
from repro.core.pruning import Verdict
from repro.geometry.rect import Rect
from repro.storage.layout import filter_kernel_row_bytes

__all__ = [
    "CANDIDATE",
    "PRUNED",
    "VALIDATED",
    "VERDICT_BY_CODE",
    "CFBFilterKernel",
    "PCRFilterKernel",
    "classify_records",
]

# Verdict codes returned by classify(); index into VERDICT_BY_CODE to
# recover the enum the rule engines speak.
PRUNED = 0
VALIDATED = 1
CANDIDATE = 2
VERDICT_BY_CODE = (Verdict.PRUNED, Verdict.VALIDATED, Verdict.CANDIDATE)

_MIN_CAPACITY = 64


def classify_records(kernel, records, query: Rect, pq: float, result) -> None:
    """One kernel call for a filter batch, folded into a ``FilterResult``.

    ``records`` are leaf records in traversal order (each carrying
    ``oid``, ``address`` and its sidecar ``row``); verdicts append into
    ``result`` in that same order.
    """
    if not records:
        return
    rows = np.fromiter(
        (record.row for record in records), dtype=np.intp, count=len(records)
    )
    codes = kernel.classify(query, pq, rows)
    pruned = 0
    for record, code in zip(records, codes):
        if code == CANDIDATE:
            result.candidates.append((record.oid, record.address))
        elif code == VALIDATED:
            result.validated.append(record.oid)
        else:
            pruned += 1
    result.pruned += pruned


def _axis_complements(
    qlo: np.ndarray, qhi: np.ndarray, mlo: np.ndarray, mhi: np.ndarray
) -> np.ndarray:
    """``(n, d)`` mask: all axes *other than* the column's are contained.

    Column ``axis`` answers covers_band's other-axes test — the query's
    projection contains the MBR's on every axis except ``axis``.  Shared
    by every band evaluation of one classify batch (Rules 3, 4 and 5
    consult the same query/MBR geometry up to three times).
    """
    contained = (qlo <= mlo) & (mhi <= qhi)  # per-axis projection containment
    n, d = contained.shape
    others = np.ones((n, d), dtype=bool)
    for axis in range(d):
        for i in range(d):
            if i != axis:
                others[:, axis] &= contained[:, i]
    return others


def _covers_band_any(
    qlo: np.ndarray,
    qhi: np.ndarray,
    mlo: np.ndarray,
    mhi: np.ndarray,
    band_lo: np.ndarray | None,
    band_hi: np.ndarray | None,
    others: np.ndarray,
) -> np.ndarray:
    """Row mask: does the query cover the MBR band on *some* axis?

    The batched :func:`repro.core.pruning.covers_band`, with the axis loop
    hoisted outside the object dimension.  ``band_lo`` / ``band_hi`` are
    ``(n, d)`` plane arrays, or ``None`` for an infinite band end (the
    clipped band end is then the MBR face itself, exactly as ``max``/
    ``min`` against an infinity resolves in the scalar code).  ``others``
    is the batch's precomputed :func:`_axis_complements` mask.
    """
    n, d = mlo.shape
    hit = np.zeros(n, dtype=bool)
    for axis in range(d):
        lo = mlo[:, axis] if band_lo is None else np.maximum(band_lo[:, axis], mlo[:, axis])
        hi = mhi[:, axis] if band_hi is None else np.minimum(band_hi[:, axis], mhi[:, axis])
        hit |= (lo <= hi) & others[:, axis] & (qlo[axis] <= lo) & (hi <= qhi[axis])
    return hit


class _ColumnarKernel:
    """Row bookkeeping plus the shared Rules 1-5 skeleton.

    Subclasses own the geometry columns and provide the four gather hooks
    — the batched mirror of :class:`repro.core.pruning._RuleEngine`.
    """

    def __init__(self, catalog: UCatalog, dim: int):
        if dim < 1:
            raise ValueError("dimensionality must be at least 1")
        self.catalog = catalog
        self.dim = int(dim)
        self._rows = 0  # high-water mark (allocated row slots)
        self._free: list[int] = []
        self._capacity = 0
        self.mbr_lo = np.empty((0, dim))
        self.mbr_hi = np.empty((0, dim))

    # -- row allocation -------------------------------------------------
    def __len__(self) -> int:
        return self._rows - len(self._free)

    @property
    def row_count(self) -> int:
        """Allocated row slots, including free-list holes."""
        return self._rows

    def _grown(self, arr: np.ndarray, capacity: int) -> np.ndarray:
        out = np.empty((capacity,) + arr.shape[1:])
        out[: arr.shape[0]] = arr
        return out

    def _resize(self, capacity: int) -> None:
        self.mbr_lo = self._grown(self.mbr_lo, capacity)
        self.mbr_hi = self._grown(self.mbr_hi, capacity)

    def _shared_columns(self) -> tuple[str, ...]:
        """Attribute names of the geometry columns worth sharing."""
        return ("mbr_lo", "mbr_hi")

    def rebind_columns(self, share) -> None:
        """Move every geometry column's buffer via ``share(array)``.

        The process executor passes
        :meth:`repro.storage.shm.SharedArena.share_array` so the columns
        land in shared anonymous mappings before the worker fork.  The
        rebound arrays are bit-identical; any later ``_resize`` simply
        reallocates back onto the private heap, which the executor
        detects as staleness and re-shares on the next fork.
        """
        for name in self._shared_columns():
            setattr(self, name, share(getattr(self, name)))

    def _take_row(self) -> int:
        if self._free:
            return self._free.pop()
        if self._rows == self._capacity:
            self._capacity = max(_MIN_CAPACITY, 2 * self._capacity)
            self._resize(self._capacity)
        row = self._rows
        self._rows += 1
        return row

    def _take_block(self, count: int) -> np.ndarray:
        """Allocate ``count`` fresh trailing rows (bulk-load fast path)."""
        needed = self._rows + count
        if needed > self._capacity:
            self._capacity = max(_MIN_CAPACITY, self._capacity, needed)
            self._resize(self._capacity)
        rows = np.arange(self._rows, needed, dtype=np.intp)
        self._rows = needed
        return rows

    def release(self, row: int) -> None:
        """Return a row to the free list (its data becomes garbage)."""
        if not 0 <= row < self._rows:
            raise IndexError(f"row {row} was never allocated")
        self._free.append(row)

    @property
    def size_bytes(self) -> int:
        """Sidecar footprint at the documented per-row layout."""
        return self._rows * self._row_bytes()

    def _row_bytes(self) -> int:
        raise NotImplementedError

    # -- gather hooks (the batched _RuleEngine surface) -----------------
    def _containment_box(self, rows: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _intersection_box(self, rows: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _outer_planes(self, rows: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _inner_planes(self, rows: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    # -- the batched verdict --------------------------------------------
    def classify(self, query: Rect, pq: float, rows) -> np.ndarray:
        """Verdict codes for every row, in order.

        Applies the same rules in the same arrangement as
        :meth:`_RuleEngine.verdict`: the universal disjoint screen and the
        threshold-selected pruning rule decide ``PRUNED``; surviving rows
        that pass Rule 4/5 or Rule 3 become ``VALIDATED``; the rest stay
        ``CANDIDATE``.  Each code equals the scalar verdict for that
        object bit for bit — all rule predicates are exact comparisons
        over identical float64 values.
        """
        if not 0.0 < pq <= 1.0:
            raise ValueError(f"query threshold must be in (0, 1], got {pq}")
        idx = np.asarray(rows, dtype=np.intp)
        out = np.full(idx.shape[0], CANDIDATE, dtype=np.int8)
        if idx.size == 0:
            return out
        qlo, qhi = query.lo, query.hi
        mlo = self.mbr_lo[idx]
        mhi = self.mbr_hi[idx]
        catalog = self.catalog
        # Universal screen: no overlap with the support, no result.
        pruned = ~(np.all(qlo <= mhi, axis=1) & np.all(mlo <= qhi, axis=1))
        validated = np.zeros(idx.shape[0], dtype=bool)
        # Band-coverage geometry shared by Rules 3/4/5 for this batch.
        others = _axis_complements(qlo, qhi, mlo, mhi)
        if pq > 0.5:
            if pq > 1.0 - catalog.p_max:  # Rule 1
                j = catalog.index_of_smallest_at_least(1.0 - pq)
                if j is not None:
                    blo, bhi = self._containment_box(idx, j)
                    pruned |= ~(
                        np.all(qlo <= blo, axis=1) & np.all(bhi <= qhi, axis=1)
                    )
            j = catalog.index_of_largest_at_most(1.0 - pq)  # Rule 4
            if j is not None:
                lower, upper = self._outer_planes(idx, j)
                validated = _covers_band_any(qlo, qhi, mlo, mhi, lower, None, others)
                validated |= _covers_band_any(qlo, qhi, mlo, mhi, None, upper, others)
        else:
            if pq <= 1.0 - catalog.p_max:  # Rule 2
                j = catalog.index_of_largest_at_most(pq)
                if j is not None:
                    blo, bhi = self._intersection_box(idx, j)
                    pruned |= ~(
                        np.all(qlo <= bhi, axis=1) & np.all(blo <= qhi, axis=1)
                    )
            j = catalog.index_of_smallest_at_least(pq)  # Rule 5
            if j is not None:
                lower, upper = self._inner_planes(idx, j)
                validated = _covers_band_any(qlo, qhi, mlo, mhi, None, lower, others)
                validated |= _covers_band_any(qlo, qhi, mlo, mhi, upper, None, others)
        j = catalog.index_of_largest_at_most((1.0 - pq) / 2.0)  # Rule 3
        if j is not None:
            lower, upper = self._outer_planes(idx, j)
            validated |= _covers_band_any(qlo, qhi, mlo, mhi, lower, upper, others)
        out[pruned] = PRUNED
        out[validated & ~pruned] = VALIDATED
        return out

    # -- NN support ------------------------------------------------------
    def point_distances(self, point: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
        """``(mindist, maxdist)`` from ``point`` to every row's MBR.

        The batched mirror of the NN walk's ``_mindist``/``_maxdist``:
        identical elementwise operations; the row norm may round the
        last bit differently from the scalar d-vector norm.
        """
        idx = np.asarray(rows, dtype=np.intp)
        lo = self.mbr_lo[idx]
        hi = self.mbr_hi[idx]
        d_min = np.linalg.norm(
            np.maximum(np.maximum(lo - point, point - hi), 0.0), axis=1
        )
        d_max = np.linalg.norm(
            np.maximum(np.abs(point - lo), np.abs(hi - point)), axis=1
        )
        return d_min, d_max


class CFBFilterKernel(_ColumnarKernel):
    """Columnar Rules 1-5 over CFB summaries (Observation 3).

    Eight ``(n, d)`` face-coefficient columns — intercept and slope for
    each of the outer/inner lower/upper faces — plus the MBR pair.  Rule 1
    consults the *inner* box (crossing faces collapse to their midpoint,
    as :meth:`LinearBoxFunction.box` does), Rule 2 the *outer* box, Rules
    3-4 the raw outer planes and Rule 5 the inner planes with crossed
    faces mapped to the empty-band ``(-inf, +inf)`` sentinel — each the
    exact batched transliteration of :class:`repro.core.pruning.CFBRules`.
    """

    def __init__(self, catalog: UCatalog, dim: int):
        super().__init__(catalog, dim)
        for name in self._FACE_COLUMNS:
            setattr(self, name, np.empty((0, dim)))

    _FACE_COLUMNS = (
        "out_lo_icpt", "out_lo_slope", "out_hi_icpt", "out_hi_slope",
        "in_lo_icpt", "in_lo_slope", "in_hi_icpt", "in_hi_slope",
    )

    def _shared_columns(self) -> tuple[str, ...]:
        return super()._shared_columns() + self._FACE_COLUMNS

    def _row_bytes(self) -> int:
        return filter_kernel_row_bytes(self.dim)

    def _resize(self, capacity: int) -> None:
        super()._resize(capacity)
        for name in self._FACE_COLUMNS:
            setattr(self, name, self._grown(getattr(self, name), capacity))

    def add(self, mbr: Rect, outer: LinearBoxFunction, inner: LinearBoxFunction) -> int:
        """Register one object's summary; returns its row handle."""
        row = self._take_row()
        self.mbr_lo[row] = mbr.lo
        self.mbr_hi[row] = mbr.hi
        self.out_lo_icpt[row] = outer.intercept[0]
        self.out_hi_icpt[row] = outer.intercept[1]
        self.out_lo_slope[row] = outer.slope[0]
        self.out_hi_slope[row] = outer.slope[1]
        self.in_lo_icpt[row] = inner.intercept[0]
        self.in_hi_icpt[row] = inner.intercept[1]
        self.in_lo_slope[row] = inner.slope[0]
        self.in_hi_slope[row] = inner.slope[1]
        return row

    def extend(
        self,
        mbr_lo: np.ndarray,
        mbr_hi: np.ndarray,
        outer_intercept: np.ndarray,
        outer_slope: np.ndarray,
        inner_intercept: np.ndarray,
        inner_slope: np.ndarray,
    ) -> np.ndarray:
        """Bulk-append ``n`` objects from stacked arrays; returns their rows.

        The deserialisation fast path: :func:`repro.storage.serialize`
        already persists exactly these columns, so a loaded tree rebuilds
        its sidecar with six copies instead of ``n`` per-object calls.
        ``*_intercept`` / ``*_slope`` have shape ``(n, 2, d)`` (lo row 0,
        hi row 1), matching :class:`LinearBoxFunction` storage.
        """
        n = mbr_lo.shape[0]
        rows = self._take_block(n)
        self.mbr_lo[rows] = mbr_lo
        self.mbr_hi[rows] = mbr_hi
        self.out_lo_icpt[rows] = outer_intercept[:, 0]
        self.out_hi_icpt[rows] = outer_intercept[:, 1]
        self.out_lo_slope[rows] = outer_slope[:, 0]
        self.out_hi_slope[rows] = outer_slope[:, 1]
        self.in_lo_icpt[rows] = inner_intercept[:, 0]
        self.in_hi_icpt[rows] = inner_intercept[:, 1]
        self.in_lo_slope[rows] = inner_slope[:, 0]
        self.in_hi_slope[rows] = inner_slope[:, 1]
        return rows

    # -- gather hooks ----------------------------------------------------
    def _faces(
        self, rows: np.ndarray, which: str, p: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw (lo, hi) face planes of one CFB family at catalog value p."""
        lo = getattr(self, f"{which}_lo_icpt")[rows] + getattr(self, f"{which}_lo_slope")[rows] * p
        hi = getattr(self, f"{which}_hi_icpt")[rows] + getattr(self, f"{which}_hi_slope")[rows] * p
        return lo, hi

    def _collapsed_box(
        self, rows: np.ndarray, which: str, j: int
    ) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._faces(rows, which, self.catalog[j])
        crossing = lo > hi
        if np.any(crossing):
            mid = (lo + hi) / 2.0
            lo = np.where(crossing, mid, lo)
            hi = np.where(crossing, mid, hi)
        return lo, hi

    def _containment_box(self, rows: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self._collapsed_box(rows, "in", j)

    def _intersection_box(self, rows: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self._collapsed_box(rows, "out", j)

    def _outer_planes(self, rows: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self._faces(rows, "out", self.catalog[j])

    def _inner_planes(self, rows: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        lower, upper = self._faces(rows, "in", self.catalog[j])
        crossing = lower > upper
        if np.any(crossing):
            # Crossed inner faces carry no safe mass guarantee on this
            # axis; the empty-band sentinel matches CFBRules._inner_planes.
            lower = np.where(crossing, -np.inf, lower)
            upper = np.where(crossing, np.inf, upper)
        return lower, upper


class PCRFilterKernel(_ColumnarKernel):
    """Columnar Rules 1-5 over exact PCRs (Observation 2).

    Stores every object's ``m`` PCR planes as ``(n, m, d)`` lower/upper
    columns; all four rule geometries are gathers at the batch-constant
    catalog index — the batched transliteration of
    :class:`repro.core.pruning.PCRRules`.
    """

    def __init__(self, catalog: UCatalog, dim: int):
        super().__init__(catalog, dim)
        self.pcr_lo = np.empty((0, catalog.size, dim))
        self.pcr_hi = np.empty((0, catalog.size, dim))

    def _shared_columns(self) -> tuple[str, ...]:
        return super()._shared_columns() + ("pcr_lo", "pcr_hi")

    def _row_bytes(self) -> int:
        return filter_kernel_row_bytes(self.dim, self.catalog.size)

    def _resize(self, capacity: int) -> None:
        super()._resize(capacity)
        self.pcr_lo = self._grown(self.pcr_lo, capacity)
        self.pcr_hi = self._grown(self.pcr_hi, capacity)

    def add(self, pcrs: PCRSet) -> int:
        """Register one object's PCR set; returns its row handle."""
        if pcrs.catalog != self.catalog:
            raise ValueError("PCR set computed against a different catalog")
        row = self._take_row()
        self.mbr_lo[row] = pcrs.mbr.lo
        self.mbr_hi[row] = pcrs.mbr.hi
        self.pcr_lo[row] = pcrs.boxes[:, 0, :]
        self.pcr_hi[row] = pcrs.boxes[:, 1, :]
        return row

    def _box(self, rows: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        return self.pcr_lo[rows, j, :], self.pcr_hi[rows, j, :]

    _containment_box = _box
    _intersection_box = _box
    _outer_planes = _box
    _inner_planes = _box
