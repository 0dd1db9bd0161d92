"""The vectorized sample-reuse refinement engine.

The refinement step of Section 5.2 dominates CPU cost (paper Figs. 9-10):
every surviving candidate needs an appearance probability, and the
Monte-Carlo estimator of Eq. 3 historically re-drew and re-weighted the
object's entire sample cloud for every ``(object, query)`` pair.  The
per-object stream is deterministic (``default_rng((seed, object_id))``),
so everything except the query mask is redundant work.

:class:`RefinementEngine` removes that redundancy in two steps:

1. **Sample reuse** — each object's per-axis point columns, per-point
   densities and normalising total live in a bounded
   :class:`~repro.uncertainty.montecarlo.SampleCache`: drawn once, reused
   by every query the object ever meets.
2. **One column-major reduction** — a cloud is stored as one
   C-contiguous ``(d, n1)`` buffer, and every probability, scalar or
   batched, is :func:`~repro.uncertainty.montecarlo.mask_reduce`: the
   inside mask is ANDed one axis at a time over the contiguous columns,
   then the masked weights are summed.  A batch pulls each object's
   cloud once and loops its rectangles through that same reduction.

Both paths are **bit-identical** to the scalar
:meth:`~repro.uncertainty.montecarlo.AppearanceEstimator.estimate`: the
cache replays the exact draw the estimator would make, and the estimator
itself reduces through :func:`~repro.uncertainty.montecarlo.mask_reduce`,
so there is one ``weights[mask].sum() / total`` in the whole program.
Tests assert equality with ``==``, not ``approx``.

:func:`refine_with_engine` is the refinement driver the executors plug
into: it groups candidates by data page, pulls payloads (from a
batch-preloaded mapping, a parallel page loader, or the data file
directly), consults an optional cross-query memo, and batch-estimates
whatever remains.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections.abc import Callable, Mapping, Sequence

from repro.core.query import ProbRangeQuery
from repro.core.stats import QueryStats
from repro.geometry.rect import Rect
from repro.storage.pager import DataFile, DiskAddress
from repro.uncertainty.montecarlo import AppearanceEstimator, SampleCache, mask_reduce
from repro.uncertainty.objects import UncertainObject

__all__ = ["RefinementEngine", "memo_rect_key", "refine_with_engine"]

# One shared engine per estimator: QueryExecutor, BatchExecutor and the
# Planner all ask for "the engine for this method", and giving each its
# own would multiply the sample-cache footprint for zero benefit (values
# are deterministic per (seed, object_id), so sharing is always safe).
# Weak keys let the engine die with its estimator.
_SHARED_ENGINES: "weakref.WeakKeyDictionary[AppearanceEstimator, RefinementEngine]" = (
    weakref.WeakKeyDictionary()
)


def memo_rect_key(rect: Rect) -> bytes:
    """The query half of a P_app memo key: ``rect``'s coordinates as bytes.

    It stands in for the :class:`Rect` in the ``(address, rect)`` memo
    key, and each user builds it once per query: the batch fetch plan
    for its skip-fetch probe, :func:`refine_with_engine` for its
    lookups and stores.  A bytes object caches its hash and
    compares with one ``memcmp``; a ``Rect`` key re-hashed both
    coordinate vectors on every probe and ran two ``np.array_equal``
    calls on every hit.  ``lo`` and ``hi`` have one length, so equal keys
    are equal rectangles.
    """
    return rect.lo.tobytes() + rect.hi.tobytes()


def _short_circuit(rect: Rect, mbr: Rect) -> float | None:
    """The paper's trivial cases: containment => 1, disjoint => 0.

    The single copy of the short-circuit order both the scalar and the
    batched paths share (and that mirrors ``AppearanceEstimator``).
    """
    if rect.contains(mbr):
        return 1.0
    if not rect.intersects(mbr):
        return 0.0
    return None


class RefinementEngine:
    """Answers appearance-probability queries from shared sample clouds.

    One engine wraps one ``(n_samples, seed)`` configuration — usually an
    access method's estimator — plus a bounded :class:`SampleCache`.  It
    is safe to share across queries, executors and threads; the cache
    coordinates concurrent draws internally.

    Args:
        n_samples: Monte-Carlo points per object (ignored when ``cache``
            is given — the cache fixes the configuration).
        seed: base RNG seed (ignored when ``cache`` is given).
        cache: an existing :class:`SampleCache` to reuse.
        cache_capacity: LRU bound for a newly created cache.
    """

    def __init__(
        self,
        n_samples: int = 10_000,
        seed: int = 0,
        *,
        cache: SampleCache | None = None,
        cache_capacity: int = 4096,
    ):
        if cache is None:
            cache = SampleCache(n_samples, seed, capacity=cache_capacity)
        self.cache = cache
        self.estimates = 0
        self.batch_calls = 0
        self._counter_lock = threading.Lock()

    @classmethod
    def from_estimator(
        cls, estimator: AppearanceEstimator, *, cache_capacity: int = 4096
    ) -> "RefinementEngine":
        """The engine for this estimator — one shared instance per estimator.

        Repeated calls return the same engine (``cache_capacity`` applies
        only to the first construction), so every executor bound to a
        method reuses one sample cache instead of each growing its own.
        Construct :class:`RefinementEngine` directly for an isolated one.
        """
        engine = _SHARED_ENGINES.get(estimator)
        if engine is None:
            if estimator.cache is not None:
                engine = cls(cache=estimator.cache)
            else:
                engine = cls(
                    estimator.n_samples,
                    estimator.seed,
                    cache_capacity=cache_capacity,
                )
            _SHARED_ENGINES[estimator] = engine
        return engine

    @classmethod
    def for_method(cls, method, *, cache_capacity: int = 4096) -> "RefinementEngine":
        """An engine bound to an access method's estimator configuration."""
        return cls.from_estimator(method.estimator, cache_capacity=cache_capacity)

    @property
    def n_samples(self) -> int:
        return self.cache.n_samples

    @property
    def seed(self) -> int:
        return self.cache.seed

    @property
    def density_evaluations(self) -> int:
        """Sample clouds drawn (one full density evaluation per draw).

        Per-pair estimation performs one of these for every non-trivial
        ``(object, query)`` pair; the engine performs at most one per
        object (cache evictions aside) — the benchmark's headline metric.
        """
        return self.cache.misses

    def reset_counters(self) -> None:
        self.estimates = 0
        self.batch_calls = 0
        self.cache.reset_counters()

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def estimate(self, obj: UncertainObject, rect: Rect) -> float:
        """``P_app(o, q)`` for one pair — bit-identical to the estimator."""
        with self._counter_lock:
            self.estimates += 1
        trivial = _short_circuit(rect, obj.pdf.region.mbr())
        if trivial is not None:
            return trivial
        return mask_reduce(self.cache.get(obj.pdf, obj.oid), rect)

    def estimate_batch(
        self, pairs: Sequence[tuple[UncertainObject, Rect]]
    ) -> list[float]:
        """``P_app`` for every ``(object, rect)`` pair, order preserved.

        Pairs are grouped by object so each object's cloud is pulled from
        the cache once; each of its rectangles then goes through the same
        :func:`~repro.uncertainty.montecarlo.mask_reduce` as the scalar
        :meth:`estimate`, so every returned value equals it bitwise.
        """
        with self._counter_lock:
            self.batch_calls += 1
            self.estimates += len(pairs)
        results = [0.0] * len(pairs)
        # Grouped by object *identity*, not oid: ids are reusable
        # (delete + re-insert), and a batch may legitimately hold two
        # generations of the same oid — each must mask its own cloud.
        grouped: dict[int, tuple[UncertainObject, list[tuple[int, Rect]]]] = {}
        for idx, (obj, rect) in enumerate(pairs):
            trivial = _short_circuit(rect, obj.pdf.region.mbr())
            if trivial is not None:
                results[idx] = trivial
            else:
                grouped.setdefault(id(obj), (obj, []))[1].append((idx, rect))

        for obj, group in grouped.values():
            samples = self.cache.get(obj.pdf, obj.oid)
            for idx, rect in group:
                results[idx] = mask_reduce(samples, rect)
        return results

    def __repr__(self) -> str:
        return (
            f"RefinementEngine(n_samples={self.n_samples}, seed={self.seed}, "
            f"estimates={self.estimates}, cache={self.cache!r})"
        )


def refine_with_engine(
    engine: RefinementEngine,
    candidates: Sequence[tuple[int, DiskAddress]],
    query: ProbRangeQuery,
    data_file: DataFile,
    stats: QueryStats,
    results: list[int],
    *,
    pages: Mapping[int, list] | None = None,
    page_loader: Callable[[int], list] | None = None,
    memo: dict[tuple[DiskAddress, bytes], float] | None = None,
    attribute_cache: bool = True,
) -> int:
    """The engine-backed refinement step shared by every executor.

    Candidates are grouped by data page; payloads come from ``pages`` (a
    batch-preloaded mapping), ``page_loader`` (e.g. a future-resolving
    fetch in the parallel executor) or ``data_file.read_page`` directly.
    Logical accounting is unchanged from the historical per-pair path:
    each page holding a candidate charges one ``data_page_reads``, each
    estimated pair one ``prob_computations`` (memo hits count
    ``memoized_probs`` instead), and qualifying oids append to
    ``results`` in page order.  ``stats`` additionally receives
    sample-cache hit/miss deltas and fetch/refine wall-clock.

    The memo is keyed on ``(DiskAddress, memo_rect_key(rect))``: a
    reused *oid*
    (delete + re-insert) lands at a fresh address, and when ``reclaim``
    lets it land on its old slot instead, the owning executor has
    already dropped that address's entries (see
    :meth:`~repro.exec.batch.BatchExecutor.run`), so no pair is ever
    served a stale probability.  Address keys are also known
    before any I/O, so a page whose candidates are all memoized is not
    fetched at all (its logical charge stands; the physical read is
    skipped).  Returns the number of pages actually fetched here.
    ``page_loader`` time is *not* charged to ``fetch_seconds``: a loader
    typically resolves a fetch shared by many queries (a future), so
    per-query charging would double-count one physical fetch — the
    parallel executor reports the authoritative fetch clock at batch
    level instead.
    """
    by_page: dict[int, list[tuple[int, DiskAddress]]] = {}
    for oid, address in candidates:
        by_page.setdefault(address.page_id, []).append((oid, address))

    refine_start = time.perf_counter()
    rect = query.rect
    threshold = query.threshold
    fetch_seconds = 0.0
    fetched_pages = 0
    pending_pairs: list[tuple[int, UncertainObject]] = []  # (result slot, object)
    pending_keys: list[tuple[DiskAddress, bytes]] = []
    rect_key = memo_rect_key(rect)
    verdicts: list[float] = []
    ordered_oids: list[int] = []
    for page_id, group in sorted(by_page.items()):
        stats.data_page_reads += 1  # logical charge, fetched or not
        # One memo lookup per pair; the key is reused for the store below.
        keys = [(address, rect_key) for _, address in group]
        known = [None] * len(group) if memo is None else [memo.get(k) for k in keys]
        payloads = None
        if None in known:
            if pages is not None and page_id in pages:
                payloads = pages[page_id]
            elif page_loader is not None:
                payloads = page_loader(page_id)
                fetched_pages += 1
            else:
                fetch_start = time.perf_counter()
                payloads = data_file.read_page(page_id)
                fetch_seconds += time.perf_counter() - fetch_start
                fetched_pages += 1
        for (oid, address), key, value in zip(group, keys, known):
            slot = len(ordered_oids)
            ordered_oids.append(oid)
            if value is not None:
                verdicts.append(value)
                stats.memoized_probs += 1
                continue
            obj = payloads[address.slot]
            if not isinstance(obj, UncertainObject):  # pragma: no cover - safety
                raise TypeError(
                    f"data page {page_id} slot {address.slot} is not an object"
                )
            verdicts.append(0.0)  # placeholder, filled from the batch below
            pending_pairs.append((slot, obj))
            pending_keys.append(key)

    if pending_pairs:
        hits_before, misses_before = engine.cache.counters()
        computed = engine.estimate_batch(
            [(obj, rect) for _, obj in pending_pairs]
        )
        stats.prob_computations += len(pending_pairs)
        if attribute_cache:
            # Counter-window deltas are only meaningful when this query
            # is the sole cache user in the window — the parallel
            # executor disables this and reports batch-level deltas.
            hits_after, misses_after = engine.cache.counters()
            stats.sample_cache_hits += hits_after - hits_before
            stats.sample_cache_misses += misses_after - misses_before
        for (slot, _), key, value in zip(pending_pairs, pending_keys, computed):
            verdicts[slot] = value
            if memo is not None:
                memo[key] = value

    for oid, value in zip(ordered_oids, verdicts):
        if value >= threshold:
            results.append(oid)
    stats.fetch_seconds += fetch_seconds
    stats.refine_seconds += time.perf_counter() - refine_start - fetch_seconds
    return fetched_pages
