"""Monte-Carlo evaluation of appearance probabilities (paper Eq. 3).

Computing ``P_app(o, q) = ∫_{o.ur ∩ r_q} o.pdf(x) dx`` has no closed form
for general pdf/region/query combinations, so the paper evaluates it with
the self-normalised estimator

    P_app ≈ ( Σ_{x_i ∈ r_q} pdf(x_i) ) / ( Σ_i pdf(x_i) )

over ``n1`` points drawn uniformly from the uncertainty region.  This
module implements that estimator, the "whole region inside the query"
shortcut the paper notes (n2 = n1 ⇒ exactly 1), and the instrumentation
needed for the CPU-cost experiments (each estimate is one "appearance
probability computation" in Figs. 9-10) and the accuracy study (Fig. 7).

The per-object sample stream is fully determined by ``(seed, object_id)``
— every estimate against the same object re-draws the *same* cloud of
points and re-evaluates the same densities.  :class:`SampleCache` exploits
that: it stores one :class:`ObjectSamples` (per-axis point columns,
per-point densities, normalising total) per object, so the stream is
drawn once and every subsequent estimate reduces to a mask-and-sum over
cached arrays (:func:`mask_reduce`, which also skips the rectangle faces
the cloud's stored per-axis bounds show every sample passes).  Results
are bit-identical to the uncached path because the cache replays exactly
the draw the estimator would have made.

Under a uniform pdf (paper Eq. 1) every sample carries the same weight
``1 / vol``.  Such a *constant-weight* cloud keeps no weight row of its
own: ``weights`` is a read-only zero-stride view of its single value.
A uniform 2-D cloud of 10,000 samples is then 160 KB instead of 240 KB.
"""

from __future__ import annotations

import mmap
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.geometry.rect import Rect
from repro.uncertainty.pdfs import Density

__all__ = [
    "AppearanceEstimator",
    "ObjectSamples",
    "SampleCache",
    "draw_samples",
    "estimate_appearance_probability",
    "mask_reduce",
]


@dataclass(frozen=True)
class ObjectSamples:
    """One object's cached Monte-Carlo state: draw once, reuse forever.

    The cloud is stored column-major: ``columns`` is a C-contiguous
    ``(d, n1)`` block whose rows are the per-axis coordinates, and
    ``weights`` is the row after it in the same buffer (see
    :func:`draw_samples`) -- unless every weight is the same positive
    value, when ``weights`` is a read-only zero-stride view of that one
    value and the cloud owns no weight row (:attr:`constant_weight`).
    :func:`mask_reduce` tests a
    rectangle one axis at a time over those contiguous rows, which is
    several times faster than an ``(n1, d)`` row-major mask and selects
    the same samples in the same order.

    Attributes:
        columns: ``(d, n1)`` C-contiguous coordinates of the ``n1``
            uniform draws from the uncertainty region; ``columns[i]`` is
            axis ``i``.
        weights: pdf values at each point (a zero-stride view for a
            constant-weight cloud).
        total: ``float(weights.sum())`` — the estimator's normaliser,
            stored so cached and uncached estimates divide by the exact
            same float.
        low: per-axis minimum of the drawn coordinates (Python floats).
        high: per-axis maximum of the drawn coordinates.  With ``low``
            it lets :func:`mask_reduce` skip every rectangle face that
            no sample lies beyond.
        density_ref: weak reference to the density the cloud was drawn
            from.  Object ids can be reused (delete + re-insert), so a
            cache hit is only valid if the requesting density is the
            *same instance*; the weakref avoids keeping deleted objects'
            pdfs alive.
    """

    columns: np.ndarray
    weights: np.ndarray
    total: float
    low: tuple[float, ...]
    high: tuple[float, ...]
    density_ref: "weakref.ref | None" = None

    @property
    def points(self) -> np.ndarray:
        """``(n1, d)`` view of the draws (the transpose of ``columns``)."""
        return self.columns.T

    @property
    def constant_weight(self) -> bool:
        """Whether every sample has one weight, held as a zero-stride view."""
        return self.weights.strides[0] == 0

    @property
    def nbytes(self) -> int:
        """Bytes the cloud owns: its columns, plus its weight row if any."""
        if self.constant_weight:
            return self.columns.nbytes
        return self.columns.nbytes + self.weights.nbytes


# Clouds of at least this many bytes get their own anonymous mapping.
# glibc serves a block this size from the calling thread's malloc arena
# once its adaptive mmap threshold has grown, and redrawing clouds on a
# worker thread then fragments that arena: the serve dispatcher's RSS
# grew ~1.5 MB per re-report round.  A mapping is returned to the kernel
# whole when its last view is collected.  The floor keeps the live
# mapping count under ``vm.max_map_count``: the 512 MB SampleCache
# budget holds at most 8,192 clouds this large.
MMAP_FLOOR_BYTES = 64 * 1024


def _cloud_buffer(rows: int, n: int) -> np.ndarray:
    """An uninitialised C-contiguous ``(rows, n)`` float64 buffer."""
    nbytes = rows * n * 8
    if nbytes < MMAP_FLOOR_BYTES:
        return np.empty((rows, n))
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.float64).reshape(rows, n)


def draw_samples(
    density: Density, n_samples: int, seed: int, object_id: int
) -> ObjectSamples:
    """The object's deterministic cloud from ``default_rng((seed, object_id))``.

    The one draw behind both :class:`SampleCache` and the uncached
    :meth:`AppearanceEstimator.samples_for`.  Points are drawn and
    weighted row-major exactly as the region and density define them;
    only then are they copied into one ``(d + 1, n1)`` buffer whose first
    ``d`` rows are ``columns`` and whose last row is ``weights``, so the
    values (and ``total``) do not depend on the layout.  When every drawn
    weight equals the first and is positive (a uniform pdf), the buffer
    has only the ``d`` column rows and ``weights`` is a read-only
    zero-stride view of that value.  The per-axis
    bounds ``low``/``high`` are reduced over the contiguous columns.
    Clouds of at least :data:`MMAP_FLOOR_BYTES` live in an anonymous
    mapping outside the malloc heap.
    """
    rng = np.random.default_rng((seed, object_id))
    points = density.region.sample(n_samples, rng)
    weights = density.density(points)
    dim = points.shape[1]
    constant = weights.size > 0 and weights[0] > 0.0 and (weights == weights[0]).all()
    buffer = _cloud_buffer(dim if constant else dim + 1, len(weights))
    buffer[:dim] = points.T
    if constant:
        row = np.broadcast_to(weights[0], weights.shape)
    else:
        buffer[dim] = weights
        row = buffer[dim]
    columns = buffer[:dim]
    return ObjectSamples(
        columns=columns,
        weights=row,
        total=float(weights.sum()),
        low=tuple(columns.min(axis=1).tolist()),
        high=tuple(columns.max(axis=1).tolist()),
        density_ref=weakref.ref(density),
    )


def mask_reduce(samples: ObjectSamples, rect: Rect) -> float:
    """Eq. 3 over a drawn cloud: the weight share of the samples in ``rect``.

    The single reduction behind every P_app estimate, scalar or batched.
    It equals ``weights[rect.contains_points(points)].sum() / total`` bit
    for bit:

    * a face that no sample lies beyond (``rect.lo[a] <= low[a]`` or
      ``rect.hi[a] >= high[a]``) holds for every sample, so its
      comparison is skipped;
    * an axis whose interval misses ``[low[a], high[a]]`` selects no
      sample, so the share is the empty sum, ``0.0 / total``;
    * with no face crossing the cloud, every sample is in, and the full
      sum is ``total`` itself;
    * otherwise the mask is ANDed one axis at a time over the contiguous
      columns, and ``weights.compress(mask)`` gathers the same weights in
      the same order as ``weights[mask]``, so the sum is the same float.
      From a constant-weight cloud's zero-stride row it gathers ``k``
      copies of the one value into a new contiguous array, the same
      array a stored row of that value would give.
    """
    total = samples.total
    if total <= 0.0:
        return 0.0
    columns = samples.columns
    low = samples.low
    high = samples.high
    inside = None
    for axis, (lo, hi) in enumerate(zip(rect.lo.tolist(), rect.hi.tolist())):
        if lo > high[axis] or hi < low[axis]:
            return 0.0 / total
        column = columns[axis]
        if lo > low[axis]:
            if inside is None:
                inside = column >= lo
            else:
                inside &= column >= lo
        if hi < high[axis]:
            if inside is None:
                inside = column <= hi
            else:
                inside &= column <= hi
    if inside is None:
        return total / total
    return float(samples.weights.compress(inside).sum()) / total


class SampleCache:
    """A bounded, thread-safe LRU cache of per-object sample clouds.

    The estimator's stream for object ``o`` is ``default_rng((seed, o))``
    — deterministic, so one draw serves every query that object ever
    meets.  The cache is keyed by object id and bound to one
    ``(n_samples, seed)`` configuration; sharing it between estimators
    with different configurations would silently change results, so the
    pairing is validated at attach time.

    Concurrent ``get`` calls for the same uncached object coordinate
    through an in-flight event so the draw happens once; other objects
    sample in parallel (NumPy releases the GIL for the heavy parts).

    Args:
        n_samples: points per object (the estimator's ``n1``).
        seed: base RNG seed shared with the estimator.
        capacity: maximum number of objects retained (LRU).  ``0``
            disables retention — every ``get`` re-draws, which is only
            useful for testing the accounting.
        max_bytes: byte budget for retained clouds (LRU-evicted past it;
            at least one entry is always kept).  Entry counts alone are a
            poor bound — at the paper's ``n1 = 10^6`` one 2-D cloud is
            ~24 MB, so 4096 entries would be ~100 GB.  ``None`` disables
            the byte bound.
    """

    DEFAULT_MAX_BYTES = 512 * 2**20

    def __init__(
        self,
        n_samples: int = 10_000,
        seed: int = 0,
        capacity: int = 4096,
        *,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
    ):
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        self.capacity = int(capacity)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_bytes = 0
        self._entries: OrderedDict[int, ObjectSamples] = OrderedDict()
        self._in_flight: dict[int, threading.Event] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._entries

    @property
    def draws(self) -> int:
        """Sample clouds actually drawn (== density evaluations)."""
        return self.misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> tuple[int, int]:
        """Current ``(hits, misses)`` pair, for delta accounting."""
        return (self.hits, self.misses)

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self.resident_bytes = 0

    def invalidate(self, object_id: int) -> None:
        """Drop one object's cloud (e.g. the object was deleted)."""
        with self._lock:
            entry = self._entries.pop(int(object_id), None)
            if entry is not None:
                self.resident_bytes -= entry.nbytes

    def get(self, density: Density, object_id: int) -> ObjectSamples:
        """The object's sample cloud, drawing it on first request.

        A hit is served only when the cloud was drawn from this exact
        ``density`` instance — a reused object id (delete + re-insert)
        therefore re-draws instead of replaying a stale object's cloud.
        """
        oid = int(object_id)
        while True:
            with self._lock:
                entry = self._entries.get(oid)
                if entry is not None:
                    if (
                        entry.density_ref is not None
                        and entry.density_ref() is density
                    ):
                        self._entries.move_to_end(oid)
                        self.hits += 1
                        return entry
                    # Stale: same id, different object. Evict and re-draw.
                    del self._entries[oid]
                    self.resident_bytes -= entry.nbytes
                    entry = None
                event = self._in_flight.get(oid)
                if event is None:
                    event = threading.Event()
                    self._in_flight[oid] = event
                    self.misses += 1
                    break
            # Another thread is drawing this object; wait and re-check.
            event.wait()
        try:
            entry = self._draw(density, oid)
            with self._lock:
                if self.capacity > 0:
                    self._entries[oid] = entry
                    self.resident_bytes += entry.nbytes
                    while len(self._entries) > self.capacity or (
                        self.max_bytes is not None
                        and self.resident_bytes > self.max_bytes
                        and len(self._entries) > 1
                    ):
                        _, evicted = self._entries.popitem(last=False)
                        self.resident_bytes -= evicted.nbytes
                        self.evictions += 1
        finally:
            with self._lock:
                self._in_flight.pop(oid, None)
            event.set()
        return entry

    def _draw(self, density: Density, object_id: int) -> ObjectSamples:
        # Exactly the draw the uncached estimator makes, so cached
        # estimates are bit-identical to uncached ones.
        return draw_samples(density, self.n_samples, self.seed, object_id)

    def prewarm(self, pairs) -> int:
        """Draw (and retain) the cloud for every ``(density, object_id)`` pair.

        Used by the process executor to populate the cache *before*
        forking workers, so every worker inherits the warm clouds instead
        of redrawing them privately.  Draws go through :meth:`get` and
        charge the usual miss counters — prewarming therefore changes the
        hit/miss ledger relative to a cold serial run (never the
        estimates), which is why it is opt-in.

        Returns the number of clouds resident afterwards.
        """
        for density, object_id in pairs:
            self.get(density, object_id)
        return len(self._entries)

    def rebind_resident(self, share) -> int:
        """Move every resident cloud's buffers via ``share(array)``.

        The process executor passes
        :meth:`repro.storage.shm.SharedArena.share_array`; afterwards the
        column buffer and weights of each retained :class:`ObjectSamples`
        live in shared anonymous mappings, so forked workers read one
        physical copy.  The ``(d, n1)`` column buffer is shared as it is
        (already C-contiguous), so workers keep contiguous columns and
        ``points`` stays a view of it.  A constant-weight cloud shares its
        columns only: its zero-stride weight view owns nothing to share.
        Totals, cloud bounds and density refs are preserved, so estimates
        remain bit-identical.  Returns the number of clouds rebound.
        """
        with self._lock:
            for oid, entry in list(self._entries.items()):
                weights = entry.weights
                self._entries[oid] = replace(
                    entry,
                    columns=share(entry.columns),
                    weights=weights if entry.constant_weight else share(weights),
                )
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"SampleCache(n_samples={self.n_samples}, seed={self.seed}, "
            f"capacity={self.capacity}, resident={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class AppearanceEstimator:
    """Reusable Monte-Carlo estimator with evaluation accounting.

    Args:
        n_samples: points drawn per estimate (the paper's ``n1``; it uses
            10^6 at full fidelity and we default lower for speed — see
            DESIGN.md scale policy).
        seed: base RNG seed.  Each estimate derives its stream from
            ``seed`` and the object id so results are reproducible and,
            importantly for testing, *consistent across repeated calls*.
        cache: optional :class:`SampleCache` sharing this estimator's
            ``(n_samples, seed)``.  With a cache attached, repeated
            estimates against the same object skip the RNG rebuild and
            re-draw entirely; values are bit-identical either way.
    """

    def __init__(
        self,
        n_samples: int = 10_000,
        seed: int = 0,
        cache: SampleCache | None = None,
    ):
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        self.n_samples = int(n_samples)
        self.seed = int(seed)
        if cache is not None and (
            cache.n_samples != self.n_samples or cache.seed != self.seed
        ):
            raise ValueError(
                "sample cache must share the estimator's n_samples and seed "
                f"(cache: {cache.n_samples}/{cache.seed}, "
                f"estimator: {self.n_samples}/{self.seed})"
            )
        self.cache = cache
        self.evaluations = 0
        self.elapsed_seconds = 0.0

    def reset_counters(self) -> None:
        """Zero the evaluation and time counters."""
        self.evaluations = 0
        self.elapsed_seconds = 0.0

    def estimate(self, density: Density, query: Rect, object_id: int = 0) -> float:
        """Estimate ``P_app`` for one object against one query rectangle.

        The contains/intersects short-circuits resolve *before* the timer
        starts: ``elapsed_seconds`` charges only real Monte-Carlo work, so
        the Fig. 9 CPU panels are not inflated by trivial rectangle tests.
        """
        mbr = density.region.mbr()
        if query.contains(mbr):
            # The paper's special case: all samples fall inside, P_app = 1.
            self.evaluations += 1
            return 1.0
        if not query.intersects(mbr):
            self.evaluations += 1
            return 0.0
        start = time.perf_counter()
        self.evaluations += 1
        value = self._integrate(density, query, object_id)
        self.elapsed_seconds += time.perf_counter() - start
        return value

    def samples_for(self, density: Density, object_id: int) -> ObjectSamples:
        """The object's sample cloud — cached when a cache is attached."""
        if self.cache is not None:
            return self.cache.get(density, object_id)
        return draw_samples(density, self.n_samples, self.seed, object_id)

    def _integrate(self, density: Density, query: Rect, object_id: int) -> float:
        return mask_reduce(self.samples_for(density, object_id), query)


def estimate_appearance_probability(
    density: Density,
    query: Rect,
    n_samples: int = 10_000,
    seed: int = 0,
) -> float:
    """One-shot convenience wrapper around :class:`AppearanceEstimator`."""
    return AppearanceEstimator(n_samples=n_samples, seed=seed).estimate(density, query)
