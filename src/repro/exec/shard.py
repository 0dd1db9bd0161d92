"""Sharded query execution: partitioned access methods behind one executor.

The paper runs every query against one monolithic index.  A serving
system partitions: this module splits an object set across ``N`` child
:class:`~repro.exec.access.AccessMethod` instances — each with its own
index pages, :class:`~repro.storage.pager.IOCounter` and
:class:`~repro.storage.bufferpool.BufferPool` slice — and puts a
:class:`ShardRouter` in front that prunes and orders shard probes per
query.  The composite :class:`ShardedAccessMethod` itself satisfies the
``AccessMethod`` protocol, so every existing executor (`execute_query`,
`QueryExecutor`, `BatchExecutor`, the planner) runs against it unchanged.

Three design decisions make sharding *observably equivalent* to the
monolithic path:

* **One shared data file, global append order.**  Object detail records
  are appended to a single :class:`~repro.storage.pager.DataFile` in the
  original object order — exactly the packing a monolithic structure
  built over the same objects produces.  Candidate
  :class:`~repro.storage.pager.DiskAddress`\\ es are therefore identical
  to the unsharded structure's, so batch-level page dedup, the
  ``(address, rect)`` P_app memo and the refinement engine all work
  across shards, and the refinement phase performs *identical physical
  page reads* to the unsharded executor.
* **One shared estimator.**  Every shard holds the same
  :class:`~repro.uncertainty.montecarlo.AppearanceEstimator`, whose
  sample streams derive from ``(seed, object_id)`` — appearance
  probabilities are bit-identical no matter which shard an object landed
  in (``tests/test_shard.py`` asserts ``==``, not ``approx``).
* **Sound pruning only.**  The router skips a shard only when the query
  rectangle is disjoint from the shard's bounding rectangle (then every
  member object has ``P_app = 0 < p_q``); a skipped shard's objects are
  counted as pruned.  With ``prune=False`` every shard is probed and the
  refinement-phase physical reads match the monolithic path exactly.

"Identical answers" means identical answer *sets*: the same object ids
with the same P_app values.  The raw ``object_ids`` order follows shard
probe order rather than one tree's traversal order, so comparisons use
``sorted_ids()`` (only ``shards=1`` reproduces the monolithic ordering).

Probe *order* among surviving shards is priced by the existing
:class:`~repro.exec.planner.Planner` cost models
(:meth:`Planner.for_shards` registers one model per shard): cheapest
shard first.  Ordering is a scheduling heuristic — it never changes the
answer, only which shard a latency-bounded probe loop would visit first.

Partitioners assign each object to a shard:

* :func:`str_tile_partition` — sort-tile-recursive spatial tiling (sort
  by the first-axis MBR centre into slabs, each slab sorted on the next
  axis and cut into balanced tiles), the same packing idea the bulk
  loader uses; clustered queries then touch few shards.
* :func:`hash_partition` — ``oid mod N``, the locality-free baseline
  (uniform load, no routing wins beyond empty-shard pruning).

Both are deterministic, handle ``shards > len(objects)`` (empty shards
are legal and routable) and degrade to the monolithic structure at
``shards=1`` — the one-shard tree is built over the same objects in the
same order, so even its node-access counts are identical.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.pruning import subtree_may_qualify
from repro.core.query import ProbRangeQuery, QueryAnswer
from repro.exec.access import FilterResult
from repro.exec.executor import execute_query
from repro.exec.planner import Planner
from repro.geometry.rect import Rect
from repro.storage.bufferpool import BufferPool
from repro.storage.pager import CompositeIOCounter, DataFile, IOCounter
from repro.uncertainty.montecarlo import AppearanceEstimator
from repro.uncertainty.objects import UncertainObject

__all__ = [
    "PARTITIONERS",
    "ShardRouter",
    "ShardedAccessMethod",
    "hash_partition",
    "str_tile_partition",
]


# ----------------------------------------------------------------------
# partitioners: object list -> per-object shard assignment
# ----------------------------------------------------------------------

def hash_partition(objects: Sequence[UncertainObject], shards: int) -> list[int]:
    """Assign each object to shard ``oid mod shards`` (locality-free)."""
    if shards < 1:
        raise ValueError("shards must be at least 1")
    return [obj.oid % shards for obj in objects]


def str_tile_partition(objects: Sequence[UncertainObject], shards: int) -> list[int]:
    """Sort-tile-recursive spatial assignment into ``shards`` tiles.

    Objects are ordered by first-axis MBR centre and cut into
    ``ceil(sqrt(shards))`` balanced slabs; each slab is ordered on the
    second axis and cut into its quota of balanced tiles, so tiles are
    roughly square and roughly equally loaded.  Stable sorts with
    integer split points make the assignment deterministic.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    n = len(objects)
    assignment = [0] * n
    if shards == 1 or n == 0:
        return assignment
    centres = np.stack([obj.mbr.center for obj in objects])
    second_axis = 1 if centres.shape[1] > 1 else 0
    slabs = max(1, math.ceil(math.sqrt(shards)))
    base, extra = divmod(shards, slabs)
    tiles_per_slab = [base + (1 if i < extra else 0) for i in range(slabs)]

    order0 = np.argsort(centres[:, 0], kind="stable")
    shard = 0
    tiles_done = 0
    for tiles in tiles_per_slab:
        lo = n * tiles_done // shards
        hi = n * (tiles_done + tiles) // shards
        slab = order0[lo:hi]
        slab = slab[np.argsort(centres[slab, second_axis], kind="stable")]
        for j in range(tiles):
            a = len(slab) * j // tiles
            b = len(slab) * (j + 1) // tiles
            for idx in slab[a:b]:
                assignment[int(idx)] = shard
            shard += 1
        tiles_done += tiles
    return assignment


PARTITIONERS = {
    "str": str_tile_partition,
    "hash": hash_partition,
}


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------

class ShardRouter:
    """Per-query shard pruning and probe ordering.

    Args:
        bounds: per-shard bounding rectangle of member-object MBRs
            (``None`` for an empty shard).  The router keeps this *list
            itself*, not a copy — the owning
            :class:`ShardedAccessMethod` grows entries in place on
            insert, and a stale private copy would let the pruning rule
            silently drop newly inserted objects.
        planner: a :class:`Planner` with each shard registered as
            ``shard-<i>`` (see :meth:`Planner.for_shards`) — its cost
            estimates order the surviving probes cheapest-first.
        prune: when True (default), shards whose bounds are disjoint
            from the query rectangle are skipped — sound, because a
            disjoint shard's every object has ``P_app = 0``, below any
            legal threshold.  When False every shard is probed (the
            equivalence-testing mode).
        level_bounds: per-shard union of member-object *profiles* — an
            ``(m, 2, d)`` array of the union box at each catalog value
            (``None`` for an empty shard).  Aliased like ``bounds``:
            the owning method grows entries in place on insert.
        catalog: the children's shared :class:`UCatalog` (required for
            the probability bound; ``None`` disables it).
        probe_bound: when True (default), apply the paper's
            Observation 4 at shard granularity — skip a shard whose
            level-bound box at the largest catalog value ``p_j <= p_q``
            misses the query rectangle.  The shard's level box at ``j``
            contains every member's PCR/CFB box at ``j``, so a miss
            proves every member's ``P_app < p_q`` — the same argument
            the trees apply per intermediate entry, lifted one level.
            Strictly tighter than the MBR-intersection prune, never
            changing the answer (pinned by the equivalence tests).
    """

    def __init__(
        self,
        bounds: "list[Rect | None]",
        planner: Planner,
        *,
        prune: bool = True,
        level_bounds: "list[np.ndarray | None] | None" = None,
        catalog=None,
        probe_bound: bool = True,
    ):
        self.bounds = bounds
        self.planner = planner
        self.prune = bool(prune)
        self.level_bounds = level_bounds
        self.catalog = catalog
        self.probe_bound = bool(probe_bound)
        self.decisions = 0
        self.pruned_probes = 0
        self.bound_skips = 0

    @property
    def shard_count(self) -> int:
        return len(self.bounds)

    def price(self, shard: int, query: ProbRangeQuery) -> float:
        """This shard's cost-model estimate for ``query``."""
        return self.planner.price(f"shard-{shard}", query)

    def _bound_allows(self, shard: int, query: ProbRangeQuery) -> bool:
        """Observation 4 at shard granularity (True = must probe).

        The shard's per-level union box is a virtual intermediate entry
        one level above the child roots; reusing
        :func:`subtree_may_qualify` on it applies exactly the pruning
        rule the trees trust for their own entries.
        """
        if not self.probe_bound or self.catalog is None or self.level_bounds is None:
            return True
        profile = self.level_bounds[shard]
        if profile is None:
            return True
        return subtree_may_qualify(
            self.catalog,
            lambda j: Rect.from_arrays(profile[j, 0], profile[j, 1]),
            query.rect,
            query.threshold,
        )

    def route(self, query: ProbRangeQuery) -> list[int]:
        """Shards to probe for ``query``, cheapest first.

        With pruning on, only shards whose bounds intersect the query
        rectangle — and whose per-level bound admits the query threshold
        (see ``probe_bound``) — survive (empty shards never do); with
        pruning off, every shard is returned.  Ties in the cost estimate
        break on the shard index, keeping the order deterministic.
        """
        self.decisions += 1
        if self.prune:
            live = []
            for i, box in enumerate(self.bounds):
                if box is None or not box.intersects(query.rect):
                    continue
                if not self._bound_allows(i, query):
                    self.bound_skips += 1
                    continue
                live.append(i)
        else:
            live = list(range(len(self.bounds)))
        self.pruned_probes += len(self.bounds) - len(live)
        return sorted(live, key=lambda i: (self.price(i, query), i))


# ----------------------------------------------------------------------
# the composite access method
# ----------------------------------------------------------------------

def _profile_of(child, oid: int) -> np.ndarray:
    """One member's ``(m, 2, d)`` per-catalog-level box profile.

    The trees keep profiles in their ``_profiles`` sidecar (the same
    arrays their own intermediate bounds are built from); the flat scan
    derives the profile from the record's conservative outer CFB — also
    conservative, so the shard-level union stays sound.
    """
    profiles = getattr(child, "_profiles", None)
    if profiles is not None:
        return np.asarray(profiles[oid], dtype=float)
    for record in reversed(child._records):
        if record.oid == oid:
            return np.asarray(record.outer.profile(child.catalog), dtype=float)
    raise KeyError(f"object {oid} not found in shard")


def _union_profile(
    current: np.ndarray | None, profile: np.ndarray
) -> np.ndarray:
    """Grow a per-level union box stack by one member profile."""
    if current is None:
        return np.array(profile, dtype=float, copy=True)
    np.minimum(current[:, 0, :], profile[:, 0, :], out=current[:, 0, :])
    np.maximum(current[:, 1, :], profile[:, 1, :], out=current[:, 1, :])
    return current


def _make_child(
    method: str,
    dim: int,
    catalog,
    page_size: int,
    io: IOCounter,
    pool: BufferPool | None,
    estimator: AppearanceEstimator,
    **method_kwargs,
):
    # Imported here: the structure modules import the exec package, so a
    # module-level import would be circular.
    if method == "utree":
        from repro.core.utree import UTree

        return UTree(
            dim, catalog, page_size=page_size, io=io, pool=pool,
            estimator=estimator, **method_kwargs,
        )
    if method == "upcr":
        from repro.core.upcr import UPCRTree

        return UPCRTree(
            dim, catalog, page_size=page_size, io=io, pool=pool,
            estimator=estimator, **method_kwargs,
        )
    if method == "scan":
        from repro.core.scan import SequentialScan

        return SequentialScan(
            dim, catalog, page_size=page_size, io=io, pool=pool,
            estimator=estimator, **method_kwargs,
        )
    raise ValueError(f"unknown shard method {method!r}; pick utree, upcr or scan")


class ShardedAccessMethod:
    """``N`` partitioned access methods behind one ``AccessMethod`` facade.

    Usually constructed via :meth:`build`.  The facade exposes the
    protocol surface every executor consumes: ``dim``, ``io`` (a
    :class:`CompositeIOCounter` over the shard counters plus the shared
    data file's), ``data_file`` (shared by every shard), ``estimator``
    (shared — the bit-identity anchor) and ``filter_candidates``.
    """

    def __init__(
        self,
        shards: Sequence,
        *,
        data_file: DataFile,
        estimator: AppearanceEstimator,
        bounds: Sequence[Rect | None],
        sizes: Sequence[int],
        partitioner: str = "str",
        prune: bool = True,
        planner: Planner | None = None,
        level_bounds: "Sequence[np.ndarray | None] | None" = None,
        probe_bound: bool = True,
    ):
        if not shards:
            raise ValueError("at least one shard is required")
        if not (len(shards) == len(bounds) == len(sizes)):
            raise ValueError("shards, bounds and sizes must align")
        self.shards = list(shards)
        self.dim = self.shards[0].dim
        self.data_file = data_file
        self.estimator = estimator
        self.partitioner = partitioner
        self.shard_bounds = list(bounds)
        self.shard_sizes = list(sizes)
        # Per-shard union of member profiles at every catalog value
        # ((m, 2, d), None while empty) — the probe bound's input.  Like
        # shard_bounds, grown on insert and conservative under delete.
        self.level_bounds: list[np.ndarray | None] = (
            [None] * len(self.shards) if level_bounds is None else list(level_bounds)
        )
        # Per-shard update traffic since build/last rebalance — the
        # skew signal Database.rebalance() consumes.
        self.insert_traffic = [0] * len(self.shards)
        self.delete_traffic = [0] * len(self.shards)
        # The shard the most recent successful insert/delete touched —
        # the facade's per-shard dirty-epoch tracking reads this to
        # invalidate exactly one incremental-snapshot member per update.
        self.last_update_shard: int | None = None
        self.io = CompositeIOCounter(
            [shard.io for shard in self.shards] + [data_file.io]
        )
        if planner is None:
            planner = Planner.for_shards(self.shards)
        # The router aliases shard_bounds / level_bounds (never copies):
        # bounds grown by insert() are immediately visible to pruning.
        self.router = ShardRouter(
            self.shard_bounds,
            planner,
            prune=prune,
            level_bounds=self.level_bounds,
            catalog=getattr(self.shards[0], "catalog", None),
            probe_bound=probe_bound,
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        objects: Sequence[UncertainObject],
        *,
        shards: int,
        partitioner: str = "str",
        method: str = "utree",
        dim: int | None = None,
        catalog=None,
        page_size: int = 4096,
        estimator: AppearanceEstimator | None = None,
        pool_capacity: int = 0,
        prune: bool = True,
        probe_bound: bool = True,
        **method_kwargs,
    ) -> "ShardedAccessMethod":
        """Partition ``objects`` into ``shards`` child structures.

        ``partitioner`` is a :data:`PARTITIONERS` key (``"str"`` or
        ``"hash"``); ``method`` picks the child structure (``"utree"``,
        ``"upcr"`` or ``"scan"``).  ``pool_capacity > 0`` attaches a
        buffer pool budget partitioned into one slice per shard plus one
        for the shared data file (:meth:`BufferPool.partition`); 0 keeps
        the uncached paper accounting.  Detail records are appended to
        the shared data file in **global object order**, so the data-file
        packing — and every candidate's disk address — is identical to a
        monolithic structure built over the same sequence.

        Remaining ``method_kwargs`` reach every child constructor.  Each
        child owns its own columnar filter-kernel sidecar, so a routed
        probe costs exactly one stacked Rules-1-5 kernel call per
        ``(query, shard)`` batch, serial or batched.
        """
        objects = list(objects)
        if shards < 1:
            raise ValueError("shards must be at least 1")
        if dim is None:
            if not objects:
                raise ValueError("cannot infer dimensionality from an empty object list")
            dim = objects[0].dim
        if partitioner not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {partitioner!r}; pick one of {sorted(PARTITIONERS)}"
            )
        assignment = PARTITIONERS[partitioner](objects, shards)
        estimator = estimator if estimator is not None else AppearanceEstimator()

        if pool_capacity:
            # The shared data file takes the first slice — with a budget
            # smaller than the slice count, trailing slices come out
            # capacity-0, and it is the one file every query's
            # refinement reads that must not silently lose its cache.
            pools = BufferPool.partition(pool_capacity, shards + 1)
        else:
            pools = [None] * (shards + 1)
        data_file = DataFile(IOCounter(), page_size, pool=pools[0])

        children = []
        for i in range(shards):
            child = _make_child(
                method, dim, catalog, page_size, IOCounter(), pools[i + 1],
                estimator, **method_kwargs,
            )
            # Children index their partition but share one detail file:
            # the constructor-made private file is discarded before any
            # record lands in it.
            child.data_file = data_file
            children.append(child)

        bounds: list[Rect | None] = [None] * shards
        level_bounds: list[np.ndarray | None] = [None] * shards
        sizes = [0] * shards
        for obj, shard in zip(objects, assignment):
            children[shard].insert(obj)
            sizes[shard] += 1
            bounds[shard] = (
                obj.mbr if bounds[shard] is None else bounds[shard].union(obj.mbr)
            )
            level_bounds[shard] = _union_profile(
                level_bounds[shard], _profile_of(children[shard], obj.oid)
            )
        return cls(
            children,
            data_file=data_file,
            estimator=estimator,
            bounds=bounds,
            sizes=sizes,
            partitioner=partitioner,
            prune=prune,
            level_bounds=level_bounds,
            probe_bound=probe_bound,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(self.shard_sizes)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def prune(self) -> bool:
        """Whether the router skips non-intersecting shards (settable)."""
        return self.router.prune

    @prune.setter
    def prune(self, value: bool) -> None:
        self.router.prune = bool(value)

    @property
    def probe_bound(self) -> bool:
        """Whether the router applies the Observation-4 shard bound (settable)."""
        return self.router.probe_bound

    @probe_bound.setter
    def probe_bound(self, value: bool) -> None:
        self.router.probe_bound = bool(value)

    @property
    def update_traffic(self) -> int:
        """Inserts + deletes since build / the last traffic reset."""
        return sum(self.insert_traffic) + sum(self.delete_traffic)

    def size_skew(self) -> float:
        """Largest shard size over the mean (1.0 = perfectly balanced)."""
        total = sum(self.shard_sizes)
        if not total:
            return 1.0
        mean = total / len(self.shard_sizes)
        return max(self.shard_sizes) / mean

    def reset_traffic(self) -> None:
        """Zero the per-shard insert/delete counters (after a rebalance)."""
        self.insert_traffic = [0] * len(self.shards)
        self.delete_traffic = [0] * len(self.shards)

    def refresh_router(self) -> None:
        """Rebuild the router's cost models after updates changed shard shapes."""
        self.router.planner = Planner.for_shards(self.shards)

    def __repr__(self) -> str:
        return (
            f"ShardedAccessMethod(shards={self.shard_count}, "
            f"objects={len(self)}, partitioner={self.partitioner!r}, "
            f"prune={self.prune})"
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _choose_shard(self, obj: UncertainObject) -> int:
        if self.partitioner == "hash":
            return obj.oid % self.shard_count
        # Spatial partitioners: the shard whose bounds grow least (ties
        # on area then index), the R-tree choose-subtree rule one level up.
        best, best_key = 0, None
        for i, box in enumerate(self.shard_bounds):
            if box is None:
                key = (0.0, 0.0)
            else:
                key = (box.enlargement(obj.mbr), box.area())
            if best_key is None or key < best_key:
                best, best_key = i, key
        return best

    def insert(self, obj: UncertainObject):
        """Insert one object into its partitioner-chosen shard.

        Router cost models are snapshots; call :meth:`refresh_router`
        after heavy update traffic to re-price probe ordering (bounds —
        the pruning input — are maintained incrementally here).
        """
        if obj.dim != self.dim:
            raise ValueError(
                f"object dimensionality {obj.dim} != sharded dimensionality {self.dim}"
            )
        shard = self._choose_shard(obj)
        result = self.shards[shard].insert(obj)
        self.shard_sizes[shard] += 1
        self.insert_traffic[shard] += 1
        self.last_update_shard = shard
        box = self.shard_bounds[shard]
        self.shard_bounds[shard] = obj.mbr if box is None else box.union(obj.mbr)
        self.level_bounds[shard] = _union_profile(
            self.level_bounds[shard], _profile_of(self.shards[shard], obj.oid)
        )
        return result

    def delete(self, oid: int):
        """Delete by id from whichever shard holds it (bounds stay conservative).

        Hash placement is a function of the oid alone, so only the
        owning shard is searched; spatial partitions probe in order.
        """
        if self.partitioner == "hash":
            shard = oid % self.shard_count
            outcome = self.shards[shard].delete(oid)
            if outcome:
                self.shard_sizes[shard] -= 1
                self.delete_traffic[shard] += 1
                self.last_update_shard = shard
                return outcome
            return None
        for i, shard in enumerate(self.shards):
            outcome = shard.delete(oid)
            if outcome:
                self.shard_sizes[i] -= 1
                self.delete_traffic[i] += 1
                self.last_update_shard = i
                return outcome
        return None

    # ------------------------------------------------------------------
    # queries (the AccessMethod protocol)
    # ------------------------------------------------------------------
    def route(self, query: ProbRangeQuery) -> list[int]:
        """The router's probe plan for one query (cheapest shard first)."""
        return self.router.route(query)

    def merge_filter(
        self, order: Sequence[int], results: Sequence[FilterResult]
    ) -> FilterResult:
        """Merge per-shard filter results (in probe order) into one.

        Objects of shards the router skipped are accounted as pruned —
        the router proved their ``P_app`` is 0 without touching a page.
        """
        merged = FilterResult()
        merged.shard_probes = len(order)
        merged.shards_pruned = self.shard_count - len(order)
        probed = set(order)
        merged.pruned = sum(
            size for i, size in enumerate(self.shard_sizes) if i not in probed
        )
        for result in results:
            merged.validated.extend(result.validated)
            merged.candidates.extend(result.candidates)
            merged.node_accesses += result.node_accesses
            merged.pruned += result.pruned
        return merged

    def filter_with(
        self,
        query: ProbRangeQuery,
        on_probe: Callable[[int, FilterResult, float], None] | None = None,
    ) -> FilterResult:
        """Route, probe and merge — the one serial filter implementation.

        ``on_probe(shard_id, result, elapsed_seconds)`` observes each
        probe as it completes; the batch executor hooks its per-shard
        accounting here so facade-path and batch-path filtering cannot
        drift apart.
        """
        order = self.route(query)
        results = []
        for shard_id in order:
            start = time.perf_counter()
            filtered = self.shards[shard_id].filter_candidates(query)
            if on_probe is not None:
                on_probe(shard_id, filtered, time.perf_counter() - start)
            results.append(filtered)
        return self.merge_filter(order, results)

    def filter_candidates(self, query: ProbRangeQuery) -> FilterResult:
        """Filter phase: probe routed shards in cost order, merge results."""
        return self.filter_with(query)

    def query(self, query: ProbRangeQuery) -> QueryAnswer:
        """Answer a prob-range query through the shared executor."""
        return execute_query(self, query)
