"""Probabilistic nearest-neighbour search on U-trees.

The paper's Section 7 names "algorithms that deploy U-trees to solve
other types of queries (e.g., those defined in [4])" as future work; the
canonical such query (Cheng, Kalashnikov, Prabhakar, SIGMOD'03) is the
**probabilistic nearest neighbour**: given a query point ``q``, return
each object ``o`` together with its *qualification probability*

    P_nn(o) = P(dist(q, X_o) < min_{o' != o} dist(q, X_{o'}))

— the chance that ``o`` is the true nearest neighbour given every
object's location distribution.

The implementation has the classic two phases:

1. **filter** — a best-first branch-and-bound descent of the U-tree.
   Every entry's layer-0 box bounds the support of all objects beneath
   it, so ``mindist``/``maxdist`` against that box are conservative.
   Objects whose minimum possible distance exceeds the smallest maximum
   distance of any object (the *best worst-case*) can never be the NN
   and are pruned, subtrees likewise.
2. **refinement** — a joint Monte-Carlo estimate over the k surviving
   candidates: draw matched rounds of locations (one sample per object
   per round, streams seeded per object id) and count, per round, which
   candidate is closest.  Qualification probabilities are the per-object
   win frequencies; they sum to 1 over the candidate set by construction.

The same machinery answers **expected-distance ranking** (the other
common uncertain-NN semantics): ``expected_nearest_neighbors`` returns
the k objects with smallest ``E[dist(q, X_o)]``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.utree import UTree, UTreeLeafRecord
from repro.index.node import Node

__all__ = ["NNCandidate", "NNResult", "probabilistic_nearest_neighbors", "expected_nearest_neighbors"]


@dataclass
class NNCandidate:
    """One surviving candidate with its qualification probability."""

    oid: int
    probability: float
    expected_distance: float


@dataclass
class NNResult:
    """Answer of a probabilistic NN query."""

    candidates: list[NNCandidate] = field(default_factory=list)
    node_accesses: int = 0
    data_page_reads: int = 0
    objects_examined: int = 0
    mc_rounds: int = 0
    wall_seconds: float = 0.0
    # Sharded trees only: shards never walked because their bounds'
    # mindist already exceeded the running best worst-case distance.
    shards_skipped: int = 0

    def qualifying(self, threshold: float) -> list[NNCandidate]:
        """Candidates with qualification probability at least ``threshold``."""
        return [c for c in self.candidates if c.probability >= threshold]

    def best(self) -> NNCandidate | None:
        """The most likely nearest neighbour, or None on an empty tree."""
        return self.candidates[0] if self.candidates else None


def _mindist(point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Smallest distance from ``point`` to an axis-aligned box."""
    delta = np.maximum(np.maximum(lo - point, point - hi), 0.0)
    return float(np.linalg.norm(delta))


def _maxdist(point: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest distance from ``point`` to any point of the box."""
    delta = np.maximum(np.abs(point - lo), np.abs(hi - point))
    return float(np.linalg.norm(delta))


def _walk_candidates(
    tree: UTree, point: np.ndarray, result: NNResult
) -> tuple[list[tuple[float, float, UTreeLeafRecord]], float]:
    """Best-first descent: raw ``(mindist, maxdist, record)`` survivors.

    Returns the candidates gathered under the tree's *running* best
    worst-case plus the final tight bound.  Callers apply the final
    prune themselves — the sharded path first tightens the bound across
    every shard, so merged candidate sets equal the monolithic walk's.
    """
    best_worst = np.inf
    candidates: list[tuple[float, float, UTreeLeafRecord]] = []
    heap: list[tuple[float, int, Node]] = [(0.0, 0, tree.engine.root)]
    counter = 1
    kernel = tree.kernel

    while heap:
        mindist, __, node = heapq.heappop(heap)
        if mindist > best_worst:
            # Every remaining heap entry is at least this far: done.
            break
        tree.engine.store.touch_read(node.page_id)
        result.node_accesses += 1
        if node.is_leaf:
            if not node.entries:
                continue
            # Batched leaf distances from the columnar MBR sidecar.
            # Entry i is admitted under the best worst-case as tightened
            # by entries 0..i, which the running minimum reproduces.
            records = [entry.data for entry in node.entries]
            rows = np.fromiter(
                (record.row for record in records),
                dtype=np.intp,
                count=len(records),
            )
            d_min, d_max = kernel.point_distances(point, rows)
            result.objects_examined += len(records)
            running = np.minimum.accumulate(np.minimum(d_max, best_worst))
            best_worst = float(running[-1])
            for i, record in enumerate(records):
                if d_min[i] <= running[i]:
                    candidates.append((float(d_min[i]), float(d_max[i]), record))
        else:
            for entry in node.entries:
                lo, hi = entry.profile[0, 0], entry.profile[0, 1]
                d_min = _mindist(point, lo, hi)
                # A subtree's maxdist also caps the global best worst-case:
                # it contains at least one whole object.
                best_worst = min(best_worst, _maxdist(point, lo, hi))
                if d_min <= best_worst:
                    heapq.heappush(heap, (d_min, counter, entry.child))
                    counter += 1

    return candidates, best_worst


def _collect_candidates(tree, point: np.ndarray, result: NNResult) -> list[UTreeLeafRecord]:
    """The NN candidate set: every object that could beat the best worst-case.

    Accepts a single U-tree or a sharded set of them
    (:class:`~repro.exec.shard.ShardedAccessMethod` with U-tree shards).
    Sharded collection walks every non-empty shard, tightens the best
    worst-case across all of them, then applies one global final prune —
    by construction the surviving set is exactly the monolithic walk's
    ``{o : mindist(q, o) <= global best_worst}``, so the joint
    Monte-Carlo refinement (seeded per object id) is bit-identical no
    matter how the objects were partitioned.
    """
    shards = getattr(tree, "shards", None)
    if shards is None:
        candidates, best_worst = _walk_candidates(tree, point, result)
    else:
        # Latency-bounded probing: visit shards nearest-first and skip a
        # shard once its bounds' mindist exceeds the running best
        # worst-case — every member then has
        # ``d_min >= shard mindist > best_worst``, so it can neither
        # survive the final prune nor tighten the bound (its maxdist is
        # at least its mindist).  The surviving set — and therefore the
        # joint refinement — is identical to the walk-everything order.
        router = getattr(tree, "router", None)
        bound = router is None or (router.prune and router.probe_bound)
        shard_bounds = getattr(tree, "shard_bounds", [None] * len(shards))
        order = sorted(
            (i for i, shard in enumerate(shards) if len(shard) > 0),
            key=lambda i: (
                _mindist(point, shard_bounds[i].lo, shard_bounds[i].hi)
                if shard_bounds[i] is not None
                else 0.0,
                i,
            ),
        )
        candidates = []
        best_worst = np.inf
        for i in order:
            box = shard_bounds[i]
            if (
                bound
                and box is not None
                and _mindist(point, box.lo, box.hi) > best_worst
            ):
                result.shards_skipped += 1
                continue
            shard_candidates, shard_best = _walk_candidates(
                shards[i], point, result
            )
            candidates.extend(shard_candidates)
            best_worst = min(best_worst, shard_best)
    # Final prune with the tight best_worst found.
    return [rec for d_min, __, rec in candidates if d_min <= best_worst]


def probabilistic_nearest_neighbors(
    tree,
    point,
    rounds: int = 2000,
    seed: int = 0,
) -> NNResult:
    """Qualification probability of every NN candidate of ``point``.

    Args:
        tree: a built U-tree, or a sharded set of U-trees
            (:class:`~repro.exec.shard.ShardedAccessMethod` built with
            ``method="utree"``) — answers are bit-identical either way.
        point: the query location (length-d).
        rounds: Monte-Carlo rounds for the joint estimate; each round
            draws one location per candidate.
        seed: RNG seed; per-object streams derive from (seed, oid).

    Returns:
        An :class:`NNResult` with candidates sorted by descending
        qualification probability.  Probabilities over the candidate set
        sum to 1 (up to rounding) when the tree is non-empty.
    """
    q = np.asarray(point, dtype=np.float64)
    if q.shape != (tree.dim,):
        raise ValueError(f"query point must have dimension {tree.dim}")
    if rounds < 1:
        raise ValueError("rounds must be positive")
    start = time.perf_counter()
    result = NNResult()
    if len(tree) == 0:
        result.wall_seconds = time.perf_counter() - start
        return result

    records = _collect_candidates(tree, q, result)

    # Refinement: fetch the candidate objects (grouped by data page).
    by_page: dict[int, list[UTreeLeafRecord]] = {}
    for record in records:
        by_page.setdefault(record.address.page_id, []).append(record)
    objects = {}
    for page_id, group in sorted(by_page.items()):
        payloads = tree.data_file.read_page(page_id)
        result.data_page_reads += 1
        for record in group:
            objects[record.oid] = payloads[record.address.slot]

    # Joint Monte-Carlo: distance matrix (rounds, k) with matched rounds.
    oids = sorted(objects)
    distances = np.empty((rounds, len(oids)))
    for col, oid in enumerate(oids):
        obj = objects[oid]
        rng = np.random.default_rng((seed, oid))
        samples = obj.region.sample(rounds, rng)
        weights = obj.pdf.density(samples)
        # Importance correction: samples are uniform over the region; for
        # non-uniform pdfs resample rounds proportionally to the weights.
        if np.ptp(weights) > 1e-12 * max(1.0, float(weights.max())):
            total = weights.sum()
            if total > 0:
                idx = rng.choice(rounds, size=rounds, p=weights / total)
                samples = samples[idx]
        distances[:, col] = np.linalg.norm(samples - q, axis=1)

    winners = np.argmin(distances, axis=1)
    counts = np.bincount(winners, minlength=len(oids))
    expected = distances.mean(axis=0)
    result.mc_rounds = rounds
    result.candidates = sorted(
        (
            NNCandidate(oid, counts[col] / rounds, float(expected[col]))
            for col, oid in enumerate(oids)
        ),
        key=lambda c: (-c.probability, c.expected_distance),
    )
    result.wall_seconds = time.perf_counter() - start
    return result


def expected_nearest_neighbors(
    tree,
    point,
    k: int = 1,
    rounds: int = 2000,
    seed: int = 0,
) -> NNResult:
    """The k candidates with smallest expected distance to ``point``.

    Shares the filter and sampling machinery of
    :func:`probabilistic_nearest_neighbors`; only the ranking differs.
    """
    if k < 1:
        raise ValueError("k must be positive")
    result = probabilistic_nearest_neighbors(tree, point, rounds=rounds, seed=seed)
    result.candidates = sorted(result.candidates, key=lambda c: c.expected_distance)[:k]
    return result
