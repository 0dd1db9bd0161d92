"""Tests for the vectorized sample-reuse refinement engine.

The load-bearing contract: every value the engine produces — scalar,
batched, cached, parallel — is **bit-identical** (``==``, never
``approx``) to the per-pair :class:`AppearanceEstimator` with the same
``(n_samples, seed)``, across every pdf family and both region shapes.
Everything else (cache accounting, executor parallelism, phase clocks) is
layered on top of that guarantee.
"""

from __future__ import annotations

import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import ProbRangeQuery
from repro.core.utree import UTree
from repro.exec import BatchExecutor, RefinementEngine, execute_query
from repro.exec.executor import QueryExecutor
from repro.geometry.rect import Rect
from repro.storage.shm import SharedArena
from repro.uncertainty.montecarlo import (
    MMAP_FLOOR_BYTES,
    AppearanceEstimator,
    SampleCache,
    draw_samples,
    mask_reduce,
)
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import (
    ConstrainedGaussianDensity,
    MixtureDensity,
    RadialExponentialDensity,
    UniformDensity,
    zipf_histogram,
)
from repro.uncertainty.regions import BallRegion, BoxRegion

N_SAMPLES = 1500
SEED = 17


def _box(center, half):
    return BoxRegion(Rect.from_center(np.asarray(center, dtype=float), half))


def _pdf_zoo() -> list[UncertainObject]:
    """One object per pdf family, over both region shapes."""
    rng = np.random.default_rng(5)
    objs = []
    oid = 0
    for _ in range(3):
        c = rng.uniform(2000, 8000, 2)
        objs.append(UncertainObject(oid, UniformDensity(BallRegion(c, 260.0))))
        oid += 1
        c = rng.uniform(2000, 8000, 2)
        objs.append(UncertainObject(oid, UniformDensity(_box(c, 240.0))))
        oid += 1
        c = rng.uniform(2000, 8000, 2)
        objs.append(
            UncertainObject(
                oid, ConstrainedGaussianDensity(BallRegion(c, 260.0), sigma=120.0)
            )
        )
        oid += 1
        c = rng.uniform(2000, 8000, 2)
        objs.append(
            UncertainObject(
                oid, ConstrainedGaussianDensity(_box(c, 240.0), sigma=110.0)
            )
        )
        oid += 1
        c = rng.uniform(2000, 8000, 2)
        objs.append(
            UncertainObject(oid, zipf_histogram(_box(c, 250.0), 8, skew=1.1, seed=oid))
        )
        oid += 1
        c = rng.uniform(2000, 8000, 2)
        region = _box(c, 230.0)
        objs.append(
            UncertainObject(
                oid,
                MixtureDensity(
                    [
                        UniformDensity(region),
                        ConstrainedGaussianDensity(region, sigma=90.0),
                    ],
                    weights=[0.4, 0.6],
                ),
            )
        )
        oid += 1
    return objs


def _query_rects(objs) -> list[Rect]:
    """Partial overlaps, full containments and disjoint rectangles."""
    rng = np.random.default_rng(23)
    rects = []
    for obj in objs:
        centre = obj.mbr.center
        # partial overlap: offset query straddling the region boundary
        offset = rng.uniform(-1.0, 1.0, size=2) * 300.0
        rects.append(Rect.from_center(centre + offset, rng.uniform(150.0, 500.0)))
    # containment (covers everything) and far-away disjoint
    rects.append(Rect([0.0, 0.0], [10_000.0, 10_000.0]))
    rects.append(Rect([90_000.0, 90_000.0], [91_000.0, 91_000.0]))
    return rects


@pytest.fixture(scope="module")
def zoo():
    return _pdf_zoo()


@pytest.fixture(scope="module")
def rects(zoo):
    return _query_rects(zoo)


class TestBitIdentity:
    """Engine output == estimator output, across every pdf family."""

    def test_scalar_estimates_bit_identical(self, zoo, rects):
        estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        engine = RefinementEngine(n_samples=N_SAMPLES, seed=SEED)
        for obj in zoo:
            for rect in rects:
                expected = estimator.estimate(obj.pdf, rect, object_id=obj.oid)
                assert engine.estimate(obj, rect) == expected

    def test_batch_estimates_bit_identical(self, zoo, rects):
        estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        engine = RefinementEngine(n_samples=N_SAMPLES, seed=SEED)
        pairs = [(obj, rect) for obj in zoo for rect in rects]
        batched = engine.estimate_batch(pairs)
        expected = [
            estimator.estimate(obj.pdf, rect, object_id=obj.oid)
            for obj, rect in pairs
        ]
        assert batched == expected

    def test_batch_spans_chunk_boundary(self, zoo):
        """Hundreds of rectangles over one cloud, each reduced on its own
        column pass, still match the scalar estimator exactly."""
        obj = zoo[0]
        rng = np.random.default_rng(41)
        centre = obj.mbr.center
        rects = [
            Rect.from_center(centre + rng.uniform(-300, 300, 2), 200.0)
            for _ in range(300)
        ]
        estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        engine = RefinementEngine(n_samples=N_SAMPLES, seed=SEED)
        batched = engine.estimate_batch([(obj, r) for r in rects])
        expected = [estimator.estimate(obj.pdf, r, object_id=obj.oid) for r in rects]
        assert batched == expected

    def test_cached_estimator_bit_identical(self, zoo, rects):
        plain = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        cached = AppearanceEstimator(
            n_samples=N_SAMPLES,
            seed=SEED,
            cache=SampleCache(N_SAMPLES, SEED, capacity=64),
        )
        for obj in zoo:
            for rect in rects:
                assert cached.estimate(obj.pdf, rect, object_id=obj.oid) == (
                    plain.estimate(obj.pdf, rect, object_id=obj.oid)
                )


class TestSampleCache:
    def test_draw_once_then_hit(self, zoo):
        cache = SampleCache(N_SAMPLES, SEED, capacity=8)
        obj = zoo[0]
        first = cache.get(obj.pdf, obj.oid)
        second = cache.get(obj.pdf, obj.oid)
        assert first is second
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.draws == 1

    def test_lru_bound_and_eviction(self, zoo):
        cache = SampleCache(N_SAMPLES, SEED, capacity=2)
        a, b, c = zoo[0], zoo[1], zoo[2]
        cache.get(a.pdf, a.oid)
        cache.get(b.pdf, b.oid)
        cache.get(c.pdf, c.oid)  # evicts a
        assert len(cache) == 2
        assert cache.evictions == 1
        assert a.oid not in cache
        assert b.oid in cache and c.oid in cache
        cache.get(a.pdf, a.oid)  # re-draw counts another miss
        assert cache.misses == 4

    def test_capacity_zero_never_retains(self, zoo):
        cache = SampleCache(N_SAMPLES, SEED, capacity=0)
        obj = zoo[0]
        cache.get(obj.pdf, obj.oid)
        cache.get(obj.pdf, obj.oid)
        assert len(cache) == 0
        assert cache.misses == 2 and cache.hits == 0

    def test_mismatched_estimator_config_rejected(self):
        cache = SampleCache(1000, 3)
        with pytest.raises(ValueError):
            AppearanceEstimator(n_samples=2000, seed=3, cache=cache)
        with pytest.raises(ValueError):
            AppearanceEstimator(n_samples=1000, seed=4, cache=cache)
        AppearanceEstimator(n_samples=1000, seed=3, cache=cache)  # matching: fine

    def test_engine_shares_estimator_cache(self):
        cache = SampleCache(1000, 3)
        estimator = AppearanceEstimator(n_samples=1000, seed=3, cache=cache)
        engine = RefinementEngine.from_estimator(estimator)
        assert engine.cache is cache

    def test_one_shared_engine_per_estimator(self):
        estimator = AppearanceEstimator(n_samples=1000, seed=3)
        a = RefinementEngine.from_estimator(estimator)
        b = RefinementEngine.from_estimator(estimator)
        assert a is b  # executors over one method share one sample cache
        # Direct construction stays isolated.
        assert RefinementEngine(1000, 3) is not a

    def test_byte_budget_evicts_lru(self, zoo):
        # zoo[0] and zoo[1] are uniform clouds (columns only), zoo[2] a
        # constrained-Gaussian one (columns plus its weight row).
        sizes = [
            SampleCache(N_SAMPLES, SEED, capacity=8).get(obj.pdf, obj.oid).nbytes
            for obj in zoo[:3]
        ]
        assert sizes == [8 * N_SAMPLES * 2] * 2 + [8 * N_SAMPLES * 3]
        # Budget for the last two clouds: the third get evicts the oldest.
        cache = SampleCache(
            N_SAMPLES, SEED, capacity=8, max_bytes=sizes[1] + sizes[2]
        )
        for obj in zoo[:3]:
            cache.get(obj.pdf, obj.oid)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.resident_bytes == sizes[1] + sizes[2]
        assert zoo[0].oid not in cache

    def test_byte_budget_always_keeps_one_entry(self, zoo):
        cache = SampleCache(N_SAMPLES, SEED, capacity=8, max_bytes=1)
        cache.get(zoo[0].pdf, zoo[0].oid)
        assert len(cache) == 1  # a too-small budget still caches one

    def test_reused_oid_with_new_object_redraws(self):
        # Object ids are reusable (delete + re-insert): a hit must be
        # served only for the exact density the cloud was drawn from.
        cache = SampleCache(N_SAMPLES, SEED, capacity=8)
        old = UncertainObject(1, UniformDensity(BallRegion([1000.0, 1000.0], 200.0)))
        new = UncertainObject(1, UniformDensity(BallRegion([5000.0, 5000.0], 300.0)))
        stale = cache.get(old.pdf, 1)
        fresh = cache.get(new.pdf, 1)
        assert fresh is not stale
        assert cache.misses == 2  # the stale entry did not serve a hit
        assert not np.array_equal(fresh.points, stale.points)

    def test_batch_with_two_generations_of_one_oid(self):
        # Both generations in the same batch: each pair must be masked
        # against its own object's cloud, not the first-seen one's.
        old = UncertainObject(1, UniformDensity(BallRegion([1000.0, 1000.0], 200.0)))
        new = UncertainObject(1, UniformDensity(BallRegion([5000.0, 5000.0], 300.0)))
        rect_old = Rect.from_center([1050.0, 1050.0], 150.0)
        rect_new = Rect.from_center([5050.0, 5050.0], 200.0)
        engine = RefinementEngine(N_SAMPLES, SEED)
        values = engine.estimate_batch([(old, rect_old), (new, rect_new)])
        reference = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        assert values == [
            reference.estimate(old.pdf, rect_old, object_id=1),
            reference.estimate(new.pdf, rect_new, object_id=1),
        ]

    def test_invalidate_drops_entry(self, zoo):
        cache = SampleCache(N_SAMPLES, SEED, capacity=8)
        obj = zoo[0]
        cache.get(obj.pdf, obj.oid)
        assert obj.oid in cache
        cache.invalidate(obj.oid)
        assert obj.oid not in cache
        assert cache.resident_bytes == 0
        cache.invalidate(999_999)  # absent: no-op

    def test_batch_memo_not_stale_after_delete_reinsert(self):
        # The memo is keyed by disk address (append-only, never reused),
        # so replacing an object under the same oid cannot serve the old
        # object's memoised probability on the next run.
        tree = _tree(60)
        query = _workload(1, qs=2000.0)[0]
        executor = BatchExecutor(tree)
        executor.run([query])  # warms the memo with the old objects
        assert tree.delete(0) is not None
        replacement = UncertainObject(
            0, UniformDensity(BallRegion(query.rect.center, 220.0))
        )
        tree.insert(replacement)
        answer = executor.run([query]).answers[0]
        reference = AppearanceEstimator(n_samples=2000, seed=1)
        expected = reference.estimate(replacement.pdf, query.rect, object_id=0)
        assert (0 in answer.object_ids) == (expected >= query.threshold)

    def test_warm_memo_skips_page_fetches(self):
        tree = _tree(80)
        workload = _workload(6)
        executor = BatchExecutor(tree)
        first = executor.run(workload)
        assert first.batch.data_page_fetches > 0
        second = executor.run(workload)  # fully memoised replay
        assert second.batch.prob_computations == 0
        assert second.batch.data_page_fetches == 0  # no payloads needed
        # Logical accounting is unchanged by the skipped fetches.
        for a, b in zip(first.workload.queries, second.workload.queries):
            assert a.data_page_reads == b.data_page_reads

    def test_delete_reinsert_same_oid_answers_stay_correct(self):
        # End to end through the shared engine: replace object 0 with a
        # different object under the same oid; the next query must price
        # the new object, not replay the old cloud.
        tree = _tree(60)
        query = _workload(1, qs=2000.0)[0]
        tree.query(query)  # warms the shared engine's cache
        assert tree.delete(0) is not None
        replacement = UncertainObject(
            0, UniformDensity(BallRegion(query.rect.center, 220.0))
        )
        tree.insert(replacement)
        answer = tree.query(query)
        reference = AppearanceEstimator(n_samples=2000, seed=1)
        expected = reference.estimate(replacement.pdf, query.rect, object_id=0)
        assert (0 in answer.object_ids) == (expected >= query.threshold)


class TestEstimatorTiming:
    def test_short_circuits_are_untimed(self, zoo):
        obj = zoo[0]
        estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        containing = Rect([0.0, 0.0], [10_000.0, 10_000.0])
        disjoint = Rect([90_000.0, 90_000.0], [91_000.0, 91_000.0])
        assert estimator.estimate(obj.pdf, containing, object_id=obj.oid) == 1.0
        assert estimator.estimate(obj.pdf, disjoint, object_id=obj.oid) == 0.0
        assert estimator.evaluations == 2
        assert estimator.elapsed_seconds == 0.0  # no Monte-Carlo work charged

    def test_real_work_is_timed(self, zoo):
        obj = zoo[0]
        estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        partial = Rect.from_center(obj.mbr.center + 100.0, 200.0)
        estimator.estimate(obj.pdf, partial, object_id=obj.oid)
        assert estimator.elapsed_seconds > 0.0


def _tree(n: int = 140):
    rng = np.random.default_rng(9)
    centres = rng.uniform(0, 10_000, (n, 2))
    tree = UTree(2, estimator=AppearanceEstimator(n_samples=2000, seed=1))
    for i in range(n):
        tree.insert(UncertainObject(i, UniformDensity(BallRegion(centres[i], 250.0))))
    return tree


def _workload(n: int, qs: float = 1500.0, pq: float = 0.5, seed: int = 31):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(1000, 9000, (n, 2))
    return [ProbRangeQuery(Rect.from_center(c, qs / 2.0), pq) for c in centres]


class TestExecutorEngineIntegration:
    def test_workload_sample_cache_reuse(self):
        tree = _tree()
        workload = _workload(6) * 2  # repeats guarantee candidate reuse
        stats = QueryExecutor(tree).run(workload)
        # Same objects recur across overlapping queries: the shared
        # engine must serve some estimates from cached clouds.
        assert stats.total_sample_cache_misses > 0
        assert stats.total_sample_cache_hits > 0
        # Cache traffic never exceeds P_app computations (short-circuited
        # pairs skip the cache entirely).
        total_probs = sum(q.prob_computations for q in stats.queries)
        assert (
            stats.total_sample_cache_hits + stats.total_sample_cache_misses
            <= total_probs
        )

    def test_phase_clocks_populated(self):
        tree = _tree()
        answer = execute_query(tree, _workload(1)[0])
        s = answer.stats
        assert s.filter_seconds > 0.0
        assert s.refine_seconds >= 0.0
        assert s.wall_seconds >= s.filter_seconds + s.fetch_seconds + s.refine_seconds - 1e-6


class TestParallelBatchExecutor:
    def test_parallelism_one_matches_per_query_counters_exactly(self):
        # The independent reference is the sequential single-query
        # executor: with memoisation and page dedup disabled, a
        # parallelism=1 batch must reproduce its QueryStats field by
        # field (the ISSUE acceptance criterion).
        tree = _tree()
        workload = _workload(8)
        reference = [execute_query(tree, q) for q in workload]
        batch = BatchExecutor(
            tree, parallelism=1, memoize=False, dedupe_pages=False
        ).run(workload)
        for ref, bat in zip(reference, batch.workload.queries):
            assert bat.node_accesses == ref.stats.node_accesses
            assert bat.data_page_reads == ref.stats.data_page_reads
            assert bat.prob_computations == ref.stats.prob_computations
            assert bat.memoized_probs == ref.stats.memoized_probs == 0
            assert bat.validated_directly == ref.stats.validated_directly
            assert bat.pruned == ref.stats.pruned
            assert bat.result_count == ref.stats.result_count
            assert bat.physical_reads == ref.stats.physical_reads

    def test_parallelism_one_memo_conserves_computations(self):
        # With the memo on, every P_app is either computed or served from
        # the memo; the two must sum to the memo-less computation count.
        tree = _tree()
        workload = _workload(6) * 2
        plain = BatchExecutor(tree, parallelism=1, memoize=False).run(workload)
        memoed = BatchExecutor(tree, parallelism=1).run(workload)
        for p, m in zip(plain.workload.queries, memoed.workload.queries):
            assert m.prob_computations + m.memoized_probs == p.prob_computations
        assert memoed.batch.memo_hits > 0

    def test_parallel_answers_identical_to_sequential(self):
        tree = _tree()
        workload = _workload(10)
        expected = [execute_query(tree, q).object_ids for q in workload]
        for parallelism in (2, 4):
            result = BatchExecutor(tree, parallelism=parallelism).run(workload)
            assert [a.object_ids for a in result.answers] == expected
            assert result.batch.parallelism == parallelism

    def test_parallel_logical_io_preserved(self):
        tree = _tree()
        workload = _workload(8)
        serial = BatchExecutor(tree, parallelism=1).run(workload)
        parallel = BatchExecutor(tree, parallelism=3).run(workload)
        for s, p in zip(serial.workload.queries, parallel.workload.queries):
            assert s.node_accesses == p.node_accesses
            assert s.data_page_reads == p.data_page_reads
        assert (
            serial.batch.logical_data_page_reads
            == parallel.batch.logical_data_page_reads
        )
        assert serial.batch.unique_data_pages == parallel.batch.unique_data_pages

    def test_parallel_with_simulated_latency_and_no_dedupe(self):
        tree = _tree(60)
        workload = _workload(5)
        expected = [execute_query(tree, q).object_ids for q in workload]
        result = BatchExecutor(
            tree,
            parallelism=3,
            dedupe_pages=False,
            io_latency_seconds=0.001,
        ).run(workload)
        assert [a.object_ids for a in result.answers] == expected
        assert result.batch.fetch_seconds > 0.0
        assert result.batch.data_page_fetches == result.batch.logical_data_page_reads

    def test_invalid_parallelism_rejected(self):
        tree = _tree(20)
        with pytest.raises(ValueError):
            BatchExecutor(tree, parallelism=0)
        with pytest.raises(ValueError):
            BatchExecutor(tree, io_latency_seconds=-1.0)

    def test_batch_sample_cache_accounting(self):
        tree = _tree()
        workload = _workload(8)
        executor = BatchExecutor(tree, memoize=False)
        first = executor.run(workload)
        assert first.batch.sample_cache_misses > 0
        # The engine persists across runs: a replay draws nothing new.
        second = executor.run(workload)
        assert second.batch.sample_cache_misses == 0
        assert second.batch.sample_cache_hits > 0
        assert second.batch.sample_cache_hit_rate == 1.0


class TestColumnLayout:
    """Clouds are stored column-major: one contiguous ``(d, n1)`` buffer."""

    @staticmethod
    def _assert_layout(samples, n_samples: int, dim: int, pdf) -> None:
        assert samples.columns.shape == (dim, n_samples)
        for column in samples.columns:
            assert column.flags["C_CONTIGUOUS"]
        assert samples.points.shape == (n_samples, dim)
        assert np.shares_memory(samples.points, samples.columns[0])
        # points is a view of the column buffer, never a second copy; a
        # uniform cloud owns no weight row, any other owns one of n1.
        constant = isinstance(pdf, UniformDensity)
        assert samples.constant_weight == constant
        weight_bytes = 0 if constant else 8 * n_samples
        assert samples.nbytes == 8 * n_samples * dim + weight_bytes

    def test_layout_before_and_after_rebind(self, zoo):
        cache = SampleCache(N_SAMPLES, SEED)
        cache.prewarm((obj.pdf, obj.oid) for obj in zoo)
        before = {obj.oid: cache.get(obj.pdf, obj.oid) for obj in zoo}
        for obj in zoo:
            self._assert_layout(before[obj.oid], N_SAMPLES, 2, obj.pdf)
        resident = cache.resident_bytes
        arena = SharedArena()
        try:
            assert cache.rebind_resident(arena.share_array) == len(zoo)
            for obj in zoo:
                after = cache.get(obj.pdf, obj.oid)
                self._assert_layout(after, N_SAMPLES, 2, obj.pdf)
                assert after.nbytes == before[obj.oid].nbytes
                assert np.array_equal(after.columns, before[obj.oid].columns)
            assert cache.resident_bytes == resident
        finally:
            arena.close()

    def test_uncached_draw_shares_the_layout(self, zoo):
        estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        cache = SampleCache(N_SAMPLES, SEED)
        for obj in zoo:
            drawn = estimator.samples_for(obj.pdf, obj.oid)
            self._assert_layout(drawn, N_SAMPLES, 2, obj.pdf)
            cached = cache.get(obj.pdf, obj.oid)
            assert np.array_equal(drawn.columns, cached.columns)
            assert drawn.total == cached.total


# P_app on one partial-overlap rectangle per pdf family, recorded with
# the row-major (n1, d) mask that preceded the column layout: the layout
# must not move a single bit.
_PINNED_PAPP = [
    0.5153333333333334,  # uniform, ball
    0.4853333333333334,  # uniform, box
    0.6623105375411501,  # constrained Gaussian, ball
    0.6810510141812459,  # constrained Gaussian, box
    0.385842573833483,  # Zipf histogram, box
    0.6404026628882257,  # uniform + Gaussian mixture, box
    0.6684794315255458,  # radial exponential, ball
]


class TestPinnedEstimates:
    def test_engine_and_estimator_equal_recorded_values(self, zoo):
        objects = zoo[:6] + [
            UncertainObject(
                99,
                RadialExponentialDensity(
                    BallRegion([5000.0, 5000.0], 260.0), scale=100.0
                ),
            )
        ]
        estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        engine = RefinementEngine(n_samples=N_SAMPLES, seed=SEED)
        for obj, pinned in zip(objects, _PINNED_PAPP, strict=True):
            rect = Rect.from_center(obj.mbr.center + np.array([120.0, -80.0]), 200.0)
            assert engine.estimate(obj, rect) == pinned
            assert estimator.estimate(obj.pdf, rect, object_id=obj.oid) == pinned
            assert engine.estimate_batch([(obj, rect), (obj, rect)]) == [pinned] * 2

    def test_three_dimensional_cloud(self):
        obj = UncertainObject(
            7,
            ConstrainedGaussianDensity(
                BallRegion([5000.0, 5000.0, 5000.0], 260.0), sigma=120.0
            ),
        )
        rect = Rect.from_center([5120.0, 4920.0, 5050.0], 200.0)
        estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        engine = RefinementEngine(n_samples=N_SAMPLES, seed=SEED)
        pinned = 0.6405798255469509
        assert estimator.estimate(obj.pdf, rect, object_id=obj.oid) == pinned
        assert engine.estimate(obj, rect) == pinned
        assert engine.cache.get(obj.pdf, obj.oid).columns.shape == (3, N_SAMPLES)


def _backing(array: np.ndarray):
    """The object that owns ``array``'s memory (an ndarray or an mmap)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    owner = array.base if array.base is not None else array
    return owner.obj if isinstance(owner, memoryview) else owner


# P_app of the zoo's first six objects for 10,000-sample clouds (above
# the mapping floor), recorded while clouds were still malloc'd arrays:
# moving them into anonymous mappings must not move a single bit.
_PINNED_MAPPED_PAPP = [
    0.5298,
    0.49039999999999995,
    0.6577582075101681,
    0.6777111519301301,
    0.40231960675115436,
    0.6565878925488611,
]


class TestCloudPlacement:
    """Clouds of 64 KiB or more live in one anonymous mapping each."""

    @pytest.mark.parametrize("n_samples", [N_SAMPLES, 10_000])
    def test_one_buffer_above_and_below_the_floor(self, zoo, n_samples):
        obj = zoo[2]
        samples = draw_samples(obj.pdf, n_samples, SEED, obj.oid)
        columns, weights = samples.columns, samples.weights
        assert columns.shape == (2, n_samples)
        assert columns.flags["C_CONTIGUOUS"]
        assert weights.flags["C_CONTIGUOUS"]
        # weights is the row right after the columns in the same buffer.
        assert _backing(weights) is _backing(columns)
        assert (
            weights.__array_interface__["data"][0]
            == columns.__array_interface__["data"][0] + columns.nbytes
        )
        assert samples.nbytes == 8 * 3 * n_samples
        mapped = isinstance(_backing(columns), mmap.mmap)
        assert mapped == (samples.nbytes >= MMAP_FLOOR_BYTES)
        assert mapped == (n_samples == 10_000)

    def test_mapped_clouds_keep_every_estimate(self, zoo):
        estimator = AppearanceEstimator(n_samples=10_000, seed=SEED)
        engine = RefinementEngine(n_samples=10_000, seed=SEED)
        for obj, pinned in zip(zoo[:6], _PINNED_MAPPED_PAPP, strict=True):
            rect = Rect.from_center(obj.mbr.center + np.array([120.0, -80.0]), 200.0)
            assert estimator.estimate(obj.pdf, rect, object_id=obj.oid) == pinned
            assert engine.estimate(obj, rect) == pinned

    def test_rebind_resident_moves_mapped_clouds(self, zoo, rects):
        cache = SampleCache(10_000, SEED)
        estimator = AppearanceEstimator(n_samples=10_000, seed=SEED, cache=cache)
        cache.prewarm((obj.pdf, obj.oid) for obj in zoo)
        baseline = [
            estimator.estimate(obj.pdf, rect, object_id=obj.oid)
            for obj in zoo
            for rect in rects
        ]
        resident = cache.resident_bytes
        arena = SharedArena()
        try:
            assert cache.rebind_resident(arena.share_array) == len(zoo)
            assert cache.resident_bytes == resident
            rebound = [
                estimator.estimate(obj.pdf, rect, object_id=obj.oid)
                for obj in zoo
                for rect in rects
            ]
        finally:
            arena.close()
        assert rebound == baseline

    def test_process_executor_prewarms_mapped_clouds(self, zoo, rects):
        from repro.exec import ProcessBatchExecutor

        def build():
            tree = UTree(2, estimator=AppearanceEstimator(n_samples=4000, seed=SEED))
            for obj in zoo:
                tree.insert(obj)
            return tree

        queries = [ProbRangeQuery(rect, 0.3) for rect in rects]
        serial = BatchExecutor(build()).run(queries)
        with ProcessBatchExecutor(build(), workers=2, share_samples=True) as ex:
            forked = ex.run(queries)
        assert [a.object_ids for a in forked.answers] == [
            a.object_ids for a in serial.answers
        ]
        assert forked.batch.sample_cache_misses == 0


def _masked_share(samples, rect: Rect) -> float:
    """Eq. 3 the plain way: boolean-index the row-major mask, then sum."""
    inside = rect.contains_points(samples.points)
    return float(samples.weights[inside].sum()) / samples.total


def _cloud_density(dim: int, kind: str):
    centre = np.full(dim, 5000.0)
    if kind == "ball":
        return ConstrainedGaussianDensity(BallRegion(centre, 260.0), sigma=120.0)
    box = BoxRegion(Rect.from_center(centre, 240.0))
    return zipf_histogram(box, 6, skew=1.1, seed=dim)


@st.composite
def _cloud_rects(draw):
    """A 1-, 2- or 3-D cloud and a rectangle from :func:`_rect_on_cloud`."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["ball", "box"]))
    oid = draw(st.integers(0, 3))
    samples = draw_samples(_cloud_density(dim, kind), 400, SEED, oid)
    return samples, _rect_on_cloud(draw, samples.columns)


def _rect_on_cloud(draw, columns: np.ndarray) -> Rect:
    """A rectangle whose faces sit on the cloud's bounds, on sample
    coordinates or one ulp off them, or away from the cloud."""
    dim = columns.shape[0]
    low = columns.min(axis=1)
    high = columns.max(axis=1)
    shape = draw(
        st.sampled_from(["faces", "inside", "outside", "one-face", "degenerate"])
    )

    def face(axis: int, side: str) -> float:
        choice = draw(
            st.sampled_from(["bound", "sample", "sample-ulp", "beyond", "between"])
        )
        if choice == "bound":
            return float(low[axis] if side == "lo" else high[axis])
        if choice in ("sample", "sample-ulp"):
            value = columns[axis, draw(st.integers(0, columns.shape[1] - 1))]
            if choice == "sample-ulp":
                value = np.nextafter(value, draw(st.sampled_from([-np.inf, np.inf])))
            return float(value)
        if choice == "beyond":
            return float(low[axis] - 50.0 if side == "lo" else high[axis] + 50.0)
        return float(draw(st.floats(float(low[axis]), float(high[axis]))))

    lo = np.empty(dim)
    hi = np.empty(dim)
    for axis in range(dim):
        if shape == "faces":
            a, b = sorted((face(axis, "lo"), face(axis, "hi")))
        elif shape == "inside":
            a = float(low[axis]) - draw(st.sampled_from([0.0, 1.0]))
            b = float(high[axis]) + draw(st.sampled_from([0.0, 1.0]))
        else:
            a, b = float(low[axis]) - 1.0, float(high[axis]) + 1.0
        lo[axis], hi[axis] = a, b
    axis = draw(st.integers(0, dim - 1))
    if shape == "outside":
        # Misses the cloud on one axis by one ulp, or touches only its
        # extreme sample there.
        step = draw(st.sampled_from([0, 1]))
        if draw(st.booleans()):
            lo[axis] = high[axis]
            for _ in range(step):
                lo[axis] = np.nextafter(lo[axis], np.inf)
            hi[axis] = lo[axis] + 10.0
        else:
            hi[axis] = low[axis]
            for _ in range(step):
                hi[axis] = np.nextafter(hi[axis], -np.inf)
            lo[axis] = hi[axis] - 10.0
    elif shape == "one-face":
        cut = float(columns[axis, draw(st.integers(0, columns.shape[1] - 1))])
        if draw(st.booleans()):
            lo[axis] = cut
        else:
            hi[axis] = cut
    elif shape == "degenerate":
        point = columns[:, draw(st.integers(0, columns.shape[1] - 1))]
        lo[axis] = hi[axis] = point[axis]
        if draw(st.booleans()):
            lo[:] = hi[:] = point
    return Rect(lo, hi)


class TestMaskReduceExact:
    """The face-skipping, compressing reduction equals the plain
    boolean-indexed sum under ``==``, whatever the rectangle."""

    @given(_cloud_rects())
    @settings(max_examples=400, deadline=None)
    def test_equals_boolean_indexed_sum(self, case):
        samples, rect = case
        assert mask_reduce(samples, rect) == _masked_share(samples, rect)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bounds_are_the_cloud_extremes(self, dim):
        samples = draw_samples(_cloud_density(dim, "ball"), 400, SEED, 1)
        assert samples.low == tuple(samples.columns.min(axis=1).tolist())
        assert samples.high == tuple(samples.columns.max(axis=1).tolist())
        assert all(type(v) is float for v in samples.low + samples.high)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_no_crossing_face_is_exactly_one(self, dim):
        samples = draw_samples(_cloud_density(dim, "box"), 400, SEED, 2)
        rect = Rect(samples.low, samples.high)
        assert mask_reduce(samples, rect) == 1.0 == _masked_share(samples, rect)

    def test_rebound_clouds_keep_bounds_and_values(self, zoo, rects):
        cache = SampleCache(N_SAMPLES, SEED)
        cache.prewarm((obj.pdf, obj.oid) for obj in zoo)
        before = {obj.oid: cache.get(obj.pdf, obj.oid) for obj in zoo}
        arena = SharedArena()
        try:
            cache.rebind_resident(arena.share_array)
            for obj in zoo:
                after = cache.get(obj.pdf, obj.oid)
                assert after is not before[obj.oid]
                assert (after.low, after.high) == (
                    before[obj.oid].low,
                    before[obj.oid].high,
                )
                for rect in rects:
                    assert mask_reduce(after, rect) == _masked_share(
                        before[obj.oid], rect
                    )
        finally:
            arena.close()

    def test_process_executor_prewarm_keeps_bounds(self, zoo, rects):
        from repro.exec import ProcessBatchExecutor

        tree = UTree(2, estimator=AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED))
        for obj in zoo:
            tree.insert(obj)
        with ProcessBatchExecutor(tree, workers=2, share_samples=True) as ex:
            ex.run([ProbRangeQuery(rects[0], 0.3)])
            cache = ex.engine.cache
            for obj in zoo:
                shared = cache.get(obj.pdf, obj.oid)
                fresh = draw_samples(obj.pdf, N_SAMPLES, SEED, obj.oid)
                assert (shared.low, shared.high) == (fresh.low, fresh.high)
                for rect in rects:
                    assert mask_reduce(shared, rect) == _masked_share(fresh, rect)


_WEIGHTED_KINDS = ("uniform-ball", "uniform-box", "mixture", "histogram")


def _weighted_density(dim: int, kind: str):
    """Constant-weight (uniform) and varying-weight densities in ``dim``-D."""
    centre = np.full(dim, 5000.0)
    box = BoxRegion(Rect.from_center(centre, 240.0))
    if kind == "uniform-ball":
        return UniformDensity(BallRegion(centre, 260.0))
    if kind == "uniform-box":
        return UniformDensity(box)
    if kind == "mixture":
        return MixtureDensity(
            [UniformDensity(box), ConstrainedGaussianDensity(box, sigma=90.0)],
            weights=[0.4, 0.6],
        )
    return zipf_histogram(box, 6, skew=1.1, seed=dim)


@pytest.fixture(scope="module")
def weighted_clouds():
    """``{(dim, kind, oid): (drawn, rebound)}``: each cloud as drawn and
    as a SampleCache serves it after ``rebind_resident``."""
    keys = [
        (dim, kind, oid)
        for dim in (1, 2, 3)
        for kind in _WEIGHTED_KINDS
        for oid in range(2)
    ]
    densities = {key: _weighted_density(key[0], key[1]) for key in keys}
    cache = SampleCache(400, SEED)
    for index, key in enumerate(keys):
        cache.get(densities[key], index)
    arena = SharedArena()
    cache.rebind_resident(arena.share_array)
    clouds = {
        key: (
            draw_samples(densities[key], 400, SEED, index),
            cache.get(densities[key], index),
        )
        for index, key in enumerate(keys)
    }
    yield clouds
    arena.close()


@pytest.fixture(scope="module")
def prewarmed_clouds():
    """2-D clouds as the process executor's ``share_samples`` prewarm
    leaves them, with the executor (and its forked workers) live."""
    objects = [
        UncertainObject(index, _weighted_density(2, kind))
        for index, kind in enumerate(_WEIGHTED_KINDS)
    ]
    tree = UTree(2, estimator=AppearanceEstimator(n_samples=400, seed=SEED))
    for obj in objects:
        tree.insert(obj)
    from repro.exec import ProcessBatchExecutor

    with ProcessBatchExecutor(tree, workers=2, share_samples=True) as ex:
        ex.run([ProbRangeQuery(objects[0].mbr, 0.3)])
        cache = ex.engine.cache
        yield {
            obj.oid: (
                draw_samples(obj.pdf, 400, SEED, obj.oid),
                cache.get(obj.pdf, obj.oid),
            )
            for obj in objects
        }


def _full_weight_share(samples, rect: Rect) -> float:
    """Eq. 3 over a materialised, contiguous copy of the weight row: the
    row a cloud stored before constant-weight clouds dropped theirs."""
    weights = np.array(samples.weights)
    inside = rect.contains_points(samples.points)
    return float(weights[inside].sum()) / samples.total


class TestConstantWeightClouds:
    """Uniform clouds keep no weight row; every other cloud keeps its
    row.  Either way P_app is unchanged."""

    @pytest.mark.parametrize("kind", _WEIGHTED_KINDS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_only_uniform_clouds_drop_the_weight_row(self, dim, kind):
        samples = draw_samples(_weighted_density(dim, kind), 400, SEED, 0)
        constant = kind.startswith("uniform")
        assert samples.constant_weight == constant
        assert samples.total == float(np.array(samples.weights).sum())
        if constant:
            assert samples.weights.strides == (0,)
            assert not samples.weights.flags.writeable
            assert not np.shares_memory(samples.weights, samples.columns)
            assert samples.nbytes == 8 * 400 * dim
        else:
            assert samples.nbytes == 8 * 400 * (dim + 1)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_reduce_equals_full_weight_sum(self, weighted_clouds, data):
        key = data.draw(st.sampled_from(sorted(weighted_clouds)))
        drawn, rebound = weighted_clouds[key]
        rect = _rect_on_cloud(data.draw, drawn.columns)
        expected = _full_weight_share(drawn, rect)
        assert mask_reduce(drawn, rect) == expected
        assert mask_reduce(rebound, rect) == expected

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_reduce_after_process_prewarm(self, prewarmed_clouds, data):
        oid = data.draw(st.sampled_from(sorted(prewarmed_clouds)))
        drawn, shared = prewarmed_clouds[oid]
        assert shared.constant_weight == drawn.constant_weight
        rect = _rect_on_cloud(data.draw, drawn.columns)
        expected = _full_weight_share(drawn, rect)
        assert mask_reduce(shared, rect) == expected

    @pytest.mark.parametrize("kind", ["uniform-ball", "uniform-box"])
    def test_reduce_exact_at_benchmark_cloud_size(self, kind):
        # 10,000 samples, as the benchmark draws, with up to 9,999 inside:
        # more than NumPy's 8,192-element iterator buffer, so a reduction
        # that NumPy chunked differently for a zero-stride operand would
        # show here.  Each rectangle crosses the cloud on one face only,
        # at the k-th smallest x, so exactly k samples are inside.
        n = 10_000
        density = _weighted_density(2, kind)
        drawn = draw_samples(density, n, SEED, 0)
        assert drawn.constant_weight
        xs = np.sort(drawn.columns[0])
        assert np.unique(xs).size == n
        rects = []
        for k in (8_000, 8_191, 8_192, 8_193, 9_999):
            hi = np.array(drawn.high)
            hi[0] = xs[k - 1]
            rect = Rect(np.array(drawn.low), hi)
            assert np.count_nonzero(rect.contains_points(drawn.points)) == k
            rects.append(rect)
        cache = SampleCache(n, SEED)
        cache.get(density, 0)
        arena = SharedArena()
        try:
            cache.rebind_resident(arena.share_array)
            rebound = cache.get(density, 0)
            assert rebound.constant_weight
            for rect in rects:
                expected = _full_weight_share(drawn, rect)
                assert _masked_share(drawn, rect) == expected
                assert mask_reduce(drawn, rect) == expected
                assert mask_reduce(rebound, rect) == expected
        finally:
            arena.close()

    def test_rebind_shares_only_the_columns(self, zoo):
        uniform = [obj for obj in zoo if isinstance(obj.pdf, UniformDensity)]
        assert len(uniform) == 6  # three balls, three boxes
        cache = SampleCache(10_000, SEED)
        cache.prewarm((obj.pdf, obj.oid) for obj in uniform)
        before = {obj.oid: cache.get(obj.pdf, obj.oid) for obj in uniform}
        arena = SharedArena()
        try:
            assert cache.rebind_resident(arena.share_array) == len(uniform)
            assert arena.arrays_shared == len(uniform)
            assert arena.bytes_shared == len(uniform) * 8 * 10_000 * 2
            for obj in uniform:
                after = cache.get(obj.pdf, obj.oid)
                assert after.weights is before[obj.oid].weights
                assert isinstance(_backing(after.columns), mmap.mmap)
        finally:
            arena.close()

    def test_resident_bytes_count_columns_of_constant_clouds(self):
        cache = SampleCache(N_SAMPLES, SEED)
        expected = 0
        for oid, (dim, kind) in enumerate(
            (dim, kind) for dim in (1, 2, 3) for kind in _WEIGHTED_KINDS
        ):
            cache.get(_weighted_density(dim, kind), oid)
            rows = dim if kind.startswith("uniform") else dim + 1
            expected += 8 * N_SAMPLES * rows
            assert cache.resident_bytes == expected
        for oid in range(len(cache)):
            cache.invalidate(oid)
        assert cache.resident_bytes == 0
