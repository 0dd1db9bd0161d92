"""Exactness suite for the process execution backend (repro.exec.mpexec).

The process backend's contract is stronger than the thread pool's: under
the paper-exact regime (no buffer pool, no sample prewarm) the merged
per-query ``QueryStats``, per-shard ``ShardStats`` and batch totals are
**equal** to the serial path's, not just the answers — page ownership
partitions the probability memo and the sample cache cleanly across
workers, and each worker mirrors the serial phase structure over its
slice.  The matrix below pins that across {utree, upcr, scan} x
{shards 1/4} x {spread/hot workload}, with the thread backend asserted
answers-identical alongside.

Also here: the shared-memory plumbing (`SharedArena`, kernel column
rebinding, sample-cloud rebinding), the `DataFileView` reader, the
tiny-batch serial fallback of the thread executor, the
``executor="process"`` config/explain/env surface, pool lifecycle
(close, context manager, re-fork after updates) and the save/open round
trip under the process backend.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.config import ExecConfig
from repro.api.database import Database
from repro.api.specs import RangeSpec
from repro.core.catalog import UCatalog
from repro.core.query import ProbRangeQuery
from repro.core.scan import SequentialScan
from repro.core.upcr import UPCRTree
from repro.core.utree import UTree
from repro.exec import (
    BatchExecutor,
    ProcessBatchExecutor,
    ShardedAccessMethod,
)
from repro.geometry.rect import Rect
from repro.storage.pager import DataFile, IOCounter
from repro.storage.shm import SharedArena
from repro.uncertainty.montecarlo import AppearanceEstimator, SampleCache
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import ConstrainedGaussianDensity, UniformDensity
from repro.uncertainty.regions import BallRegion

N_SAMPLES = 600
METHODS = ("utree", "upcr", "scan")
SHARD_COUNTS = (1, 4)
WORKLOADS = ("spread", "hot")

QUERY_FIELDS = (
    "node_accesses",
    "data_page_reads",
    "prob_computations",
    "memoized_probs",
    "validated_directly",
    "pruned",
    "result_count",
    "physical_reads",
    "cache_hits",
    "sample_cache_hits",
    "sample_cache_misses",
    "shard_probes",
    "shards_pruned",
)
SHARD_FIELDS = (
    "shard",
    "probes",
    "routed_away",
    "node_accesses",
    "validated",
    "candidates",
    "pruned",
    "physical_reads",
    "cache_hits",
)
BATCH_FIELDS = (
    "queries",
    "shards",
    "shard_probes",
    "shards_pruned",
    "unique_data_pages",
    "data_page_fetches",
    "logical_data_page_reads",
    "physical_reads",
    "physical_writes",
    "cache_hits",
    "prob_computations",
    "memo_hits",
    "sample_cache_hits",
    "sample_cache_misses",
)


def _objects(n: int = 80, seed: int = 17) -> list[UncertainObject]:
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        centre = rng.uniform(1000, 9000, 2)
        radius = float(rng.uniform(150, 400))
        if i % 2:
            pdf = UniformDensity(BallRegion(centre, radius), marginal_seed=i)
        else:
            pdf = ConstrainedGaussianDensity(
                BallRegion(centre, radius), sigma=radius / 2, marginal_seed=i
            )
        objects.append(UncertainObject(i, pdf))
    return objects


def _workload(n: int = 14, seed: int = 37) -> list[ProbRangeQuery]:
    rng = np.random.default_rng(seed)
    return [
        ProbRangeQuery(
            Rect.from_center(
                rng.uniform(1500, 8500, 2), float(rng.uniform(500, 1600))
            ),
            float(rng.choice([0.3, 0.5, 0.75])),
        )
        for _ in range(n)
    ]


def _hot_workload() -> list[ProbRangeQuery]:
    """Repeated rectangles, at equal and at different thresholds: every
    worker's memo and page-dedup counters must still sum to the serial
    run's."""
    base = _workload(6)
    return [
        *base,
        *base[::-2],
        *(ProbRangeQuery(q.rect, 0.9 if q.threshold < 0.9 else 0.4) for q in base[:3]),
    ]


def _build(method: str, shards: int):
    """A freshly built structure (own estimator) for one matrix cell."""
    objects = _objects()
    estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=1)
    catalog = (
        UCatalog.paper_upcr_default(2)
        if method == "upcr"
        else UCatalog.paper_utree_default()
    )
    if shards > 1:
        return ShardedAccessMethod.build(
            objects,
            shards=shards,
            method=method,
            dim=2,
            catalog=catalog,
            page_size=2048,
            estimator=estimator,
        )
    cls = {"utree": UTree, "upcr": UPCRTree, "scan": SequentialScan}[method]
    structure = cls(2, catalog, page_size=2048, estimator=estimator)
    for obj in objects:
        structure.insert(obj)
    return structure


def _assert_equal_runs(serial, process, *, shards: int) -> None:
    assert [a.object_ids for a in serial.answers] == [
        a.object_ids for a in process.answers
    ]
    for qidx, (s, p) in enumerate(
        zip(serial.workload.queries, process.workload.queries)
    ):
        for name in QUERY_FIELDS:
            assert getattr(s, name) == getattr(p, name), (
                f"query {qidx} field {name}: "
                f"serial={getattr(s, name)} process={getattr(p, name)}"
            )
    for name in BATCH_FIELDS:
        assert getattr(serial.batch, name) == getattr(process.batch, name), (
            f"batch field {name}: serial={getattr(serial.batch, name)} "
            f"process={getattr(process.batch, name)}"
        )
    assert len(serial.batch.shard_stats) == len(process.batch.shard_stats)
    for s, p in zip(serial.batch.shard_stats, process.batch.shard_stats):
        for name in SHARD_FIELDS:
            assert getattr(s, name) == getattr(p, name), (
                f"shard {s.shard} field {name}: "
                f"serial={getattr(s, name)} process={getattr(p, name)}"
            )
    assert serial.batch.executor == "thread"
    assert process.batch.executor == "process"
    assert (serial.batch.shards > 0) == (shards > 1)


class TestEquivalenceMatrix:
    """executor='process' vs 'thread' vs serial, exact counters."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("method", METHODS)
    def test_process_counters_match_serial(self, method, workload, shards):
        queries = _workload() if workload == "spread" else _hot_workload()
        serial = BatchExecutor(_build(method, shards)).run(queries)
        with ProcessBatchExecutor(
            _build(method, shards), workers=3
        ) as executor:
            process = executor.run(queries)
        _assert_equal_runs(serial, process, shards=shards)

        threaded = BatchExecutor(
            _build(method, shards),
            parallelism=2,
            serial_fallback_threshold=0,
        ).run(queries)
        assert [a.object_ids for a in threaded.answers] == [
            a.object_ids for a in serial.answers
        ]

    def test_second_batch_reuses_worker_memos(self):
        queries = _workload()
        serial_executor = BatchExecutor(_build("utree", 1))
        first_serial = serial_executor.run(queries)
        second_serial = serial_executor.run(queries)
        with ProcessBatchExecutor(_build("utree", 1), workers=2) as ex:
            first = ex.run(queries)
            second = ex.run(queries)
        assert first.batch.memo_hits == first_serial.batch.memo_hits
        assert second.batch.memo_hits == second_serial.batch.memo_hits
        assert second.batch.memo_hits > 0
        assert second.batch.data_page_fetches == (
            second_serial.batch.data_page_fetches
        )
        assert [a.object_ids for a in second.answers] == [
            a.object_ids for a in second_serial.answers
        ]

    def test_no_dedupe_and_no_memo_modes_match(self):
        queries = _workload(8)
        for knobs in (
            {"memoize": False},
            {"dedupe_pages": False},
            {"memoize": False, "dedupe_pages": False},
        ):
            serial = BatchExecutor(_build("utree", 4), **knobs).run(queries)
            with ProcessBatchExecutor(
                _build("utree", 4), workers=2, **knobs
            ) as ex:
                process = ex.run(queries)
            _assert_equal_runs(serial, process, shards=4)

    def test_empty_workload_and_single_worker(self):
        with ProcessBatchExecutor(_build("utree", 1), workers=1) as ex:
            empty = ex.run([])
            assert empty.answers == []
            assert empty.batch.queries == 0
            result = ex.run(_workload(4))
            assert len(result.answers) == 4

    def test_share_samples_prewarm_changes_costs_not_answers(self):
        queries = _workload(8)
        serial = BatchExecutor(_build("utree", 1)).run(queries)
        with ProcessBatchExecutor(
            _build("utree", 1), workers=2, share_samples=True
        ) as ex:
            process = ex.run(queries)
        assert [a.object_ids for a in process.answers] == [
            a.object_ids for a in serial.answers
        ]
        # Every cloud was drawn by the prewarm, so worker refinement
        # never misses — the documented ledger shift.
        assert process.batch.sample_cache_misses == 0


class TestPoolLifecycle:
    def test_refork_after_update(self):
        structure = _build("utree", 1)
        queries = _workload(6)
        executor = ProcessBatchExecutor(structure, workers=2)
        before = executor.run(queries)
        assert len(before.answers) == 6

        extra = UncertainObject(
            10_000,
            UniformDensity(BallRegion(np.array([5000.0, 5000.0]), 300.0),
                           marginal_seed=10_000),
        )
        structure.insert(extra)
        after = executor.run(queries)
        executor.close()

        reference = BatchExecutor(structure).run(queries)
        assert [a.object_ids for a in after.answers] == [
            a.object_ids for a in reference.answers
        ]

    def test_close_is_idempotent_and_pool_reforks(self):
        executor = ProcessBatchExecutor(_build("utree", 1), workers=2)
        queries = _workload(4)
        first = executor.run(queries)
        executor.close()
        executor.close()
        again = executor.run(queries)  # re-forks transparently
        assert [a.object_ids for a in again.answers] == [
            a.object_ids for a in first.answers
        ]
        executor.close()

    def test_clear_memo_reaches_workers(self):
        executor = ProcessBatchExecutor(_build("utree", 1), workers=2)
        queries = _workload(6)
        executor.run(queries)
        executor.clear_memo()
        cold = executor.run(queries)
        executor.close()
        assert cold.batch.memo_hits == 0

    def test_worker_layout_property(self):
        with ProcessBatchExecutor(_build("utree", 4), workers=3) as ex:
            assert ex.worker_layout == (0, 1, 2, 0)
        with ProcessBatchExecutor(_build("utree", 1), workers=3) as ex:
            assert ex.worker_layout == ()

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ProcessBatchExecutor(_build("utree", 1), workers=0)


class TestSerialFallback:
    """Tiny thread batches take the serial path; results pin either way."""

    def test_small_batch_falls_back_with_exact_counters(self):
        queries = _workload(6)
        serial = BatchExecutor(_build("utree", 1)).run(queries)
        parallel = BatchExecutor(_build("utree", 1), parallelism=4).run(
            queries
        )
        assert parallel.batch.serial_fallback is True
        assert parallel.batch.parallelism == 4
        assert [a.object_ids for a in parallel.answers] == [
            a.object_ids for a in serial.answers
        ]
        for s, p in zip(serial.workload.queries, parallel.workload.queries):
            for name in QUERY_FIELDS:
                assert getattr(s, name) == getattr(p, name)

    def test_threshold_zero_disables_fallback(self):
        queries = _workload(6)
        serial = BatchExecutor(_build("utree", 1)).run(queries)
        forced = BatchExecutor(
            _build("utree", 1), parallelism=4, serial_fallback_threshold=0
        ).run(queries)
        assert forced.batch.serial_fallback is False
        assert [a.object_ids for a in forced.answers] == [
            a.object_ids for a in serial.answers
        ]

    def test_latency_batches_never_fall_back(self):
        result = BatchExecutor(
            _build("utree", 1),
            parallelism=2,
            io_latency_seconds=0.0005,
        ).run(_workload(4))
        assert result.batch.serial_fallback is False
        assert result.batch.parallelism == 2

    def test_large_estimated_work_fans_out(self):
        executor = BatchExecutor(_build("utree", 1), parallelism=2)
        many = _workload(4) * 200  # 800 queries x 600 samples > threshold
        assert executor._below_fallback_threshold(many) is False
        assert executor._below_fallback_threshold(_workload(4)) is True

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            BatchExecutor(
                _build("utree", 1), serial_fallback_threshold=-1
            )


class TestSharedMemoryPlumbing:
    def test_arena_round_trips_arrays(self):
        arena = SharedArena()
        source = np.arange(24, dtype=np.float64).reshape(4, 6)
        shared = arena.share_array(source)
        assert shared.dtype == source.dtype
        assert shared.shape == source.shape
        assert np.array_equal(shared, source)
        empty = arena.share_array(np.empty((0, 3)))
        assert empty.nbytes == 0
        assert arena.arrays_shared == 1
        assert arena.bytes_shared == source.nbytes
        del shared
        arena.close()
        with pytest.raises(RuntimeError):
            arena.share_array(source)

    def test_kernel_rebind_preserves_classification(self):
        structure = _build("utree", 1)
        query = _workload(1)[0]
        before = structure.filter_candidates(query)
        arena = SharedArena()
        structure.kernel.rebind_columns(arena.share_array)
        after = structure.filter_candidates(query)
        assert before.validated == after.validated
        assert before.candidates == after.candidates
        assert before.pruned == after.pruned

    def test_sample_cache_prewarm_and_rebind(self):
        cache = SampleCache(n_samples=200, seed=5)
        estimator = AppearanceEstimator(n_samples=200, seed=5, cache=cache)
        objects = _objects(6)
        resident = cache.prewarm((o.pdf, o.oid) for o in objects)
        assert resident == 6
        rect = Rect.from_center(np.array([5000.0, 5000.0]), 4000.0)
        baseline = [
            o.appearance_probability(rect, estimator) for o in objects
        ]
        arena = SharedArena()
        assert cache.rebind_resident(arena.share_array) == 6
        rebound = [
            o.appearance_probability(rect, estimator) for o in objects
        ]
        assert baseline == rebound

    def test_data_file_view_accounting(self):
        data_file = DataFile(IOCounter(), page_size=512)
        objects = _objects(10)
        addresses = [
            data_file.append(o, o.detail_size_bytes()) for o in objects
        ]
        base_reads = data_file.io.reads
        view = data_file.reader_view(latency_seconds=0.0)
        assert view.page_count == data_file.page_count
        assert view.read(addresses[0]) is objects[0]
        assert view.read_page(addresses[-1].page_id)
        assert view.io.reads == 2
        assert data_file.io.reads == base_reads  # base counter untouched
        assert view.peek(addresses[1]) is objects[1]
        assert view.io.reads == 2  # peek is free
        with pytest.raises(ValueError):
            data_file.reader_view(latency_seconds=-1.0)

    def test_peek_page_charges_nothing(self):
        data_file = DataFile(IOCounter(), page_size=512)
        objects = _objects(4)
        for o in objects:
            data_file.append(o, o.detail_size_bytes())
        reads_before = data_file.io.reads
        payloads = data_file.peek_page(0)
        assert payloads[0] is objects[0]
        assert data_file.io.reads == reads_before


class TestConfigSurface:
    def test_executor_knob_validation(self):
        assert ExecConfig().executor == "thread"
        assert ExecConfig(executor="process").executor == "process"
        with pytest.raises(ValueError):
            ExecConfig(executor="greenlet")
        with pytest.raises(ValueError):
            ExecConfig(executor="process", batched=False)

    def test_executor_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        config = ExecConfig.from_env()
        assert config.executor == "process"
        monkeypatch.setenv("REPRO_EXECUTOR", "THREAD")
        assert ExecConfig.from_env().executor == "thread"
        monkeypatch.delenv("REPRO_EXECUTOR")
        assert ExecConfig.from_env().executor == "thread"

    def test_executor_json_round_trip(self):
        config = ExecConfig(executor="process", parallelism=4)
        assert ExecConfig.from_json(config.to_json()) == config
        assert "executor='process'" in config.summary()


class TestDatabaseProcessBackend:
    def _database(self, config: ExecConfig) -> Database:
        return Database.create(_objects(60), config, methods=("utree",))

    def test_database_answers_match_thread_backend(self):
        specs = [
            RangeSpec(rect=q.rect, threshold=q.threshold)
            for q in _workload(8)
        ]
        thread_db = self._database(ExecConfig(mc_samples=N_SAMPLES))
        with self._database(
            ExecConfig(mc_samples=N_SAMPLES, executor="process", parallelism=2)
        ) as process_db:
            process_run = process_db.run(specs)
        thread_run = thread_db.run(specs)
        assert process_run.answers() == thread_run.answers()
        assert process_run.batch.executor == "process"
        assert thread_run.batch.executor == "thread"

    def test_explain_reports_backend_and_layout(self):
        config = ExecConfig(
            mc_samples=N_SAMPLES, executor="process", parallelism=2, shards=4
        )
        with self._database(config) as db:
            spec = RangeSpec(
                rect=Rect.from_center(np.array([5000.0, 5000.0]), 1500.0),
                threshold=0.5,
            )
            explanation = db.explain(spec)
        assert explanation.executor == "process"
        assert explanation.worker_layout == (0, 1, 0, 1)
        assert "process x2" in explanation.summary()
        assert "shard->worker" in explanation.summary()

    def test_save_open_round_trip_with_process_backend(self, tmp_path):
        specs = [
            RangeSpec(rect=q.rect, threshold=q.threshold)
            for q in _workload(6)
        ]
        config = ExecConfig(
            mc_samples=N_SAMPLES, executor="process", parallelism=2, shards=4
        )
        path = tmp_path / "db.npz"
        with self._database(config) as db:
            before = db.run(specs)
            db.save(path)
        with Database.open(path) as restored:
            assert restored.config.executor == "process"
            after = restored.run(specs)
        assert after.answers() == before.answers()
