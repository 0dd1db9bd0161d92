"""The ``repro.api`` front door: config, specs, facade, persistence.

The heart of this module is the equivalence matrix: ``Database.run``
must be *bit-identical* to the hand-wired legacy paths
(``QueryExecutor`` / ``BatchExecutor``) across
{utree, upcr, scan} x {shards 1/4} x {parallelism 1/4} x
{spread/hot workload}, and ``ExecConfig.paper_exact()`` must reproduce the
seed's per-query node-access / data-page / P_app accounting exactly.
The facade adds no third execution path — these tests keep it that way.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import warnings

import numpy as np
import pytest

from repro.api import Database, ExecConfig, NearestSpec, RangeSpec, Result
from repro.core.nn import probabilistic_nearest_neighbors
from repro.core.query import ProbRangeQuery
from repro.core.scan import SequentialScan
from repro.core.upcr import UPCRTree
from repro.core.utree import UTree
from repro.exec.batch import BatchExecutor
from repro.exec.executor import QueryExecutor
from repro.exec.shard import ShardedAccessMethod
from repro.geometry.rect import Rect
from repro.storage.serialize import save_utree
from repro.uncertainty.montecarlo import AppearanceEstimator
from tests.conftest import make_mixed_objects

N_SAMPLES = 1200
SEED = 11
METHODS = ("utree", "upcr", "scan")
SHARD_COUNTS = (1, 4)
PARALLELISMS = (1, 4)
WORKLOADS = ("spread", "hot")


def _objects():
    return make_mixed_objects(40, seed=9)


def _specs():
    rng = np.random.default_rng(21)
    specs = []
    for pq in (0.25, 0.5, 0.8):
        centre = rng.uniform(2000, 8000, 2)
        half = float(rng.uniform(600, 1500))
        specs.append(RangeSpec(Rect.from_center(centre, half), pq))
    specs.append(RangeSpec(Rect([0.0, 0.0], [10_000.0, 10_000.0]), 0.4))
    return specs


def _workload(kind: str) -> list[RangeSpec]:
    """``spread``: distinct rectangles.  ``hot``: the same rectangles
    repeated, at equal and at different thresholds, so a batch reuses
    pages, P_app memo entries and sample clouds across its queries."""
    specs = _specs()
    if kind == "spread":
        return specs
    a, b, c, whole = specs
    return [a, b, a, RangeSpec(a.rect, 0.6), whole, b, RangeSpec(c.rect, 0.25), a]


def _estimator():
    return AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)


def _legacy_structure(method: str, shards: int):
    """The hand-wired build the facade must reproduce bit for bit."""
    objects = _objects()
    if shards > 1:
        return ShardedAccessMethod.build(
            objects, shards=shards, partitioner="str", method=method,
            estimator=_estimator(),
        )
    cls = {"utree": UTree, "upcr": UPCRTree, "scan": SequentialScan}[method]
    structure = cls(2, estimator=_estimator())
    for obj in objects:
        structure.insert(obj)
    return structure


@pytest.fixture(scope="module")
def structures():
    """One legacy build per (method, shards), shared by the matrix."""
    cache: dict = {}

    def get(method: str, shards: int):
        key = (method, shards)
        if key not in cache:
            cache[key] = _legacy_structure(*key)
        return cache[key]

    return get


class TestExecConfig:
    def test_defaults_are_valid(self):
        config = ExecConfig()
        assert config.shards == 1 and config.batched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"partitioner": "zorder"},
            {"parallelism": 0},
            {"batched": False, "parallelism": 2},
            {"io_latency_seconds": -1.0},
            {"pool_capacity": -1},
            {"page_size": 64},
            {"mc_samples": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecConfig().shards = 2

    def test_paper_exact_pins_paper_accounting_knobs(self):
        config = ExecConfig.paper_exact()
        assert config.shards == 1
        assert config.pool_capacity == 0
        assert not config.batched
        assert config.parallelism == 1
        assert not config.memoize and not config.dedupe_pages

    def test_with_options(self):
        config = ExecConfig().with_options(shards=4, parallelism=2)
        assert (config.shards, config.parallelism) == (4, 2)

    def test_json_round_trip(self):
        config = ExecConfig(shards=4, partitioner="hash", batched=False)
        assert ExecConfig.from_json(config.to_json()) == config

    def test_summary_lists_only_non_defaults(self):
        assert ExecConfig().summary() == "ExecConfig(defaults)"
        assert "shards=4" in ExecConfig(shards=4).summary()

    def test_from_env_reads_each_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_PARALLELISM", "3")
        # Recognised (the experiments read it through active_scale), so
        # no warning — but it selects no ExecConfig field.
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = ExecConfig.from_env()
        assert config == ExecConfig(parallelism=3)

    def test_from_env_overrides_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_PARALLELISM", "3")
        assert ExecConfig.from_env(parallelism=2).parallelism == 2

    def test_from_env_warns_on_unknown_repro_keys(self, monkeypatch):
        monkeypatch.setenv("REPRO_FITLER_KERNEL", "off")  # the classic typo
        with pytest.warns(UserWarning, match="REPRO_FITLER_KERNEL"):
            ExecConfig.from_env()

    def test_from_env_warns_on_retired_filter_kernel_key(self, monkeypatch):
        monkeypatch.setenv("REPRO_FILTER_KERNEL", "off")
        with pytest.warns(UserWarning, match="REPRO_FILTER_KERNEL"):
            config = ExecConfig.from_env()
        assert config == ExecConfig()


class TestRetiredFilterKernelKnob:
    """The filter kernel is the only classifier: every way the scalar
    path used to be selected is gone and fails loudly, never silently."""

    def test_exec_config_has_no_filter_kernel_field(self):
        assert "filter_kernel" not in {f.name for f in dataclasses.fields(ExecConfig)}
        with pytest.raises(TypeError, match="filter_kernel"):
            ExecConfig(filter_kernel="off")

    def test_database_run_rejects_filter_kernel_override(self):
        db = Database.create(_objects()[:10], ExecConfig(mc_samples=400, seed=SEED))
        with pytest.raises(TypeError, match="filter_kernel"):
            db.run(_specs()[:1], filter_kernel=False)
        assert db.run(_specs()[:1])[0].object_ids == db.query(_specs()[0]).object_ids

    @pytest.mark.parametrize("cls", [UTree, UPCRTree, SequentialScan])
    def test_structures_always_build_the_kernel(self, cls):
        with pytest.raises(TypeError, match="filter_kernel"):
            cls(2, filter_kernel="off")
        structure = cls(2, estimator=_estimator())
        for obj in _objects()[:5]:
            structure.insert(obj)
        assert len(structure.kernel) == 5


class TestEnvModule:
    def test_env_value_rejects_unregistered_keys(self):
        from repro.env import env_value

        with pytest.raises(KeyError):
            env_value("REPRO_NOT_A_KNOB")

    def test_warn_unknown_keys_returns_offenders(self, monkeypatch):
        from repro.env import warn_unknown_keys

        monkeypatch.setenv("REPRO_BOGUS", "1")
        with pytest.warns(UserWarning):
            assert warn_unknown_keys() == ["REPRO_BOGUS"]

    def test_clean_environment_warns_nothing(self):
        from repro.env import warn_unknown_keys

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert warn_unknown_keys({"REPRO_FULL_SCALE": "1", "PATH": "x"}) == []


class TestSpecs:
    def test_range_spec_validates(self):
        with pytest.raises(ValueError):
            RangeSpec(Rect([0, 0], [1, 1]), 0.0)
        with pytest.raises(TypeError):
            RangeSpec(([0, 0], [1, 1]), 0.5)

    def test_range_spec_box_and_query(self):
        spec = RangeSpec.box([0, 0], [10, 10], 0.5)
        query = spec.to_query()
        assert isinstance(query, ProbRangeQuery)
        assert query.threshold == 0.5 and spec.dim == 2

    def test_nearest_spec_validates(self):
        with pytest.raises(ValueError):
            NearestSpec([0, 0], k=0)
        with pytest.raises(ValueError):
            NearestSpec([0, 0], mode="fuzzy")
        spec = NearestSpec(np.array([1.0, 2.0]), k=2)
        assert spec.point == (1.0, 2.0) and spec.dim == 2

    def test_result_membership(self):
        result = Result(spec=RangeSpec.box([0, 0], [1, 1], 0.5), method="utree",
                        object_ids=[3, 1, 2])
        assert 2 in result and 9 not in result
        assert result.sorted_ids() == [1, 2, 3]
        assert len(result) == 3


class TestEquivalenceMatrix:
    """``db.run`` == legacy executors across the full knob matrix."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("parallelism", PARALLELISMS)
    def test_batched_facade_matches_legacy_batch_executor(
        self, structures, method, workload, shards, parallelism
    ):
        structure = structures(method, shards)
        specs = _workload(workload)
        queries = [spec.to_query() for spec in specs]
        legacy = BatchExecutor(
            structure, parallelism=parallelism
        ).run(queries)

        db = Database.from_methods(
            {method: structure},
            ExecConfig(
                shards=shards, parallelism=parallelism,
                mc_samples=N_SAMPLES, seed=SEED,
            ),
        )
        result = db.run(specs)

        assert [r.object_ids for r in result] == [
            a.object_ids for a in legacy.answers
        ]
        assert [r.stats.node_accesses for r in result] == [
            a.stats.node_accesses for a in legacy.answers
        ]
        assert [r.method for r in result] == [method] * len(queries)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_unbatched_facade_matches_legacy_query_executor(
        self, structures, method, workload, shards
    ):
        structure = structures(method, shards)
        specs = _workload(workload)
        executor = QueryExecutor(structure)
        legacy = [executor.execute(spec.to_query()) for spec in specs]

        db = Database.from_methods(
            {method: structure},
            ExecConfig(
                shards=shards, batched=False,
                memoize=False, dedupe_pages=False,
                mc_samples=N_SAMPLES, seed=SEED,
            ),
        )
        result = db.run(specs)

        assert len(result) == len(legacy)
        for facade_result, answer in zip(result, legacy):
            assert facade_result.object_ids == answer.object_ids
            assert facade_result.stats.node_accesses == answer.stats.node_accesses
            assert (
                facade_result.stats.data_page_reads == answer.stats.data_page_reads
            )

    def test_created_database_matches_hand_built_structure(self):
        """``Database.create`` wiring == constructing the tree by hand."""
        objects = _objects()
        db = Database.create(
            objects, ExecConfig(mc_samples=N_SAMPLES, seed=SEED)
        )
        tree = UTree(2, estimator=_estimator())
        for obj in objects:
            tree.insert(obj)
        for spec in _specs():
            facade = db.query(spec)
            direct = tree.query(spec.to_query())
            assert facade.object_ids == direct.object_ids
            assert facade.stats.node_accesses == direct.stats.node_accesses


class TestPaperExactAccounting:
    def test_paper_exact_reproduces_seed_counters(self):
        """Node accesses, data pages and P_app counts match ``tree.query``."""
        objects = _objects()
        db = Database.create(
            objects,
            ExecConfig.paper_exact().with_options(
                mc_samples=N_SAMPLES, seed=SEED
            ),
        )
        seed_tree = UTree(2, estimator=_estimator())
        for obj in objects:
            seed_tree.insert(obj)

        for spec in _specs():
            facade = db.query(spec)
            seed_answer = seed_tree.query(spec.to_query())
            assert facade.object_ids == seed_answer.object_ids
            fs, ss = facade.stats, seed_answer.stats
            assert fs.node_accesses == ss.node_accesses
            assert fs.data_page_reads == ss.data_page_reads
            assert fs.prob_computations == ss.prob_computations
            assert fs.validated_directly == ss.validated_directly
            assert fs.pruned == ss.pruned
            # Capacity-0 accounting: physical == logical, no cache hits.
            assert fs.physical_reads == fs.node_accesses + fs.data_page_reads
            assert fs.cache_hits == 0


class TestPlannerAndExplain:
    @pytest.fixture(scope="class")
    def db(self):
        return Database.create(
            _objects(),
            ExecConfig(mc_samples=N_SAMPLES, seed=SEED),
            methods=("utree", "scan"),
        )

    def test_explain_prices_every_method(self, db):
        explanation = db.explain(_specs()[0])
        assert set(explanation.estimates) == {"utree", "scan"}
        assert explanation.choice in ("utree", "scan")
        assert explanation.shards == 1 and explanation.shard_probes == ()
        assert "estimated I/O" in explanation.summary()

    def test_explain_does_not_execute(self, db):
        io = db.access_method("utree").io
        reads_before = io.reads
        db.explain(_specs()[3])
        assert db.access_method("utree").io.reads == reads_before

    def test_explain_respects_pin(self, db):
        assert db.explain(_specs()[0], method="scan").choice == "scan"
        with pytest.raises(KeyError):
            db.explain(_specs()[0], method="upcr")

    def test_explain_rejects_nearest_specs(self, db):
        with pytest.raises(TypeError):
            db.explain(NearestSpec([0, 0]))

    def test_planner_routing_answers_match_pins(self, db):
        routed = db.run(_specs())
        for spec, result in zip(_specs(), routed):
            assert result.method in ("utree", "scan")
            pinned = db.query(spec, method="utree")
            assert result.sorted_ids() == pinned.sorted_ids()

    def test_planner_prices_methods_populated_after_empty_create(self):
        """Cost models are lazy: create([]) then insert still gets priced."""
        db = Database.create(
            [],
            ExecConfig(mc_samples=400, seed=SEED),
            methods=("utree", "scan"),
            dim=2,
        )
        spec = _specs()[0]
        assert all(
            cost == float("inf") for cost in db.explain(spec).estimates.values()
        )
        for obj in _objects()[:15]:
            db.insert(obj)
        estimates = db.explain(spec).estimates
        assert all(np.isfinite(cost) for cost in estimates.values())

    def test_sharded_explain_reports_probe_plan(self):
        db = Database.create(
            _objects(),
            ExecConfig(shards=4, mc_samples=N_SAMPLES, seed=SEED),
        )
        explanation = db.explain(_specs()[0])
        assert explanation.shards == 4
        assert len(explanation.shard_probes) + explanation.shards_pruned == 4
        assert "shards: probe" in explanation.summary()


class TestNearest:
    def test_nearest_matches_direct_walk(self):
        objects = _objects()
        db = Database.create(objects, ExecConfig(mc_samples=N_SAMPLES, seed=SEED))
        spec = NearestSpec([5000.0, 5000.0], k=3, rounds=400, seed=2)
        facade = db.nearest(spec)
        direct = probabilistic_nearest_neighbors(
            db.access_method("utree"), np.array(spec.point), rounds=400, seed=2
        )
        assert facade.object_ids == [c.oid for c in direct.candidates[:3]]
        assert facade.nn.node_accesses == direct.node_accesses
        assert facade.stats.result_count == len(facade.object_ids)

    def test_mixed_spec_batch_preserves_submission_order(self):
        db = Database.create(_objects(), ExecConfig(mc_samples=N_SAMPLES, seed=SEED))
        specs = [_specs()[0], NearestSpec([4000.0, 4000.0], rounds=200), _specs()[1]]
        result = db.run(specs)
        assert [type(r.spec) for r in result] == [RangeSpec, NearestSpec, RangeSpec]
        assert result[1].nn is not None

    def test_scan_only_database_rejects_nearest(self):
        db = Database.create(
            _objects()[:10],
            ExecConfig(mc_samples=400, seed=SEED),
            methods=("scan",),
        )
        with pytest.raises(ValueError, match="U-tree"):
            db.nearest(NearestSpec([0.0, 0.0]))


def _disk(oid: int, centre) -> "UncertainObject":
    from repro.uncertainty.objects import UncertainObject
    from repro.uncertainty.pdfs import UniformDensity
    from repro.uncertainty.regions import BallRegion

    region = BallRegion(np.asarray(centre, dtype=float), 250.0)
    return UncertainObject(oid, UniformDensity(region, marginal_seed=oid))


class TestUpdates:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_moved_object_in_reclaimed_slot_gets_fresh_papp(self, executor):
        """A move that reuses its exact-size freed slot keeps its
        DiskAddress; the next query must not be answered from the old
        object's memoised (or forked) P_app."""
        rng = np.random.default_rng(3)
        centres = rng.uniform(0, 10_000, (300, 2))
        centres[5] = (5000.0, 5000.0)
        moved = _disk(5, (4830.0, 4830.0))
        spec = RangeSpec(Rect([4900.0, 4900.0], [5400.0, 5400.0]), 0.3)
        config = ExecConfig(
            mc_samples=2000,
            reclaim=True,
            executor=executor,
            parallelism=2 if executor == "process" else 1,
        )
        with Database.create(
            [_disk(i, centres[i]) for i in range(300)], config
        ) as db:
            assert db.query(spec).object_ids == [5]
            data_file = db.access_method().data_file
            db.delete(5)
            db.insert(moved)
            assert data_file.reclaimed_slots == 1  # the old slot, reused
            assert db.probabilities(spec, [5])[5] < 0.3
            assert db.query(spec).object_ids == []
        fresh_objects = [_disk(i, centres[i]) for i in range(300) if i != 5]
        with Database.create(fresh_objects + [moved], config) as fresh:
            assert fresh.query(spec).object_ids == []

    def test_insert_delete_round_trip(self):
        objects = _objects()
        db = Database.create([], ExecConfig(mc_samples=400, seed=SEED), dim=2)
        costs = [db.insert(obj) for obj in objects[:12]]
        assert len(db) == 12
        assert all(cost.io_total >= 0 for cost in costs)
        assert db.delete(objects[0].oid) is not None
        assert db.delete(999_999) is None
        assert len(db) == 11


class TestMemoryBounds:
    """Long-lived databases keep neither every P_app nor every deleted object."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_memo_stays_bounded_over_many_runs(self, executor):
        from repro.exec.batch import MEMO_CAP

        rng = np.random.default_rng(8)
        centres = rng.uniform(0, 10_000, (400, 2))
        config = ExecConfig(
            mc_samples=64,
            executor=executor,
            parallelism=2 if executor == "process" else 1,
        )
        query_rng = np.random.default_rng(9)
        computed = largest_batch = 0
        with Database.create(
            [_disk(i, centres[i]) for i in range(400)], config
        ) as db:
            for k in range(4000):
                rect = Rect.from_center(query_rng.uniform(0, 10_000, 2), 1000.0)
                batch = db.run([RangeSpec(rect, 0.5)]).batch
                computed += batch.prob_computations
                largest_batch = max(largest_batch, batch.prob_computations)
                if k % 250 == 249 or k == 3999:
                    (executor_,) = db._batch_executors.values()
                    # Each memo is trimmed when its next batch starts, so
                    # it holds at most its share of the cap plus one
                    # batch (one memo per process worker).
                    bound = MEMO_CAP + config.parallelism * largest_batch
                    assert executor_.memo_size <= bound
        assert computed > MEMO_CAP * 3 // 2  # the cap was reached and held

    def test_deleted_payload_released_with_reclaim_off(self):
        import gc
        import weakref

        rng = np.random.default_rng(4)
        centres = rng.uniform(0, 10_000, (60, 2))
        objects = [_disk(i, centres[i]) for i in range(60)]
        # UncertainObject has no weakref slot; its pdf is referenced only
        # through the object (the sample cache holds it weakly).
        deleted = [weakref.ref(obj.pdf) for obj in objects[:10]]
        db = Database.create(objects, ExecConfig(mc_samples=200))
        del objects
        for i in range(10):
            spec = RangeSpec(Rect.from_center(centres[i], 300.0), 0.5)
            db.run([spec])
            db.delete(i)
            db.insert(_disk(i, centres[i] + 40.0))
            db.run([spec])
        gc.collect()
        assert all(ref() is None for ref in deleted)
        data_file = db.access_method().data_file
        # The paper's append-only accounting, equal to the build that
        # kept every deleted payload: reads, writes, records (deleted
        # ones included), live bytes, file size, pages, releases.
        assert (
            data_file.io.reads,
            data_file.io.writes,
            data_file.record_count,
            data_file.live_bytes,
            data_file.size_bytes,
            data_file.page_count,
            data_file.released_slots,
            data_file.free_slots,
        ) == (192, 140, 70, 4760, 8192, 2, 0, 0)
        # Out-of-band iteration (worker prewarm) sees live objects only.
        live = [
            obj
            for page_id in range(data_file.page_count)
            for obj in data_file.peek_page(page_id)
        ]
        assert sorted(obj.oid for obj in live) == list(range(60))

    def test_delete_drops_cached_cloud(self):
        import gc

        from repro.exec.refine import RefinementEngine

        rng = np.random.default_rng(12)
        centres = rng.uniform(0, 10_000, (200, 2))
        db = Database.create([_disk(i, centres[i]) for i in range(200)], ExecConfig())
        for i in range(200):
            db.run([RangeSpec(Rect.from_center(centres[i], 300.0), 0.5)])
        cache = RefinementEngine.for_method(db.access_method()).cache
        resident_before = cache.resident_bytes
        assert len(cache) > 0
        for i in range(0, 200, 2):
            assert db.delete(i)
        gc.collect()
        with cache._lock:
            entries = list(cache._entries.items())
        assert entries
        assert all(samples.density_ref() is not None for __, samples in entries)
        assert all(oid % 2 == 1 for oid, __ in entries)
        assert cache.resident_bytes < resident_before
        assert cache.resident_bytes == sum(samples.nbytes for __, samples in entries)


    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads Linux VmRSS"
    )
    def test_redrawn_clouds_do_not_grow_a_worker_thread_rss(self):
        """Re-reports redraw clouds on the thread that runs the engine
        (the serve dispatcher); those buffers must not fragment that
        thread's malloc arena into steady RSS growth."""
        rng = np.random.default_rng(3)
        centres = rng.uniform(1000, 9000, (300, 2))
        db = Database.create(
            [_disk(i, centres[i]) for i in range(300)], ExecConfig(seed=1)
        )
        db.run([RangeSpec(Rect.from_center(c, 100.0), 0.5) for c in centres])
        rss: dict[str, float] = {}

        def re_reports():
            step = np.random.default_rng(5)
            for cycle in range(1500):
                oid = int(step.integers(300))
                db.delete(oid)
                centres[oid] = np.clip(
                    centres[oid] + step.normal(0.0, 150.0, 2), 500.0, 9500.0
                )
                db.insert(_disk(oid, centres[oid]))
                db.run([RangeSpec(Rect.from_center(centres[oid], 400.0), 0.5)])
                if cycle == 50:
                    rss["warm"] = _vm_rss_mb()
            rss["end"] = _vm_rss_mb()

        worker = threading.Thread(target=re_reports)
        worker.start()
        worker.join()
        db.close()
        assert rss["end"] - rss["warm"] < 10.0, rss


def _vm_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise AssertionError("no VmRSS line")


class TestSaveOpen:
    def test_monolithic_round_trip_preserves_answers_and_config(self, tmp_path):
        config = ExecConfig(mc_samples=N_SAMPLES, seed=SEED)
        db = Database.create(_objects(), config)
        path = tmp_path / "db.npz"
        db.save(path)
        reopened = Database.open(path)
        assert reopened.config == config
        assert len(reopened) == len(db)
        for spec in _specs():
            assert reopened.query(spec).sorted_ids() == db.query(spec).sorted_ids()

    def test_sharded_round_trip_preserves_answers(self, tmp_path):
        """The shapes serialize.py alone cannot round-trip, the facade can."""
        config = ExecConfig(
            shards=4, partitioner="hash", mc_samples=N_SAMPLES, seed=SEED
        )
        db = Database.create(_objects(), config, methods=("utree", "scan"))
        path = tmp_path / "sharded.npz"
        db.save(path)
        reopened = Database.open(path)
        assert reopened.config == config
        assert reopened.method_names == ["utree", "scan"]
        assert isinstance(reopened.access_method("utree"), ShardedAccessMethod)
        assert reopened.access_method("utree").shard_count == 4
        for spec in _specs():
            for method in ("utree", "scan"):
                assert (
                    reopened.query(spec, method=method).sorted_ids()
                    == db.query(spec, method=method).sorted_ids()
                )

    def test_open_honours_config_override(self, tmp_path):
        db = Database.create(_objects(), ExecConfig(mc_samples=N_SAMPLES, seed=SEED))
        path = tmp_path / "db.npz"
        db.save(path)
        reopened = Database.open(
            path, ExecConfig(mc_samples=N_SAMPLES, seed=SEED, batched=False)
        )
        assert not reopened.config.batched
        assert (
            reopened.query(_specs()[0]).sorted_ids()
            == db.query(_specs()[0]).sorted_ids()
        )

    def test_monolithic_open_uses_fitted_archive_not_rebuild(self, tmp_path):
        """Facade-saved U-trees reopen through load_utree (no CFB refits)."""
        from repro.api import database as database_module

        db = Database.create(_objects()[:12], ExecConfig(mc_samples=400, seed=SEED))
        path = tmp_path / "db.npz"
        db.save(path)
        with np.load(path) as archive:
            # The fitted format: CFB stacks present, no descriptor table.
            assert "outer" in archive and "descriptors" in archive
            meta = __import__("json").loads(str(archive[database_module._META_KEY]))
        assert meta["format"] == database_module._FORMAT_UTREE

    def test_monolithic_round_trip_preserves_custom_catalog(self, tmp_path):
        from repro.core.catalog import UCatalog

        catalog = UCatalog.evenly_spaced(8)
        db = Database.create(
            _objects()[:12], ExecConfig(mc_samples=400, seed=SEED), catalog=catalog
        )
        path = tmp_path / "db.npz"
        db.save(path)
        reopened = Database.open(path)
        assert reopened.access_method("utree").catalog == catalog

    def test_sharded_round_trip_preserves_custom_catalog(self, tmp_path):
        from repro.core.catalog import UCatalog

        catalog = UCatalog.evenly_spaced(7)
        db = Database.create(
            _objects()[:12],
            ExecConfig(shards=2, mc_samples=400, seed=SEED),
            catalog=catalog,
        )
        path = tmp_path / "sharded.npz"
        db.save(path)
        reopened = Database.open(path)
        assert reopened.access_method("utree").shards[0].catalog == catalog

    def test_plain_save_utree_archive_opens_as_database(self, tmp_path):
        objects = _objects()
        tree = UTree(2, estimator=_estimator())
        for obj in objects:
            tree.insert(obj)
        path = tmp_path / "plain.npz"
        save_utree(tree, path)
        db = Database.open(path, ExecConfig(mc_samples=N_SAMPLES, seed=SEED))
        assert db.method_names == ["utree"]
        spec = _specs()[0]
        assert db.query(spec).sorted_ids() == sorted(
            tree.query(spec.to_query()).object_ids
        )

    @pytest.mark.parametrize("shards", [1, 2])
    def test_archive_with_retired_knobs_opens(self, tmp_path, shards):
        """Archives written while ExecConfig still carried auto_tune,
        pool_policy, pool_probation, full_scale, batch_window_ms and
        filter_kernel (and the meta a "tuner" state; a fitted U-tree
        archive the per-archive kernel flag) open with the same ids and
        P_app."""
        import json

        from repro.api import database as database_module

        config = ExecConfig(shards=shards, mc_samples=N_SAMPLES, seed=SEED)
        db = Database.create(_objects(), config)
        path = tmp_path / "legacy.npz"
        db.save(path)
        with np.load(path) as archive:
            entries = {key: archive[key] for key in archive.files}
        meta = json.loads(str(entries[database_module._META_KEY]))
        retired = dict(
            auto_tune=True,
            pool_policy="2q",
            pool_probation=3,
            full_scale=True,
            batch_window_ms=2.0,
            filter_kernel="off",
        )
        assert not set(retired) & {f.name for f in dataclasses.fields(ExecConfig)}
        meta["config"].update(retired)
        meta["tuner"] = {
            "incumbent": {"parallelism": 2},
            "observations": 7,
            "stats": {},
        }
        entries[database_module._META_KEY] = np.asarray(json.dumps(meta))
        if shards == 1:
            assert meta["format"] == database_module._FORMAT_UTREE
            entries["filter_kernel"] = np.int64(0)
        np.savez(path, **entries)

        reopened = Database.open(path)
        assert reopened.config == config
        oids = [obj.oid for obj in _objects()]
        for spec in _specs():
            assert reopened.query(spec).sorted_ids() == db.query(spec).sorted_ids()
            assert reopened.probabilities(spec, oids) == db.probabilities(
                spec, oids
            )

    def test_save_utree_rejects_clashing_extra_keys(self, tmp_path):
        tree = UTree(2, estimator=_estimator())
        with pytest.raises(ValueError, match="clash"):
            save_utree(tree, tmp_path / "x.npz", extra={"oids": "nope"})
        # Archives from older versions carry this flag; keep it reserved.
        with pytest.raises(ValueError, match="clash"):
            save_utree(tree, tmp_path / "x.npz", extra={"filter_kernel": 1})


class TestStatsErgonomics:
    @pytest.fixture(scope="class")
    def run_result(self):
        db = Database.create(
            _objects(), ExecConfig(shards=4, mc_samples=N_SAMPLES, seed=SEED)
        )
        return db.run(_specs())

    def test_query_stats_repr_and_summary(self, run_result):
        stats = run_result[0].stats
        assert "QueryStats(io=" in repr(stats)
        assert "logical I/O" in stats.summary()

    def test_batch_stats_repr_and_summary_table(self, run_result):
        batch = run_result.batch
        assert batch is not None
        assert repr(batch).startswith("BatchStats(")
        table = batch.summary()
        assert "metric" in table and "P_app computed" in table
        # The per-shard breakdown rides along as aligned rows.
        assert "shard" in table and "probes" in table

    def test_shard_stats_repr(self, run_result):
        shard_stats = run_result.batch.shard_stats
        assert shard_stats
        assert repr(shard_stats[0]).startswith("ShardStats(#0")

    def test_run_result_summary_is_one_aligned_table(self, run_result):
        text = run_result.summary()
        lines = text.splitlines()
        assert lines[0].split()[:3] == ["#", "spec", "method"]
        # Header, rule and one row per spec, all equally wide.
        assert len({len(line) for line in lines[: 2 + len(run_result)]}) == 1

    def test_database_repr_and_summary(self):
        db = Database.create(
            _objects()[:10], ExecConfig(mc_samples=400, seed=SEED)
        )
        assert repr(db).startswith("Database(methods=['utree']")
        assert "utree: 10 objects" in db.summary()


class TestBuildDatabaseGlue:
    def test_monolithic_pool_capacity_is_wired(self):
        """A non-sharded pool_capacity must attach a real buffer pool."""
        from repro.experiments.config import Scale
        from repro.experiments.data import build_database, clear_caches

        micro = Scale(
            name="micro-pool",
            lb_objects=100,
            ca_objects=100,
            aircraft_objects=100,
            queries_per_workload=2,
            mc_samples=400,
        )
        clear_caches()
        try:
            db = build_database(
                "LB", micro, methods=("utree",),
                config=ExecConfig(pool_capacity=256),
            )
            assert db.access_method("utree").pool is not None
            assert db.config.pool_capacity == 256
        finally:
            clear_caches()


class TestReproducibleSweeps:
    def test_clear_memos_makes_repeated_runs_report_identical_counters(self):
        db = Database.create(_objects(), ExecConfig(mc_samples=400, seed=SEED))
        first = db.run(_specs())
        db.clear_memos()
        second = db.run(_specs())
        assert [r.sorted_ids() for r in first] == [r.sorted_ids() for r in second]
        assert [r.stats.prob_computations for r in first] == [
            r.stats.prob_computations for r in second
        ]

    def test_fig_run_counters_are_reproducible_under_batched_config(self):
        from repro.experiments.config import Scale
        from repro.experiments.data import clear_caches
        from repro.experiments import fig10

        micro = Scale(
            name="micro-memo",
            lb_objects=100,
            ca_objects=100,
            aircraft_objects=100,
            queries_per_workload=2,
            mc_samples=400,
        )
        clear_caches()
        try:
            config = ExecConfig(batched=True)
            kwargs = dict(datasets=("LB",), pq_values=(0.3, 0.7), config=config)
            first = fig10.run(micro, **kwargs)
            second = fig10.run(micro, **kwargs)
            assert (
                first["LB"]["utree"]["prob_computations"]
                == second["LB"]["utree"]["prob_computations"]
            )
        finally:
            clear_caches()

    def test_mixed_batch_observes_range_stats_only(self):
        db = Database.create(
            _objects(),
            ExecConfig(mc_samples=400, seed=SEED),
            methods=("utree", "scan"),
        )
        range_only = db.run(_specs())
        calibrated = db.planner.data_records_per_page
        db.run([_specs()[0], NearestSpec([4000.0, 4000.0], rounds=3000)])
        mixed = db.run([_specs()[0]])
        # The NN walk's counters must not have skewed the packing EWMA
        # beyond what the range spec alone would have contributed.
        db2 = Database.create(
            _objects(),
            ExecConfig(mc_samples=400, seed=SEED),
            methods=("utree", "scan"),
        )
        db2.run(_specs())
        db2.run([_specs()[0]])
        db2.run([_specs()[0]])
        assert db.planner.data_records_per_page == pytest.approx(
            db2.planner.data_records_per_page
        )
        assert range_only is not None and mixed is not None
        assert calibrated > 0
