"""The adaptive runtime: ARC pool, bounded probing, per-batch overrides.

Three layers under test:

* the ARC buffer pool's four-list protocol — ghost promotion, target
  adaptation in both directions, the scan-length suppression that keeps
  a sequential flood from hijacking the target, and the capacity-0
  paper-exact degeneration;
* the latency-bounded shard probing — identical answers with the bound
  on and off across every structure x partitioner combination (range and
  NN), plus the update-traffic counters and ``Database.rebalance()``;
* the ``Database`` wiring — per-batch knob overrides, method variants,
  explain fields and the planner-bias round trip through
  ``save()``/``open()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Database, ExecConfig, RangeSpec
from repro.core.nn import probabilistic_nearest_neighbors
from repro.core.query import ProbRangeQuery
from repro.exec.executor import execute_query
from repro.exec.shard import ShardedAccessMethod
from repro.geometry.rect import Rect
from repro.storage.bufferpool import BufferPool
from repro.uncertainty.montecarlo import AppearanceEstimator
from tests.conftest import make_mixed_objects, make_uniform_ball_object

FID = 0  # pools namespace frames by (file_id, page_id); one file suffices


# ---------------------------------------------------------------------------
# ARC buffer pool
# ---------------------------------------------------------------------------
class TestArcPool:
    def _pool(self, capacity: int) -> BufferPool:
        pool = BufferPool(capacity)
        assert pool.register_file() == FID
        return pool

    def test_ghost_hit_promotes_to_frequency_and_grows_target(self):
        pool = self._pool(4)
        for page in (1, 2, 3, 4):
            assert not pool.access(FID, page)
        assert pool.access(FID, 1)  # T1 hit -> T2
        pool.access(FID, 5)  # replace evicts T1's LRU (2) into B1
        assert (FID, 2) not in pool
        assert pool.ghost_pages()[0] == [(FID, 2)]
        assert pool.target_recency == 0.0

        assert not pool.access(FID, 2)  # B1 ghost hit: still a miss...
        assert pool.ghost_hits == 1
        assert pool.target_recency >= 1.0  # ...but the target grew
        assert (FID, 2) in pool  # and the frame re-entered resident
        assert pool.access(FID, 2)  # now a real hit (it sits in T2)

    def test_frequency_ghost_hit_shrinks_target(self):
        pool = self._pool(4)
        pool._target = 3.0  # as if recency ghosts had grown it
        pool._b2[(FID, 9)] = False  # a frequency-side ghost
        for page in (1, 2, 3, 4):
            pool.access(FID, page)
        assert not pool.access(FID, 9)  # B2 ghost hit
        assert pool.ghost_hits == 1
        assert pool.target_recency < 3.0

    def test_sequential_ghost_of_uncacheable_scan_suppresses_adaptation(self):
        pool = self._pool(4)
        pool.scan_length_ewma = 100.0  # calibrated: scans dwarf capacity
        pool._b1[(FID, 9)] = True  # ghost left behind by such a scan
        assert not pool.access(FID, 9)
        assert pool.ghost_hits == 1
        assert pool.target_recency == 0.0  # no target motion

        # The same ghost hit from a *random* (non-sequential) eviction
        # adapts normally — suppression keys on the ghost's origin.
        pool2 = self._pool(4)
        pool2.scan_length_ewma = 100.0
        pool2._b1[(FID, 9)] = False
        pool2.access(FID, 9)
        assert pool2.target_recency >= 1.0

    def test_scan_length_ewma_calibrates_from_runs(self):
        pool = self._pool(8)
        for page in range(10):
            pool.access(FID, page, sequential=True)
        pool.access(FID, 99)  # run ends: fold 10 into the EWMA
        assert pool.scan_length_ewma == pytest.approx(10.0)
        for page in range(20, 24):
            pool.access(FID, page, sequential=True)
        pool.access(FID, 98)
        assert pool.scan_length_ewma == pytest.approx(0.7 * 10.0 + 0.3 * 4.0)

    def test_capacity_zero_is_paper_exact(self):
        pool = self._pool(0)
        for _ in range(3):
            assert not pool.access(FID, 7)
        assert pool.hits == 0 and pool.misses == 3
        assert len(pool) == 0
        assert pool.ghost_pages() == ([], [])

    def test_admit_invalidate_and_clear_cover_ghosts(self):
        pool = self._pool(2)
        pool.admit(FID, 1)
        assert (FID, 1) in pool
        pool._b1[(FID, 5)] = False
        pool.invalidate(FID, 5)
        assert pool.ghost_pages() == ([], [])
        pool._target = 1.5
        pool.scan_length_ewma = 6.0
        pool.clear()
        assert len(pool) == 0
        assert pool.target_recency == 0.0
        # Calibration is workload knowledge, not cache content.
        assert pool.scan_length_ewma == pytest.approx(6.0)

    def test_reset_counters_zeroes_ghost_hits(self):
        pool = self._pool(2)
        pool._b1[(FID, 3)] = False
        pool.access(FID, 3)
        assert pool.ghost_hits == 1
        pool.reset_counters()
        assert pool.ghost_hits == 0


# ---------------------------------------------------------------------------
# latency-bounded probing
# ---------------------------------------------------------------------------
N_SAMPLES = 900
SEED = 7


def _range_queries():
    rng = np.random.default_rng(13)
    queries = []
    for pq in (0.2, 0.5, 0.8, 0.95):
        centre = rng.uniform(1500, 8500, 2)
        half = float(rng.uniform(400, 2200))
        queries.append(ProbRangeQuery(Rect.from_center(centre, half), pq))
    queries.append(ProbRangeQuery(Rect([0.0, 0.0], [10_000.0, 10_000.0]), 0.3))
    return queries


def _build_sharded(method, partitioner, probe_bound):
    return ShardedAccessMethod.build(
        make_mixed_objects(36, seed=5),
        shards=4,
        partitioner=partitioner,
        method=method,
        estimator=AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED),
        probe_bound=probe_bound,
    )


class TestProbeBound:
    @pytest.mark.parametrize("partitioner", ["str", "hash"])
    @pytest.mark.parametrize("method", ["utree", "upcr", "scan"])
    def test_range_answers_identical_with_and_without_bound(
        self, method, partitioner
    ):
        bounded = _build_sharded(method, partitioner, True)
        unbounded = _build_sharded(method, partitioner, False)
        for query in _range_queries():
            a = execute_query(bounded, query)
            b = execute_query(unbounded, query)
            assert sorted(a.object_ids) == sorted(b.object_ids)
        assert bounded.router.bound_skips >= 0
        assert unbounded.router.bound_skips == 0

    @pytest.mark.parametrize("partitioner", ["str", "hash"])
    def test_bound_actually_skips_probes(self, partitioner):
        """A grazing high-threshold query must drop provably futile probes.

        The query overlaps a shard's MBR only at the fringe, where the
        members' shrunken level-j profile boxes (the ones Observation 4
        consults for p_q = 0.95) no longer reach — the probe is proven
        pointless without running it.
        """
        bounded = _build_sharded("utree", partitioner, True)
        query = ProbRangeQuery(
            Rect.from_center(np.array([5118.0, 9505.0]), 518.0), 0.95
        )
        bounded.router.route(query)
        total_skipped = bounded.router.bound_skips
        assert total_skipped > 0, (
            "expected the residual-probability bound to skip probes"
        )
        # Cross-check: the skipped probes change nothing in the answer.
        unbounded = _build_sharded("utree", partitioner, False)
        a = execute_query(bounded, query)
        b = execute_query(unbounded, query)
        assert sorted(a.object_ids) == sorted(b.object_ids)

    def test_probe_bound_toggle_property(self):
        sharded = _build_sharded("utree", "str", True)
        assert sharded.probe_bound
        sharded.probe_bound = False
        assert not sharded.router.probe_bound

    def test_nn_answers_identical_and_shards_skipped(self):
        monolithic_est = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
        from repro.core.utree import UTree
        from repro.core.catalog import UCatalog

        objects = make_mixed_objects(36, seed=5)
        mono = UTree(2, UCatalog.paper_utree_default(), estimator=monolithic_est)
        for obj in objects:
            mono.insert(obj)
        bounded = _build_sharded("utree", "str", True)
        unbounded = _build_sharded("utree", "str", False)

        rng = np.random.default_rng(29)
        skipped = 0
        for _ in range(6):
            point = rng.uniform(500, 9500, 2)
            r_mono = probabilistic_nearest_neighbors(mono, point, rounds=400)
            r_on = probabilistic_nearest_neighbors(bounded, point, rounds=400)
            r_off = probabilistic_nearest_neighbors(unbounded, point, rounds=400)
            key = lambda r: [(c.oid, c.probability) for c in r.candidates]
            assert key(r_on) == key(r_off) == key(r_mono)
            skipped += r_on.shards_skipped
            assert r_off.shards_skipped == 0
        assert skipped > 0, "the best-worst bound never skipped a shard"


class TestTrafficAndRebalance:
    def test_update_traffic_counters(self):
        sharded = _build_sharded("utree", "str", True)
        assert sharded.update_traffic == 0
        sharded.insert(make_uniform_ball_object(500, np.array([800.0, 800.0])))
        assert sharded.insert_traffic.count(1) == 1
        assert sharded.update_traffic == 1
        sharded.delete(500)
        assert sharded.update_traffic == 2
        sharded.reset_traffic()
        assert sharded.update_traffic == 0

    def test_rebalance_reduces_skew_and_keeps_answers(self):
        config = ExecConfig(
            shards=4, mc_samples=N_SAMPLES, seed=SEED, batched=False
        )
        db = Database.create(make_mixed_objects(30, seed=5), config)
        method = db.access_method("utree")
        # Skewed traffic: a clustered burst lands on one spatial shard.
        rng = np.random.default_rng(17)
        for i in range(30):
            centre = rng.uniform(600, 1200, 2)
            db.insert(make_uniform_ball_object(1000 + i, centre))
        assert method.update_traffic == 30
        skew = method.size_skew()
        assert skew > 1.0

        specs = [
            RangeSpec(Rect.from_center(np.array([2000.0, 2000.0]), 1800.0), 0.4),
            RangeSpec(Rect([0.0, 0.0], [10_000.0, 10_000.0]), 0.25),
        ]
        before = [sorted(r.object_ids) for r in db.run(specs)]
        report = db.rebalance()
        assert report["utree"]["objects"] == 60
        assert report["utree"]["update_traffic"] == 30
        assert report["utree"]["skew_after"] <= report["utree"]["skew_before"]
        rebuilt = db.access_method("utree")
        assert rebuilt is not method
        assert rebuilt.update_traffic == 0
        after = [sorted(r.object_ids) for r in db.run(specs)]
        assert after == before

    def test_rebalance_skips_monolithic_and_low_skew(self):
        db = Database.create(
            make_mixed_objects(12, seed=5), ExecConfig(mc_samples=400)
        )
        assert db.rebalance() == {}
        config = ExecConfig(shards=2, mc_samples=400)
        db2 = Database.create(make_mixed_objects(12, seed=5), config)
        assert db2.rebalance(min_skew=1000.0) == {}


# ---------------------------------------------------------------------------
# Database wiring: overrides, variants, persistence, explain
# ---------------------------------------------------------------------------
def _specs():
    rng = np.random.default_rng(23)
    specs = []
    for pq in (0.3, 0.6):
        centre = rng.uniform(2000, 8000, 2)
        specs.append(RangeSpec(Rect.from_center(centre, 1500.0), pq))
    return specs


class TestDatabaseAdaptive:
    def test_method_variant_suffixes(self):
        config = ExecConfig(shards=3, mc_samples=600)
        db = Database.create(
            make_mixed_objects(24, seed=5),
            config,
            methods=("utree@mono", "utree@sharded"),
        )
        assert not isinstance(
            db.access_method("utree@mono"), ShardedAccessMethod
        )
        assert isinstance(
            db.access_method("utree@sharded"), ShardedAccessMethod
        )
        answers = {
            name: [sorted(r.object_ids) for r in db.run(_specs(), method=name)]
            for name in db.method_names
        }
        assert answers["utree@mono"] == answers["utree@sharded"]

    def test_sharded_variant_requires_shards(self):
        with pytest.raises(ValueError, match="pins the sharded layout"):
            Database.create(
                make_mixed_objects(8, seed=5),
                ExecConfig(mc_samples=400),
                methods=("utree@sharded",),
            )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown method variant"):
            Database.create(
                make_mixed_objects(8, seed=5),
                ExecConfig(mc_samples=400),
                methods=("utree@fast",),
            )

    def test_per_batch_overrides_keep_answers(self):
        config = ExecConfig(shards=2, mc_samples=600)
        db = Database.create(make_mixed_objects(24, seed=5), config)
        specs = _specs()
        baseline = [sorted(r.object_ids) for r in db.run(specs)]
        for overrides in (
            {"parallelism": 3},
            {"executor": "process", "parallelism": 2},
        ):
            got = [sorted(r.object_ids) for r in db.run(specs, **overrides)]
            assert got == baseline, f"answers drifted under {overrides}"
        db.close()

    def test_override_validation(self):
        db = Database.create(
            make_mixed_objects(8, seed=5), ExecConfig(mc_samples=400)
        )
        with pytest.raises(ValueError, match="unknown executor"):
            db.run(_specs(), executor="bogus")
        with pytest.raises(ValueError, match="at least 1"):
            db.run(_specs(), parallelism=0)
        unbatched = Database.create(
            make_mixed_objects(8, seed=5),
            ExecConfig(mc_samples=400, batched=False),
        )
        with pytest.raises(ValueError, match="batched=True"):
            unbatched.run(_specs(), parallelism=2)

    def test_explain_serial_fallback_and_pool_fields(self):
        config = ExecConfig(parallelism=4, mc_samples=1000, pool_capacity=16)
        db = Database.create(make_mixed_objects(12, seed=5), config)
        spec = _specs()[0]
        small = db.explain(spec, batch_size=10)
        assert small.serial_fallback  # 10 x 1000 < 250k
        assert small.batch_queries == 10
        big = db.explain(spec, batch_size=300)
        assert not big.serial_fallback  # 300 x 1000 >= 250k
        assert small.pool_capacity == 16
        assert "serial fallback" in small.summary()
        assert "buffer pool: arc, 16 frames" in small.summary()
        with pytest.raises(ValueError, match="batch_size"):
            db.explain(spec, batch_size=0)

    def test_explain_reports_bound_skips(self):
        config = ExecConfig(shards=4, partitioner="hash", mc_samples=500)
        db = Database.create(make_mixed_objects(36, seed=5), config)
        spec = RangeSpec(
            Rect.from_center(np.array([5118.0, 9505.0]), 518.0), 0.95
        )
        explanation = db.explain(spec)
        assert explanation.shards_bound_skipped > 0
        assert "bound-skipped" in explanation.summary()

    def test_learned_state_round_trips_through_save_open(self, tmp_path):
        config = ExecConfig(shards=2, mc_samples=500)
        db = Database.create(
            make_mixed_objects(20, seed=5),
            config,
            methods=("utree@mono", "utree@sharded"),
        )
        specs = _specs()
        for _ in range(3):
            db.run(specs)
        db.planner.observe_choice("utree@mono", 10.0, 25.0)
        path = tmp_path / "adaptive.npz"
        db.save(path)
        db.close()

        reopened = Database.open(path)
        assert reopened.planner.data_records_per_page == pytest.approx(
            db.planner.data_records_per_page
        )
        assert reopened.planner.bias("utree@mono") == pytest.approx(
            db.planner.bias("utree@mono")
        )
        assert reopened.planner.observations == db.planner.observations
        reopened.close()

    def test_single_utree_archive_round_trips_planner_state(self, tmp_path):
        db = Database.create(
            make_mixed_objects(12, seed=5), ExecConfig(mc_samples=400)
        )
        db.planner.observe_choice("utree", 8.0, 12.0)
        path = tmp_path / "single.npz"
        db.save(path)
        reopened = Database.open(path)
        assert reopened.planner.bias("utree") == pytest.approx(
            db.planner.bias("utree")
        )

    def test_planner_reset_feedback(self):
        db = Database.create(
            make_mixed_objects(8, seed=5), ExecConfig(mc_samples=400)
        )
        db.planner.observe_choice("utree", 10.0, 30.0)
        assert db.planner.bias("utree") != 1.0
        db.planner.reset_feedback()
        assert db.planner.bias("utree") == 1.0
        assert db.planner.observations == 0


# ---------------------------------------------------------------------------
# config / environment plumbing
# ---------------------------------------------------------------------------
class TestEnvKnobs:
    def test_probe_bound_env(self, monkeypatch):
        assert ExecConfig.from_env().probe_bound  # default on
        monkeypatch.setenv("REPRO_PROBE_BOUND", "0")
        assert not ExecConfig.from_env().probe_bound

    def test_paper_exact_pins_uncached_untuned(self):
        config = ExecConfig.paper_exact()
        assert config.pool_capacity == 0
        assert not config.batched and config.parallelism == 1
