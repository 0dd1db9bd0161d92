"""Tests for the vectorized filter-phase kernel.

The load-bearing contract: every verdict the columnar kernel produces is
**bit-identical** (``==``, never ``approx``) to the per-record rule
engines — :class:`PCRRules` over exact PCRs and :class:`CFBRules` over
CFB summaries — across every pdf family, both dimensionalities, both
catalog sizes, degenerate (point) PCRs, update churn and shard-routed
batches.  The structures classify through the kernel only; the oracle
here is a per-record pass built from the rule engines over the same
traversal, and each structure's ``FilterResult`` must equal it exactly.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.core.catalog import UCatalog
from repro.core.cfb import fit_cfbs
from repro.core.filterkernel import CFBFilterKernel, PCRFilterKernel, VERDICT_BY_CODE
from repro.core.nn import NNResult, _maxdist, _mindist, _walk_candidates
from repro.core.pcr import PCRSet, compute_pcrs
from repro.core.pruning import CFBRules, PCRRules, Verdict, observation4_layer
from repro.core.query import ProbRangeQuery
from repro.core.scan import SequentialScan
from repro.core.upcr import UPCRLeafRecord, UPCRTree
from repro.core.utree import UTree
from repro.exec.access import FilterResult
from repro.exec.shard import ShardedAccessMethod
from repro.geometry.rect import Rect
from repro.storage.layout import filter_kernel_row_bytes
from repro.uncertainty.montecarlo import AppearanceEstimator
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import (
    ConstrainedGaussianDensity,
    MixtureDensity,
    RadialExponentialDensity,
    UniformDensity,
    zipf_histogram,
)
from repro.uncertainty.regions import BallRegion, BoxRegion

# Thresholds spanning every rule arm: deep in the Rule-2/5 regime, the
# 0.5 boundary (exactly representable, so the > 0.5 branch flips on
# either side of it), the Rule-1/4 regime and the extremes.
THRESHOLDS = (0.03, 0.25, 0.45, 0.5, 0.51, 0.6, 0.75, 0.9, 0.97, 1.0)

CATALOGS = {
    "utree-m15": UCatalog.paper_utree_default(),
    "upcr-m9": UCatalog.evenly_spaced(9),
}


def _box(center, half) -> BoxRegion:
    return BoxRegion(Rect.from_center(np.asarray(center, dtype=float), half))


def _family_objects(dim: int, seed: int, n_rounds: int = 2) -> list[UncertainObject]:
    """All five pdf families over both region shapes, at the given dim."""
    rng = np.random.default_rng(seed)
    objs: list[UncertainObject] = []
    oid = 0

    def centre():
        return rng.uniform(2000, 8000, dim)

    for _ in range(n_rounds):
        objs.append(UncertainObject(oid, UniformDensity(BallRegion(centre(), 260.0))))
        oid += 1
        objs.append(UncertainObject(oid, UniformDensity(_box(centre(), 240.0))))
        oid += 1
        objs.append(
            UncertainObject(
                oid, ConstrainedGaussianDensity(BallRegion(centre(), 260.0), sigma=120.0)
            )
        )
        oid += 1
        objs.append(
            UncertainObject(
                oid, zipf_histogram(_box(centre(), 250.0), 6, skew=1.1, seed=oid)
            )
        )
        oid += 1
        objs.append(
            UncertainObject(
                oid,
                RadialExponentialDensity(BallRegion(centre(), 250.0), scale=90.0),
            )
        )
        oid += 1
        region = _box(centre(), 230.0)
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


def _query_rects(dim: int, seed: int, n: int = 24) -> list[Rect]:
    """Partial overlaps at every size plus containing/disjoint extremes."""
    rng = np.random.default_rng(seed)
    rects = [
        Rect.from_center(rng.uniform(1500, 8500, dim), float(rng.uniform(80, 2500)))
        for _ in range(n)
    ]
    rects.append(Rect(np.zeros(dim), np.full(dim, 10_000.0)))
    rects.append(Rect(np.full(dim, 90_000.0), np.full(dim, 91_000.0)))
    return rects


def _assert_filter_equal(a, b):
    assert a.validated == b.validated
    assert a.candidates == b.candidates
    assert a.pruned == b.pruned
    assert a.node_accesses == b.node_accesses


def _oracle_filter(structure, query: ProbRangeQuery) -> FilterResult:
    """The filter phase with one rule-engine verdict per leaf record.

    Walks the same traversal the structure runs (the Observation-4
    descent for the trees, the whole summary file for the scan, the
    router's probe order and merge for sharded methods) but classifies
    each record with a fresh :class:`CFBRules` / :class:`PCRRules`.
    """
    if isinstance(structure, ShardedAccessMethod):
        order = structure.route(query)
        return structure.merge_filter(
            order, [_oracle_filter(structure.shards[i], query) for i in order]
        )
    rq, pq = query.rect, query.threshold
    result = FilterResult()

    def classify(record) -> None:
        if isinstance(record, UPCRLeafRecord):
            verdict = PCRRules(record.pcrs).apply(rq, pq)
        else:
            rules = CFBRules(structure.catalog, record.outer, record.inner)
            verdict = rules.apply(record.mbr, rq, pq)
        if verdict is Verdict.VALIDATED:
            result.validated.append(record.oid)
        elif verdict is Verdict.CANDIDATE:
            result.candidates.append((record.oid, record.address))
        else:
            result.pruned += 1

    if isinstance(structure, SequentialScan):
        result.node_accesses = structure.scan_pages
        for record in structure.records():
            classify(record)
        return result

    def on_leaf(entries) -> None:
        for entry in entries:
            classify(entry.data)

    j = observation4_layer(structure.catalog, pq)
    result.node_accesses = structure.engine.traverse_layer(j, rq.lo, rq.hi, on_leaf)
    return result


def _random_queries(seed: int, n: int) -> list[ProbRangeQuery]:
    rng = np.random.default_rng(seed)
    return [
        ProbRangeQuery(
            Rect.from_center(rng.uniform(1500, 8500, 2), float(rng.uniform(100, 2200))),
            float(rng.choice(THRESHOLDS)),
        )
        for _ in range(n)
    ]


def _assert_matches_oracle(structure, queries) -> None:
    for query in queries:
        result = structure.filter_candidates(query)
        oracle = _oracle_filter(structure, query)
        _assert_filter_equal(result, oracle)
        if isinstance(structure, ShardedAccessMethod):
            assert result.shard_probes == oracle.shard_probes
            assert result.shards_pruned == oracle.shards_pruned


class TestKernelVsScalarRules:
    """Raw kernel verdicts == the scalar rule engines, bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("catalog_name", sorted(CATALOGS))
    def test_pcr_kernel_matches_pcrrules(self, dim, catalog_name):
        catalog = CATALOGS[catalog_name]
        objs = _family_objects(dim, seed=11 + dim)
        kernel = PCRFilterKernel(catalog, dim)
        rules, rows = [], []
        for obj in objs:
            pcrs = compute_pcrs(obj, catalog)
            rules.append(PCRRules(pcrs))
            rows.append(kernel.add(pcrs))
        for rect in _query_rects(dim, seed=29 + dim):
            query = Rect(rect.lo, rect.hi)
            for pq in THRESHOLDS:
                codes = kernel.classify(query, pq, rows)
                for i, rule in enumerate(rules):
                    assert VERDICT_BY_CODE[codes[i]] is rule.apply(query, pq)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("catalog_name", sorted(CATALOGS))
    def test_cfb_kernel_matches_cfbrules(self, dim, catalog_name):
        catalog = CATALOGS[catalog_name]
        objs = _family_objects(dim, seed=41 + dim)
        kernel = CFBFilterKernel(catalog, dim)
        rules, rows = [], []
        for obj in objs:
            pcrs = compute_pcrs(obj, catalog)
            outer, inner = fit_cfbs(pcrs)
            rules.append(CFBRules(catalog, outer, inner))
            rows.append(kernel.add(obj.mbr, outer, inner))
        for rect in _query_rects(dim, seed=53 + dim):
            for pq in THRESHOLDS:
                codes = kernel.classify(rect, pq, rows)
                for i, (obj, rule) in enumerate(zip(objs, rules)):
                    assert VERDICT_BY_CODE[codes[i]] is rule.apply(obj.mbr, rect, pq)

    def test_degenerate_point_pcrs(self):
        """PCRs collapsed to a point (every plane equal) classify identically."""
        catalog = UCatalog.evenly_spaced(9)  # includes 0.5: pcr(0.5) is a point
        rng = np.random.default_rng(7)
        kernel = PCRFilterKernel(catalog, 2)
        rules, rows = [], []
        for _ in range(8):
            point = rng.uniform(1000, 9000, 2)
            boxes = np.broadcast_to(
                point, (catalog.size, 2, 2)
            ).copy()  # every layer: lo == hi == point
            pcrs = PCRSet(catalog, boxes, Rect.from_point(point))
            rules.append(PCRRules(pcrs))
            rows.append(kernel.add(pcrs))
        for rect in _query_rects(2, seed=61, n=16):
            for pq in THRESHOLDS:
                codes = kernel.classify(rect, pq, rows)
                for i, rule in enumerate(rules):
                    assert VERDICT_BY_CODE[codes[i]] is rule.apply(rect, pq)

    def test_empty_batch_and_bad_threshold(self):
        catalog = UCatalog.paper_utree_default()
        kernel = CFBFilterKernel(catalog, 2)
        query = Rect([0.0, 0.0], [1.0, 1.0])
        assert kernel.classify(query, 0.5, []).size == 0
        with pytest.raises(ValueError):
            kernel.classify(query, 0.0, [])
        with pytest.raises(ValueError):
            kernel.classify(query, 1.5, [])

    def test_row_accounting(self):
        catalog = UCatalog.paper_utree_default()
        kernel = PCRFilterKernel(catalog, 2)
        obj = _family_objects(2, seed=3, n_rounds=1)[0]
        row = kernel.add(compute_pcrs(obj, catalog))
        assert len(kernel) == 1
        assert kernel.size_bytes == kernel.row_count * filter_kernel_row_bytes(
            2, catalog.size
        )
        kernel.release(row)
        assert len(kernel) == 0
        assert kernel.add(compute_pcrs(obj, catalog)) == row  # slot reused
        with pytest.raises(IndexError):
            kernel.release(999)


class TestStructureEquivalence:
    """Every structure's filter pass == the per-record rule-engine oracle."""

    @pytest.fixture(scope="class")
    def objects(self):
        return _family_objects(2, seed=97, n_rounds=3)

    @pytest.mark.parametrize("structure", ["utree", "upcr", "scan"])
    def test_filter_results_match_oracle(self, structure, objects):
        cls = {"utree": UTree, "upcr": UPCRTree, "scan": SequentialScan}[structure]
        index = cls(2, estimator=AppearanceEstimator(n_samples=600, seed=5))
        for obj in objects:
            index.insert(obj)
        _assert_matches_oracle(index, _random_queries(71, 20))

    @pytest.mark.parametrize("structure", ["utree", "upcr", "scan"])
    def test_update_churn_matches_oracle(self, structure, objects):
        """Delete + re-insert reuses sidecar rows without stale verdicts."""
        cls = {"utree": UTree, "upcr": UPCRTree, "scan": SequentialScan}[structure]
        index = cls(2, estimator=AppearanceEstimator(n_samples=400, seed=5))
        for obj in objects:
            index.insert(obj)
        for obj in objects[::3]:
            assert index.delete(obj.oid)
        fresh = _family_objects(2, seed=113, n_rounds=1)
        for obj in fresh:
            obj.oid += 10_000  # new generation, fresh ids
            index.insert(obj)
        _assert_matches_oracle(index, _random_queries(83, 12))

    @pytest.mark.parametrize("cls", [UTree, UPCRTree])
    def test_bulk_load_matches_oracle(self, cls, objects):
        loaded = cls.bulk_load(
            objects, estimator=AppearanceEstimator(n_samples=400, seed=5)
        )
        _assert_matches_oracle(loaded, _random_queries(19, 10))

    @pytest.mark.parametrize("method", ["utree", "upcr", "scan"])
    @pytest.mark.parametrize("partitioner", ["str", "hash"])
    def test_sharded_batches(self, method, partitioner, objects):
        """Shard-routed probes: one kernel call per probe, identical merges."""
        sharded = ShardedAccessMethod.build(
            objects, shards=4, partitioner=partitioner, method=method,
            estimator=AppearanceEstimator(n_samples=400, seed=5),
        )
        _assert_matches_oracle(sharded, _random_queries(29, 10))


def _oracle_walk(tree: UTree, point: np.ndarray, result: NNResult):
    """The NN best-first walk with one scalar distance pair per leaf entry."""
    best_worst = np.inf
    candidates = []
    heap = [(0.0, 0, tree.engine.root)]
    counter = 1
    while heap:
        mindist, __, node = heapq.heappop(heap)
        if mindist > best_worst:
            break
        tree.engine.store.touch_read(node.page_id)
        result.node_accesses += 1
        if node.is_leaf:
            for entry in node.entries:
                record = entry.data
                lo, hi = record.mbr.lo, record.mbr.hi
                d_min = _mindist(point, lo, hi)
                d_max = _maxdist(point, lo, hi)
                result.objects_examined += 1
                best_worst = min(best_worst, d_max)
                if d_min <= best_worst:
                    candidates.append((d_min, d_max, record))
        else:
            for entry in node.entries:
                lo, hi = entry.profile[0, 0], entry.profile[0, 1]
                d_min = _mindist(point, lo, hi)
                best_worst = min(best_worst, _maxdist(point, lo, hi))
                if d_min <= best_worst:
                    heapq.heappush(heap, (d_min, counter, entry.child))
                    counter += 1
    return candidates, best_worst


class TestNearestNeighbourWalk:
    def test_walk_matches_scalar_distances(self):
        tree = UTree(2)
        for obj in _family_objects(2, seed=97, n_rounds=3):
            tree.insert(obj)
        rng = np.random.default_rng(37)
        for _ in range(10):
            point = rng.uniform(500, 9500, 2)
            got, want = NNResult(), NNResult()
            candidates, best = _walk_candidates(tree, point, got)
            oracle, oracle_best = _oracle_walk(tree, point, want)
            assert got.node_accesses == want.node_accesses
            assert got.objects_examined == want.objects_examined
            assert [r.oid for *_, r in candidates] == [r.oid for *_, r in oracle]
            # The batched row norm and the scalar vector norm may round
            # the last bit differently; the admitted set is what counts.
            np.testing.assert_allclose(
                [(a, b) for a, b, _ in candidates] + [(best, best)],
                [(a, b) for a, b, _ in oracle] + [(oracle_best, oracle_best)],
                rtol=4 * np.finfo(float).eps, atol=0.0,
            )


def _rewrite_with_flag(path, flag: int) -> None:
    """Add the per-archive kernel flag older versions of save_utree wrote."""
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members["filter_kernel"] = np.int64(flag)
    with open(path, "wb") as fh:
        np.savez(fh, **members)


class TestSerializationRoundTrip:
    def test_loaded_tree_matches_saved_and_oracle(self, tmp_path):
        from repro.storage.serialize import load_utree, save_utree

        # Histogram-family objects round-trip; the zoo is built from
        # serialisable families only.
        tree = UTree(2)
        for obj in _family_objects(2, seed=131, n_rounds=2):
            tree.insert(obj)
        path = tmp_path / "tree.npz"
        save_utree(tree, path)
        with np.load(path) as archive:
            assert "filter_kernel" not in archive.files
        loaded = load_utree(path)
        queries = _random_queries(43, 10)
        _assert_matches_oracle(loaded, queries)
        for query in queries:
            assert loaded.query(query).sorted_ids() == tree.query(query).sorted_ids()

    @pytest.mark.parametrize("flag", [0, 1])
    def test_archive_with_kernel_flag_loads(self, tmp_path, flag):
        """Archives that still carry the kernel flag open with identical answers."""
        from repro.storage.serialize import load_utree, save_utree

        tree = UTree(2, estimator=AppearanceEstimator(n_samples=400, seed=5))
        for obj in _family_objects(2, seed=131, n_rounds=2):
            tree.insert(obj)
        path = tmp_path / "tree.npz"
        save_utree(tree, path)
        plain = load_utree(path, AppearanceEstimator(n_samples=400, seed=5))
        _rewrite_with_flag(path, flag)
        flagged = load_utree(path, AppearanceEstimator(n_samples=400, seed=5))
        for query in _random_queries(43, 10):
            _assert_filter_equal(
                flagged.filter_candidates(query), plain.filter_candidates(query)
            )
            answer = flagged.query(query)
            assert answer.object_ids == plain.query(query).object_ids
            assert answer.sorted_ids() == tree.query(query).sorted_ids()
