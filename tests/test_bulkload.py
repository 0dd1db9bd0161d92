"""Tests for STR bulk loading."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import ProbRangeQuery
from repro.core.upcr import UPCRTree
from repro.core.utree import UTree
from repro.geometry.rect import Rect
from repro.index.bulkload import bulk_load
from repro.index.engine import RStarEngine
from repro.storage.layout import NodeLayout
from repro.uncertainty.montecarlo import AppearanceEstimator
from tests.conftest import brute_force_answer, make_mixed_objects


def tiny_layout(entries_per_node: int = 5) -> NodeLayout:
    page = 4096
    entry = page // entries_per_node
    return NodeLayout(leaf_entry_bytes=entry, inner_entry_bytes=entry, page_size=page)


def random_items(rng, n, layers=1, d=2):
    items = []
    for i in range(n):
        lo = rng.uniform(0, 1000, d)
        hi = lo + rng.uniform(1, 40, d)
        profile = np.broadcast_to(np.stack([lo, hi])[None], (layers, 2, d)).copy()
        items.append((profile, i))
    return items


class TestEngineBulkLoad:
    def test_structure_valid(self):
        engine = RStarEngine(2, 1, tiny_layout())
        items = random_items(np.random.default_rng(0), 200)
        bulk_load(engine, items)
        engine.check_invariants()
        assert len(engine) == 200
        assert sorted(e.data for e in engine.leaf_entries()) == list(range(200))

    def test_search_equivalence_with_inserted_tree(self):
        rng = np.random.default_rng(1)
        items = random_items(rng, 150)
        packed = RStarEngine(2, 1, tiny_layout())
        bulk_load(packed, items)
        inserted = RStarEngine(2, 1, tiny_layout())
        for profile, data in items:
            inserted.insert(profile, data)

        query = Rect([200, 200], [700, 700])
        for engine in (packed, inserted):
            found = []
            engine.traverse_layer(
                0,
                query.lo,
                query.hi,
                lambda entries: found.extend(
                    e.data
                    for e in entries
                    if query.intersects(Rect(e.profile[0, 0], e.profile[0, 1]))
                ),
            )
            found.sort()
            if engine is packed:
                reference = found
        assert found == reference

    def test_fewer_nodes_than_incremental(self):
        rng = np.random.default_rng(2)
        items = random_items(rng, 400)
        packed = RStarEngine(2, 1, tiny_layout())
        bulk_load(packed, items)
        inserted = RStarEngine(2, 1, tiny_layout())
        for profile, data in items:
            inserted.insert(profile, data)
        assert packed.node_count <= inserted.node_count

    def test_partial_fill(self):
        rng = np.random.default_rng(3)
        items = random_items(rng, 100)
        full = RStarEngine(2, 1, tiny_layout())
        bulk_load(full, items, fill=1.0)
        slack = RStarEngine(2, 1, tiny_layout())
        bulk_load(slack, items, fill=0.6)
        assert slack.node_count >= full.node_count
        slack.check_invariants()

    def test_insert_after_bulk_load(self):
        rng = np.random.default_rng(4)
        engine = RStarEngine(2, 1, tiny_layout())
        bulk_load(engine, random_items(rng, 80), fill=0.7)
        extra = random_items(rng, 40)
        for profile, data in extra:
            engine.insert(profile, data + 1000)
        engine.check_invariants()
        assert len(engine) == 120

    def test_empty_and_single(self):
        engine = RStarEngine(2, 1, tiny_layout())
        bulk_load(engine, [])
        assert len(engine) == 0
        engine2 = RStarEngine(2, 1, tiny_layout())
        bulk_load(engine2, random_items(np.random.default_rng(5), 1))
        assert len(engine2) == 1
        assert engine2.height == 1

    def test_validation(self):
        engine = RStarEngine(2, 1, tiny_layout())
        with pytest.raises(ValueError):
            bulk_load(engine, random_items(np.random.default_rng(6), 5), fill=0.0)
        engine.insert(random_items(np.random.default_rng(7), 1)[0][0], 0)
        with pytest.raises(ValueError):
            bulk_load(engine, random_items(np.random.default_rng(8), 5))

    def test_multi_layer(self):
        rng = np.random.default_rng(9)
        layers = 4
        engine = RStarEngine(
            2, layers, tiny_layout(), chord_values=np.linspace(0, 0.5, layers)
        )
        items = random_items(rng, 120, layers=layers)
        bulk_load(engine, items)
        engine.check_invariants()

    def test_3d(self):
        rng = np.random.default_rng(10)
        engine = RStarEngine(3, 1, tiny_layout())
        bulk_load(engine, random_items(rng, 150, d=3))
        engine.check_invariants()


class TestTreeBulkLoad:
    def test_utree_bulk_load_answers_match(self):
        objects = make_mixed_objects(60, seed=95)
        packed = UTree.bulk_load(objects, estimator=AppearanceEstimator(20_000, seed=42))
        packed.check_invariants()
        assert len(packed) == 60
        query = ProbRangeQuery(Rect([2000, 2000], [8000, 8000]), 0.5)
        expected = brute_force_answer(objects, query.rect, 0.5)
        assert packed.query(query).sorted_ids() == expected

    def test_utree_bulk_smaller_or_equal(self):
        objects = make_mixed_objects(120, seed=96)
        packed = UTree.bulk_load(objects)
        inserted = UTree(2)
        for obj in objects:
            inserted.insert(obj)
        assert packed.engine.node_count <= inserted.engine.node_count

    def test_utree_bulk_then_update(self):
        objects = make_mixed_objects(50, seed=97)
        tree = UTree.bulk_load(objects[:40], estimator=AppearanceEstimator(20_000, seed=42))
        for obj in objects[40:]:
            tree.insert(obj)
        for obj in objects[:10]:
            assert tree.delete(obj.oid) is not None
        tree.check_invariants()
        query = ProbRangeQuery(Rect([0, 0], [10000, 10000]), 0.3)
        expected = brute_force_answer(objects[10:], query.rect, 0.3)
        assert tree.query(query).sorted_ids() == expected

    def test_upcr_bulk_load(self):
        objects = make_mixed_objects(60, seed=98)
        packed = UPCRTree.bulk_load(objects, estimator=AppearanceEstimator(20_000, seed=42))
        packed.check_invariants()
        query = ProbRangeQuery(Rect([1000, 1000], [9000, 9000]), 0.4)
        expected = brute_force_answer(objects, query.rect, 0.4)
        assert packed.query(query).sorted_ids() == expected

    def test_empty_requires_dim(self):
        with pytest.raises(ValueError):
            UTree.bulk_load([])
        tree = UTree.bulk_load([], dim=2)
        assert len(tree) == 0
