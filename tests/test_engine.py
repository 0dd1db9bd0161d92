"""Structural tests for the multi-layer R* engine.

Tiny page sizes force deep trees so splits, forced reinserts and condense
paths all run with small inputs.  Invariants checked: capacity bounds,
uniform leaf depth, parent-child profile containment, and exact
recall/precision of guided traversal against brute force.
"""

from __future__ import annotations

import functools
import hashlib
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import UCatalog
from repro.core.pruning import (
    CFBRules,
    PCRRules,
    Verdict,
    observation4_layer,
    subtree_may_qualify,
)
from repro.core.query import ProbRangeQuery
from repro.core.upcr import UPCRTree
from repro.core.utree import UTree
from repro.geometry.rect import Rect
from repro.index import metrics
from repro.index.engine import RStarEngine
from repro.index.node import Entry, Node
from repro.index.rstar import RStarTree
from repro.storage.layout import NodeLayout
from tests.conftest import make_mixed_objects


def tiny_layout(entries_per_node: int = 4) -> NodeLayout:
    """A layout capping nodes at `entries_per_node` entries."""
    page = 4096
    entry = page // entries_per_node
    return NodeLayout(leaf_entry_bytes=entry, inner_entry_bytes=entry, page_size=page)


def single_layer_profile(lo, hi):
    return np.array([[lo, hi]], dtype=float)


def random_profile(rng, layers: int, d: int = 2, linear: bool = False):
    """A valid multi-layer profile: layer boxes shrink with the layer index.

    With ``linear=True`` the faces are affine in the layer index — the
    shape CFB profiles have, and the precondition for chord-mode summaries
    to be conservative.
    """
    lo = rng.uniform(0, 1000, d)
    extent = rng.uniform(1.0, 120.0, d)
    profile = np.empty((layers, 2, d))
    if linear:
        slope = extent / 2.0 * rng.uniform(0.0, 1.0, d)
        for j in range(layers):
            t = j / max(1, layers - 1)
            profile[j, 0] = lo + t * slope
            profile[j, 1] = lo + extent - t * slope
        return profile
    for j in range(layers):
        shrink = (j / max(1, layers - 1)) * extent / 2.0 * rng.uniform(0.5, 1.0)
        profile[j, 0] = lo + shrink
        profile[j, 1] = lo + extent - shrink
    return profile


def overlap_enlargements_loop(stacked: np.ndarray, enlarged: np.ndarray) -> np.ndarray:
    """Reference summed overlap enlargements, one child at a time: for
    each child ``i`` sum its overlap with every other child before and
    after it becomes ``enlarged[i]``."""

    def overlap_with_each(one: np.ndarray, others: np.ndarray) -> np.ndarray:
        lo = np.maximum(others[:, :, 0, :], one[None, :, 0, :])
        hi = np.minimum(others[:, :, 1, :], one[None, :, 1, :])
        widths = np.maximum(hi - lo, 0.0)
        return np.prod(widths, axis=2).sum(axis=1)

    n = len(stacked)
    out = np.empty(n)
    for i in range(n):
        others = stacked[np.arange(n) != i]
        before = overlap_with_each(stacked[i], others).sum()
        after = overlap_with_each(enlarged[i], others).sum()
        out[i] = after - before
    return out


def choose_subtree_loop(stacked: np.ndarray, profile: np.ndarray) -> int:
    """Reference R* level-1 choice as a plain loop: the least (overlap
    enlargement, area enlargement, area) key wins, ties to the lowest
    index.  The engine computes the same pick from two pairwise overlap
    matrices and one lexsort."""
    enlarged = metrics.union_with(stacked, profile)
    overlap_enl = overlap_enlargements_loop(stacked, enlarged)
    areas_before = metrics.summed_areas(stacked)
    area_enl = metrics.summed_areas(enlarged) - areas_before
    best = -1
    best_key: tuple[float, float, float] | None = None
    for i in range(len(stacked)):
        key = (overlap_enl[i], area_enl[i], areas_before[i])
        if best_key is None or key < best_key:
            best_key = key
            best = i
    return best


def grid_profile(rng, layers: int, d: int) -> np.ndarray:
    """A profile on a coarse integer grid, so that float ties are common."""
    lo = rng.integers(0, 12, d).astype(float)
    extent = rng.integers(0, 6, d).astype(float)
    profile = np.empty((layers, 2, d))
    for j in range(layers):
        shrink = np.floor(j * extent / (2 * layers))
        profile[j, 0] = lo + shrink
        profile[j, 1] = lo + extent - shrink
    return profile


@st.composite
def level1_choices(draw):
    """A level-1 node's stacked child profiles plus a profile to insert,
    with ties planted on purpose."""
    n = draw(st.integers(min_value=2, max_value=61))
    d = draw(st.sampled_from([1, 2, 3]))
    layers = draw(st.sampled_from([1, 15]))
    tie = draw(st.sampled_from(["none", "duplicates", "inside", "zero-width", "identical"]))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def make():
        if grid:
            return grid_profile(rng, layers, d)
        return random_profile(rng, layers, d)

    stacked = np.stack([make() for _ in range(n)])
    profile = make()
    if tie == "duplicates":
        for k in range(1, n):
            if rng.random() < 0.5:
                stacked[k] = stacked[rng.integers(0, k)]
    elif tie == "inside":
        # Several children contain the new profile on every layer: none of
        # them grows, so their overlap and area enlargements are all zero.
        for k in rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False):
            pad = rng.integers(0, 3, size=(2, d)).astype(float)
            stacked[k, :, 0] = profile[:, 0] - pad[0]
            stacked[k, :, 1] = profile[:, 1] + pad[1]
    elif tie == "zero-width":
        for k in range(n):
            if rng.random() < 0.5:
                axis = int(rng.integers(0, d))
                stacked[k, :, 1, axis] = stacked[k, :, 0, axis]
        if rng.random() < 0.5:
            profile[:, 1, 0] = profile[:, 0, 0]
    elif tie == "identical":
        stacked[:] = stacked[0]
    return stacked, profile


def level1_node(stacked: np.ndarray) -> Node:
    node = Node(level=1, page_id=0)
    node.entries = [Entry(p, child=Node(0, k + 1)) for k, p in enumerate(stacked)]
    return node


class TestLevel1Choice:
    @given(level1_choices())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, case):
        stacked, profile = case
        __, layers, __, d = stacked.shape
        engine = RStarEngine(d, layers, tiny_layout())
        got = engine._choose_subtree(level1_node(stacked), profile)
        assert got == choose_subtree_loop(stacked, profile)
        # Not just the same pick: the same floats, bit for bit.
        enlarged = metrics.union_with(stacked, profile)
        assert np.array_equal(
            metrics.summed_overlap_enlargements(stacked, enlarged),
            overlap_enlargements_loop(stacked, enlarged),
        )

    def test_matches_loop_oracle_on_every_build_choice(self):
        """Every level-1 choice of a deep U-tree build (forced reinserts
        and condense included) equals the loop's pick."""
        tree = UTree(2, page_size=1024)
        engine = tree.engine
        choose = engine._choose_subtree
        checked = [0]

        def checked_choose(node, profile):
            got = choose(node, profile)
            if node.level == 1:
                assert got == choose_subtree_loop(node.stacked_profiles(), profile)
                checked[0] += 1
            return got

        engine._choose_subtree = checked_choose
        objects = make_mixed_objects(120, seed=9)
        for obj in objects:
            tree.insert(obj)
        for obj in objects[::4]:
            tree.delete(obj.oid)
        assert engine.height >= 3
        assert checked[0] > len(objects)


class TestSingleLayerEngine:
    def test_insert_search_roundtrip(self):
        engine = RStarEngine(2, 1, tiny_layout())
        rng = np.random.default_rng(0)
        items = []
        for i in range(200):
            lo = rng.uniform(0, 1000, 2)
            hi = lo + rng.uniform(1, 50, 2)
            engine.insert(single_layer_profile(lo, hi), i)
            items.append(Rect(lo, hi))
        engine.check_invariants()
        assert len(engine) == 200
        assert engine.height > 1

        query = Rect([200, 200], [500, 500])
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
        expected = [i for i, r in enumerate(items) if query.intersects(r)]
        assert sorted(found) == sorted(expected)

    def test_traverse_charges_reads(self):
        engine = RStarEngine(2, 1, tiny_layout())
        rng = np.random.default_rng(1)
        for i in range(50):
            lo = rng.uniform(0, 100, 2)
            engine.insert(single_layer_profile(lo, lo + 5), i)
        engine.io.reset()
        everywhere = np.full(2, np.inf)
        accesses = engine.traverse_layer(0, -everywhere, everywhere, lambda entries: None)
        assert accesses == engine.io.reads
        assert accesses == engine.node_count

    def test_delete_roundtrip(self):
        engine = RStarEngine(2, 1, tiny_layout())
        rng = np.random.default_rng(2)
        profiles = []
        for i in range(120):
            lo = rng.uniform(0, 1000, 2)
            p = single_layer_profile(lo, lo + rng.uniform(1, 30, 2))
            profiles.append(p)
            engine.insert(p, i)
        order = rng.permutation(120)
        for count, idx in enumerate(order):
            assert engine.delete(lambda data, idx=idx: data == idx, profiles[idx])
            if count % 10 == 0:
                engine.check_invariants()
        assert len(engine) == 0
        assert engine.height == 1

    def test_delete_missing_returns_false(self):
        engine = RStarEngine(2, 1, tiny_layout())
        lo = np.array([0.0, 0.0])
        engine.insert(single_layer_profile(lo, lo + 1), 1)
        assert not engine.delete(lambda data: data == 99, single_layer_profile(lo, lo + 1))
        assert len(engine) == 1

    def test_interleaved_insert_delete(self):
        engine = RStarEngine(2, 1, tiny_layout())
        rng = np.random.default_rng(3)
        live = {}
        next_id = 0
        for step in range(400):
            if live and rng.random() < 0.4:
                victim = int(rng.choice(list(live)))
                assert engine.delete(lambda d, v=victim: d == v, live.pop(victim))
            else:
                lo = rng.uniform(0, 500, 2)
                p = single_layer_profile(lo, lo + rng.uniform(1, 40, 2))
                engine.insert(p, next_id)
                live[next_id] = p
                next_id += 1
            if step % 50 == 0:
                engine.check_invariants()
        engine.check_invariants()
        assert len(engine) == len(live)


class TestMultiLayerEngine:
    @pytest.mark.parametrize("chord", [False, True])
    def test_invariants_after_bulk_insert(self, chord):
        layers = 5
        chord_values = np.linspace(0.0, 0.5, layers) if chord else None
        engine = RStarEngine(2, layers, tiny_layout(), chord_values=chord_values)
        rng = np.random.default_rng(4)
        for i in range(150):
            engine.insert(random_profile(rng, layers, linear=chord), i)
        engine.check_invariants()
        assert len(engine) == 150

    def test_parent_bounds_every_layer(self):
        """For every layer j, a parent entry's layer-j box contains each
        child's layer-j box — the property Observation 4 relies on."""
        layers = 4
        engine = RStarEngine(
            2, layers, tiny_layout(), chord_values=np.linspace(0.0, 0.5, layers)
        )
        rng = np.random.default_rng(5)
        for i in range(120):
            engine.insert(random_profile(rng, layers, linear=True), i)

        def check(node):
            if node.is_leaf:
                return
            for entry in node.entries:
                child = entry.child
                for child_entry in child.entries:
                    assert np.all(
                        entry.profile[:, 0, :] <= child_entry.profile[:, 0, :] + 1e-6
                    )
                    assert np.all(
                        child_entry.profile[:, 1, :] <= entry.profile[:, 1, :] + 1e-6
                    )
                check(child)

        check(engine.root)

    def test_chord_profiles_are_linear(self):
        layers = 6
        values = np.linspace(0.0, 0.5, layers)
        engine = RStarEngine(2, layers, tiny_layout(), chord_values=values)
        rng = np.random.default_rng(6)
        for i in range(80):
            engine.insert(random_profile(rng, layers, linear=True), i)
        # Every intermediate entry profile must lie on the chord between
        # its first and last layers.
        def check(node):
            if node.is_leaf:
                return
            for entry in node.entries:
                first, last = entry.profile[0], entry.profile[-1]
                t = (values - values[0]) / (values[-1] - values[0])
                expected = first[None] + t[:, None, None] * (last - first)[None]
                assert np.allclose(entry.profile, expected, atol=1e-9)
                check(entry.child)

        check(engine.root)

    def test_validation_errors(self):
        layout = tiny_layout()
        with pytest.raises(ValueError):
            RStarEngine(0, 1, layout)
        with pytest.raises(ValueError):
            RStarEngine(2, 0, layout)
        with pytest.raises(ValueError):
            RStarEngine(2, 3, layout, chord_values=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            RStarEngine(2, 2, layout, split_mode="bogus")
        with pytest.raises(ValueError):
            RStarEngine(2, 2, layout, split_layer=5)
        engine = RStarEngine(2, 2, layout)
        with pytest.raises(ValueError):
            engine.insert(np.zeros((3, 2, 2)), 0)

    def test_all_layers_split_mode(self):
        layers = 3
        engine = RStarEngine(2, layers, tiny_layout(), split_mode="all-layers")
        rng = np.random.default_rng(7)
        for i in range(100):
            engine.insert(random_profile(rng, layers), i)
        engine.check_invariants()

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_randomised_lifecycle(self, seed):
        rng = np.random.default_rng(seed)
        layers = int(rng.integers(1, 6))
        cap = int(rng.integers(3, 8))
        chord = rng.random() < 0.5 and layers > 1
        engine = RStarEngine(
            2,
            layers,
            tiny_layout(cap),
            chord_values=np.linspace(0.0, 0.5, layers) if chord else None,
        )
        live = {}
        for i in range(int(rng.integers(30, 120))):
            p = random_profile(rng, layers, linear=chord)
            engine.insert(p, i)
            live[i] = p
        for victim in rng.permutation(list(live))[: len(live) // 2]:
            assert engine.delete(lambda d, v=victim: d == v, live.pop(int(victim)))
        engine.check_invariants()
        assert len(engine) == len(live)
        assert sorted(e.data for e in engine.leaf_entries()) == sorted(live)


class TestIOAccounting:
    def test_insert_charges_io(self):
        engine = RStarEngine(2, 1, tiny_layout())
        rng = np.random.default_rng(8)
        lo = rng.uniform(0, 100, 2)
        before = engine.io.total
        engine.insert(single_layer_profile(lo, lo + 1), 0)
        assert engine.io.total > before

    def test_node_count_tracks_store(self):
        engine = RStarEngine(2, 1, tiny_layout(3))
        rng = np.random.default_rng(9)
        for i in range(60):
            lo = rng.uniform(0, 1000, 2)
            engine.insert(single_layer_profile(lo, lo + 5), i)
        counted = [0]

        def visit(node):
            counted[0] += 1
            if not node.is_leaf:
                for e in node.entries:
                    visit(e.child)

        visit(engine.root)
        assert counted[0] == engine.node_count
        assert engine.size_bytes == engine.node_count * 4096


def leaf_oid_digest(engine: RStarEngine) -> str:
    """Digest of the sorted per-leaf sorted oid sets: the tree's partition."""
    leaves = []
    stack = [engine.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(tuple(sorted(e.data.oid for e in node.entries)))
        else:
            stack.extend(e.child for e in node.entries)
    return hashlib.sha256(repr(sorted(leaves)).encode()).hexdigest()[:16]


class TestPinnedShape:
    """Exact tree shapes of a seeded build, recorded before the level-1
    choose-subtree rule was vectorised.  Small pages make the trees three
    and four levels deep, so non-root level-1 nodes, forced reinserts and
    condense all run; any change in a single subtree pick moves a leaf's
    oid set and with it the digest."""

    @pytest.mark.parametrize(
        "cls, page_size, node_count, height, digest",
        [
            (UTree, 1024, 59, 3, "26e03cfb3ff1b7fa"),
            (UPCRTree, 2048, 71, 4, "6f5e77b87b28a7a9"),
        ],
    )
    def test_shape_matches_recorded(self, cls, page_size, node_count, height, digest):
        objects = make_mixed_objects(240, seed=7)
        tree = cls(2, page_size=page_size)
        for obj in objects:
            tree.insert(obj)
        for obj in objects[::5]:
            tree.delete(obj.oid)
        tree.check_invariants()
        assert tree.engine.height >= 3
        assert (tree.engine.node_count, tree.engine.height) == (node_count, height)
        assert leaf_oid_digest(tree.engine) == digest


# ----------------------------------------------------------------------
# The layer traversal against the per-entry walk it replaced
# ----------------------------------------------------------------------
ORACLE_CATALOG = UCatalog([0.05, 0.15, 0.25, 0.35, 0.45])


def per_entry_walk(engine: RStarEngine, descend, on_leaf_entry) -> list[int]:
    """The per-entry traversal the layer descent replaced: one ``descend``
    call per intermediate entry, children pushed in entry order, every
    entry of every visited leaf handed over.  Returns the visited page
    ids in visit order."""
    stack = [engine.root]
    visits = []
    while stack:
        node = stack.pop()
        visits.append(node.page_id)
        if node.is_leaf:
            for entry in node.entries:
                on_leaf_entry(entry)
        else:
            for entry in node.entries:
                if descend(entry):
                    stack.append(entry.child)
    return visits


@functools.lru_cache(maxsize=None)
def oracle_structure(kind: str, size: str, build: str = "insert"):
    """A deep (small pages) or one-leaf tree, built once per test session,
    by repeated insertion or by STR bulk loading (U-tree and U-PCR)."""
    objects = make_mixed_objects(3 if size == "one-leaf" else 150, seed=13)
    if kind == "rstar":
        tree = RStarTree(2, page_size=512)
        for obj in objects:
            tree.insert(obj.mbr, obj.oid)
    else:
        cls = UTree if kind == "utree" else UPCRTree
        if build == "bulk":
            tree = cls.bulk_load(objects, 2, ORACLE_CATALOG, page_size=1024)
        else:
            tree = cls(2, ORACLE_CATALOG, page_size=1024)
            for obj in objects:
                tree.insert(obj)
        for obj in objects[::7]:
            tree.delete(obj.oid)
    assert (tree.engine.height == 1) == (size == "one-leaf")
    return tree


def all_entries(engine: RStarEngine) -> list[Entry]:
    out = []
    stack = [engine.root]
    while stack:
        node = stack.pop()
        out.extend(node.entries)
        if not node.is_leaf:
            stack.extend(e.child for e in node.entries)
    return out


@st.composite
def oracle_cases(draw):
    kind = draw(st.sampled_from(["utree", "upcr", "rstar"]))
    size = draw(st.sampled_from(["deep", "deep", "one-leaf"]))
    build = "insert" if kind == "rstar" else draw(st.sampled_from(["insert", "bulk"]))
    tree = oracle_structure(kind, size, build)
    pq = draw(
        st.sampled_from([0.01, 0.05, 0.2, 0.45, 0.6, 1.0])  # < p_1, p_1, p_m, > p_m
        | st.floats(min_value=1e-6, max_value=1.0)
    )
    j = 0 if kind == "rstar" else observation4_layer(tree.catalog, pq)
    if draw(st.booleans()):
        # Touch one stored box (inner or leaf) on one face only.
        entries = all_entries(tree.engine)
        box = entries[draw(st.integers(0, len(entries) - 1))].profile[j]
        axis = draw(st.integers(0, 1))
        extent = draw(st.floats(min_value=0.0, max_value=2000.0))
        lo = box[0].copy()
        hi = box[1].copy()
        if draw(st.booleans()):
            lo[axis] = box[1, axis]
            hi[axis] = box[1, axis] + extent
        else:
            hi[axis] = box[0, axis]
            lo[axis] = box[0, axis] - extent
        rect = Rect(lo, hi)
    else:
        x, y = (draw(st.floats(min_value=-500.0, max_value=10500.0)) for _ in range(2))
        w, h = (draw(st.floats(min_value=0.0, max_value=4000.0)) for _ in range(2))
        rect = Rect([x, y], [x + w, y + h])
    return kind, tree, rect, pq, j


class TestLayerTraversalOracle:
    """``traverse_layer`` visits the same nodes in the same order, hands
    over the same leaf records in the same order and charges the same
    node accesses as the per-entry walk, for every structure, inserted or
    bulk loaded; the filter pass's verdicts equal the rule engines' on the
    walk's records."""

    @given(oracle_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_entry_walk(self, case):
        kind, tree, rect, pq, j = case
        engine = tree.engine
        if kind == "rstar":
            def descend(entry):
                return rect.intersects(Rect(entry.profile[0, 0], entry.profile[0, 1]))
        else:
            def descend(entry):
                return subtree_may_qualify(
                    tree.catalog,
                    lambda k: Rect(entry.profile[k, 0], entry.profile[k, 1]),
                    rect,
                    pq,
                )
        want_leaves: list[Entry] = []
        want_visits = per_entry_walk(engine, descend, want_leaves.append)

        visits: list[int] = []
        leaves: list[Entry] = []
        touch = engine.store.touch_read
        def recording_touch(page_id):
            visits.append(page_id)
            touch(page_id)

        engine.store.touch_read = recording_touch
        try:
            reads = engine.io.reads
            accesses = engine.traverse_layer(j, rect.lo, rect.hi, leaves.extend)
            assert engine.io.reads - reads == accesses
        finally:
            del engine.store.touch_read
        assert visits == want_visits
        assert accesses == len(want_visits)
        assert [id(e) for e in leaves] == [id(e) for e in want_leaves]

        if kind == "rstar":
            found, accesses = tree.range_search(rect)
            assert accesses == len(want_visits)
            assert found == [
                e.data for e in want_leaves
                if rect.intersects(Rect(e.profile[0, 0], e.profile[0, 1]))
            ]
            return
        result = tree.filter_candidates(ProbRangeQuery(rect, pq))
        assert result.node_accesses == len(want_visits)
        validated, candidates, pruned = [], [], 0
        for entry in want_leaves:
            record = entry.data
            if kind == "utree":
                rules = CFBRules(tree.catalog, record.outer, record.inner)
                verdict = rules.apply(record.mbr, rect, pq)
            else:
                verdict = PCRRules(record.pcrs).apply(rect, pq)
            if verdict is Verdict.VALIDATED:
                validated.append(record.oid)
            elif verdict is Verdict.CANDIDATE:
                candidates.append((record.oid, record.address))
            else:
                pruned += 1
        assert result.validated == validated
        assert result.candidates == candidates
        assert result.pruned == pruned

    @pytest.mark.parametrize("kind", ["utree", "upcr"])
    @pytest.mark.parametrize("build", ["insert", "bulk"])
    @pytest.mark.parametrize("size", ["deep", "one-leaf"])
    @pytest.mark.parametrize("pq", [0.0, -0.2, 1.0 + 1e-12, 2.0])
    def test_threshold_outside_unit_interval_raises(self, kind, build, size, pq):
        tree = oracle_structure(kind, size, build)
        query = types.SimpleNamespace(rect=Rect([0, 0], [10_000, 10_000]), threshold=pq)
        with pytest.raises(ValueError, match=r"query threshold must be in \(0, 1\]"):
            tree.filter_candidates(query)
        with pytest.raises(ValueError, match=r"query threshold must be in \(0, 1\]"):
            subtree_may_qualify(tree.catalog, lambda k: query.rect, query.rect, pq)


# ----------------------------------------------------------------------
# The delete path's leaf search against the per-entry loop it replaced
# ----------------------------------------------------------------------
def per_entry_find_leaf(node, match, probe, nodes, idxs, visits):
    """The per-entry leaf search: two ``np.all`` containment checks per
    child, children searched in entry order.  ``visits`` records the
    page ids in touch order."""
    nodes = nodes + [node]
    visits.append(node.page_id)
    if node.is_leaf:
        for i, entry in enumerate(node.entries):
            if match(entry.data):
                return nodes, idxs, i
        return None
    tol = 1e-9
    for i, entry in enumerate(node.entries):
        box = entry.profile[0]
        if np.all(box[0] <= probe[0, 0] + tol) and np.all(probe[0, 1] <= box[1] + tol):
            found = per_entry_find_leaf(entry.child, match, probe, nodes, idxs + [i], visits)
            if found is not None:
                return found
    return None


class TestFindLeafOracle:
    """``_find_leaf`` finds the same ``(nodes, idxs, i)`` and touches the
    same pages in the same order as the per-entry search."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["present", "duplicate", "missing"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_entry_search(self, seed, case):
        rng = np.random.default_rng(seed)
        layers = int(rng.integers(1, 4))
        engine = RStarEngine(2, layers, tiny_layout(int(rng.integers(3, 7))))
        n = int(rng.integers(1, 90))
        profiles = [random_profile(rng, layers) for _ in range(n)]
        for oid, profile in enumerate(profiles):
            engine.insert(profile, oid)
        target = int(rng.integers(0, n))
        probe = profiles[target]
        wanted = {target}
        if case == "duplicate":
            # A second object with the same profile: either may match,
            # and both searches must reach the same one first.
            engine.insert(probe.copy(), n)
            wanted.add(n)
        elif case == "missing":
            wanted = {-1}

        def match(data):
            return data in wanted

        want_visits: list[int] = []
        want = per_entry_find_leaf(engine.root, match, probe, [], [], want_visits)

        visits: list[int] = []
        touch = engine.store.touch_read

        def recording_touch(page_id):
            visits.append(page_id)
            touch(page_id)

        engine.store.touch_read = recording_touch
        try:
            reads = engine.io.reads
            got = engine._find_leaf(engine.root, match, probe, [], [])
            assert engine.io.reads - reads == len(visits)
        finally:
            del engine.store.touch_read
        assert visits == want_visits
        if case == "missing":
            assert got is None and want is None
            return
        assert got is not None and want is not None
        assert [id(node) for node in got[0]] == [id(node) for node in want[0]]
        assert got[1] == want[1]
        assert got[2] == want[2]
