"""The multi-layer R* engine shared by the R*-tree, U-tree and U-PCR.

The three index structures in this library differ only in what their
entries *bound*:

* R*-tree — one MBR per entry (``L = 1`` layers);
* U-PCR — the exact layer-wise union of child PCRs at every catalog value;
* U-tree — two stored rectangles (``MBR⊥`` at ``p_1`` and ``MBR`` at
  ``p_m``) from which ``e.MBR(p)`` is derived *linearly* (Eq. 15), i.e.
  the intermediate layers are chord interpolations.

Everything else — choose-subtree, forced reinsert, node split, deletion
with condense — is the R*-tree algorithm with the paper's *summed* penalty
metrics (Section 5.3).  This engine implements that machinery once, over
``(L, 2, d)`` rectangle profiles, with two policy knobs:

* ``chord_values`` — catalog values; when given, node summaries keep only
  the first/last layers exact and chord-derive the rest (U-tree mode).
  Chord summaries remain conservative: layer-wise union of linear-in-p
  boxes is concave (lower faces) / convex (upper faces) in ``p``, so the
  chord bounds it from outside.
* ``split_layer`` / ``split_mode`` — the paper's median-catalog-value
  split versus the expensive all-layer split (ablation).

All structural modifications charge simulated page I/O so the update-cost
experiment (Fig. 11) falls out of the same accounting as queries.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any

import numpy as np

from repro.index import metrics
from repro.index.node import Entry, Node
from repro.index.split import rstar_split, rstar_split_profiles
from repro.storage.bufferpool import BufferPool
from repro.storage.layout import NodeLayout
from repro.storage.pager import IOCounter, PageStore

__all__ = ["RStarEngine", "layer_hits"]


def layer_hits(
    entries: list[Entry], j: int, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Ascending indices of the entries whose layer-``j`` box meets the
    closed box ``[lo, hi]``: one stacked comparison for the whole node."""
    if not entries:
        return np.empty(0, dtype=np.intp)
    boxes = np.array([e.profile for e in entries])[:, j]
    return np.flatnonzero((boxes[:, 0] <= hi).all(1) & (boxes[:, 1] >= lo).all(1))


class RStarEngine:
    """A dynamic R*-style tree over multi-layer rectangle profiles."""

    def __init__(
        self,
        dim: int,
        layers: int,
        layout: NodeLayout,
        *,
        io: IOCounter | None = None,
        pool: BufferPool | None = None,
        chord_values: np.ndarray | None = None,
        split_layer: int | None = None,
        split_mode: str = "median-layer",
        reinsert_fraction: float = 0.3,
        min_fill_fraction: float = 0.4,
    ):
        if dim < 1:
            raise ValueError("dim must be at least 1")
        if layers < 1:
            raise ValueError("layers must be at least 1")
        if split_mode not in ("median-layer", "all-layers"):
            raise ValueError(f"unknown split_mode {split_mode!r}")
        if not 0.0 < reinsert_fraction < 1.0:
            raise ValueError("reinsert_fraction must be in (0, 1)")
        self.dim = dim
        self.layers = layers
        self.layout = layout
        self.io = io if io is not None else IOCounter()
        self.store = PageStore(self.io, layout.page_size, pool=pool)
        self.split_mode = split_mode
        self.split_layer = layers // 2 if split_layer is None else split_layer
        if not 0 <= self.split_layer < layers:
            raise ValueError("split_layer out of range")
        self.reinsert_fraction = reinsert_fraction
        self.min_fill_fraction = min_fill_fraction

        if chord_values is not None:
            vals = np.asarray(chord_values, dtype=np.float64)
            if vals.shape != (layers,):
                raise ValueError("chord_values must have one value per layer")
            if layers > 1:
                span = vals[-1] - vals[0]
                if span <= 0:
                    raise ValueError("chord_values must be ascending")
                self._chord_t: np.ndarray | None = (vals - vals[0]) / span
            else:
                self._chord_t = np.zeros(1)
        else:
            self._chord_t = None

        self.root = Node(level=0, page_id=self.store.allocate())
        self._size = 0
        self._overflow_seen: set[int] = set()
        self._dirty: set[int] = set()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 for a single leaf root)."""
        return self.root.level + 1

    @property
    def node_count(self) -> int:
        return self.store.page_count

    @property
    def size_bytes(self) -> int:
        """Index size: one page per node (Table 1's metric)."""
        return self.store.size_bytes

    def insert(self, profile: np.ndarray, data: Any) -> None:
        """Insert a leaf entry with the given profile and payload."""
        entry = Entry(np.asarray(profile, dtype=np.float64), data=data)
        if entry.profile.shape != (self.layers, 2, self.dim):
            raise ValueError(
                f"profile shape {entry.profile.shape} does not match "
                f"engine ({self.layers}, 2, {self.dim})"
            )
        self._overflow_seen = set()
        self._dirty = set()
        self._insert_at_level(entry, 0)
        self._size += 1
        self._flush_dirty()

    def delete(self, match: Callable[[Any], bool], profile: np.ndarray) -> bool:
        """Delete the first leaf entry whose payload satisfies ``match``.

        ``profile`` guides the search: only subtrees whose layer-0 box
        contains the entry's layer-0 box are explored.  Returns True when
        an entry was found and removed.
        """
        probe = np.asarray(profile, dtype=np.float64)
        found = self._find_leaf(self.root, match, probe, [], [])
        if found is None:
            return False
        nodes, idxs, entry_idx = found
        self._overflow_seen = set()
        self._dirty = set()
        leaf = nodes[-1]
        del leaf.entries[entry_idx]
        self._dirty.add(leaf.page_id)
        self._condense(nodes, idxs)
        self._size -= 1
        self._flush_dirty()
        return True

    def traverse_layer(
        self,
        j: int,
        lo: np.ndarray,
        hi: np.ndarray,
        on_leaf: Callable[[list[Entry]], None],
    ) -> int:
        """Observation-4 descent at layer ``j``, one page read per visited node.

        An intermediate entry's subtree is visited iff its layer-``j``
        box meets the closed query box ``[lo, hi]``.  Each visited inner
        node decides all of its children with one stacked comparison;
        the survivors are pushed in entry order, so nodes are visited
        depth-first, last child first, exactly as a per-entry walk would.
        ``on_leaf`` receives each visited leaf's entry list in visit
        order.  Returns the number of node accesses.
        """
        stack = [self.root]
        touch = self.store.touch_read
        accesses = 0
        while stack:
            node = stack.pop()
            touch(node.page_id)
            accesses += 1
            entries = node.entries
            if node.level == 0:
                on_leaf(entries)
            else:
                stack.extend(entries[i].child for i in layer_hits(entries, j, lo, hi))
        return accesses

    def leaf_entries(self) -> Iterator[Entry]:
        """Iterate all leaf entries (no I/O charged; for testing/inspection)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(e.child for e in node.entries)  # type: ignore[misc]

    # ------------------------------------------------------------------
    # invariant checking (used heavily by the test-suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        self._check_node(self.root, is_root=True, expected_level=self.root.level)

    def _check_node(self, node: Node, is_root: bool, expected_level: int) -> None:
        assert node.level == expected_level, "level mismatch"
        cap = self._capacity(node)
        assert node.size <= cap, f"node over capacity: {node.size} > {cap}"
        if not is_root and self._size > 0:
            assert node.size >= self._min_fill(node), "node under-filled"
        if node.is_leaf:
            for entry in node.entries:
                assert entry.is_leaf_entry, "leaf node holds an inner entry"
            return
        for entry in node.entries:
            assert entry.child is not None, "inner node holds a leaf entry"
            child = entry.child
            assert child.level == node.level - 1, "child level mismatch"
            summary = self._summarize(child)
            tol = 1e-6
            assert np.all(entry.profile[:, 0, :] <= summary[:, 0, :] + tol) and np.all(
                summary[:, 1, :] <= entry.profile[:, 1, :] + tol
            ), "parent entry does not bound its child"
            self._check_node(child, is_root=False, expected_level=node.level - 1)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def _summarize(self, node: Node) -> np.ndarray:
        """Bounding profile of a node: exact unions, or chord-derived."""
        union = metrics.stacked_union(node.stacked_profiles())
        return self._derive(union)

    def _derive(self, union: np.ndarray) -> np.ndarray:
        if self._chord_t is None or self.layers == 1:
            return union
        first = union[0]
        last = union[-1]
        return first[None, :, :] + self._chord_t[:, None, None] * (last - first)[None, :, :]

    # ------------------------------------------------------------------
    # insertion machinery
    # ------------------------------------------------------------------
    def _capacity(self, node: Node) -> int:
        return self.layout.leaf_capacity if node.is_leaf else self.layout.inner_capacity

    def _min_fill(self, node: Node) -> int:
        return self.layout.min_fill(self._capacity(node), self.min_fill_fraction)

    def _insert_at_level(self, entry: Entry, level: int) -> None:
        if level > self.root.level:
            raise RuntimeError("cannot insert above the root level")
        nodes, idxs = self._choose_path(entry.profile, level)
        for node in nodes:
            self.store.touch_read(node.page_id)
        target = nodes[-1]
        target.entries.append(entry)
        self._dirty.add(target.page_id)
        self._refresh_upward(nodes, idxs)
        if target.size > self._capacity(target):
            self._handle_overflow(nodes, idxs)

    def _choose_path(self, profile: np.ndarray, level: int) -> tuple[list[Node], list[int]]:
        nodes = [self.root]
        idxs: list[int] = []
        node = self.root
        while node.level > level:
            i = self._choose_subtree(node, profile)
            idxs.append(i)
            node = node.entries[i].child  # type: ignore[assignment]
            nodes.append(node)
        return nodes, idxs

    def _choose_subtree(self, node: Node, profile: np.ndarray) -> int:
        stacked = node.stacked_profiles()
        enlarged = metrics.union_with(stacked, profile)
        areas_before = metrics.summed_areas(stacked)
        areas_after = metrics.summed_areas(enlarged)
        area_enl = areas_after - areas_before

        if node.level == 1:
            # Children are leaves: minimise summed overlap enlargement
            # (ties: area enlargement, then area), per the R* rule.  The
            # lexsort is stable, so exact ties go to the lowest index.
            overlap_enl = metrics.summed_overlap_enlargements(stacked, enlarged)
            return int(np.lexsort((areas_before, area_enl, overlap_enl))[0])

        order = np.lexsort((areas_before, area_enl))
        return int(order[0])

    def _refresh_upward(self, nodes: list[Node], idxs: list[int]) -> None:
        for i in range(len(nodes) - 1, 0, -1):
            parent = nodes[i - 1]
            parent.entries[idxs[i - 1]].profile = self._summarize(nodes[i])
            self._dirty.add(parent.page_id)

    def _handle_overflow(self, nodes: list[Node], idxs: list[int]) -> None:
        node = nodes[-1]
        if len(nodes) > 1 and node.level not in self._overflow_seen:
            self._overflow_seen.add(node.level)
            self._forced_reinsert(nodes, idxs)
        else:
            self._split_node(nodes, idxs)

    def _forced_reinsert(self, nodes: list[Node], idxs: list[int]) -> None:
        """R* forced reinsert: evict the entries farthest from the node
        centre (summed centroid distance) and re-insert them from the root,
        closest first."""
        node = nodes[-1]
        stacked = node.stacked_profiles()
        summary = self._derive(metrics.stacked_union(stacked))
        distances = metrics.summed_centroid_distances(stacked, summary)
        k = max(1, int(round(self.reinsert_fraction * node.size)))
        order = np.argsort(distances, kind="stable")
        keep = sorted(order[: node.size - k].tolist())
        evict = order[node.size - k:].tolist()  # ascending distance
        entries = node.entries
        evicted = [entries[i] for i in evict]
        node.entries = [entries[i] for i in keep]
        self._dirty.add(node.page_id)
        self._refresh_upward(nodes, idxs)
        for entry in evicted:
            self._insert_at_level(entry, node.level)

    def _split_node(self, nodes: list[Node], idxs: list[int]) -> None:
        node = nodes[-1]
        entries = node.entries
        stacked = node.stacked_profiles()
        min_fill = self._min_fill(node)
        if self.split_mode == "all-layers":
            g1, g2 = rstar_split_profiles(stacked, min_fill)
        else:
            g1, g2 = rstar_split(stacked[:, self.split_layer], min_fill)

        sibling = Node(node.level, self.store.allocate())
        node.entries = [entries[i] for i in g1]
        sibling.entries = [entries[i] for i in g2]
        self._dirty.add(node.page_id)
        self._dirty.add(sibling.page_id)

        if len(nodes) == 1:
            new_root = Node(node.level + 1, self.store.allocate())
            new_root.entries = [
                Entry(self._summarize(node), child=node),
                Entry(self._summarize(sibling), child=sibling),
            ]
            self.root = new_root
            self._dirty.add(new_root.page_id)
            return

        parent = nodes[-2]
        parent.entries[idxs[-1]].profile = self._summarize(node)
        parent.entries.append(Entry(self._summarize(sibling), child=sibling))
        self._dirty.add(parent.page_id)
        self._refresh_upward(nodes[:-1], idxs[:-1])
        if parent.size > self._capacity(parent):
            self._handle_overflow(nodes[:-1], idxs[:-1])

    # ------------------------------------------------------------------
    # deletion machinery
    # ------------------------------------------------------------------
    def _find_leaf(
        self,
        node: Node,
        match: Callable[[Any], bool],
        probe: np.ndarray,
        nodes: list[Node],
        idxs: list[int],
    ) -> tuple[list[Node], list[int], int] | None:
        nodes = nodes + [node]
        self.store.touch_read(node.page_id)
        if node.is_leaf:
            for i, entry in enumerate(node.entries):
                if match(entry.data):
                    return nodes, idxs, i
            return None
        # One stacked containment test decides every child; survivors are
        # searched in entry order, so the path found is the first one.
        tol = 1e-9
        boxes = np.array([entry.profile[0] for entry in node.entries])
        inside = (boxes[:, 0] <= probe[0, 0] + tol).all(1) & (
            probe[0, 1] <= boxes[:, 1] + tol
        ).all(1)
        for i in np.flatnonzero(inside).tolist():
            found = self._find_leaf(node.entries[i].child, match, probe, nodes, idxs + [i])  # type: ignore[arg-type]
            if found is not None:
                return found
        return None

    def _condense(self, nodes: list[Node], idxs: list[int]) -> None:
        orphans: list[tuple[int, Entry]] = []
        for i in range(len(nodes) - 1, 0, -1):
            node = nodes[i]
            parent = nodes[i - 1]
            if node.size < self._min_fill(node):
                del parent.entries[idxs[i - 1]]
                self._dirty.add(parent.page_id)
                orphans.extend((node.level, e) for e in node.entries)
                self.store.free(node.page_id)
                self._dirty.discard(node.page_id)
            else:
                parent.entries[idxs[i - 1]].profile = self._summarize(node)
                self._dirty.add(parent.page_id)

        # Reinsert orphaned entries, lowest levels first.
        for level, entry in sorted(orphans, key=lambda pair: pair[0]):
            self._insert_at_level(entry, level)

        # Shrink the root while it is a one-child inner node.
        while not self.root.is_leaf and self.root.size == 1:
            old = self.root
            self.root = old.entries[0].child  # type: ignore[assignment]
            self.store.free(old.page_id)
            self._dirty.discard(old.page_id)

    # ------------------------------------------------------------------
    # I/O bookkeeping
    # ------------------------------------------------------------------
    def _flush_dirty(self) -> None:
        for page_id in self._dirty:
            self.store.touch_write(page_id)
        self._dirty = set()
