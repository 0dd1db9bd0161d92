"""A classic R*-tree over precise rectangles.

This is the single-layer instantiation of the engine (Section 2.2 of the
paper).  It serves three roles in the reproduction: a structural sanity
check for the engine, the "conventional range search on reported
locations" strawman the introduction argues against, and the base line
that the U-tree's update algorithms are adapted from.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.geometry.rect import Rect
from repro.index.engine import RStarEngine, layer_hits
from repro.index.node import Entry
from repro.storage.layout import rstar_layout
from repro.storage.pager import IOCounter

__all__ = ["RStarTree"]


class RStarTree:
    """A dynamic R*-tree mapping rectangles to opaque payloads."""

    def __init__(self, dim: int, *, page_size: int = 4096, io: IOCounter | None = None):
        self.dim = dim
        self.io = io if io is not None else IOCounter()
        self.engine = RStarEngine(dim, 1, rstar_layout(dim, page_size), io=self.io)

    def __len__(self) -> int:
        return len(self.engine)

    @property
    def height(self) -> int:
        return self.engine.height

    @property
    def size_bytes(self) -> int:
        return self.engine.size_bytes

    def insert(self, rect: Rect, data: Any) -> None:
        """Insert a rectangle with its payload."""
        self.engine.insert(rect.as_array()[None, :, :], data)

    def delete(self, match: Callable[[Any], bool], rect: Rect) -> bool:
        """Delete the first entry under ``rect`` whose payload matches."""
        return self.engine.delete(match, rect.as_array()[None, :, :])

    def range_search(self, query: Rect) -> tuple[list[Any], int]:
        """All payloads intersecting ``query`` plus the node-access count."""
        results: list[Any] = []
        lo, hi = query.lo, query.hi

        def on_leaf(entries: list[Entry]) -> None:
            results.extend(entries[i].data for i in layer_hits(entries, 0, lo, hi))

        accesses = self.engine.traverse_layer(0, lo, hi, on_leaf)
        return results, accesses

    def timed_range_search(self, query: Rect) -> tuple[list[Any], int, float]:
        """Like :meth:`range_search` but also reports wall time."""
        start = time.perf_counter()
        results, accesses = self.range_search(query)
        return results, accesses, time.perf_counter() - start

    def check_invariants(self) -> None:
        """Validate engine invariants."""
        self.engine.check_invariants()

    def all_rects(self) -> list[Rect]:
        """All stored rectangles (for testing)."""
        return [
            Rect(e.profile[0, 0], e.profile[0, 1]) for e in self.engine.leaf_entries()
        ]

    @staticmethod
    def brute_force(rects: list[tuple[Rect, Any]], query: Rect) -> list[Any]:
        """Reference answer for tests: linear scan intersection."""
        return [data for rect, data in rects if query.intersects(rect)]

    def bulk_insert(self, items: list[tuple[Rect, Any]]) -> None:
        """Insert many rectangles (convenience for tests/benchmarks)."""
        for rect, data in items:
            self.insert(rect, data)

    def profile_of(self, rect: Rect) -> np.ndarray:
        """The single-layer profile for ``rect`` (internal helper)."""
        return rect.as_array()[None, :, :]
