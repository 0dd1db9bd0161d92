"""Stateful property test: the engine versus a brute-force model.

Hypothesis drives random interleavings of inserts, deletes and range
searches against a single-layer engine with tiny nodes, checking after
every step that (a) structural invariants hold and (b) a guided search
returns exactly what a linear scan of the model returns.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.geometry.rect import Rect
from repro.index.engine import RStarEngine
from repro.storage.layout import NodeLayout


def _tiny_layout() -> NodeLayout:
    return NodeLayout(leaf_entry_bytes=1024, inner_entry_bytes=1024, page_size=4096)


coord = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False)
extent = st.floats(min_value=0.01, max_value=200.0, allow_nan=False, allow_infinity=False)


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = RStarEngine(2, 1, _tiny_layout())
        self.model: dict[int, Rect] = {}
        self.next_id = 0

    @rule(x=coord, y=coord, w=extent, h=extent)
    def insert(self, x, y, w, h):
        rect = Rect([x, y], [x + w, y + h])
        self.engine.insert(rect.as_array()[None], self.next_id)
        self.model[self.next_id] = rect
        self.next_id += 1

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        victim = data.draw(st.sampled_from(sorted(self.model)))
        rect = self.model.pop(victim)
        removed = self.engine.delete(lambda d, v=victim: d == v, rect.as_array()[None])
        assert removed, f"engine lost entry {victim}"

    @rule(x=coord, y=coord, w=extent, h=extent)
    def search(self, x, y, w, h):
        query = Rect([x, y], [x + w, y + h])
        found: list[int] = []
        self.engine.traverse_layer(
            0,
            query.lo,
            query.hi,
            lambda entries: found.extend(
                e.data
                for e in entries
                if query.intersects(Rect(e.profile[0, 0], e.profile[0, 1]))
            ),
        )
        expected = sorted(i for i, r in self.model.items() if query.intersects(r))
        assert sorted(found) == expected

    @invariant()
    def sizes_agree(self):
        assert len(self.engine) == len(self.model)

    @invariant()
    def structure_valid(self):
        self.engine.check_invariants()


TestEngineStateful = EngineMachine.TestCase
TestEngineStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
