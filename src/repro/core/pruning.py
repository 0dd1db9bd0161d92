"""Pruning and validation rules: Observations 1-4 of the paper.

These rules decide, from pre-computed PCRs or CFBs alone, whether an
object *cannot* satisfy a prob-range query (prune), *must* satisfy it
(validate), or needs its appearance probability computed (candidate).
Avoiding that Monte-Carlo computation is the entire point of the paper.

Two rule engines share the same logic skeleton:

* :class:`PCRRules` — Observation 2 (finite catalog) over exact PCRs; used
  by the U-PCR comparison structure and the sequential-scan filter.
* :class:`CFBRules` — Observation 3: the same five rules with each PCR
  replaced by the appropriate conservative functional box (inner boxes for
  containment-style pruning, outer boxes for intersection-style pruning
  and slab validation, inner planes for Rule 5 validation).

Both engines apply the paper's rule ordering: the pruning rule first, then
the validation rules (Section 4.1 gives the order 1-4-3 for
``p_q > 0.5`` and 2-5-3 otherwise).
"""

from __future__ import annotations

import enum
import math

from repro.core.catalog import UCatalog
from repro.core.cfb import LinearBoxFunction
from repro.core.pcr import PCRSet
from repro.geometry.rect import Rect

__all__ = [
    "Verdict",
    "covers_band",
    "PCRRules",
    "CFBRules",
    "observation4_layer",
    "subtree_may_qualify",
]


class Verdict(enum.Enum):
    """Outcome of applying the filter rules to one object."""

    PRUNED = "pruned"
    VALIDATED = "validated"
    CANDIDATE = "candidate"


def covers_band(query: Rect, mbr: Rect, axis: int, band_lo: float, band_hi: float) -> bool:
    """Does ``query`` fully cover the part of ``mbr`` between two planes?

    The planes are perpendicular to ``axis`` at coordinates ``band_lo`` and
    ``band_hi`` (either may be infinite).  This is the O(d) primitive of
    Section 4.1: the query must contain the MBR's projection on every
    other axis, and its own projection on ``axis`` must contain the band
    clipped to the MBR.  An empty clipped band returns False — validation
    must never fire on empty geometry.
    """
    lo = max(band_lo, float(mbr.lo[axis]))
    hi = min(band_hi, float(mbr.hi[axis]))
    if lo > hi:
        return False
    for i in range(mbr.dim):
        if i == axis:
            continue
        if query.lo[i] > mbr.lo[i] or query.hi[i] < mbr.hi[i]:
            return False
    return bool(query.lo[axis] <= lo and hi <= query.hi[axis])


class _RuleEngine:
    """Shared skeleton of Observations 2 and 3.

    Subclasses provide the boxes/planes the rules consult; this class owns
    the catalog-value selection and the rule ordering.
    """

    def __init__(self, catalog: UCatalog):
        self.catalog = catalog

    # -- hooks supplied by subclasses ----------------------------------
    def _prune_containment_box(self, j: int) -> Rect:
        """Box for Rule 1 (query must contain it, else prune)."""
        raise NotImplementedError

    def _prune_intersection_box(self, j: int) -> Rect:
        """Box for Rule 2 (query must intersect it, else prune)."""
        raise NotImplementedError

    def _outer_planes(self, j: int, axis: int) -> tuple[float, float]:
        """(lower, upper) planes for Rules 3 and 4."""
        raise NotImplementedError

    def _inner_planes(self, j: int, axis: int) -> tuple[float, float]:
        """(lower, upper) planes for Rule 5."""
        raise NotImplementedError

    # -- the public verdict --------------------------------------------
    def verdict(self, mbr: Rect, query: Rect, pq: float) -> Verdict:
        """Apply the applicable rules in the paper's order."""
        if not 0.0 < pq <= 1.0:
            raise ValueError(f"query threshold must be in (0, 1], got {pq}")
        # Cheap universal screen: no overlap with the support, no result.
        if not query.intersects(mbr):
            return Verdict.PRUNED
        if pq > 0.5:
            if self._rule1_prunes(query, pq):
                return Verdict.PRUNED
            if self._rule4_validates(mbr, query, pq):
                return Verdict.VALIDATED
        else:
            if self._rule2_prunes(query, pq):
                return Verdict.PRUNED
            if self._rule5_validates(mbr, query, pq):
                return Verdict.VALIDATED
        if self._rule3_validates(mbr, query, pq):
            return Verdict.VALIDATED
        return Verdict.CANDIDATE

    # -- rules ----------------------------------------------------------
    def _rule1_prunes(self, query: Rect, pq: float) -> bool:
        """Rule 1: for pq > 1 - p_m, prune unless rq contains the box at
        the smallest catalog value >= 1 - pq."""
        if pq <= 1.0 - self.catalog.p_max:
            return False
        j = self.catalog.index_of_smallest_at_least(1.0 - pq)
        if j is None:
            return False
        return not query.contains(self._prune_containment_box(j))

    def _rule2_prunes(self, query: Rect, pq: float) -> bool:
        """Rule 2: for pq <= 1 - p_m, prune unless rq intersects the box at
        the largest catalog value <= pq."""
        if pq > 1.0 - self.catalog.p_max:
            return False
        j = self.catalog.index_of_largest_at_most(pq)
        if j is None:
            return False
        return not query.intersects(self._prune_intersection_box(j))

    def _rule3_validates(self, mbr: Rect, query: Rect, pq: float) -> bool:
        """Rule 3: validate if rq covers the MBR slab between the outer
        planes at the largest catalog value <= (1 - pq) / 2 (mass 1 - 2p_j)."""
        j = self.catalog.index_of_largest_at_most((1.0 - pq) / 2.0)
        if j is None:
            return False
        for axis in range(mbr.dim):
            lower, upper = self._outer_planes(j, axis)
            if covers_band(query, mbr, axis, lower, upper):
                return True
        return False

    def _rule4_validates(self, mbr: Rect, query: Rect, pq: float) -> bool:
        """Rule 4 (pq > 0.5): validate if rq covers the MBR part right of
        the lower plane (or left of the upper plane) at the largest
        catalog value <= 1 - pq (mass 1 - p_j)."""
        j = self.catalog.index_of_largest_at_most(1.0 - pq)
        if j is None:
            return False
        for axis in range(mbr.dim):
            lower, upper = self._outer_planes(j, axis)
            if covers_band(query, mbr, axis, lower, math.inf):
                return True
            if covers_band(query, mbr, axis, -math.inf, upper):
                return True
        return False

    def _rule5_validates(self, mbr: Rect, query: Rect, pq: float) -> bool:
        """Rule 5 (pq <= 0.5): validate if rq covers the MBR part left of
        the lower plane (or right of the upper plane) at the smallest
        catalog value >= pq (mass p_j)."""
        j = self.catalog.index_of_smallest_at_least(pq)
        if j is None:
            return False
        for axis in range(mbr.dim):
            lower, upper = self._inner_planes(j, axis)
            if covers_band(query, mbr, axis, -math.inf, lower):
                return True
            if covers_band(query, mbr, axis, upper, math.inf):
                return True
        return False


class PCRRules(_RuleEngine):
    """Observation 2: the five rules over exact pre-computed PCRs."""

    def __init__(self, pcrs: PCRSet):
        super().__init__(pcrs.catalog)
        self.pcrs = pcrs

    def _prune_containment_box(self, j: int) -> Rect:
        return self.pcrs.box(j)

    def _prune_intersection_box(self, j: int) -> Rect:
        return self.pcrs.box(j)

    def _outer_planes(self, j: int, axis: int) -> tuple[float, float]:
        return self.pcrs.lower(j, axis), self.pcrs.upper(j, axis)

    def _inner_planes(self, j: int, axis: int) -> tuple[float, float]:
        return self.pcrs.lower(j, axis), self.pcrs.upper(j, axis)

    def apply(self, query: Rect, pq: float) -> Verdict:
        """Verdict for this object's query/threshold pair."""
        return self.verdict(self.pcrs.mbr, query, pq)


class CFBRules(_RuleEngine):
    """Observation 3: the five rules with CFB substitutions.

    Rule 1 uses the *inner* box (if the inner box escapes the query, so
    does the PCR); Rule 2 the *outer* box (if the outer box misses the
    query, so does the PCR); Rules 3-4 outer planes; Rule 5 inner planes.
    """

    def __init__(self, catalog: UCatalog, outer: LinearBoxFunction, inner: LinearBoxFunction):
        super().__init__(catalog)
        self.outer = outer
        self.inner = inner

    def _prune_containment_box(self, j: int) -> Rect:
        return self.inner.box(self.catalog[j])

    def _prune_intersection_box(self, j: int) -> Rect:
        return self.outer.box(self.catalog[j])

    def _outer_planes(self, j: int, axis: int) -> tuple[float, float]:
        p = self.catalog[j]
        return self.outer.lower(p, axis), self.outer.upper(p, axis)

    def _inner_planes(self, j: int, axis: int) -> tuple[float, float]:
        p = self.catalog[j]
        lower = self.inner.lower(p, axis)
        upper = self.inner.upper(p, axis)
        if lower > upper:
            # Crossed inner faces carry no safe mass guarantee on this
            # axis; return planes that make both Rule-5 bands empty.
            return -math.inf, math.inf
        return lower, upper

    def apply(self, mbr: Rect, query: Rect, pq: float) -> Verdict:
        """Verdict for an object summarised by (mbr, cfb_out, cfb_in)."""
        return self.verdict(mbr, query, pq)


def observation4_layer(catalog: UCatalog, pq: float) -> int:
    """The catalog index Observation 4 consults for threshold ``pq``.

    The largest catalog value ``p_j <= p_q``, or ``0`` when ``p_q`` is
    below every value (capped at ``p_m`` when ``p_q`` exceeds every
    value, per the paper's argument for ``p_q > 1 - p_m``).  It depends
    on the query alone, so a tree descent resolves it once per query.
    """
    if not 0.0 < pq <= 1.0:
        raise ValueError(f"query threshold must be in (0, 1], got {pq}")
    j = catalog.index_of_largest_at_most(pq)
    return 0 if j is None else j


def subtree_may_qualify(
    catalog: UCatalog,
    entry_box_at,
    query: Rect,
    pq: float,
) -> bool:
    """Observation 4: can an intermediate entry's subtree contain results?

    ``entry_box_at(j)`` must return the entry's bounding box at catalog
    index ``j`` (``e.MBR(p_j)`` for the U-tree, the stored per-level union
    for U-PCR).  The subtree is visited only if the query intersects the
    box at :func:`observation4_layer`.  The single-box form, used for a
    shard's bound; tree descents decide a whole node's children at once
    with :meth:`repro.index.engine.RStarEngine.traverse_layer`.
    """
    return query.intersects(entry_box_at(observation4_layer(catalog, pq)))
