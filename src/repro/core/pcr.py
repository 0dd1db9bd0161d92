"""Probabilistically constrained regions (PCRs), Section 4.1 of the paper.

``o.pcr(p)`` is the hyper-rectangle whose face planes cut off probability
mass exactly ``p`` on each side of each axis: the object appears left of
``pcr_i-(p)`` with probability ``p`` and right of ``pcr_i+(p)`` with
probability ``p``.  PCRs nest (``p <= p' => pcr(p) ⊇ pcr(p')``) and
``pcr(0.5)`` degenerates to the coordinate-wise median point.

A :class:`PCRSet` holds one object's PCRs at every U-catalog value as an
``(m, 2, d)`` profile array — the representation shared with the index
engine — plus the object MBR the validation rules need.
"""

from __future__ import annotations

import numpy as np

from repro.core.catalog import UCatalog
from repro.geometry.rect import Rect
from repro.uncertainty.objects import UncertainObject

__all__ = ["PCRSet", "compute_pcrs"]


class PCRSet:
    """An object's pre-computed PCRs at all catalog values."""

    __slots__ = ("catalog", "boxes", "mbr")

    def __init__(self, catalog: UCatalog, boxes: np.ndarray, mbr: Rect):
        arr = np.asarray(boxes, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != catalog.size or arr.shape[1] != 2:
            raise ValueError(
                f"boxes must have shape ({catalog.size}, 2, d), got {arr.shape}"
            )
        if arr.shape[2] != mbr.dim:
            raise ValueError("boxes and mbr dimensionality disagree")
        self.catalog = catalog
        self.boxes = arr
        self.mbr = mbr

    @property
    def dim(self) -> int:
        """Dimensionality of the data space."""
        return int(self.boxes.shape[2])

    def box(self, j: int) -> Rect:
        """The PCR at catalog index ``j`` as a :class:`Rect`.

        Uses the unvalidated fast-path constructor: the profile array is
        validated (and ``lo <= hi``-clamped) once at construction, so the
        per-rule box materialisation skips the per-call checks.
        """
        return Rect.from_arrays(self.boxes[j, 0], self.boxes[j, 1])

    def lower(self, j: int, axis: int) -> float:
        """The plane ``pcr_axis-(p_j)``."""
        return float(self.boxes[j, 0, axis])

    def upper(self, j: int, axis: int) -> float:
        """The plane ``pcr_axis+(p_j)``."""
        return float(self.boxes[j, 1, axis])

    def profile(self) -> np.ndarray:
        """The ``(m, 2, d)`` stacked-box array (shared, do not mutate)."""
        return self.boxes

    def is_nested(self, tol: float = 1e-9) -> bool:
        """Check the PCR nesting invariant across catalog values."""
        lo = self.boxes[:, 0, :]
        hi = self.boxes[:, 1, :]
        return bool(
            np.all(np.diff(lo, axis=0) >= -tol) and np.all(np.diff(hi, axis=0) <= tol)
        )

    def __repr__(self) -> str:
        return f"PCRSet(m={self.catalog.size}, dim={self.dim})"


def compute_pcrs(obj: UncertainObject, catalog: UCatalog) -> PCRSet:
    """Compute an object's PCRs at every catalog value.

    As the paper notes (Section 4.1), PCRs are cheap: each plane is a
    single marginal-CDF inversion, ``pcr_i-(p) = F_i^{-1}(p)`` and
    ``pcr_i+(p) = F_i^{-1}(1 - p)``.  The catalog value 0 maps to the
    support bounds, i.e. the region MBR, exactly.

    Monotonicity of the quantile function gives nesting for free; we still
    clamp tiny numerical inversions so downstream invariants hold exactly.
    Each axis is one :meth:`~repro.uncertainty.marginals.MarginalModel.quantiles`
    call over the whole catalog (lower and upper planes together).
    """
    marginals = obj.marginals()
    mbr = obj.mbr
    ps = catalog.values
    # Catalog values ascend strictly, so only the first can be 0.
    first = 1 if ps[0] == 0.0 else 0
    inner = ps[first:]
    targets = np.concatenate([inner, 1.0 - inner])
    boxes = np.empty((catalog.size, 2, obj.dim))
    boxes[:first, 0] = mbr.lo
    boxes[:first, 1] = mbr.hi
    for axis in range(obj.dim):
        planes = marginals.quantiles(axis, targets)
        boxes[first:, 0, axis] = planes[: inner.size]
        boxes[first:, 1, axis] = planes[inner.size :]

    # Clamp: planes stay inside the MBR, nesting is exact, lo <= hi.
    lo = np.maximum.accumulate(np.clip(boxes[:, 0, :], mbr.lo, mbr.hi), axis=0)
    hi = np.minimum.accumulate(np.clip(boxes[:, 1, :], mbr.lo, mbr.hi), axis=0)
    crossing = lo > hi
    if crossing.any():
        mid = (lo + hi) / 2.0
        lo = np.where(crossing, mid, lo)
        hi = np.where(crossing, mid, hi)
    boxes[:, 0, :] = lo
    boxes[:, 1, :] = hi
    return PCRSet(catalog, boxes, mbr)
