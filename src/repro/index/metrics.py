"""Vectorised summed penalty metrics over stacked profiles.

Section 5.3 of the paper replaces the four R* penalty metrics (area,
margin, overlap, centroid distance) by their *summed* counterparts over
all U-catalog values.  These helpers compute them on whole nodes at once:
``stacked`` arrays have shape ``(n, L, 2, d)`` (n entries, L layers) and a
single profile has shape ``(L, 2, d)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "stacked_union",
    "summed_areas",
    "summed_margins",
    "summed_area_enlargements",
    "pairwise_summed_overlaps",
    "summed_overlap_enlargements",
    "summed_centroid_distances",
    "union_with",
]


def stacked_union(stacked: np.ndarray) -> np.ndarray:
    """Layer-wise union over all entries: ``(n, L, 2, d) -> (L, 2, d)``."""
    out = np.empty(stacked.shape[1:])
    out[:, 0, :] = stacked[:, :, 0, :].min(axis=0)
    out[:, 1, :] = stacked[:, :, 1, :].max(axis=0)
    return out


def union_with(stacked: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """Union of each entry with one profile: ``(n, L, 2, d)`` result."""
    out = np.empty_like(stacked)
    out[:, :, 0, :] = np.minimum(stacked[:, :, 0, :], profile[None, :, 0, :])
    out[:, :, 1, :] = np.maximum(stacked[:, :, 1, :], profile[None, :, 1, :])
    return out


def summed_areas(stacked: np.ndarray) -> np.ndarray:
    """Per-entry summed area: ``sum_j AREA(layer_j)``, shape ``(n,)``."""
    extents = stacked[:, :, 1, :] - stacked[:, :, 0, :]
    return np.prod(extents, axis=2).sum(axis=1)


def summed_margins(stacked: np.ndarray) -> np.ndarray:
    """Per-entry summed margin, shape ``(n,)``."""
    extents = stacked[:, :, 1, :] - stacked[:, :, 0, :]
    return extents.sum(axis=(1, 2))


def summed_area_enlargements(stacked: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """How much each entry's summed area grows to absorb ``profile``."""
    enlarged = union_with(stacked, profile)
    return summed_areas(enlarged) - summed_areas(stacked)


def pairwise_summed_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Summed overlap of every ``a[i]`` with every ``b[j]``, shape ``(n, m)``.

    Each axis is staged as contiguous ``(n, L)`` / ``(m, L)`` columns and
    broadcast to ``(n, m, L)`` widths; the axes multiply in order
    ``0..d-1`` (as ``np.prod`` over ``d`` does) and the contiguous layer
    axis is summed last, so every cell is bit-identical to the summed
    overlap of that one pair computed on its own.
    """
    product = None
    for k in range(a.shape[3]):
        a_lo = np.ascontiguousarray(a[:, :, 0, k])
        a_hi = np.ascontiguousarray(a[:, :, 1, k])
        b_lo = np.ascontiguousarray(b[:, :, 0, k])
        b_hi = np.ascontiguousarray(b[:, :, 1, k])
        widths = np.minimum(a_hi[:, None, :], b_hi[None, :, :])
        widths -= np.maximum(a_lo[:, None, :], b_lo[None, :, :])
        np.maximum(widths, 0.0, out=widths)
        if product is None:
            product = widths
        else:
            product *= widths
    return product.sum(axis=2)


def summed_overlap_enlargements(stacked: np.ndarray, enlarged: np.ndarray) -> np.ndarray:
    """How much each entry's summed overlap with the *other* entries grows
    when it becomes ``enlarged[i]``, shape ``(n,)``.

    The diagonal is dropped row by row (``M[~eye].reshape(n, n - 1)``), so
    row ``i`` sums the overlaps with ``j = 0..n-1, j != i`` in ascending
    order, contiguously: the same floats in the same order as summing the
    overlaps with ``stacked[j != i]`` one entry at a time.
    """
    n = stacked.shape[0]
    off_diagonal = ~np.eye(n, dtype=bool)
    before = pairwise_summed_overlaps(stacked, stacked)[off_diagonal].reshape(n, n - 1)
    after = pairwise_summed_overlaps(enlarged, stacked)[off_diagonal].reshape(n, n - 1)
    return after.sum(axis=1) - before.sum(axis=1)


def summed_centroid_distances(stacked: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """Summed centroid distance of each entry to one profile, shape ``(n,)``."""
    centres = (stacked[:, :, 0, :] + stacked[:, :, 1, :]) / 2.0
    target = (profile[None, :, 0, :] + profile[None, :, 1, :]) / 2.0
    return np.linalg.norm(centres - target, axis=2).sum(axis=1)
