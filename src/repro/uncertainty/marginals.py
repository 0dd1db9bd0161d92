"""Per-axis marginal CDFs and quantiles of an uncertain object's law.

PCR boundaries are axis quantiles of the *actual* object distribution
(Section 4.1): ``o.pcr_i-(p)`` is the value ``x`` with
``P(X_i <= x) = p``.  This module provides three interchangeable ways to
answer quantile/CDF questions:

* :class:`FunctionMarginals` — exact closed forms (uniform box, Gaussian
  truncated to a box, ...);
* :class:`GridMarginals` — numeric integration of a 1-D marginal density
  profile on a fine grid (uniform/Gaussian over balls, where the
  cross-section mass has a closed form but the CDF inverse does not);
* :class:`SampleMarginals` — weighted Monte-Carlo quantiles, the fully
  generic fallback that works for *arbitrary* pdfs, which is the paper's
  headline requirement.

All models are monotone by construction so PCR nesting
(``p <= p' => pcr(p) ⊇ pcr(p')``) holds exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

import numpy as np

__all__ = [
    "MarginalModel",
    "FunctionMarginals",
    "GridMarginals",
    "SampleMarginals",
    "trapezoid_cdf",
]


def trapezoid_cdf(grid: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """The normalised piecewise-linear CDF of a density profile on a grid.

    ``profile`` holds (unnormalised, non-negative) density values at the
    strictly increasing ``grid`` points; trapezoidal integration gives the
    CDF at those points, scaled to end at exactly 1.
    """
    g = np.asarray(grid, dtype=np.float64)
    f = np.asarray(profile, dtype=np.float64)
    if g.ndim != 1 or g.shape != f.shape or g.size < 2:
        raise ValueError("each grid/profile must be matching 1-D arrays, length >= 2")
    if np.any(np.diff(g) <= 0):
        raise ValueError("grid points must be strictly increasing")
    if np.any(f < 0):
        raise ValueError("density profile must be non-negative")
    steps = np.diff(g)
    cum = np.concatenate([[0.0], np.cumsum(steps * (f[1:] + f[:-1]) / 2.0)])
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("density profile integrates to zero")
    return cum / total


class MarginalModel(ABC):
    """Answers per-axis CDF and quantile queries for one object."""

    @property
    @abstractmethod
    def dim(self) -> int:
        """Number of axes."""

    @abstractmethod
    def cdf(self, axis: int, x: float) -> float:
        """``P(X_axis <= x)``, clipped to [0, 1]."""

    @abstractmethod
    def quantile(self, axis: int, p: float) -> float:
        """The smallest ``x`` with ``P(X_axis <= x) >= p``."""

    def quantiles(self, axis: int, ps: Sequence[float] | np.ndarray) -> np.ndarray:
        """:meth:`quantile` at each of ``ps``, as one float array.

        Tabulated models override this with one vectorised lookup whose
        every entry equals the scalar call.
        """
        return np.array(
            [self.quantile(axis, p) for p in np.asarray(ps, dtype=np.float64)],
            dtype=np.float64,
        )

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.dim:
            raise IndexError(f"axis {axis} out of range for {self.dim} dimensions")

    @staticmethod
    def _check_prob(p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return float(p)

    @staticmethod
    def _check_probs(ps: Sequence[float] | np.ndarray) -> np.ndarray:
        arr = np.asarray(ps, dtype=np.float64)
        # NaN fails both comparisons.
        if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError(f"probabilities must be in [0, 1], got {arr}")
        return arr


class FunctionMarginals(MarginalModel):
    """Marginals given by exact per-axis CDF and quantile callables."""

    def __init__(
        self,
        cdfs: Sequence[Callable[[float], float]],
        quantiles: Sequence[Callable[[float], float]],
    ):
        if len(cdfs) != len(quantiles) or not cdfs:
            raise ValueError("need matching, non-empty cdf and quantile lists")
        self._cdfs = list(cdfs)
        self._quantiles = list(quantiles)

    @property
    def dim(self) -> int:
        return len(self._cdfs)

    def cdf(self, axis: int, x: float) -> float:
        self._check_axis(axis)
        return float(min(1.0, max(0.0, self._cdfs[axis](float(x)))))

    def quantile(self, axis: int, p: float) -> float:
        self._check_axis(axis)
        return float(self._quantiles[axis](self._check_prob(p)))


class GridMarginals(MarginalModel):
    """Marginals from per-axis density profiles integrated on a grid.

    For each axis the caller supplies grid points and (unnormalised)
    marginal density values; trapezoidal integration yields a piecewise
    linear CDF that is normalised to 1 and inverted by interpolation.

    Each axis may also carry an offset added to its grid points
    (:meth:`shared`): objects of one shape then share one read-only table
    and only the grid points a lookup touches are translated.
    """

    @classmethod
    def from_cdf(cls, grids: Sequence[np.ndarray], cdf_values: Sequence[np.ndarray]) -> "GridMarginals":
        """Build directly from per-axis piecewise-linear CDF values.

        Used when the CDF is known exactly at breakpoints (e.g. histogram
        pdfs), bypassing trapezoidal integration.  Each CDF array must be
        non-decreasing, start at 0 and end at 1.
        """
        if len(grids) != len(cdf_values) or not grids:
            raise ValueError("need matching, non-empty grid and cdf lists")
        model = cls.__new__(cls)
        model._grids = []
        model._cdfs = []
        for grid, cdf in zip(grids, cdf_values):
            g = np.asarray(grid, dtype=np.float64)
            c = np.asarray(cdf, dtype=np.float64)
            if g.ndim != 1 or g.shape != c.shape or g.size < 2:
                raise ValueError("each grid/cdf must be matching 1-D arrays, length >= 2")
            if np.any(np.diff(g) <= 0):
                raise ValueError("grid points must be strictly increasing")
            if np.any(np.diff(c) < -1e-12) or abs(c[0]) > 1e-9 or abs(c[-1] - 1.0) > 1e-9:
                raise ValueError("cdf values must rise from 0 to 1")
            c = np.clip(c, 0.0, 1.0)
            c[0] = 0.0
            c[-1] = 1.0
            model._grids.append(g)
            model._cdfs.append(np.maximum.accumulate(c))
        model._offsets = [0.0] * len(model._grids)
        return model

    @classmethod
    def shared(cls, grid: np.ndarray, cdf: np.ndarray, offsets: Sequence[float]) -> "GridMarginals":
        """One table for every axis, translated by ``offsets[axis]``.

        ``grid`` and ``cdf`` are referenced, not copied, so the caller
        passes a validated table (e.g. from :func:`trapezoid_cdf`) that it
        will not mutate.
        """
        if len(offsets) == 0:
            raise ValueError("need at least one axis offset")
        model = cls.__new__(cls)
        model._grids = [grid] * len(offsets)
        model._cdfs = [cdf] * len(offsets)
        model._offsets = [float(c) for c in offsets]
        return model

    def __init__(self, grids: Sequence[np.ndarray], profiles: Sequence[np.ndarray]):
        if len(grids) != len(profiles) or not grids:
            raise ValueError("need matching, non-empty grid and profile lists")
        self._grids: list[np.ndarray] = [np.asarray(g, dtype=np.float64) for g in grids]
        self._cdfs: list[np.ndarray] = [
            trapezoid_cdf(g, f) for g, f in zip(self._grids, profiles)
        ]
        self._offsets: list[float] = [0.0] * len(self._grids)

    @property
    def dim(self) -> int:
        return len(self._grids)

    def cdf(self, axis: int, x: float) -> float:
        self._check_axis(axis)
        x = float(x) - self._offsets[axis]
        return float(np.interp(x, self._grids[axis], self._cdfs[axis], left=0.0, right=1.0))

    def quantile(self, axis: int, p: float) -> float:
        return float(self.quantiles(axis, (p,))[0])

    def quantiles(self, axis: int, ps: Sequence[float] | np.ndarray) -> np.ndarray:
        self._check_axis(axis)
        ps = self._check_probs(ps)
        cdf = self._cdfs[axis]
        grid = self._grids[axis]
        off = self._offsets[axis]
        # The cdf rises from exactly 0 to exactly 1 and may have flat runs
        # (zero-density stretches), where np.interp would not invert it.
        # searchsorted picks the left-most point: cdf[idx - 1] < p <= cdf[idx],
        # so the bracketing cdf values differ wherever idx > 0, and idx == 0
        # means p == 0, whose quantile is the first grid point (t = 0).
        idx = np.searchsorted(cdf, ps, side="left")
        right = np.maximum(idx, 1)
        left = right - 1
        c0 = cdf[left]
        g0 = off + grid[left]
        g1 = off + grid[right]
        t = (ps - c0) / np.where(idx > 0, cdf[right] - c0, 1.0)
        return g0 + t * (g1 - g0)


class SampleMarginals(MarginalModel):
    """Weighted-sample marginals: the arbitrary-pdf fallback.

    Given points drawn uniformly from the uncertainty region and weights
    proportional to the pdf at those points, the weighted empirical
    distribution along each axis converges to the true marginal.  This is
    exactly the self-normalised estimator the paper's Monte-Carlo step
    (Eq. 3) uses, recycled for quantiles.
    """

    def __init__(self, points: np.ndarray, weights: np.ndarray):
        pts = np.asarray(points, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must be a 1-D array matching points")
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be non-negative with positive total")
        self._dim = pts.shape[1]
        self._sorted_values: list[np.ndarray] = []
        self._cum_weights: list[np.ndarray] = []
        total = float(w.sum())
        for axis in range(self._dim):
            order = np.argsort(pts[:, axis], kind="stable")
            self._sorted_values.append(pts[order, axis])
            self._cum_weights.append(np.cumsum(w[order]) / total)

    @property
    def dim(self) -> int:
        return self._dim

    def cdf(self, axis: int, x: float) -> float:
        self._check_axis(axis)
        values = self._sorted_values[axis]
        idx = int(np.searchsorted(values, x, side="right"))
        if idx <= 0:
            return 0.0
        return float(min(1.0, self._cum_weights[axis][idx - 1]))

    def quantile(self, axis: int, p: float) -> float:
        return float(self.quantiles(axis, (p,))[0])

    def quantiles(self, axis: int, ps: Sequence[float] | np.ndarray) -> np.ndarray:
        self._check_axis(axis)
        ps = self._check_probs(ps)
        values = self._sorted_values[axis]
        idx = np.searchsorted(self._cum_weights[axis], ps, side="left")
        return values[np.minimum(idx, values.size - 1)]
