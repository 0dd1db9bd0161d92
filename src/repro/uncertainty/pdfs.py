"""Probability density models for uncertain objects.

The paper's central requirement is supporting *arbitrary* pdfs: its
experiments use Uniform and Constrained-Gaussian (Eq. 16) laws and the
introduction names Zipf and Poisson as further candidates.  This module
provides:

* :class:`UniformDensity` — equal likelihood over the region (Eq. 1);
* :class:`ConstrainedGaussianDensity` — a Gaussian renormalised to the
  region, the paper's "Con-Gau" (Eq. 16);
* :class:`HistogramDensity` — piecewise-constant over a grid: the honest
  stand-in for "an arbitrary pdf" (any density can be tabulated into it),
  with :func:`zipf_histogram` building the Zipf-skewed special case;
* :class:`MixtureDensity` — convex combinations of the above.

Every density is normalised over its uncertainty region, exposes vectorised
evaluation (for the Monte-Carlo estimator of Eq. 3), and yields a
:class:`~repro.uncertainty.marginals.MarginalModel` for PCR computation,
using closed forms where they exist and weighted-sample quantiles
otherwise.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence

import numpy as np
from scipy import special

from repro.uncertainty.marginals import (
    FunctionMarginals,
    GridMarginals,
    MarginalModel,
    SampleMarginals,
    trapezoid_cdf,
)
from repro.uncertainty.regions import BallRegion, BoxRegion, UncertaintyRegion

__all__ = [
    "Density",
    "UniformDensity",
    "ConstrainedGaussianDensity",
    "HistogramDensity",
    "MixtureDensity",
    "RadialExponentialDensity",
    "poisson_histogram",
    "tabulate_density",
    "zipf_histogram",
]

_GRID_POINTS = 1025
_SHAPE_TABLES = 64
_DEFAULT_MARGINAL_SAMPLES = 16384
_DEFAULT_NORMALISER_SAMPLES = 65536


class Density(ABC):
    """A pdf supported on (and normalised over) an uncertainty region."""

    def __init__(
        self,
        region: UncertaintyRegion,
        *,
        marginal_samples: int = _DEFAULT_MARGINAL_SAMPLES,
        marginal_seed: int = 0,
    ):
        self.region = region
        self._marginal_samples = int(marginal_samples)
        self._marginal_seed = int(marginal_seed)
        self._marginals: MarginalModel | None = None

    @property
    def dim(self) -> int:
        """Dimensionality of the data space."""
        return self.region.dim

    @abstractmethod
    def density(self, points: np.ndarray) -> np.ndarray:
        """Normalised pdf values at an ``(n, d)`` array of points.

        Points outside the uncertainty region evaluate to 0.
        """

    def density_at(self, point: Iterable[float]) -> float:
        """Convenience scalar evaluation."""
        p = np.asarray(point, dtype=np.float64).reshape(1, -1)
        return float(self.density(p)[0])

    def marginals(self) -> MarginalModel:
        """The per-axis marginal model (cached after first use)."""
        if self._marginals is None:
            self._marginals = self._build_marginals()
        return self._marginals

    def _build_marginals(self) -> MarginalModel:
        """Default: weighted-sample marginals — works for any pdf."""
        rng = np.random.default_rng(self._marginal_seed)
        points = self.region.sample(self._marginal_samples, rng)
        weights = self.density(points)
        return SampleMarginals(points, weights)

    def _inside(self, points: np.ndarray) -> np.ndarray:
        return self.region.contains_points(np.asarray(points, dtype=np.float64))


class UniformDensity(Density):
    """Equal appearance likelihood everywhere in the region (Eq. 1)."""

    def __init__(self, region: UncertaintyRegion, **kwargs):
        super().__init__(region, **kwargs)
        self._value = 1.0 / region.volume()

    def density(self, points: np.ndarray) -> np.ndarray:
        inside = self._inside(points)
        return np.where(inside, self._value, 0.0)

    def _build_marginals(self) -> MarginalModel:
        region = self.region
        if isinstance(region, BoxRegion):
            return _uniform_box_marginals(region)
        if isinstance(region, BallRegion):
            return _uniform_ball_marginals(region)
        return super()._build_marginals()

    def __repr__(self) -> str:
        return f"UniformDensity({self.region!r})"


class ConstrainedGaussianDensity(Density):
    """A Gaussian renormalised to the uncertainty region (paper Eq. 16).

    ``pdf_CG(x) = pdf_G(x) / lambda`` inside the region and 0 outside,
    where ``lambda`` is the Gaussian mass of the region.  The covariance is
    isotropic (``sigma^2 I``) as in the paper; ``mean`` defaults to the
    region's centre (the paper's moving-object setup).
    """

    def __init__(
        self,
        region: UncertaintyRegion,
        sigma: float,
        mean: Iterable[float] | None = None,
        **kwargs,
    ):
        super().__init__(region, **kwargs)
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        if mean is None:
            self.mean = region.mbr().center
        else:
            self.mean = np.asarray(mean, dtype=np.float64)
            if self.mean.shape != (region.dim,):
                raise ValueError("mean must match the region dimensionality")
        self._log_norm = -(region.dim / 2.0) * math.log(2.0 * math.pi * self.sigma**2)
        self._centred_ball = isinstance(region, BallRegion) and bool(
            np.allclose(self.mean, region.center)
        )
        self.normaliser = self._compute_normaliser()

    def _gaussian(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        sq = np.sum((pts - self.mean) ** 2, axis=1)
        return np.exp(self._log_norm - sq / (2.0 * self.sigma**2))

    def density(self, points: np.ndarray) -> np.ndarray:
        values = self._gaussian(points) / self.normaliser
        return np.where(self._inside(points), values, 0.0)

    def _compute_normaliser(self) -> float:
        """The Gaussian mass lambda of the region (Eq. 16).

        Closed forms: a ball around the mean has mass
        ``P(chi_d <= r / sigma) = gammainc(d/2, r^2 / (2 sigma^2))``;
        a box with isotropic covariance factorises into per-axis normal
        CDF differences.  Anything else falls back to a seeded Monte-Carlo
        estimate (the paper computes lambda once per object shape anyway).
        """
        region = self.region
        if self._centred_ball:
            r = region.radius  # type: ignore[union-attr]
            return float(special.gammainc(region.dim / 2.0, r**2 / (2.0 * self.sigma**2)))
        if isinstance(region, BoxRegion):
            lo = (region.rect.lo - self.mean) / self.sigma
            hi = (region.rect.hi - self.mean) / self.sigma
            return float(np.prod(special.ndtr(hi) - special.ndtr(lo)))
        rng = np.random.default_rng(self._marginal_seed + 0x5EED)
        points = region.sample(_DEFAULT_NORMALISER_SAMPLES, rng)
        return float(np.mean(self._gaussian(points)) * region.volume())

    def _build_marginals(self) -> MarginalModel:
        region = self.region
        if isinstance(region, BoxRegion):
            return _truncated_normal_marginals(region, self.mean, self.sigma)
        if self._centred_ball:
            return _centred_ball_gaussian_marginals(region, self.sigma)  # type: ignore[arg-type]
        return super()._build_marginals()

    def __repr__(self) -> str:
        return (
            f"ConstrainedGaussianDensity({self.region!r}, sigma={self.sigma:g}, "
            f"mean={np.array2string(self.mean, precision=3)})"
        )


class HistogramDensity(Density):
    """Piecewise-constant density on a regular grid over a box region.

    This is the work-horse for "arbitrary pdfs": any density can be
    tabulated into cell weights.  Marginals are exact (piecewise-linear
    CDFs from the cell-mass prefix sums).
    """

    def __init__(self, region: BoxRegion, weights: np.ndarray, **kwargs):
        super().__init__(region, **kwargs)
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != region.dim:
            raise ValueError(
                f"weights must be a {region.dim}-dimensional array, got {w.ndim}-D"
            )
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be non-negative with positive total")
        self.weights = w / w.sum()
        self._cells = np.asarray(w.shape, dtype=np.int64)
        rect = region.rect
        self._cell_extent = rect.extent / self._cells
        self._cell_volume = float(np.prod(self._cell_extent))

    def density(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        rect = self.region.rect
        rel = (pts - rect.lo) / self._cell_extent
        idx = np.clip(np.floor(rel).astype(np.int64), 0, self._cells - 1)
        values = self.weights[tuple(idx.T)] / self._cell_volume
        return np.where(self._inside(pts), values, 0.0)

    def _build_marginals(self) -> MarginalModel:
        rect = self.region.rect
        grids = []
        cdfs = []
        for axis in range(self.dim):
            other_axes = tuple(a for a in range(self.dim) if a != axis)
            mass = self.weights.sum(axis=other_axes) if other_axes else self.weights
            breakpoints = np.linspace(rect.lo[axis], rect.hi[axis], self._cells[axis] + 1)
            cdf = np.concatenate([[0.0], np.cumsum(mass)])
            cdf /= cdf[-1]
            grids.append(breakpoints)
            cdfs.append(cdf)
        return GridMarginals.from_cdf(grids, cdfs)

    def __repr__(self) -> str:
        return f"HistogramDensity({self.region!r}, cells={tuple(self._cells)})"


class MixtureDensity(Density):
    """A convex combination of densities sharing one uncertainty region."""

    def __init__(
        self,
        components: Sequence[Density],
        weights: Sequence[float] | None = None,
        **kwargs,
    ):
        if not components:
            raise ValueError("a mixture needs at least one component")
        region = components[0].region
        for comp in components[1:]:
            if comp.region is not region:
                raise ValueError("all mixture components must share the same region object")
        super().__init__(region, **kwargs)
        if weights is None:
            w = np.full(len(components), 1.0 / len(components))
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (len(components),) or np.any(w < 0) or w.sum() <= 0:
                raise ValueError("weights must be non-negative, matching components")
            w = w / w.sum()
        self.components = list(components)
        self.weights = w

    def density(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        total = np.zeros(pts.shape[0])
        for weight, comp in zip(self.weights, self.components):
            total += weight * comp.density(pts)
        return total

    def __repr__(self) -> str:
        return f"MixtureDensity({len(self.components)} components)"


class RadialExponentialDensity(Density):
    """Exponential radial decay from a mode point: ``pdf ∝ exp(-|x - c| / s)``.

    A common location-uncertainty model (likelihood falls off with
    distance from the reported position, heavier-tailed than a
    Gaussian).  There is no closed-form marginal, so this class exercises
    the library's fully generic path: weighted-sample marginals for PCRs
    and Monte-Carlo for appearance probabilities — precisely the
    "arbitrary pdf" scenario the paper targets.
    """

    def __init__(
        self,
        region: UncertaintyRegion,
        scale: float,
        mode: Iterable[float] | None = None,
        **kwargs,
    ):
        super().__init__(region, **kwargs)
        if scale <= 0.0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)
        if mode is None:
            self.mode = region.mbr().center
        else:
            self.mode = np.asarray(mode, dtype=np.float64)
            if self.mode.shape != (region.dim,):
                raise ValueError("mode must match the region dimensionality")
        rng = np.random.default_rng(self._marginal_seed + 0xDECA)
        points = region.sample(_DEFAULT_NORMALISER_SAMPLES, rng)
        raw = self._raw(points)
        self.normaliser = float(raw.mean() * region.volume())
        if self.normaliser <= 0.0:  # pragma: no cover - scale > 0 prevents this
            raise ValueError("density integrates to zero over the region")

    def _raw(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        dist = np.linalg.norm(pts - self.mode, axis=1)
        return np.exp(-dist / self.scale)

    def density(self, points: np.ndarray) -> np.ndarray:
        values = self._raw(points) / self.normaliser
        return np.where(self._inside(points), values, 0.0)

    def __repr__(self) -> str:
        return f"RadialExponentialDensity({self.region!r}, scale={self.scale:g})"


def poisson_histogram(
    region: BoxRegion,
    rates: Iterable[float],
    cells_per_axis: int = 16,
    **kwargs,
) -> HistogramDensity:
    """A product-Poisson histogram density (the paper's "Poisson" family).

    Each axis carries a Poisson pmf over its cell indices with the given
    rate: cell ``k`` on axis ``i`` has marginal mass
    ``exp(-rate_i) rate_i^k / k!``.  The joint mass is the product —
    modelling attributes like event counts whose likeliest value sits
    near the rate.  Masses are renormalised over the finite grid.
    """
    if cells_per_axis < 1:
        raise ValueError("cells_per_axis must be at least 1")
    rate_vec = np.asarray(list(rates), dtype=np.float64)
    if rate_vec.shape != (region.dim,):
        raise ValueError(f"need one rate per axis ({region.dim}), got {rate_vec.shape}")
    if np.any(rate_vec <= 0):
        raise ValueError("rates must be positive")
    ks = np.arange(cells_per_axis, dtype=np.float64)
    log_fact = special.gammaln(ks + 1.0)
    axis_masses = []
    for rate in rate_vec:
        log_pmf = -rate + ks * math.log(rate) - log_fact
        pmf = np.exp(log_pmf)
        axis_masses.append(pmf / pmf.sum())
    weights = axis_masses[0]
    for pmf in axis_masses[1:]:
        weights = np.multiply.outer(weights, pmf)
    return HistogramDensity(region, weights, **kwargs)


def tabulate_density(
    pdf_callable,
    region: BoxRegion,
    cells_per_axis: int = 32,
    **kwargs,
) -> HistogramDensity:
    """Tabulate an arbitrary density callable into a histogram.

    The universal adapter behind the paper's "arbitrary pdf" claim: any
    non-negative function over the region (it need not be normalised)
    becomes an indexable :class:`HistogramDensity` by evaluation at cell
    centres.  ``pdf_callable`` receives an ``(n, d)`` array and returns
    ``(n,)`` values.
    """
    if cells_per_axis < 1:
        raise ValueError("cells_per_axis must be at least 1")
    rect = region.rect
    axes = [
        rect.lo[i] + (np.arange(cells_per_axis) + 0.5) * rect.extent[i] / cells_per_axis
        for i in range(region.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    centres = np.stack([m.ravel() for m in mesh], axis=1)
    values = np.asarray(pdf_callable(centres), dtype=np.float64)
    if values.shape != (centres.shape[0],):
        raise ValueError("pdf_callable must return one value per point")
    if np.any(values < 0):
        raise ValueError("pdf_callable must be non-negative")
    shape = (cells_per_axis,) * region.dim
    return HistogramDensity(region, values.reshape(shape), **kwargs)


def zipf_histogram(
    region: BoxRegion,
    cells_per_axis: int,
    skew: float = 1.0,
    seed: int = 0,
    **kwargs,
) -> HistogramDensity:
    """A Zipf-skewed histogram density (the paper's "Zipf" pdf family).

    Cell masses follow a Zipf law ``1 / rank^skew`` with ranks assigned by
    a seeded random permutation of the grid cells, so mass concentrates in
    a few cells while remaining reproducible.
    """
    if cells_per_axis < 1:
        raise ValueError("cells_per_axis must be at least 1")
    if skew < 0:
        raise ValueError("skew must be non-negative")
    n_cells = cells_per_axis**region.dim
    ranks = np.arange(1, n_cells + 1, dtype=np.float64)
    masses = 1.0 / ranks**skew
    rng = np.random.default_rng(seed)
    rng.shuffle(masses)
    shape = (cells_per_axis,) * region.dim
    return HistogramDensity(region, masses.reshape(shape), **kwargs)


# ----------------------------------------------------------------------
# closed-form / grid marginal builders
# ----------------------------------------------------------------------

def _uniform_box_marginals(region: BoxRegion) -> FunctionMarginals:
    rect = region.rect
    cdfs = []
    quantiles = []
    for axis in range(region.dim):
        lo, hi = float(rect.lo[axis]), float(rect.hi[axis])
        span = hi - lo

        def cdf(x: float, lo=lo, span=span) -> float:
            return (x - lo) / span

        def quantile(p: float, lo=lo, span=span) -> float:
            return lo + p * span

        cdfs.append(cdf)
        quantiles.append(quantile)
    return FunctionMarginals(cdfs, quantiles)


def _uniform_ball_marginals(region: BallRegion) -> GridMarginals:
    """The shared uniform-ball table, translated to the ball's centre."""
    grid, cdf = _ball_table("uniform", region.dim, float(region.radius), 0.0)
    return GridMarginals.shared(grid, cdf, region.center)


def _truncated_normal_marginals(
    region: BoxRegion, mean: np.ndarray, sigma: float
) -> FunctionMarginals:
    """Per-axis truncated normals (a Gaussian restricted to a box factorises)."""
    rect = region.rect
    cdfs = []
    quantiles = []
    for axis in range(region.dim):
        lo = (float(rect.lo[axis]) - float(mean[axis])) / sigma
        hi = (float(rect.hi[axis]) - float(mean[axis])) / sigma
        phi_lo = float(special.ndtr(lo))
        phi_hi = float(special.ndtr(hi))
        mass = phi_hi - phi_lo
        mu = float(mean[axis])

        def cdf(x: float, mu=mu, phi_lo=phi_lo, mass=mass) -> float:
            return (float(special.ndtr((x - mu) / sigma)) - phi_lo) / mass

        def quantile(p: float, mu=mu, phi_lo=phi_lo, mass=mass) -> float:
            return mu + sigma * float(special.ndtri(phi_lo + p * mass))

        cdfs.append(cdf)
        quantiles.append(quantile)
    return FunctionMarginals(cdfs, quantiles)


def _centred_ball_gaussian_marginals(region: BallRegion, sigma: float) -> GridMarginals:
    """The shared centred-ball Gaussian table, translated to the ball's centre."""
    grid, cdf = _ball_table("congau", region.dim, float(region.radius), float(sigma))
    return GridMarginals.shared(grid, cdf, region.center)


@functools.lru_cache(maxsize=_SHAPE_TABLES)
def _ball_table(kind: str, d: int, r: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(u, cdf)`` marginal table of a ball centred at the origin.

    The marginal of a centred ball depends only on ``(kind, d, r, sigma)``
    and is the same on every axis, so it is built once per disk shape on
    ``u = linspace(-r, r)`` and shared; an object's axis-``i`` marginal is
    this table shifted by its centre's ``i``-th coordinate.

    * ``"uniform"``: the cross-section profile ``(r^2 - u^2)^((d-1)/2)``.
    * ``"congau"``: an isotropic Gaussian restricted to the ball.  At
      offset ``u`` the remaining ``d-1`` coordinates must land in a
      centred ``(d-1)``-ball of radius ``sqrt(r^2 - u^2)``, whose Gaussian
      mass is ``gammainc((d-1)/2, (r^2 - u^2) / (2 sigma^2))``; the axis
      profile is that mass times the 1-D Gaussian density.
    """
    u = np.linspace(-r, r, _GRID_POINTS)
    residual = np.maximum(r**2 - u**2, 0.0)
    if kind == "uniform":
        profile = np.ones_like(u) if d == 1 else residual ** ((d - 1) / 2.0)
    elif kind == "congau":
        profile = np.exp(-(u**2) / (2.0 * sigma**2))
        if d > 1:
            profile = profile * special.gammainc((d - 1) / 2.0, residual / (2.0 * sigma**2))
    else:
        raise ValueError(f"unknown ball table kind {kind!r}")
    cdf = trapezoid_cdf(u, profile)
    u.setflags(write=False)
    cdf.setflags(write=False)
    return u, cdf
