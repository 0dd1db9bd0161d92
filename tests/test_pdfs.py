"""Tests for the pdf models: normalisation, evaluation, marginals."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import special

from repro.geometry.rect import Rect
from repro.uncertainty.pdfs import (
    ConstrainedGaussianDensity,
    HistogramDensity,
    MixtureDensity,
    UniformDensity,
    zipf_histogram,
)
from repro.uncertainty.regions import BallRegion, BoxRegion


def monte_carlo_integral(density, n=80_000, seed=0):
    """∫ pdf over the region via uniform sampling: mean(pdf) * volume."""
    rng = np.random.default_rng(seed)
    pts = density.region.sample(n, rng)
    return float(density.density(pts).mean() * density.region.volume())


class TestUniform:
    def test_constant_inside_zero_outside(self):
        region = BallRegion([0, 0], 2.0)
        pdf = UniformDensity(region)
        inside = pdf.density_at([0.5, 0.5])
        assert inside == pytest.approx(1.0 / region.volume())
        assert pdf.density_at([5.0, 5.0]) == 0.0

    @pytest.mark.parametrize(
        "region",
        [BallRegion([1, 2], 3.0), BoxRegion(Rect([0, 0], [2, 5])), BallRegion([0, 0, 0], 1.5)],
    )
    def test_integrates_to_one(self, region):
        assert monte_carlo_integral(UniformDensity(region)) == pytest.approx(1.0)

    def test_box_marginals_exact(self):
        pdf = UniformDensity(BoxRegion(Rect([0, 10], [4, 20])))
        m = pdf.marginals()
        assert m.quantile(0, 0.5) == pytest.approx(2.0)
        assert m.quantile(1, 0.25) == pytest.approx(12.5)
        assert m.cdf(0, 1.0) == pytest.approx(0.25)

    def test_ball_marginals_match_empirical(self):
        region = BallRegion([5.0, 5.0], 2.0)
        pdf = UniformDensity(region)
        m = pdf.marginals()
        pts = region.sample(100_000, np.random.default_rng(1))
        for p in (0.1, 0.25, 0.5, 0.9):
            empirical = np.quantile(pts[:, 0], p)
            assert m.quantile(0, p) == pytest.approx(empirical, abs=0.03)

    def test_ball_marginal_median_is_centre(self):
        pdf = UniformDensity(BallRegion([7.0, -3.0], 1.0))
        m = pdf.marginals()
        assert m.quantile(0, 0.5) == pytest.approx(7.0, abs=1e-6)
        assert m.quantile(1, 0.5) == pytest.approx(-3.0, abs=1e-6)


class TestConstrainedGaussian:
    def test_normaliser_centred_ball_closed_form(self):
        region = BallRegion([0, 0], 250.0)
        pdf = ConstrainedGaussianDensity(region, sigma=125.0)
        expected = special.gammainc(1.0, 250.0**2 / (2 * 125.0**2))
        assert pdf.normaliser == pytest.approx(float(expected))

    @pytest.mark.parametrize(
        "region,sigma,mean",
        [
            (BallRegion([0, 0], 2.0), 1.0, None),
            (BoxRegion(Rect([-1, -1], [1, 1])), 0.7, None),
            (BallRegion([0, 0], 2.0), 1.0, [0.5, 0.0]),  # off-centre -> MC fallback
            (BallRegion([0, 0, 0], 1.5), 0.8, None),
        ],
    )
    def test_integrates_to_one(self, region, sigma, mean):
        pdf = ConstrainedGaussianDensity(region, sigma=sigma, mean=mean)
        assert monte_carlo_integral(pdf) == pytest.approx(1.0, abs=0.01)

    def test_zero_outside_region(self):
        pdf = ConstrainedGaussianDensity(BallRegion([0, 0], 1.0), sigma=1.0)
        assert pdf.density_at([2.0, 0.0]) == 0.0

    def test_density_peaks_at_mean(self):
        pdf = ConstrainedGaussianDensity(BallRegion([0, 0], 1.0), sigma=0.5)
        assert pdf.density_at([0, 0]) > pdf.density_at([0.5, 0.5])

    def test_box_marginals_truncated_normal(self):
        region = BoxRegion(Rect([-2, -2], [2, 2]))
        pdf = ConstrainedGaussianDensity(region, sigma=1.0)
        m = pdf.marginals()
        # Symmetric truncation: median at the mean.
        assert m.quantile(0, 0.5) == pytest.approx(0.0, abs=1e-9)
        # Compare against the truncated-normal CDF directly.
        mass = special.ndtr(2.0) - special.ndtr(-2.0)
        x = 0.7
        expected = (special.ndtr(x) - special.ndtr(-2.0)) / mass
        assert m.cdf(0, x) == pytest.approx(float(expected), abs=1e-9)

    def test_ball_marginals_match_empirical(self):
        region = BallRegion([0.0, 0.0], 2.0)
        pdf = ConstrainedGaussianDensity(region, sigma=1.0)
        m = pdf.marginals()
        # Weighted empirical quantiles from a big sample.
        rng = np.random.default_rng(2)
        pts = region.sample(200_000, rng)
        w = pdf.density(pts)
        order = np.argsort(pts[:, 0])
        cum = np.cumsum(w[order])
        cum /= cum[-1]
        for p in (0.1, 0.4, 0.5, 0.9):
            empirical = pts[order, 0][np.searchsorted(cum, p)]
            assert m.quantile(0, p) == pytest.approx(empirical, abs=0.03)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            ConstrainedGaussianDensity(BallRegion([0, 0], 1.0), sigma=0.0)

    def test_rejects_bad_mean_shape(self):
        with pytest.raises(ValueError):
            ConstrainedGaussianDensity(BallRegion([0, 0], 1.0), sigma=1.0, mean=[0, 0, 0])


class TestHistogram:
    def _region(self):
        return BoxRegion(Rect([0, 0], [4, 4]))

    def test_density_piecewise_constant(self):
        weights = np.array([[1.0, 0.0], [0.0, 3.0]])
        pdf = HistogramDensity(self._region(), weights)
        # Cell (0,0) covers [0,2)x[0,2): mass 0.25 over volume 4.
        assert pdf.density_at([1.0, 1.0]) == pytest.approx(0.25 / 4.0)
        assert pdf.density_at([1.0, 3.0]) == 0.0
        assert pdf.density_at([3.0, 3.0]) == pytest.approx(0.75 / 4.0)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(3)
        weights = rng.uniform(0, 1, size=(5, 5))
        pdf = HistogramDensity(self._region(), weights)
        assert monte_carlo_integral(pdf) == pytest.approx(1.0, abs=0.01)

    def test_marginals_exact(self):
        weights = np.array([[1.0, 1.0], [2.0, 0.0]])
        pdf = HistogramDensity(self._region(), weights)
        m = pdf.marginals()
        # Axis 0 masses: row sums = [0.5, 0.5] over [0,2], [2,4].
        assert m.cdf(0, 2.0) == pytest.approx(0.5)
        assert m.quantile(0, 0.25) == pytest.approx(1.0)
        # Axis 1 masses: column sums = [0.75, 0.25].
        assert m.cdf(1, 2.0) == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramDensity(self._region(), np.array([1.0, 2.0]))  # wrong ndim
        with pytest.raises(ValueError):
            HistogramDensity(self._region(), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            HistogramDensity(self._region(), -np.ones((2, 2)))

    def test_zipf_factory(self):
        pdf = zipf_histogram(self._region(), cells_per_axis=4, skew=1.5, seed=9)
        assert monte_carlo_integral(pdf) == pytest.approx(1.0, abs=0.01)
        # Zipf mass concentrates: the max cell outweighs the median cell.
        flat = np.sort(pdf.weights.ravel())
        assert flat[-1] > 5 * flat[len(flat) // 2]

    def test_zipf_deterministic(self):
        a = zipf_histogram(self._region(), 4, seed=1)
        b = zipf_histogram(self._region(), 4, seed=1)
        assert np.array_equal(a.weights, b.weights)

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_histogram(self._region(), 0)
        with pytest.raises(ValueError):
            zipf_histogram(self._region(), 4, skew=-1.0)


class TestMixture:
    def test_integrates_to_one(self):
        region = BallRegion([0, 0], 2.0)
        mix = MixtureDensity(
            [UniformDensity(region), ConstrainedGaussianDensity(region, sigma=1.0)],
            weights=[0.3, 0.7],
        )
        assert monte_carlo_integral(mix) == pytest.approx(1.0, abs=0.01)

    def test_equal_weights_default(self):
        region = BallRegion([0, 0], 1.0)
        mix = MixtureDensity([UniformDensity(region), UniformDensity(region)])
        assert np.allclose(mix.weights, [0.5, 0.5])

    def test_density_is_convex_combination(self):
        region = BallRegion([0, 0], 1.0)
        uni = UniformDensity(region)
        gau = ConstrainedGaussianDensity(region, sigma=0.5)
        mix = MixtureDensity([uni, gau], weights=[0.25, 0.75])
        x = [0.2, -0.1]
        assert mix.density_at(x) == pytest.approx(
            0.25 * uni.density_at(x) + 0.75 * gau.density_at(x)
        )

    def test_requires_shared_region(self):
        with pytest.raises(ValueError):
            MixtureDensity(
                [UniformDensity(BallRegion([0, 0], 1.0)), UniformDensity(BallRegion([0, 0], 1.0))]
            )

    def test_validation(self):
        region = BallRegion([0, 0], 1.0)
        with pytest.raises(ValueError):
            MixtureDensity([])
        with pytest.raises(ValueError):
            MixtureDensity([UniformDensity(region)], weights=[-1.0])

    def test_generic_marginals_via_samples(self):
        region = BallRegion([0.0, 0.0], 1.0)
        mix = MixtureDensity(
            [UniformDensity(region), ConstrainedGaussianDensity(region, sigma=0.5)]
        )
        m = mix.marginals()
        assert m.quantile(0, 0.5) == pytest.approx(0.0, abs=0.05)
        qs = [m.quantile(0, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))


# ----------------------------------------------------------------------
# Shared per-shape marginal tables for ball regions
# ----------------------------------------------------------------------


def reference_ball_marginals(region, sigma=None, points=1025):
    """The per-object grid build the shared tables replaced.

    Each axis gets its own grid ``linspace(c - r, c + r)`` and a profile
    evaluated at ``u = grid - c`` (``sigma=None``: uniform ball).
    """
    from repro.uncertainty.marginals import GridMarginals

    d, r = region.dim, region.radius
    grids, profiles = [], []
    for axis in range(d):
        c = float(region.center[axis])
        grid = np.linspace(c - r, c + r, points)
        u = grid - c
        residual = np.maximum(r**2 - u**2, 0.0)
        if sigma is None:
            profile = np.ones_like(u) if d == 1 else residual ** ((d - 1) / 2.0)
        else:
            profile = np.exp(-(u**2) / (2.0 * sigma**2))
            if d > 1:
                profile = profile * special.gammainc((d - 1) / 2.0, residual / (2.0 * sigma**2))
        grids.append(grid)
        profiles.append(profile)
    return GridMarginals(grids, profiles)


def _ball_object(kind, centre, radius=250.0, sigma=125.0, model=None):
    from repro.uncertainty.objects import UncertainObject

    region = BallRegion(np.asarray(centre, dtype=np.float64), radius)
    if kind == "uniform":
        pdf = UniformDensity(region)
    else:
        pdf = ConstrainedGaussianDensity(region, sigma=sigma)
    if model is not None:
        pdf._marginals = model
    return UncertainObject(0, pdf)


class TestBallShapeTables:
    @pytest.mark.parametrize("kind", ["uniform", "congau"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_pcrs_match_per_object_build(self, kind, dim):
        from repro.core.catalog import UCatalog
        from repro.core.pcr import compute_pcrs

        catalog = UCatalog.paper_utree_default()
        sigma = None if kind == "uniform" else 125.0
        rng = np.random.default_rng(dim)
        for _ in range(8):
            centre = rng.uniform(0.0, 1e4, dim)
            region = BallRegion(centre, 250.0)
            shared = compute_pcrs(_ball_object(kind, centre), catalog).boxes
            old = compute_pcrs(
                _ball_object(kind, centre, model=reference_ball_marginals(region, sigma)), catalog
            ).boxes
            fine = compute_pcrs(
                _ball_object(
                    kind, centre, model=reference_ball_marginals(region, sigma, points=65_537)
                ),
                catalog,
            ).boxes
            assert np.max(np.abs(shared - old)) <= 1e-6
            slack = 4 * np.spacing(np.max(np.abs(fine)))
            assert np.max(np.abs(shared - fine)) <= np.max(np.abs(old - fine)) + slack

    @pytest.mark.parametrize("kind", ["uniform", "congau"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_translation_moves_pcrs_by_the_translation(self, kind, dim):
        from repro.core.catalog import UCatalog
        from repro.core.pcr import compute_pcrs

        catalog = UCatalog.paper_utree_default()
        rng = np.random.default_rng(10 + dim)
        for _ in range(8):
            a = rng.uniform(0.0, 1e4, dim)
            shift = rng.uniform(-1e3, 1e3, dim)
            pa = compute_pcrs(_ball_object(kind, a), catalog).boxes
            pb = compute_pcrs(_ball_object(kind, a + shift), catalog).boxes
            ulps = np.spacing(np.maximum(np.abs(pa), np.abs(pb)))
            assert np.all(np.abs((pb - pa) - shift) <= 4 * ulps)

    def test_shapes_share_one_read_only_table(self):
        from repro.uncertainty.pdfs import _ball_table

        first = _ball_object("congau", [100.0, 200.0]).pdf.marginals()
        second = _ball_object("congau", [900.0, -50.0]).pdf.marginals()
        grid, cdf = _ball_table("congau", 2, 250.0, 125.0)
        for model in (first, second):
            for axis in range(2):
                assert model._grids[axis] is grid and model._cdfs[axis] is cdf
        assert not grid.flags.writeable and not cdf.flags.writeable
        with pytest.raises(ValueError):
            cdf[0] = 1.0

    def test_table_memo_is_bounded(self):
        from repro.uncertainty.pdfs import _SHAPE_TABLES, _ball_table

        for k in range(_SHAPE_TABLES + 20):
            _ball_object("uniform", [0.0, 0.0], radius=10.0 + k).pdf.marginals()
        info = _ball_table.cache_info()
        assert info.maxsize == _SHAPE_TABLES
        assert info.currsize <= _SHAPE_TABLES

    def test_centred_ball_check_runs_once_per_density(self, monkeypatch):
        calls = []
        allclose = np.allclose

        def counting_allclose(*args, **kwargs):
            calls.append(args)
            return allclose(*args, **kwargs)

        monkeypatch.setattr(np, "allclose", counting_allclose)
        region = BallRegion([1.0, 2.0], 3.0)
        centred = ConstrainedGaussianDensity(region, sigma=1.0)
        centred.marginals()
        off = ConstrainedGaussianDensity(region, sigma=1.0, mean=[1.5, 2.0])
        off.marginals()
        assert len(calls) == 2
        assert centred._centred_ball and not off._centred_ball
