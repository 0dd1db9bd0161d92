"""Tests for the per-axis marginal CDF/quantile machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uncertainty.marginals import (
    FunctionMarginals,
    GridMarginals,
    SampleMarginals,
    trapezoid_cdf,
)


class TestFunctionMarginals:
    def _linear(self):
        return FunctionMarginals(
            cdfs=[lambda x: x, lambda x: x / 2.0],
            quantiles=[lambda p: p, lambda p: 2.0 * p],
        )

    def test_round_trip(self):
        m = self._linear()
        assert m.cdf(0, 0.25) == pytest.approx(0.25)
        assert m.quantile(1, 0.25) == pytest.approx(0.5)

    def test_cdf_clipped(self):
        m = self._linear()
        assert m.cdf(0, 5.0) == 1.0
        assert m.cdf(0, -5.0) == 0.0

    def test_bad_inputs(self):
        m = self._linear()
        with pytest.raises(IndexError):
            m.cdf(2, 0.5)
        with pytest.raises(ValueError):
            m.quantile(0, 1.5)
        with pytest.raises(ValueError):
            FunctionMarginals([], [])


class TestGridMarginals:
    def test_uniform_profile(self):
        grid = np.linspace(0.0, 10.0, 101)
        m = GridMarginals([grid], [np.ones_like(grid)])
        assert m.cdf(0, 5.0) == pytest.approx(0.5)
        assert m.quantile(0, 0.25) == pytest.approx(2.5)

    def test_triangular_profile(self):
        grid = np.linspace(0.0, 1.0, 2001)
        m = GridMarginals([grid], [grid])  # density f(x) = 2x -> cdf x^2
        assert m.cdf(0, 0.5) == pytest.approx(0.25, abs=1e-3)
        assert m.quantile(0, 0.25) == pytest.approx(0.5, abs=1e-3)

    def test_zero_density_stretch(self):
        """Flat CDF runs must not break quantile inversion."""
        grid = np.linspace(0.0, 3.0, 301)
        profile = np.where((grid < 1.0) | (grid > 2.0), 1.0, 0.0)
        m = GridMarginals([grid], [profile])
        # Half the mass is below 1.0.
        assert m.quantile(0, 0.5) <= 1.01
        assert m.cdf(0, 1.5) == pytest.approx(0.5, abs=1e-2)

    def test_validation(self):
        grid = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            GridMarginals([grid], [np.full(11, -1.0)])
        with pytest.raises(ValueError):
            GridMarginals([grid], [np.zeros(11)])
        with pytest.raises(ValueError):
            GridMarginals([grid[::-1]], [np.ones(11)])
        with pytest.raises(ValueError):
            GridMarginals([], [])

    def test_from_cdf_exact(self):
        grid = np.array([0.0, 1.0, 3.0])
        cdf = np.array([0.0, 0.75, 1.0])
        m = GridMarginals.from_cdf([grid], [cdf])
        assert m.cdf(0, 1.0) == pytest.approx(0.75)
        assert m.quantile(0, 0.375) == pytest.approx(0.5)
        assert m.quantile(0, 1.0) == pytest.approx(3.0)

    def test_from_cdf_validation(self):
        grid = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            GridMarginals.from_cdf([grid], [np.array([0.0, 0.5])])
        with pytest.raises(ValueError):
            GridMarginals.from_cdf([grid], [np.array([0.5, 0.0])])


class TestSampleMarginals:
    def test_weighted_quantiles(self):
        points = np.array([[0.0], [1.0], [2.0], [3.0]])
        weights = np.array([1.0, 1.0, 1.0, 1.0])
        m = SampleMarginals(points, weights)
        assert m.quantile(0, 0.5) in (1.0, 2.0)
        assert m.cdf(0, 1.5) == pytest.approx(0.5)

    def test_unequal_weights(self):
        points = np.array([[0.0], [10.0]])
        weights = np.array([9.0, 1.0])
        m = SampleMarginals(points, weights)
        assert m.quantile(0, 0.5) == 0.0
        assert m.quantile(0, 0.95) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SampleMarginals(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            SampleMarginals(np.zeros((3, 2)), np.zeros(3))  # all-zero weights
        with pytest.raises(ValueError):
            SampleMarginals(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]))

    def test_converges_to_true_marginal(self):
        """Uniform samples with uniform weights approximate the uniform CDF."""
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 1, size=(20_000, 2))
        m = SampleMarginals(points, np.ones(20_000))
        for p in (0.1, 0.5, 0.9):
            assert m.quantile(0, p) == pytest.approx(p, abs=0.02)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_quantile_monotone(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(200, 2))
        weights = rng.uniform(0.1, 1.0, 200)
        m = SampleMarginals(points, weights)
        ps = np.linspace(0, 1, 21)
        for axis in range(2):
            qs = [m.quantile(axis, p) for p in ps]
            assert all(a <= b + 1e-12 for a, b in zip(qs, qs[1:]))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_cdf_quantile_galois(self, seed):
        """cdf(quantile(p)) >= p for the empirical distribution."""
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(100, 1))
        m = SampleMarginals(points, np.ones(100))
        for p in (0.05, 0.3, 0.5, 0.77, 0.95):
            assert m.cdf(0, m.quantile(0, p)) >= p - 1e-9


# ----------------------------------------------------------------------
# quantiles(axis, ps): one vectorised lookup, equal to the scalar call
# ----------------------------------------------------------------------


def reference_grid_quantile(model, axis, p):
    """The scalar grid inversion the vectorised lookup replaced."""
    cdf = model._cdfs[axis]
    grid = model._offsets[axis] + model._grids[axis]
    idx = int(np.searchsorted(cdf, p, side="left"))
    if idx <= 0:
        return float(grid[0])
    if idx >= cdf.size:
        return float(grid[-1])
    c0, c1 = cdf[idx - 1], cdf[idx]
    if c1 <= c0:
        return float(grid[idx])
    t = (p - c0) / (c1 - c0)
    return float(grid[idx - 1] + t * (grid[idx] - grid[idx - 1]))


def reference_sample_quantile(model, axis, p):
    """The scalar weighted-sample inversion the vectorised lookup replaced."""
    idx = int(np.searchsorted(model._cum_weights[axis], p, side="left"))
    return float(model._sorted_values[axis][min(idx, model._sorted_values[axis].size - 1)])


def _probes(draw, knots):
    """p = 0, p = 1, p exactly on a CDF knot (incl. flat runs) and anywhere."""
    anywhere = st.floats(0.0, 1.0, allow_nan=False)
    return draw(
        st.lists(
            st.one_of(st.just(0.0), st.just(1.0), st.sampled_from(sorted(knots)), anywhere),
            min_size=1,
            max_size=40,
        )
    )


masses = st.lists(
    st.one_of(st.just(0.0), st.floats(0.01, 10.0, allow_nan=False)), min_size=1, max_size=12
).filter(lambda m: sum(m) > 0)


@st.composite
def histogram_grid_marginals(draw):
    """``from_cdf`` histograms, zero-mass cells giving flat CDF runs."""
    dim = draw(st.integers(1, 3))
    grids, cdfs = [], []
    for _ in range(dim):
        mass = np.asarray(draw(masses))
        widths = np.asarray(draw(st.lists(st.floats(0.1, 5.0), min_size=mass.size, max_size=mass.size)))
        start = draw(st.floats(-1e4, 1e4))
        grids.append(start + np.concatenate([[0.0], np.cumsum(widths)]))
        cdfs.append(np.concatenate([[0.0], np.cumsum(mass)]) / mass.sum())
    model = GridMarginals.from_cdf(grids, cdfs)
    return model, _probes(draw, np.concatenate(model._cdfs))


@st.composite
def profile_grid_marginals(draw):
    """Trapezoid-integrated profiles (zero stretches) and shared shifted tables."""
    mass = np.asarray(draw(masses))
    grid = np.linspace(-3.0, 3.0, mass.size + 1)
    profile = np.concatenate([mass, [draw(st.floats(0.0, 5.0))]])
    if draw(st.booleans()):
        model = GridMarginals([grid], [profile])
    else:
        cdf = trapezoid_cdf(grid, profile)
        offsets = draw(st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=3))
        model = GridMarginals.shared(grid, cdf, offsets)
    return model, _probes(draw, np.concatenate(model._cdfs))


@st.composite
def sample_marginals(draw):
    """Weighted samples, zero weights giving flat runs in the cumulative weights."""
    n = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    points = rng.integers(-5, 5, size=(n, dim)).astype(np.float64)
    weights = rng.choice([0.0, 0.5, 1.0, 3.0], size=n)
    weights[0] = 1.0
    model = SampleMarginals(points, weights)
    return model, _probes(draw, np.concatenate(model._cum_weights))


class TestQuantilesEqualScalar:
    @given(st.one_of(histogram_grid_marginals(), profile_grid_marginals()))
    @settings(max_examples=200, deadline=None)
    def test_grid(self, case):
        model, ps = case
        for axis in range(model.dim):
            got = model.quantiles(axis, ps)
            assert got.tolist() == [model.quantile(axis, p) for p in ps]
            assert got.tolist() == [reference_grid_quantile(model, axis, p) for p in ps]

    @given(sample_marginals())
    @settings(max_examples=200, deadline=None)
    def test_sample(self, case):
        model, ps = case
        for axis in range(model.dim):
            got = model.quantiles(axis, ps)
            assert got.tolist() == [model.quantile(axis, p) for p in ps]
            assert got.tolist() == [reference_sample_quantile(model, axis, p) for p in ps]

    @given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=0, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_function(self, ps):
        model = FunctionMarginals(
            cdfs=[lambda x: x, lambda x: x / 3.0],
            quantiles=[lambda p: p**2, lambda p: 3.0 * p - 0.25],
        )
        for axis in range(2):
            got = model.quantiles(axis, ps)
            assert got.dtype == np.float64
            assert got.tolist() == [model.quantile(axis, p) for p in ps]

    def test_rejects_out_of_range(self):
        grid = np.linspace(0.0, 1.0, 5)
        model = GridMarginals([grid], [np.ones(5)])
        with pytest.raises(ValueError):
            model.quantiles(0, [0.5, 1.5])
        with pytest.raises(ValueError):
            model.quantiles(0, [float("nan")])
        with pytest.raises(IndexError):
            model.quantiles(1, [0.5])
