"""Tests for conservative functional boxes (Sections 4.3-4.4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catalog import UCatalog
from repro.core.cfb import (
    LinearBoxFunction,
    area_proxy_weights,
    fit_cfbs,
    fit_inner_cfb,
    fit_outer_cfb,
)
from repro.core.pcr import compute_pcrs
from tests.conftest import (
    make_congau_ball_object,
    make_histogram_box_object,
    make_uniform_ball_object,
)

TOL = 1e-6


def make_object(seed: int, centre=None):
    rng = np.random.default_rng(seed)
    centre = centre if centre is not None else rng.uniform(0, 5000, 2)
    kind = seed % 3
    if kind == 0:
        return make_uniform_ball_object(seed, centre)
    if kind == 1:
        return make_congau_ball_object(seed, centre)
    return make_histogram_box_object(seed, centre)


class TestLinearBoxFunction:
    def test_evaluation(self):
        f = LinearBoxFunction(
            intercept=np.array([[0.0, 0.0], [10.0, 10.0]]),
            slope=np.array([[2.0, 4.0], [-2.0, -4.0]]),
        )
        box = f.box(0.5)
        assert np.allclose(box.lo, [1.0, 2.0])
        assert np.allclose(box.hi, [9.0, 8.0])
        assert f.lower(0.25, 0) == pytest.approx(0.5)
        assert f.upper(0.25, 1) == pytest.approx(9.0)

    def test_crossing_collapses_to_midpoint(self):
        f = LinearBoxFunction(
            intercept=np.array([[0.0], [1.0]]),
            slope=np.array([[10.0], [-10.0]]),
        )
        box = f.box(0.5)  # lo = 5, hi = -4 -> midpoint 0.5
        assert box.lo[0] == pytest.approx(0.5)
        assert box.hi[0] == pytest.approx(0.5)

    def test_profile_matches_pointwise(self):
        catalog = UCatalog([0.0, 0.2, 0.5])
        f = LinearBoxFunction(
            intercept=np.array([[0.0, 1.0], [8.0, 9.0]]),
            slope=np.array([[1.0, 1.0], [-1.0, -1.0]]),
        )
        profile = f.profile(catalog)
        for j, p in enumerate(catalog):
            box = f.box(p)
            assert np.allclose(profile[j, 0], box.lo)
            assert np.allclose(profile[j, 1], box.hi)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearBoxFunction(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            LinearBoxFunction(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSandwichInvariant:
    """cfb_in(p_j) ⊆ pcr(p_j) ⊆ cfb_out(p_j) for every catalog value."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 10, 11, 12])
    def test_sandwich(self, seed, paper_catalog):
        obj = make_object(seed)
        pcrs = compute_pcrs(obj, paper_catalog)
        outer, inner = fit_cfbs(pcrs)
        for j, p in enumerate(paper_catalog):
            pcr_box = pcrs.box(j)
            out_box = outer.box(p)
            in_box = inner.box(p)
            assert np.all(out_box.lo <= pcr_box.lo + TOL), f"outer lo at j={j}"
            assert np.all(pcr_box.hi <= out_box.hi + TOL), f"outer hi at j={j}"
            assert np.all(pcr_box.lo <= in_box.lo + TOL), f"inner lo at j={j}"
            assert np.all(in_box.hi <= pcr_box.hi + TOL), f"inner hi at j={j}"

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=20, deadline=None)
    def test_sandwich_randomised(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        catalog = UCatalog.evenly_spaced(m)
        obj = make_object(seed)
        pcrs = compute_pcrs(obj, catalog)
        outer, inner = fit_cfbs(pcrs)
        for j, p in enumerate(catalog):
            pcr_box = pcrs.box(j)
            assert np.all(outer.box(p).lo <= pcr_box.lo + TOL)
            assert np.all(pcr_box.hi <= outer.box(p).hi + TOL)
            assert np.all(pcr_box.lo <= inner.box(p).lo + TOL)
            assert np.all(inner.box(p).hi <= pcr_box.hi + TOL)

    def test_shrink_direction(self, paper_catalog):
        """Faces must not widen as p grows (matching PCR nesting)."""
        obj = make_object(4)
        pcrs = compute_pcrs(obj, paper_catalog)
        outer, inner = fit_cfbs(pcrs)
        for f in (outer, inner):
            assert np.all(f.slope[0] >= -TOL), "lower faces must rise with p"
            assert np.all(f.slope[1] <= TOL), "upper faces must fall with p"


class TestOptimality:
    def test_closed_form_matches_simplex_outer(self, paper_catalog):
        for seed in range(8):
            pcrs = compute_pcrs(make_object(seed), paper_catalog)
            cf = fit_outer_cfb(pcrs, method="closed-form")
            sx = fit_outer_cfb(pcrs, method="simplex")
            margin = lambda f: sum(f.box(p).margin() for p in paper_catalog)
            assert margin(cf) == pytest.approx(margin(sx), abs=1e-6, rel=1e-9)

    def test_closed_form_inner_not_worse_than_needed(self, paper_catalog):
        """Anchored inner is within a whisker of the coupled LP optimum."""
        for seed in range(8):
            pcrs = compute_pcrs(make_object(seed), paper_catalog)
            cf = fit_inner_cfb(pcrs, method="closed-form")
            sx = fit_inner_cfb(pcrs, method="simplex")
            margin = lambda f: sum(f.box(p).margin() for p in paper_catalog)
            assert margin(cf) <= margin(sx) + 1e-6
            assert margin(cf) >= 0.5 * margin(sx) - 1e-6

    def test_outer_touches_pcr_somewhere(self, paper_catalog):
        """A minimal-margin cover must be tight at some catalog value."""
        pcrs = compute_pcrs(make_object(3), paper_catalog)
        outer = fit_outer_cfb(pcrs)
        gaps = []
        for j, p in enumerate(paper_catalog):
            gaps.append(np.min(pcrs.box(j).lo - outer.box(p).lo))
        assert min(gaps) < 1e-3  # touches (up to the repair epsilon)

    def test_unknown_method_rejected(self, paper_catalog):
        pcrs = compute_pcrs(make_object(5), paper_catalog)
        with pytest.raises(ValueError):
            fit_outer_cfb(pcrs, method="magic")


class TestAreaProxy:
    def test_weights_shape_and_positive(self, paper_catalog):
        pcrs = compute_pcrs(make_object(6), paper_catalog)
        weights = area_proxy_weights(pcrs)
        assert weights.shape == (paper_catalog.size, 2)
        assert np.all(weights > 0)

    def test_area_objective_still_contains(self, paper_catalog):
        pcrs = compute_pcrs(make_object(7), paper_catalog)
        outer = fit_outer_cfb(pcrs, weights=area_proxy_weights(pcrs))
        for j, p in enumerate(paper_catalog):
            assert np.all(outer.box(p).lo <= pcrs.box(j).lo + TOL)
            assert np.all(pcrs.box(j).hi <= outer.box(p).hi + TOL)

    def test_bad_weights_rejected(self, paper_catalog):
        pcrs = compute_pcrs(make_object(8), paper_catalog)
        with pytest.raises(ValueError):
            fit_outer_cfb(pcrs, weights=np.zeros(paper_catalog.size))


class TestCompression:
    def test_cfb_representation_is_8d_values(self):
        """The space argument of Section 4.3: 8d floats versus 2dm."""
        f = LinearBoxFunction(np.zeros((2, 3)), np.zeros((2, 3)))
        stored = f.intercept.size + f.slope.size
        assert stored == 4 * 3  # per CFB: 4d values; two CFBs = 8d


# ----------------------------------------------------------------------
# Per-face reference fit: the closed form solved one face at a time, with
# its own candidate set and np.unique, kept as the oracle for the
# all-faces pass in repro.core.cfb.
# ----------------------------------------------------------------------

_SAFETY = 1e-9


def _reference_face(ps, weights, targets, side, slope_bounds):
    w_total = float(weights.sum())
    wp_total = float((weights * ps).sum())
    lo_b, hi_b = slope_bounds
    diffs_t = targets[:, None] - targets[None, :]
    diffs_p = ps[:, None] - ps[None, :]
    mask = np.abs(diffs_p) > 1e-15
    candidates = diffs_t[mask] / diffs_p[mask]
    extra = [b for b in (lo_b, hi_b) if np.isfinite(b)]
    if extra:
        candidates = np.concatenate([candidates, np.asarray(extra)])
    if candidates.size == 0:
        candidates = np.zeros(1)
    candidates = np.clip(candidates, lo_b, hi_b)
    candidates = np.unique(candidates)
    candidates = candidates[np.isfinite(candidates)]
    if candidates.size == 0:
        candidates = np.zeros(1)
    residual = targets[None, :] - candidates[:, None] * ps[None, :]
    if side == "lower":
        a_star = residual.min(axis=1)
        best = int(np.argmax(w_total * a_star + wp_total * candidates))
    else:
        a_star = residual.max(axis=1)
        best = int(np.argmin(w_total * a_star + wp_total * candidates))
    return float(a_star[best]), float(candidates[best])


def _reference_anchored(ps, lo_targets, hi_targets):
    p_top = ps[-1]
    t = (lo_targets[-1] + hi_targets[-1]) / 2.0
    below = ps < p_top
    if not np.any(below):
        return t, 0.0, t, 0.0
    gaps = p_top - ps[below]
    b_lo = max(float(np.min((t - lo_targets[below]) / gaps)), 0.0)
    b_hi = min(float(np.max(-(hi_targets[below] - t) / gaps)), 0.0)
    return t - b_lo * p_top, b_lo, t - b_hi * p_top, b_hi


def _reference_repair(intercept, slope, pcrs, signs):
    ps = pcrs.catalog.values
    for row, sign in enumerate(signs):
        for axis in range(pcrs.dim):
            vals = intercept[row, axis] + slope[row, axis] * ps
            targets = pcrs.boxes[:, row, axis]
            violation = np.max(vals - targets) if sign > 0 else np.max(targets - vals)
            if violation > -_SAFETY:
                intercept[row, axis] -= sign * (max(violation, 0.0) + _SAFETY)


def reference_outer(pcrs, weights=None):
    ps = pcrs.catalog.values
    m = ps.size
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=np.float64)
    intercept = np.empty((2, pcrs.dim))
    slope = np.empty((2, pcrs.dim))
    for axis in range(pcrs.dim):
        wa = w if w.ndim == 1 else w[:, axis]
        intercept[0, axis], slope[0, axis] = _reference_face(
            ps, wa, pcrs.boxes[:, 0, axis], "lower", (0.0, np.inf)
        )
        intercept[1, axis], slope[1, axis] = _reference_face(
            ps, wa, pcrs.boxes[:, 1, axis], "upper", (-np.inf, 0.0)
        )
    _reference_repair(intercept, slope, pcrs, (1, -1))
    return intercept, slope


def reference_inner(pcrs):
    ps = pcrs.catalog.values
    ones = np.ones(ps.size)
    intercept = np.empty((2, pcrs.dim))
    slope = np.empty((2, pcrs.dim))
    for axis in range(pcrs.dim):
        lo_t = pcrs.boxes[:, 0, axis]
        hi_t = pcrs.boxes[:, 1, axis]
        a_lo, b_lo = _reference_face(ps, ones, lo_t, "upper", (0.0, np.inf))
        a_hi, b_hi = _reference_face(ps, ones, hi_t, "lower", (-np.inf, 0.0))
        if np.any((a_lo + b_lo * ps) > (a_hi + b_hi * ps) + _SAFETY):
            a_lo, b_lo, a_hi, b_hi = _reference_anchored(ps, lo_t, hi_t)
        intercept[:, axis] = a_lo, a_hi
        slope[:, axis] = b_lo, b_hi
    _reference_repair(intercept, slope, pcrs, (-1, 1))
    return intercept, slope


def _uniform_box_object(oid, centre, half):
    from repro.uncertainty.objects import UncertainObject
    from repro.uncertainty.pdfs import UniformDensity
    from repro.uncertainty.regions import BoxRegion
    from repro.geometry.rect import Rect

    centre = np.asarray(centre, dtype=np.float64)
    return UncertainObject(oid, UniformDensity(BoxRegion(Rect(centre - half, centre + half))))


@st.composite
def catalogs(draw):
    """Random catalogs, m >= 2, with and without the degenerate 0.5."""
    grid = draw(st.sampled_from([28, 40, 64, 1000]))
    ks = draw(st.lists(st.integers(0, grid // 2 - 1), min_size=1, max_size=15, unique=True))
    values = [k / grid for k in ks]
    if draw(st.booleans()) or len(values) == 1:
        values.append(0.5)
    return UCatalog(sorted(values))


@st.composite
def pcr_sets(draw):
    """PCRs of ball, histogram and collinear uniform-box objects."""
    catalog = draw(catalogs())
    seed = draw(st.integers(0, 10_000))
    dim = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["ball", "box", "grid"]))
    rng = np.random.default_rng(seed)
    centre = rng.uniform(0, 5000, dim)
    if kind == "box":
        obj = _uniform_box_object(seed, centre, float(rng.integers(1, 400)))
    elif kind == "grid" or dim == 1:
        return _integer_pcrs(draw, catalog, dim)
    else:
        obj = make_object(seed, centre) if dim == 2 else make_congau_ball_object(seed, centre)
    return compute_pcrs(obj, catalog)


def _integer_pcrs(draw, catalog, dim):
    """Nested PCR faces on an integer grid: many exact ties between candidates."""
    from repro.core.pcr import PCRSet
    from repro.geometry.rect import Rect

    m = catalog.size
    steps = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    boxes = np.empty((m, 2, dim))
    for axis in range(dim):
        lo = np.cumsum(draw(steps)).astype(np.float64)
        hi = 100.0 - np.cumsum(draw(steps))
        boxes[:, 0, axis] = np.minimum(lo, 50.0)
        boxes[:, 1, axis] = np.maximum(hi, 50.0)
    return PCRSet(catalog, boxes, Rect(boxes[0, 0], boxes[0, 1]))


def _same(got, want):
    # Equal under ==.  Among tied zero-slope candidates the sign of the
    # zero kept is arbitrary (np.unique keeps either), and faces are only
    # ever evaluated as intercept + slope * p, where it cannot show.
    return np.array_equal(got, want)


class TestAllFacesMatchPerFaceReference:
    """The one-pass fit equals the per-face loop it replaced, value for value."""

    @given(pcr_sets())
    @settings(max_examples=150, deadline=None)
    def test_fit_cfbs_matches_reference(self, pcrs):
        outer, inner = fit_cfbs(pcrs)
        ref_oa, ref_ob = reference_outer(pcrs)
        ref_ia, ref_ib = reference_inner(pcrs)
        assert _same(outer.intercept, ref_oa) and _same(outer.slope, ref_ob)
        assert _same(inner.intercept, ref_ia) and _same(inner.slope, ref_ib)
        single_outer = fit_outer_cfb(pcrs)
        single_inner = fit_inner_cfb(pcrs)
        assert _same(single_outer.intercept, ref_oa) and _same(single_outer.slope, ref_ob)
        assert _same(single_inner.intercept, ref_ia) and _same(single_inner.slope, ref_ib)

    @given(pcr_sets())
    @settings(max_examples=60, deadline=None)
    def test_area_proxy_weights_match_reference(self, pcrs):
        weights = area_proxy_weights(pcrs)
        outer = fit_outer_cfb(pcrs, weights=weights)
        ref_a, ref_b = reference_outer(pcrs, weights)
        assert _same(outer.intercept, ref_a) and _same(outer.slope, ref_b)

    @given(pcr_sets())
    @settings(max_examples=100, deadline=None)
    def test_repaired_sandwich_holds_exactly(self, pcrs):
        outer, inner = fit_cfbs(pcrs)
        out = outer.intercept[None] + outer.slope[None] * pcrs.catalog.values[:, None, None]
        inn = inner.intercept[None] + inner.slope[None] * pcrs.catalog.values[:, None, None]
        lo, hi = pcrs.boxes[:, 0], pcrs.boxes[:, 1]
        assert np.all(out[:, 0] <= lo) and np.all(out[:, 1] >= hi)
        assert np.all(inn[:, 0] >= lo) and np.all(inn[:, 1] <= hi)

    def test_collinear_uniform_box_faces(self, paper_catalog):
        """A uniform box's PCR faces are collinear in p: every candidate ties."""
        for seed in range(6):
            obj = _uniform_box_object(seed, np.full(2, 1000.0 + 37 * seed), 100.0 + seed)
            pcrs = compute_pcrs(obj, paper_catalog)
            outer, inner = fit_cfbs(pcrs)
            ref_oa, ref_ob = reference_outer(pcrs)
            ref_ia, ref_ib = reference_inner(pcrs)
            assert _same(outer.intercept, ref_oa) and _same(outer.slope, ref_ob)
            assert _same(inner.intercept, ref_ia) and _same(inner.slope, ref_ib)
