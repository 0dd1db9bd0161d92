"""Shared fixtures for the test-suite.

Small, deterministic objects and catalogs used across many modules.  The
`tiny_page` layouts force deep trees with few entries so structural edge
cases (splits, reinserts, condense) are exercised with small inputs.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.catalog import UCatalog
from repro.uncertainty.montecarlo import AppearanceEstimator
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import (
    ConstrainedGaussianDensity,
    HistogramDensity,
    UniformDensity,
    zipf_histogram,
)
from repro.uncertainty.regions import BallRegion, BoxRegion
from repro.geometry.rect import Rect

# HYPOTHESIS_PROFILE=ci (set by the CI tier-1 job) derives every example
# from the test itself, so a property test cannot pass on one matrix leg
# and fail on another; local runs keep the randomised default.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def catalog():
    """A small, fast catalog including 0 and 0.5."""
    return UCatalog([0.0, 0.1, 0.25, 0.4, 0.5])


@pytest.fixture
def paper_catalog():
    return UCatalog.paper_utree_default()


@pytest.fixture
def estimator():
    """A Monte-Carlo estimator with enough samples for ~1% accuracy in 2-D."""
    return AppearanceEstimator(n_samples=20_000, seed=42)


def make_uniform_ball_object(oid: int, centre, radius: float = 250.0) -> UncertainObject:
    region = BallRegion(np.asarray(centre, dtype=float), radius)
    return UncertainObject(oid, UniformDensity(region, marginal_seed=oid))


def make_congau_ball_object(oid: int, centre, radius: float = 250.0, sigma: float = 125.0):
    region = BallRegion(np.asarray(centre, dtype=float), radius)
    return UncertainObject(
        oid, ConstrainedGaussianDensity(region, sigma=sigma, marginal_seed=oid)
    )


def make_histogram_box_object(oid: int, centre, half: float = 250.0, cells: int = 6):
    centre = np.asarray(centre, dtype=float)
    region = BoxRegion(Rect(centre - half, centre + half))
    return UncertainObject(oid, zipf_histogram(region, cells, skew=1.1, seed=oid))


def make_mixed_objects(n: int, seed: int = 0, dim: int = 2) -> list[UncertainObject]:
    """Objects cycling through Uniform / Con-Gau / Zipf-histogram pdfs."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        centre = rng.uniform(500, 9500, dim)
        kind = i % 3
        if kind == 0:
            objects.append(make_uniform_ball_object(i, centre))
        elif kind == 1:
            objects.append(make_congau_ball_object(i, centre))
        else:
            objects.append(make_histogram_box_object(i, centre))
    return objects


@pytest.fixture
def mixed_objects():
    return make_mixed_objects(60, seed=3)


@pytest.fixture
def uniform_objects():
    rng = np.random.default_rng(11)
    return [
        make_uniform_ball_object(i, rng.uniform(500, 9500, 2)) for i in range(50)
    ]


def brute_force_answer(objects, query, threshold, n_samples=20_000, seed=42):
    """Ground-truth prob-range answer by direct Monte-Carlo on every object.

    Uses the same estimator configuration as the fixtures so index answers
    are bit-identical (common random numbers per object id).
    """
    est = AppearanceEstimator(n_samples=n_samples, seed=seed)
    out = []
    for obj in objects:
        if est.estimate(obj.pdf, query, object_id=obj.oid) >= threshold:
            out.append(obj.oid)
    return sorted(out)
