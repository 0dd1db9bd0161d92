"""Both weight paths of the estimator against an independent P_app.

``perfbench/oracle.py`` integrates ``P_app`` of a disk-shaped object by
quadrature, without the estimator, index, caches or memo.  It is loaded
here read-only, by file path.  Uniform disks take the constant-weight
path (a cloud with no weight row of its own) and constrained-Gaussian
disks the weighted path; both must agree with the
oracle to within the benchmark's ``delta``, and the engine must equal
the per-pair estimator exactly.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.exec import RefinementEngine
from repro.geometry.rect import Rect
from repro.uncertainty.montecarlo import AppearanceEstimator
from tests.conftest import make_congau_ball_object, make_uniform_ball_object

ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
RADIUS = 250.0
SIGMA = 125.0
N_SAMPLES = 10_000
SEED = 3
DELTA = 0.03  # the benchmark's allowance for Monte-Carlo error


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _partial_overlaps(rng, centre, count: int, appearance, sigma):
    """``count`` rectangles each holding between 5% and 95% of the disk."""
    rects = []
    while len(rects) < count:
        side = float(rng.choice([500.0, 1000.0, 1500.0]))
        offset = rng.uniform(-1.0, 1.0, 2) * (RADIUS + side / 2.0)
        lo = centre + offset - side / 2.0
        hi = lo + side
        truth = float(appearance(centre[None, :], RADIUS, lo, hi, sigma)[0])
        if 0.05 <= truth <= 0.95:
            rects.append((Rect(lo, hi), truth))
    return rects


@pytest.mark.parametrize(
    "pdf, sigma, make",
    [
        ("uniform", None, lambda oid, c: make_uniform_ball_object(oid, c, RADIUS)),
        (
            "constrained-gaussian",
            SIGMA,
            lambda oid, c: make_congau_ball_object(oid, c, RADIUS, SIGMA),
        ),
    ],
)
def test_engine_and_estimator_within_delta_of_oracle(pdf, sigma, make):
    appearance = _load_oracle().appearance
    rng = np.random.default_rng(2024)
    estimator = AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED)
    engine = RefinementEngine(n_samples=N_SAMPLES, seed=SEED)
    worst = 0.0
    for oid in range(12):
        centre = rng.uniform(1000.0, 9000.0, 2)
        obj = make(oid, centre)
        samples = engine.cache.get(obj.pdf, obj.oid)
        assert samples.constant_weight == (pdf == "uniform")
        for rect, truth in _partial_overlaps(rng, centre, 5, appearance, sigma):
            value = engine.estimate(obj, rect)
            assert estimator.estimate(obj.pdf, rect, object_id=oid) == value
            worst = max(worst, abs(value - truth))
    assert worst <= DELTA
