"""Checks of the benchmark's independent P_app oracle.

Run with ``python3 -m pytest perfbench/test_oracle.py``.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import appearance, violations  # noqa: E402

R = 250.0
PDFS = [None, 125.0, 60.0]


@pytest.mark.parametrize("sigma", PDFS)
def test_containing_rect_gives_one_and_disjoint_gives_zero(sigma):
    c = np.array([[4000.0, 6000.0], [100.0, 9800.0]])
    inside = appearance(c, R, c.min(0) - R - 1.0, c.max(0) + R + 1.0, sigma)
    assert np.allclose(inside, 1.0, atol=1e-12)
    assert np.all(appearance(c, R, [5000.0, 0.0], [6000.0, 3000.0], sigma) == 0.0)
    touching = appearance(c[:1], R, [4000.0 + R, 0.0], [9000.0, 9000.0], sigma)
    assert touching[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("sigma", PDFS)
def test_half_plane_through_centre_gives_half(sigma):
    c = np.array([[3000.0, 3000.0]])
    right = appearance(c, R, [3000.0, 0.0], [9000.0, 9000.0], sigma)
    below = appearance(c, R, [0.0, 0.0], [9000.0, 3000.0], sigma)
    assert right[0] == pytest.approx(0.5, abs=1e-12)
    assert below[0] == pytest.approx(0.5, abs=1e-12)


def _grid(centre, lo, hi, sigma, n=1500):
    """Midpoint-rule integral over a dense grid on the disk's bounding box."""
    xs = centre[0] - R + (np.arange(n) + 0.5) * (2 * R / n)
    ys = centre[1] - R + (np.arange(n) + 0.5) * (2 * R / n)
    x, y = np.meshgrid(xs, ys)
    in_disk = (x - centre[0]) ** 2 + (y - centre[1]) ** 2 <= R * R
    if sigma is None:
        w = in_disk.astype(float)
    else:
        w = np.exp(-((x - centre[0]) ** 2 + (y - centre[1]) ** 2) / (2 * sigma**2)) * in_disk
    in_rect = (x >= lo[0]) & (x <= hi[0]) & (y >= lo[1]) & (y <= hi[1])
    return float((w * in_rect).sum() / w.sum())


@pytest.mark.parametrize("sigma", PDFS)
def test_agrees_with_dense_grid_integration(sigma):
    rng = np.random.default_rng(5)
    centre = np.array([5000.0, 5000.0])
    for _ in range(12):
        lo = centre + rng.uniform(-1.6 * R, 0.6 * R, size=2)
        hi = lo + rng.uniform(0.1 * R, 2.5 * R, size=2)
        exact = appearance(centre[None, :], R, lo, hi, sigma)[0]
        assert exact == pytest.approx(_grid(centre, lo, hi, sigma), abs=2e-3)


def test_uniform_matches_circular_segment_area():
    c = np.array([[0.0, 0.0]])
    for depth in (50.0, 125.0, 250.0, 400.0):
        t = R - depth  # the chord at x = t cuts a segment of this depth
        cut = appearance(c, R, [t, -2 * R], [2 * R, 2 * R])[0]
        segment = R * R * math.acos(t / R) - t * math.sqrt(R * R - t * t)
        assert cut == pytest.approx(segment / (math.pi * R * R), abs=1e-12)


def test_violations_flags_missing_and_wrong_objects():
    centres = np.array([[1000.0, 1000.0], [1600.0, 1000.0], [5000.0, 5000.0]])
    lo, hi = [700.0, 700.0], [1300.0, 1300.0]  # contains object 0 only
    assert violations(centres, R, None, lo, hi, 0.5, [0], 0.03) == ([], [])
    assert violations(centres, R, None, lo, hi, 0.5, [], 0.03) == ([0], [])
    assert violations(centres, R, None, lo, hi, 0.5, [0, 2], 0.03) == ([], [2])
