"""Uncertainty regions: the supports of object pdfs.

The paper's motivating example uses circular uncertainty regions (moving
clients whose distance threshold bounds their drift) and sphere regions for
the 3-D Aircraft dataset; box regions arise for sensor-reading style data.
A region knows its MBR, its volume, uniform sampling, and membership tests
— everything the Monte-Carlo estimator (Eq. 3) and the marginal-CDF
machinery need.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable

import numpy as np

from repro.geometry.rect import Rect

__all__ = ["UncertaintyRegion", "BoxRegion", "BallRegion", "unit_ball_volume"]


def unit_ball_volume(dim: int) -> float:
    """Volume of the d-dimensional unit ball."""
    if dim < 1:
        raise ValueError("dimensionality must be at least 1")
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


class UncertaintyRegion(ABC):
    """Abstract support of an uncertain object's pdf.

    Concrete regions must be bounded, have positive volume, and support
    exact membership tests plus uniform sampling (the primitive underlying
    the paper's Monte-Carlo integration).
    """

    @property
    @abstractmethod
    def dim(self) -> int:
        """Dimensionality of the data space."""

    @abstractmethod
    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the region."""

    @abstractmethod
    def volume(self) -> float:
        """d-dimensional volume of the region."""

    @abstractmethod
    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of which rows of ``(n, d)`` ``points`` lie inside."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` points uniformly from the region, shape ``(n, d)``."""

    def contains_point(self, point: Iterable[float]) -> bool:
        """Membership test for a single point."""
        p = np.asarray(point, dtype=np.float64).reshape(1, -1)
        return bool(self.contains_points(p)[0])


class BoxRegion(UncertaintyRegion):
    """An axis-aligned box support (e.g. interval sensor readings)."""

    def __init__(self, rect: Rect):
        if rect.area() <= 0.0:
            raise ValueError("box region must have positive volume")
        self._rect = rect

    @property
    def rect(self) -> Rect:
        """The underlying rectangle."""
        return self._rect

    @property
    def dim(self) -> int:
        return self._rect.dim

    def mbr(self) -> Rect:
        return self._rect

    def volume(self) -> float:
        return self._rect.area()

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        return self._rect.contains_points(points)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 0:
            raise ValueError("sample count must be non-negative")
        u = rng.random((n, self.dim))
        return self._rect.lo + u * self._rect.extent

    def __repr__(self) -> str:
        return f"BoxRegion({self._rect!r})"


class BallRegion(UncertaintyRegion):
    """A d-dimensional ball support (circle in 2-D, sphere in 3-D).

    This is the paper's canonical region: a moving object can be anywhere
    within ``radius`` of its last reported location.
    """

    def __init__(self, center: Iterable[float], radius: float):
        c = np.asarray(center, dtype=np.float64)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("center must be a non-empty 1-D vector")
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        self.center = c
        self.radius = float(radius)
        # Computed once, as BoxRegion does: refinement asks every refined
        # pair for its MBR.
        self._mbr = Rect.from_center(c, self.radius)

    @property
    def dim(self) -> int:
        return self.center.size

    def mbr(self) -> Rect:
        return self._mbr

    def volume(self) -> float:
        return unit_ball_volume(self.dim) * self.radius ** self.dim

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        sq = np.sum((pts - self.center) ** 2, axis=1)
        return sq <= self.radius * self.radius * (1.0 + 1e-12)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform ball sampling: random direction, radius ~ U^(1/d) scaling."""
        if n < 0:
            raise ValueError("sample count must be non-negative")
        d = self.dim
        directions = rng.normal(size=(n, d))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        # A zero vector has probability zero but guard against it anyway.
        norms[norms == 0.0] = 1.0
        directions /= norms
        radii = self.radius * rng.random(n) ** (1.0 / d)
        return self.center + directions * radii[:, None]

    def __repr__(self) -> str:
        c = ", ".join(f"{v:g}" for v in self.center)
        return f"BallRegion(center=[{c}], radius={self.radius:g})"
