"""Independent appearance probabilities for disk-shaped uncertainty regions.

``P_app(o, q)`` of an object whose pdf lives on a disk of radius ``r``
is a 1-D integral over the x-extent of ``disk ∩ rect``: at abscissa
``x`` the disk's chord spans ``cy ± h(x)`` with ``h = sqrt(r² - (x-cx)²)``,
and the rectangle keeps ``[max(lo_y, cy-h), min(hi_y, cy+h)]`` of it.

* Uniform pdf: the kept chord length, divided by the disk area ``π r²``.
* Constrained Gaussian (isotropic ``N(c, σ² I)`` renormalised to the
  disk): the x-density times the Gaussian-CDF difference over the kept
  chord, divided by the disk's Gaussian mass ``1 - exp(-r² / 2σ²)``.

The substitution ``x = cx + r sin θ`` removes the square-root endpoint
singularity, and the θ-range is split where a chord end crosses
``lo_y`` or ``hi_y``, so each piece is smooth and Gauss-Legendre
quadrature is exact to rounding.  Nothing here uses the program's
estimator, index, kernel, memo or caches.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from scipy.special import ndtr as _ndtr
except ImportError:  # pragma: no cover - scipy ships with the toolchain
    _ndtr = np.vectorize(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)))

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)


def appearance(centres, radius: float, lo, hi, sigma: float | None = None) -> np.ndarray:
    """True ``P_app`` of each disk against the rectangle ``[lo, hi]``.

    Args:
        centres: ``(k, 2)`` disk centres.
        radius: disk radius.
        lo, hi: the rectangle's lower and upper corners.
        sigma: ``None`` for the uniform pdf, else the standard deviation
            of the constrained Gaussian centred on the disk.
    """
    c = np.atleast_2d(np.asarray(centres, dtype=np.float64))
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    r = float(radius)
    cx, cy = c[:, 0:1], c[:, 1:2]
    theta_a = np.arcsin(np.clip((lo[0] - cx) / r, -1.0, 1.0))
    theta_b = np.arcsin(np.clip((hi[0] - cx) / r, -1.0, 1.0))
    # Chord ends cy ± r cos θ cross a horizontal edge at cos θ = |d| / r.
    d = np.hstack([lo[1] - cy, hi[1] - cy])
    kink = np.arccos(np.clip(np.abs(d) / r, 0.0, 1.0))
    cuts = np.hstack([theta_a, theta_b, kink, -kink])
    cuts = np.sort(np.clip(cuts, theta_a, theta_b), axis=1)
    left, right = cuts[:, :-1, None], cuts[:, 1:, None]
    half = 0.5 * (right - left)
    theta = left + half + half * _NODES
    u = r * np.sin(theta)  # x - cx at each node
    h = r * np.cos(theta)  # chord half-length
    jac = h * half * _WEIGHTS  # dx = r cos θ dθ
    ylo = np.maximum((lo[1] - cy)[:, :, None], -h)
    yhi = np.minimum((hi[1] - cy)[:, :, None], h)
    if sigma is None:
        inner = np.maximum(yhi - ylo, 0.0)
        return (inner * jac).sum(axis=(1, 2)) / (math.pi * r * r)
    s = float(sigma)
    inner = np.maximum(_ndtr(yhi / s) - _ndtr(ylo / s), 0.0)
    density = np.exp(-0.5 * (u / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    mass = -math.expm1(-(r * r) / (2.0 * s * s))
    return (density * inner * jac).sum(axis=(1, 2)) / mass


def violations(
    centres, radius: float, sigma: float | None, lo, hi, threshold: float,
    answer, delta: float,
) -> tuple[list[int], list[int]]:
    """Objects an answer wrongly misses or wrongly returns.

    ``centres`` holds every live object's centre, indexed by oid.  An
    object is *missing* when its true ``P_app >= threshold + delta`` and
    the answer lacks it, and *wrong* when the answer holds it although
    ``P_app < threshold - delta``.  Objects within ``delta`` of the
    threshold are left to Monte-Carlo error and never counted.
    """
    centres = np.asarray(centres)
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    near = np.all((centres + radius >= lo) & (centres - radius <= hi), axis=1)
    ids = np.flatnonzero(near)
    probs = np.zeros(len(centres))
    if len(ids):
        probs[ids] = appearance(centres[ids], radius, lo, hi, sigma)
    returned = np.zeros(len(centres), dtype=bool)
    returned[np.asarray(answer, dtype=np.int64)] = True
    missing = np.flatnonzero((probs >= threshold + delta) & ~returned)
    wrong = np.flatnonzero((probs < threshold - delta) & returned)
    return missing.tolist(), wrong.tolist()
