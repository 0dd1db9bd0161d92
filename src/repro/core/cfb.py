"""Conservative functional boxes (CFBs), Sections 4.3-4.4 of the paper.

A CFB compresses an object's ``m`` PCRs into a *linear* box-valued function
of ``p``: the outer CFB satisfies ``cfb_out(p_j) ⊇ pcr(p_j)`` and the inner
CFB ``cfb_in(p_j) ⊆ pcr(p_j)`` at every catalog value.  Each requires only
``8d`` floats versus ``2dm`` for raw PCRs, which is what gives the U-tree
its fanout advantage (Table 1).

Fitting is a linear program per axis (the paper names Simplex, Section
4.4): minimise the summed margin ``Σ_j MARGIN(cfb_out(p_j))`` subject to
the containment constraints (inequalities 12-13), and maximise the inner
margin subject to the reversed constraints plus the non-crossing
constraint (inequality 14).  The fit is closed-form: every face is a
2-variable LP whose optimum sits at a pairwise constraint intersection,
and all ``4d`` faces of both CFBs are scored in one vectorised pass
(:func:`_solve_faces`).  The library's own two-phase simplex
(:mod:`repro.lp.simplex`) stays as ``method="simplex"``, the
cross-checking oracle.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from repro.core.catalog import UCatalog
from repro.core.pcr import PCRSet
from repro.geometry.rect import Rect
from repro.lp.simplex import LPStatus, solve_lp

__all__ = [
    "LinearBoxFunction",
    "area_proxy_weights",
    "fit_cfbs",
    "fit_inner_cfb",
    "fit_outer_cfb",
]

_SAFETY = 1e-9

# The faces of both CFBs, stacked as rows of d: outer lower, outer upper,
# inner lower, inner upper.  Sign +1: the face lies at or below its PCR
# face (lower for even rows, upper for odd); -1: at or above it.
_FACE_SIGNS = np.array([[1.0], [-1.0], [-1.0], [1.0]])
_FACE_SIGNS.setflags(write=False)
_FACE_SIDES = np.array([0, 1, 0, 1])
_FACE_SIDES.setflags(write=False)


class LinearBoxFunction:
    """A box-valued linear function ``p -> [lo(p), hi(p)]`` per axis.

    Stored as intercept/slope arrays of shape ``(2, d)``: row 0 holds the
    lower-face parameters, row 1 the upper faces, so
    ``lo_i(p) = intercept[0, i] + slope[0, i] * p`` and similarly for hi.
    (The paper writes ``cfb(p) = alpha - beta p``; we keep plain slopes and
    absorb the sign.)  Lower faces have non-negative slope and upper faces
    non-positive slope, so boxes shrink as ``p`` grows, matching PCRs.
    """

    __slots__ = ("intercept", "slope")

    def __init__(self, intercept: np.ndarray, slope: np.ndarray):
        a = np.asarray(intercept, dtype=np.float64)
        b = np.asarray(slope, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != 2 or a.shape != b.shape:
            raise ValueError(f"intercept/slope must both be (2, d), got {a.shape}, {b.shape}")
        self.intercept = a
        self.slope = b

    @property
    def dim(self) -> int:
        """Dimensionality of the boxes produced."""
        return int(self.intercept.shape[1])

    def faces(self, p: float) -> np.ndarray:
        """Raw ``(2, d)`` face coordinates at ``p`` (lo row may cross hi row)."""
        return self.intercept + self.slope * p

    def box(self, p: float) -> Rect:
        """The box at ``p``; crossing faces collapse to their midpoint."""
        f = self.faces(p)
        lo, hi = f[0], f[1]
        crossing = lo > hi
        if np.any(crossing):
            mid = (lo + hi) / 2.0
            lo = np.where(crossing, mid, lo)
            hi = np.where(crossing, mid, hi)
        # Internally derived and collapse-ordered: skip re-validation.
        return Rect.from_arrays(lo, hi)

    def lower(self, p: float, axis: int) -> float:
        """The lower-face plane ``cfb_axis-(p)``."""
        return float(self.intercept[0, axis] + self.slope[0, axis] * p)

    def upper(self, p: float, axis: int) -> float:
        """The upper-face plane ``cfb_axis+(p)``."""
        return float(self.intercept[1, axis] + self.slope[1, axis] * p)

    def profile(self, catalog: UCatalog) -> np.ndarray:
        """Boxes at every catalog value as an ``(m, 2, d)`` array (clamped)."""
        ps = catalog.values[:, None, None]
        out = self.intercept[None, :, :] + self.slope[None, :, :] * ps
        lo = out[:, 0, :]
        hi = out[:, 1, :]
        crossing = lo > hi
        if np.any(crossing):
            mid = (lo + hi) / 2.0
            out[:, 0, :] = np.where(crossing, mid, lo)
            out[:, 1, :] = np.where(crossing, mid, hi)
        return out

    def __repr__(self) -> str:
        return f"LinearBoxFunction(dim={self.dim})"


def fit_outer_cfb(
    pcrs: PCRSet, method: str = "closed-form", weights: np.ndarray | None = None
) -> LinearBoxFunction:
    """Fit ``cfb_out``: minimal summed margin subject to covering every PCR.

    The objective (Formula 8) separates per axis and per face, so each face
    is an independent 2-variable LP:

    * lower face — maximise ``Σ_j w_j (a + b p_j)`` s.t. ``a + b p_j <= pcr_j-``;
    * upper face — minimise ``Σ_j w_j (a + b p_j)`` s.t. ``a + b p_j >= pcr_j+``;

    with the shrink-direction sign constraint on ``b`` (boxes must not grow
    with ``p``, mirroring PCR nesting).  With ``weights=None`` all
    ``w_j = 1`` — the paper's margin objective (Formula 11).  The
    area-proxy objective of footnote 4 passes per-j weights (see
    :func:`area_proxy_weights`).

    ``method`` selects the solver: ``"closed-form"`` exploits that the
    reduced objective is concave piecewise-linear in the slope (optimum at
    a pairwise constraint intersection); ``"simplex"`` uses the library's
    two-phase simplex, kept as a cross-checking oracle.
    """
    if method == "closed-form":
        a, b, _ = _closed_form_faces(pcrs, weights)
        a, b = a[:2], b[:2]
    elif method == "simplex":
        ps = pcrs.catalog.values
        w_total, wp_total = _face_totals(weights, ps, pcrs.dim)
        a = np.empty((2, pcrs.dim))
        b = np.empty((2, pcrs.dim))
        for axis in range(pcrs.dim):
            for row, side in enumerate(("lower", "upper")):
                bounds = (0.0, np.inf) if side == "lower" else (-np.inf, 0.0)
                a[row, axis], b[row, axis] = _fit_face_simplex(
                    ps, w_total[axis], wp_total[axis], pcrs.boxes[:, row, axis], side, bounds
                )
    else:
        raise ValueError(f"unknown method {method!r}")
    _repair(a, b, pcrs.catalog.values, pcrs.boxes, _FACE_SIGNS[:2])
    return LinearBoxFunction(a, b)


def fit_inner_cfb(pcrs: PCRSet, method: str = "closed-form") -> LinearBoxFunction:
    """Fit ``cfb_in``: maximal summed margin inside every PCR.

    The two faces of one axis are coupled by the non-crossing constraint
    (inequality 14), so each axis is in general a 4-variable LP: maximise
    ``Σ_j (hi(p_j) - lo(p_j))`` subject to ``lo(p_j) >= pcr_j-``,
    ``hi(p_j) <= pcr_j+`` and ``lo(p_j) <= hi(p_j)``.

    The ``closed-form`` method solves the two faces independently (the
    coupling constraint is usually slack because PCR faces never cross)
    and, on an axis where the decoupled optima cross at some catalog
    value, uses the anchored fit instead.  ``"simplex"`` solves the
    coupled LP of every axis with the library's simplex.
    """
    if method == "closed-form":
        a, b, _ = _closed_form_faces(pcrs)
        a, b = a[2:], b[2:]
    elif method == "simplex":
        catalog = pcrs.catalog
        a = np.empty((2, pcrs.dim))
        b = np.empty((2, pcrs.dim))
        for axis in range(pcrs.dim):
            a[0, axis], b[0, axis], a[1, axis], b[1, axis] = _fit_inner_coupled(
                catalog.values, catalog.size, catalog.total,
                pcrs.boxes[:, 0, axis], pcrs.boxes[:, 1, axis],
            )
    else:
        raise ValueError(f"unknown method {method!r}")
    _repair(a, b, pcrs.catalog.values, pcrs.boxes, _FACE_SIGNS[2:])
    return LinearBoxFunction(a, b)


def fit_cfbs(
    pcrs: PCRSet, method: str = "closed-form"
) -> tuple[LinearBoxFunction, LinearBoxFunction]:
    """Fit both CFBs; returns ``(cfb_out, cfb_in)``.

    The closed form solves the ``4d`` faces of both in one pass.
    """
    if method != "closed-form":
        return fit_outer_cfb(pcrs, method=method), fit_inner_cfb(pcrs, method=method)
    a, b, faces = _closed_form_faces(pcrs)
    _repair(a, b, pcrs.catalog.values, faces, _FACE_SIGNS)
    return LinearBoxFunction(a[:2], b[:2]), LinearBoxFunction(a[2:], b[2:])


def area_proxy_weights(pcrs: PCRSet) -> np.ndarray:
    """Per-(j, axis) weights approximating the area objective (footnote 4).

    Minimising ``Σ_j AREA(cfb(p_j))`` is non-linear, but weighting each
    axis extent by the product of the *PCR* extents of the other axes at
    ``p_j`` is its natural linearisation.  Returns an ``(m, d)`` array for
    :func:`fit_outer_cfb`'s ``weights`` argument.
    """
    extents = pcrs.boxes[:, 1, :] - pcrs.boxes[:, 0, :]  # (m, d)
    m, d = extents.shape
    weights = np.empty((m, d))
    for axis in range(d):
        others = np.delete(extents, axis, axis=1)
        weights[:, axis] = np.prod(others, axis=1) if d > 1 else 1.0
    # Guard against degenerate (zero-extent) layers dominating.
    weights = np.maximum(weights, 1e-12)
    return weights


def _face_totals(
    weights: np.ndarray | None, ps: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis objective coefficients ``(Σ_j w_j, Σ_j w_j p_j)`` of a face.

    ``weights`` is ``None`` (all ones), one weight per catalog value, or an
    ``(m, d)`` array of per-axis weights.
    """
    if weights is None:
        return np.full(d, float(ps.size)), np.full(d, ps.sum())
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != ps.size or np.any(w <= 0):
        raise ValueError("weights must be positive with one row per catalog value")
    cols = [w if w.ndim == 1 else w[:, axis] for axis in range(d)]
    return np.array([c.sum() for c in cols]), np.array([(c * ps).sum() for c in cols])


def _closed_form_faces(
    pcrs: PCRSet, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unrepaired closed-form intercepts and slopes of all ``4d`` faces.

    Returns ``(a, b, faces)``: ``(4, d)`` arrays with rows as in
    ``_FACE_SIGNS``, and the ``(m, 4, d)`` PCR face each row hugs.  The
    outer faces weigh the catalog values by ``weights`` (see
    :func:`fit_outer_cfb`), the inner faces uniformly (Formula 11).  Every
    face is solved as a lower-face LP (:func:`_solve_faces`): a face that
    hugs its targets from above is the same problem on negated targets and
    slope bounds, and negation is exact, so its solution is the negated
    optimum.
    """
    ps = pcrs.catalog.values
    d = pcrs.dim
    layout = _face_layout(ps.tobytes(), d)
    w_total, wp_total = layout.w_total, layout.wp_total
    if weights is not None:
        w_out, wp_out = _face_totals(weights, ps, d)
        w_total = np.concatenate([w_out, w_out, w_total[2 * d :]])
        wp_total = np.concatenate([wp_out, wp_out, wp_total[2 * d :]])
    faces = pcrs.boxes[:, _FACE_SIDES, :]
    targets = faces.reshape(ps.size, 4 * d).T * layout.sign
    a, b = _solve_faces(ps, targets, w_total, wp_total, layout)
    a = (a * layout.sign.ravel()).reshape(4, d)
    b = (b * layout.sign.ravel()).reshape(4, d)

    # The decoupled inner optima may cross (typical when the catalog
    # includes 0.5, where the PCR degenerates): such an axis takes the
    # anchored fit, which is feasible and crossing-free.
    inner = a[2:, :, None] + b[2:, :, None] * ps
    crossing = (inner[0] > inner[1] + _SAFETY).any(axis=1).nonzero()[0]
    if crossing.size:
        lo = pcrs.boxes[:, 0, crossing].T
        hi = pcrs.boxes[:, 1, crossing].T
        a[2, crossing], b[2, crossing], a[3, crossing], b[3, crossing] = (
            _fit_inner_anchored(ps, lo, hi)
        )
    return a, b, faces


class _FaceLayout(NamedTuple):
    """Constants of the all-faces pass for one catalog and dimensionality."""

    i: np.ndarray  # pairs i < j of distinct catalog values
    j: np.ndarray
    dp: np.ndarray  # p_i - p_j per pair
    sign: np.ndarray  # (4d, 1): _FACE_SIGNS per face
    lo_b: np.ndarray  # (4d, 1) slope bounds in lower-face form: [0, inf)
    hi_b: np.ndarray  # for the outer faces, (-inf, 0] for the inner ones
    w_total: np.ndarray  # (4d,) uniform objective coefficients
    wp_total: np.ndarray
    rows: np.ndarray  # (4d,) start of each face's row in a flat (4d, K)


@functools.lru_cache(maxsize=16)
def _face_layout(key: bytes, d: int) -> _FaceLayout:
    """The :class:`_FaceLayout` of catalog ``values.tobytes() == key``.

    Only pairs ``i < j`` are candidates: pair ``(j, i)`` would give a
    bitwise duplicate of ``(i, j)``'s intersection slope.
    """
    ps = np.frombuffer(key, dtype=np.float64)
    i, j = np.triu_indices(ps.size, 1)
    dp = ps[i] - ps[j]
    keep = np.abs(dp) > 1e-15
    outer = (np.arange(4 * d) < 2 * d)[:, None]
    layout = _FaceLayout(
        i=i[keep],
        j=j[keep],
        dp=dp[keep],
        sign=np.repeat(_FACE_SIGNS, d, axis=0),
        lo_b=np.where(outer, 0.0, -np.inf),
        hi_b=np.where(outer, np.inf, 0.0),
        w_total=np.full(4 * d, float(ps.size)),
        wp_total=np.full(4 * d, ps.sum()),
        rows=np.arange(4 * d) * (int(keep.sum()) + 1),
    )
    for arr in layout:
        arr.setflags(write=False)
    return layout


def _solve_faces(
    ps: np.ndarray,
    targets: np.ndarray,
    w_total: np.ndarray,
    wp_total: np.ndarray,
    layout: _FaceLayout,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact solutions ``(a, b)`` of ``F`` independent 2-variable face LPs.

    Face ``f`` maximises ``w_total[f] a + wp_total[f] b`` subject to
    ``a + b p_j <= targets[f, j]`` at every catalog value, with ``b``
    within the face's slope bounds in ``layout``.  The feasible intercepts
    are ``a <= a*(b) = min_j(t_j - b p_j)``, a concave piecewise-linear
    function of ``b``, so the objective peaks at a kink (a pairwise
    constraint intersection) or at the slope bound 0: every such candidate
    is scored.  Among equal scores the smallest ``sign * b`` wins, i.e. the
    smallest slope of the face that row ``f`` stands for.

    The candidate axis is innermost and the catalog axis is reduced, so the
    ``(m, F, K)`` residual reduces over whole contiguous rows.
    """
    cand = np.empty((targets.shape[0], layout.dp.size + 1))
    np.divide(targets[:, layout.i] - targets[:, layout.j], layout.dp, out=cand[:, :-1])
    cand[:, -1] = 0.0
    np.maximum(cand, layout.lo_b, out=cand)
    np.minimum(cand, layout.hi_b, out=cand)
    resid = np.multiply.outer(ps, cand)
    np.subtract(targets.T[:, :, None], resid, out=resid)
    a_star = resid.min(axis=0)
    score = w_total[:, None] * a_star
    score += wp_total[:, None] * cand
    key = cand * layout.sign
    key[score < score.max(axis=1, keepdims=True)] = np.inf
    best = layout.rows + key.argmin(axis=1)
    return a_star.ravel()[best], cand.ravel()[best]


def _fit_face_simplex(
    ps: np.ndarray,
    w_total: float,
    wp_total: float,
    targets: np.ndarray,
    side: str,
    slope_bounds: tuple[float, float],
) -> tuple[float, float]:
    """Simplex oracle for one face LP (used for cross-checking).

    ``side="lower"``: hug the targets from below (``a + b p_j <= t_j``)
    while maximising ``w_total a + wp_total b``; ``side="upper"``: hug
    from above while minimising.
    """
    c = np.array([w_total, wp_total])
    lo_b, hi_b = slope_bounds
    bounds = [
        (None, None),
        (None if not np.isfinite(lo_b) else lo_b, None if not np.isfinite(hi_b) else hi_b),
    ]
    rows = []
    rhs = []
    if side == "lower":
        for p, t in zip(ps, targets):
            rows.append([1.0, p])
            rhs.append(t)
        result = solve_lp(c, a_ub=rows, b_ub=rhs, bounds=bounds, maximize=True)
    else:
        for p, t in zip(ps, targets):
            rows.append([-1.0, -p])
            rhs.append(-t)
        result = solve_lp(c, a_ub=rows, b_ub=rhs, bounds=bounds, maximize=False)
    if result.status != LPStatus.OPTIMAL:
        flat = float(np.min(targets) if side == "lower" else np.max(targets))
        return flat, 0.0
    return float(result.x[0]), float(result.x[1])


def _fit_inner_anchored(
    ps: np.ndarray,
    lo_targets: np.ndarray,
    hi_targets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Crossing-free inner fit anchored at the top catalog value.

    ``lo_targets`` and ``hi_targets`` are ``(k, m)``: the PCR faces of
    ``k`` axes, each fitted independently.  Pin both faces to the midpoint
    ``t`` of the PCR at ``p_m`` (a point both faces may legally touch),
    then open each face as fast as its containment constraints allow:

    * ``lo(p) = t + b_lo (p - p_m)`` with the largest ``b_lo`` keeping
      ``lo(p_j) >= pcr_j-`` for all j;
    * ``hi(p) = t + b_hi (p - p_m)`` with the most negative ``b_hi``
      keeping ``hi(p_j) <= pcr_j+``.

    Since ``b_lo >= 0 >= b_hi`` and both lines meet at ``p_m``,
    ``lo(p_j) <= hi(p_j)`` holds everywhere — no crossing by
    construction.  Feasible always; optimal whenever the coupling
    constraint binds only at ``p_m``.  Returns ``(a_lo, b_lo, a_hi,
    b_hi)``, one entry per axis.
    """
    p_top = ps[-1]
    t = (lo_targets[:, -1] + hi_targets[:, -1]) / 2.0
    if ps.size == 1:
        return t, np.zeros_like(t), t, np.zeros_like(t)
    # Catalog values ascend strictly: every value but the last is below p_m.
    gaps = p_top - ps[:-1]
    b_lo = np.maximum(((t[:, None] - lo_targets[:, :-1]) / gaps).min(axis=1), 0.0)
    b_hi = np.minimum((-(hi_targets[:, :-1] - t[:, None]) / gaps).max(axis=1), 0.0)
    return t - b_lo * p_top, b_lo, t - b_hi * p_top, b_hi


def _fit_inner_coupled(
    ps: np.ndarray,
    m: int,
    total: float,
    lo_targets: np.ndarray,
    hi_targets: np.ndarray,
) -> tuple[float, float, float, float]:
    """The coupled 4-variable inner LP (non-crossing constraint active)."""
    # Variables: [a_lo, b_lo, a_hi, b_hi].
    # Maximise m*a_hi + P*b_hi - m*a_lo - P*b_lo.
    c = np.array([-m, -total, m, total])
    rows = []
    rhs = []
    for j in range(m):
        p = ps[j]
        rows.append([-1.0, -p, 0.0, 0.0])
        rhs.append(-lo_targets[j])
        rows.append([0.0, 0.0, 1.0, p])
        rhs.append(hi_targets[j])
        rows.append([1.0, p, -1.0, -p])
        rhs.append(0.0)
    bounds = [(None, None), (0.0, None), (None, None), (None, 0.0)]
    result = solve_lp(c, a_ub=rows, b_ub=rhs, bounds=bounds, maximize=True)
    if result.status != LPStatus.OPTIMAL:
        # Always feasible in exact arithmetic (the degenerate point
        # pcr(p_max) satisfies everything); fall back to it.
        return float(lo_targets[-1]), 0.0, float(hi_targets[-1]), 0.0
    a_lo, b_lo, a_hi, b_hi = result.x
    return float(a_lo), float(b_lo), float(a_hi), float(b_hi)


def _repair(
    a: np.ndarray, b: np.ndarray, ps: np.ndarray, faces: np.ndarray, signs: np.ndarray
) -> None:
    """Nudge intercepts so containment holds exactly despite LP tolerance.

    Row ``k`` of ``(a, b)`` must lie at or below (``signs[k] = +1``) or at
    or above (-1) the PCR face ``faces[:, k]`` at every catalog value
    ``ps``.  A face whose worst violation exceeds ``-_SAFETY`` moves past
    it by ``_SAFETY``.
    """
    violation = (signs * (a + b * ps[:, None, None] - faces)).max(axis=0)
    nudge = np.maximum(violation, 0.0) + _SAFETY
    a -= np.where(violation > -_SAFETY, signs * nudge, 0.0)
