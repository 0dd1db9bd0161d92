"""Seeded inputs of the two workloads: datasets, rounds of operations.

The benchmark owns its input generator, so a change to the program's own
dataset helpers never changes what the benchmark measures.  The datasets
are fixed (their generator seeds are constants): ``--seed`` drives the
operations only — query centres, sizes, thresholds, repeats and
re-reports — so two seeds differ in traffic, not in the map.

Every run executes whole *rounds*.  A round is a fixed mix of range
requests and location re-reports; round ``r`` of seed ``s`` is generated
from ``(s, r)`` alone, so the same seed replays the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DOMAIN = 10_000.0
RADIUS = 250.0
SIGMA = 125.0  # constrained-Gaussian standard deviation (paper: r / 2)
QUERY_SIDES = (500.0, 1000.0, 1500.0)
THRESHOLDS = (0.3, 0.5, 0.7, 0.9)
MOVE_STD = 150.0  # per-axis displacement of one location re-report


@dataclass(frozen=True)
class Dataset:
    name: str
    pdf: str  # "uniform" or "congau"
    centres: np.ndarray  # (n, 2) initial disk centres
    hot: np.ndarray  # (k, 2) hot-district centres (heaviest clusters)
    strata: np.ndarray  # object ids in map order (neighbours adjacent)


@dataclass(frozen=True)
class Query:
    centre: tuple[float, float]
    side: float
    threshold: float


@dataclass(frozen=True)
class Rereport:
    oid: int
    after_request: int  # issued after this many requests of the round
    displacement: tuple[float, float]


@dataclass(frozen=True)
class Shape:
    """The make-up of one workload's round."""

    dataset: str
    queries_per_round: int
    batch_size: int  # queries per request (1 = one query per call)
    reports_per_round: int
    repeat_share: float  # share of a round's queries that repeat a rectangle
    hot_districts: int  # 0 = centres follow the dataset


SHAPES = {
    "range-batch": Shape("CA", 100, 20, 20, 0.25, 12),
    "serve-mixed": Shape("LB", 40, 1, 10, 0.0, 0),
}

# name -> (objects, pdf, clusters, cluster std, line share, generator seed)
_DATASETS = {
    "CA": (1000, "congau", 25, 450.0, 0.45, 23),
    "LB": (1000, "uniform", 60, 220.0, 0.35, 11),
}


def dataset(name: str, hot_districts: int = 12) -> Dataset:
    """Clustered points with road-like lines, the TIGER stand-ins.

    Gaussian blobs give the urban clusters; a share of the points lies
    along segments between cluster centres.  The hot districts are the
    centres of the heaviest clusters.
    """
    n, pdf, clusters, std, line_share, seed = _DATASETS[name]
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, DOMAIN, size=(clusters, 2))
    weights = rng.dirichlet(np.full(clusters, 1.2))
    n_line = int(n * line_share)
    n_blob = n - n_line
    member = rng.choice(clusters, size=n_blob, p=weights)
    stds = std * rng.uniform(0.4, 1.6, size=clusters)
    blob = centres[member] + rng.normal(size=(n_blob, 2)) * stds[member][:, None]
    a = centres[rng.integers(0, clusters, size=n_line)]
    b = centres[rng.integers(0, clusters, size=n_line)]
    t = rng.random((n_line, 1))
    line = a + t * (b - a) + rng.normal(scale=0.15 * std, size=(n_line, 2))
    points = np.clip(np.vstack([blob, line]), 0.0, DOMAIN)
    hot = centres[np.argsort(-weights)[:hot_districts]]
    # Serpentine order over a 10 x 10 grid of cells: consecutive ids in
    # this order are neighbours on the map.
    cx = np.minimum((points[:, 0] // 1000).astype(int), 9)
    cy = np.minimum((points[:, 1] // 1000).astype(int), 9)
    key = cx * 10 + np.where(cx % 2 == 0, cy, 9 - cy)
    order = np.lexsort((points[:, 1], key))
    return Dataset(name, pdf, points, hot, order)


def make_object(oid: int, centre, pdf: str):
    """One uncertain object per the paper's Section 6 recipe."""
    from repro import (
        BallRegion,
        ConstrainedGaussianDensity,
        UncertainObject,
        UniformDensity,
    )

    region = BallRegion(np.asarray(centre, dtype=np.float64), RADIUS)
    if pdf == "uniform":
        density = UniformDensity(region, marginal_seed=oid)
    else:
        density = ConstrainedGaussianDensity(region, sigma=SIGMA, marginal_seed=oid)
    return UncertainObject(oid, density)


def objects(dataset: Dataset) -> list:
    return [make_object(i, c, dataset.pdf) for i, c in enumerate(dataset.centres)]


def _stratified(rng, values, count: int) -> list:
    """``count`` draws holding every value in equal share, shuffled."""
    reps = -(-count // len(values))
    out = np.tile(np.asarray(values), reps)[:count]
    rng.shuffle(out)
    return [float(v) for v in out]


def round_ops(shape: Shape, dataset: Dataset, seed: int, round_index: int):
    """The queries and re-reports of one round.

    Sizes, thresholds, hot districts and map regions are stratified
    (equal shares in every round) so that rounds differ in the details of
    where they query, not in how much work they ask for.  Re-reports pick
    distinct objects.
    """
    rng = np.random.default_rng([seed, round_index, 7919])
    nq = shape.queries_per_round
    sides = _stratified(rng, QUERY_SIDES, nq)
    thresholds = _stratified(rng, THRESHOLDS, nq)
    if shape.hot_districts:
        district = _stratified(rng, range(len(dataset.hot)), nq)
        centres = dataset.hot[np.asarray(district, dtype=int)]
        centres = centres + rng.normal(scale=350.0, size=(nq, 2))
    else:
        # One object per stratum of the map order: every round covers the
        # whole map in proportion to its objects.
        picks = [rng.choice(part) for part in np.array_split(dataset.strata, nq)]
        centres = dataset.centres[picks] + rng.normal(scale=RADIUS, size=(nq, 2))
    centres = np.clip(centres, 0.0, DOMAIN)
    repeats = np.full(nq, -1)
    n_repeat = int(round(shape.repeat_share * nq))
    if n_repeat:
        slots = rng.choice(np.arange(1, nq), size=n_repeat, replace=False)
        for slot in sorted(slots):
            repeats[slot] = rng.integers(0, slot)
    queries = []
    for i in range(nq):
        # A repeat reuses an earlier rectangle exactly (same centre and
        # side) under its own threshold.
        src = i
        while repeats[src] >= 0:
            src = repeats[src]
        queries.append(
            Query((float(centres[src, 0]), float(centres[src, 1])), sides[src], thresholds[i])
        )
    requests = -(-nq // shape.batch_size)
    oids = rng.choice(len(dataset.centres), size=shape.reports_per_round, replace=False)
    moves = rng.normal(scale=MOVE_STD, size=(shape.reports_per_round, 2))
    step = requests / shape.reports_per_round
    reports = [
        Rereport(int(oid), int((k + 1) * step), (float(m[0]), float(m[1])))
        for k, (oid, m) in enumerate(zip(oids, moves))
    ]
    return queries, reports


def moved(centre, displacement) -> np.ndarray:
    return np.clip(np.asarray(centre) + np.asarray(displacement), 0.0, DOMAIN)
