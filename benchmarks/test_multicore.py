"""Bench for the process execution backend: cores must buy throughput.

The acceptance contract of :mod:`repro.exec.mpexec` on an I/O-bound
batch (simulated per-page latency, the regime the backend exists for):

* four forked workers sustain **at least twice** the queries/second of
  one worker over the same structure — page-granular refinement
  ownership means each worker sleeps only for the pages it owns, so the
  per-page latencies overlap instead of serialising.  The contract
  holds even on a single-core runner because the latency is simulated
  (``time.sleep`` releases the GIL and the OS scheduler interleaves the
  workers' sleep windows);
* answers stay bit-identical to the serial thread executor at every
  worker count (the exactness matrix in ``tests/test_multicore.py``
  pins the counters too; re-checked here on the benchmark workload).

Headline numbers go to ``BENCH_multicore.json`` (path overridable via
``REPRO_MULTICORE_ARTIFACT``) for the CI perf-smoke job.  The wall-clock
scaling assertion is skippable via ``REPRO_SKIP_PERF_ASSERT`` for
congested CI runners; the bit-identity assertions are always armed.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.query import ProbRangeQuery
from repro.core.utree import UTree
from repro.env import env_flag, env_int, env_value
from repro.exec import BatchExecutor, ProcessBatchExecutor
from repro.geometry.rect import Rect
from repro.uncertainty.montecarlo import AppearanceEstimator
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import UniformDensity
from repro.uncertainty.regions import BallRegion

N_SAMPLES = env_int("REPRO_BENCH_SAMPLES", 1500)
SEED = 19
N_OBJECTS = 240
N_QUERIES = 24
PAGE_SIZE = 512  # many small pages -> fine-grained worker ownership
IO_LATENCY_SECONDS = 0.006
WORKER_COUNTS = (1, 2, 4)
REPEATS = 2
ARTIFACT = env_value("REPRO_MULTICORE_ARTIFACT", "BENCH_multicore.json")
SKIP_PERF = env_flag("REPRO_SKIP_PERF_ASSERT")


def _objects() -> list[UncertainObject]:
    rng = np.random.default_rng(41)
    centres = rng.uniform(500, 9500, (N_OBJECTS, 2))
    return [
        UncertainObject(
            i, UniformDensity(BallRegion(centres[i], 250.0), marginal_seed=i)
        )
        for i in range(N_OBJECTS)
    ]


def _workload() -> list[ProbRangeQuery]:
    rng = np.random.default_rng(43)
    return [
        ProbRangeQuery(
            Rect.from_center(
                rng.uniform(1500, 8500, 2), float(rng.uniform(600, 1800))
            ),
            0.5,
        )
        for _ in range(N_QUERIES)
    ]


def _build() -> UTree:
    """A fresh tree per executor: same seeds, bit-identical structure."""
    tree = UTree(
        2,
        page_size=PAGE_SIZE,
        estimator=AppearanceEstimator(n_samples=N_SAMPLES, seed=SEED),
    )
    for obj in _objects():
        tree.insert(obj)
    return tree


def _timed_qps(executor, workload) -> float:
    """Best-of-REPEATS throughput after one warm-up run."""
    executor.run(workload)  # fork the pool, warm per-worker sample clouds
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        executor.run(workload)
        best = min(best, time.perf_counter() - start)
    return len(workload) / max(best, 1e-12)


class TestMulticoreAcceptance:
    def test_process_workers_scale_io_bound_throughput(self):
        workload = _workload()
        expected = [
            a.object_ids
            for a in BatchExecutor(_build(), memoize=False).run(workload).answers
        ]

        qps: dict[int, float] = {}
        layouts: dict[int, int] = {}
        for workers in WORKER_COUNTS:
            with ProcessBatchExecutor(
                _build(),
                workers=workers,
                memoize=False,  # keep every run cold: pure fetch + refine
                share_samples=True,  # clouds drawn once, mapped into workers
                io_latency_seconds=IO_LATENCY_SECONDS,
            ) as executor:
                result = executor.run(workload)
                assert [a.object_ids for a in result.answers] == expected
                assert result.batch.executor == "process"
                qps[workers] = _timed_qps(executor, workload)
                layouts[workers] = executor.workers

        speedup = qps[4] / max(qps[1], 1e-12)
        with open(ARTIFACT, "w") as fh:
            json.dump(
                {
                    "n_samples": N_SAMPLES,
                    "objects": N_OBJECTS,
                    "queries": N_QUERIES,
                    "page_size": PAGE_SIZE,
                    "io_latency_seconds": IO_LATENCY_SECONDS,
                    "repeats": REPEATS,
                    "queries_per_second": {
                        str(w): qps[w] for w in WORKER_COUNTS
                    },
                    "speedup_4_over_1": speedup,
                    "perf_assert_armed": not SKIP_PERF,
                },
                fh,
                indent=2,
            )

        if SKIP_PERF:
            pytest.skip(
                f"REPRO_SKIP_PERF_ASSERT set; measured 4/1 speedup {speedup:.2f}x"
            )
        assert speedup >= 2.0, (
            f"4 process workers gave {speedup:.2f}x over 1 "
            f"(qps: { {w: round(q, 1) for w, q in qps.items()} })"
        )
