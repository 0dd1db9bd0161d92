"""Load harness for the query service: cross-client batching engages.

A location-service read trace — every request a prob-range query over a
small pool of hot city rectangles — is replayed against one served
:class:`~repro.api.Database` at several concurrent client counts.  The
replay is CPU-only: it simulates no page latency.  The acceptance
contract:

* with eight synchronous wire clients, the admission queue forms
  cross-client batches: requests that queue while the engine runs a
  batch are swept into the next one, and the batch executor fetches
  each hot page once for all of them (plus ``(address, rect)`` P_app
  memoisation across the batch);
* answers are not re-checked here — ``tests/test_serve.py`` pins
  bit-identical served answers; this file measures only cost.

Headline numbers (qps and p50/p99 request latency per client count, the
8-over-1 qps ratio, queue stats) go to ``BENCH_serve.json`` (path
overridable via ``REPRO_SERVE_ARTIFACT``) for the CI serve job.  The
ratio is recorded, not asserted: a lone client is dispatched at once,
so on this CPU-only replay the ratio depends on thread scheduling alone.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np

from repro.api import Database, ExecConfig, RangeSpec
from repro.env import env_int, env_value
from repro.geometry.rect import Rect
from repro.serve import QueryServer, ServeClient
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.pdfs import UniformDensity
from repro.uncertainty.regions import BallRegion

N_SAMPLES = env_int("REPRO_BENCH_SAMPLES", 1200)
SEED = 23
N_OBJECTS = 120
N_HOT_RECTS = 10
TOTAL_REQUESTS = 48  # split across the clients of each run
CLIENT_COUNTS = (1, 2, 8)
PAGE_SIZE = 512  # many small pages -> page dedup has something to win
ARTIFACT = env_value("REPRO_SERVE_ARTIFACT", "BENCH_serve.json")


def _objects() -> list[UncertainObject]:
    rng = np.random.default_rng(47)
    centres = rng.uniform(500, 9500, (N_OBJECTS, 2))
    return [
        UncertainObject(
            i, UniformDensity(BallRegion(centres[i], 250.0), marginal_seed=i)
        )
        for i in range(N_OBJECTS)
    ]


def _hot_rects() -> list[Rect]:
    """The city's busy districts: every client queries from this pool."""
    rng = np.random.default_rng(53)
    return [
        Rect.from_center(rng.uniform(2000, 8000, 2), float(rng.uniform(900, 1800)))
        for _ in range(N_HOT_RECTS)
    ]


def _trace(n_requests: int) -> list[RangeSpec]:
    """One deterministic request stream over the hot-rectangle pool."""
    rng = np.random.default_rng(59)
    rects = _hot_rects()
    thresholds = (0.3, 0.5, 0.8)
    return [
        RangeSpec(rects[int(rng.integers(len(rects)))],
                  thresholds[int(rng.integers(len(thresholds)))])
        for _ in range(n_requests)
    ]


def _build() -> Database:
    config = ExecConfig(
        mc_samples=N_SAMPLES,
        seed=SEED,
        page_size=PAGE_SIZE,
        max_inflight=64,
    )
    return Database.create(_objects(), config, methods=("utree",))


def _replay(address, trace: list[RangeSpec], n_clients: int) -> dict:
    """Replay ``trace`` split across ``n_clients`` synchronous clients."""
    slices = [trace[i::n_clients] for i in range(n_clients)]
    latencies: list[list[float]] = [[] for _ in range(n_clients)]
    barrier = threading.Barrier(n_clients + 1)

    def client_loop(i: int) -> None:
        with ServeClient(*address) as client:
            barrier.wait()  # connect first, then start together
            for spec in slices[i]:
                t0 = time.perf_counter()
                client.query(spec)
                latencies[i].append(time.perf_counter() - t0)

    threads = [
        threading.Thread(target=client_loop, args=(i,), name=f"load-client-{i}")
        for i in range(n_clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start

    flat = sorted(lat for per_client in latencies for lat in per_client)
    return {
        "clients": n_clients,
        "requests": len(flat),
        "wall_seconds": wall,
        "qps": len(flat) / max(wall, 1e-12),
        "p50_ms": 1000.0 * flat[len(flat) // 2],
        "p99_ms": 1000.0 * flat[min(len(flat) - 1, int(len(flat) * 0.99))],
    }


class TestServeLoadAcceptance:
    def test_concurrent_clients_form_cross_client_batches(self):
        db = _build()
        trace = _trace(TOTAL_REQUESTS)

        # Warm what all runs share — sample clouds and structure pages —
        # so the first client count is not charged the one-off costs.
        db.run(
            [RangeSpec(rect, 0.5) for rect in _hot_rects()]
        )

        runs: dict[int, dict] = {}
        with QueryServer(db) as server:
            for n_clients in CLIENT_COUNTS:
                # Each run starts with a cold P_app memo so every client
                # count pays the same refinement work.
                db.clear_memos()
                runs[n_clients] = _replay(server.address, trace, n_clients)
            queue_stats = server.queue.stats()

        speedup = runs[8]["qps"] / max(runs[1]["qps"], 1e-12)
        with open(ARTIFACT, "w") as fh:
            json.dump(
                {
                    "n_samples": N_SAMPLES,
                    "objects": N_OBJECTS,
                    "hot_rects": N_HOT_RECTS,
                    "total_requests": TOTAL_REQUESTS,
                    "page_size": PAGE_SIZE,
                    "runs": {str(n): runs[n] for n in CLIENT_COUNTS},
                    "speedup_8_over_1": speedup,
                    "queue": queue_stats,
                },
                fh,
                indent=2,
            )

        # The batching machinery must actually have engaged at 8 clients.
        assert queue_stats["cross_client_batches"] >= 1
        assert queue_stats["largest_batch_requests"] >= 2
