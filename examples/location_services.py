"""Location-based services: the paper's motivating scenario, served.

Moving clients report their position only when they drift more than a
distance threshold from their last report, so the server only ever knows
"somewhere within radius r of the last update" — a circular uncertainty
region with (here) a uniform pdf.  The canonical query is:

    "find the clients currently in the downtown area with probability
     of at least 80 %"

This example runs the scenario the way a deployment would: one
:class:`repro.serve.QueryServer` wraps the :class:`repro.api.Database`
(in-process, ephemeral port), a *writer* wire client streams the
threshold-triggered re-reports, and several concurrent *dispatcher app*
clients — one per city district — fire their range queries together
each epoch.  Requests that queue while the engine is busy are answered
as one engine batch (watch ``cross_client_batches`` in the closing stats),
and the latency summary shows what each app actually waited.

Run:  python examples/location_services.py
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import (
    BallRegion,
    Database,
    ExecConfig,
    QueryServer,
    RangeSpec,
    Rect,
    ServeClient,
    UncertainObject,
    UniformDensity,
)

N_CLIENTS = 200
REPORT_THRESHOLD = 250.0  # clients re-report after drifting this far
CONFIDENCE = 0.8
EPOCHS = 4

# One dispatcher app per district, all querying concurrently.
DISTRICTS = {
    "downtown": Rect([4_000, 4_000], [6_500, 6_500]),
    "harbour": Rect([1_000, 6_500], [3_500, 9_000]),
    "airport": Rect([7_000, 1_000], [9_500, 3_000]),
    "old town": Rect([2_000, 1_500], [4_500, 4_000]),
}


def make_client(oid: int, reported: np.ndarray) -> UncertainObject:
    """A client is uncertain within the report-threshold circle."""
    region = BallRegion(reported, REPORT_THRESHOLD)
    return UncertainObject(oid, UniformDensity(region, marginal_seed=oid))


def main() -> None:
    rng = np.random.default_rng(11)
    true_position = {i: rng.uniform(1_000, 9_000, 2) for i in range(N_CLIENTS)}
    reported = {i: true_position[i].copy() for i in range(N_CLIENTS)}

    db = Database.create(
        [make_client(oid, reported[oid]) for oid in range(N_CLIENTS)],
        # The district apps fire together, so queries that queue behind
        # a running batch coalesce into the next engine batch.
        ExecConfig(mc_samples=6_000, seed=3),
    )

    names = list(DISTRICTS)
    counts = {name: 0 for name in names}
    latencies: dict[str, list[float]] = {name: [] for name in names}
    barrier = threading.Barrier(len(names) + 1)

    def district_app(name: str, address) -> None:
        """One dispatcher app: its district query, every epoch."""
        spec = RangeSpec(DISTRICTS[name], CONFIDENCE)
        with ServeClient(*address) as client:
            for _ in range(EPOCHS):
                barrier.wait()  # the epoch's movement is applied
                t0 = time.perf_counter()
                counts[name] = len(client.query(spec))
                latencies[name].append(time.perf_counter() - t0)
                barrier.wait()  # the epoch's answers are in

    with QueryServer(db) as server:
        apps = [
            threading.Thread(target=district_app, args=(name, server.address))
            for name in names
        ]
        for app in apps:
            app.start()

        with ServeClient(*server.address) as writer:
            for epoch in range(1, EPOCHS + 1):
                # Clients move; most drift a little, a few sprint.
                re_reports = 0
                for oid in range(N_CLIENTS):
                    step = rng.normal(scale=120.0, size=2)
                    if rng.random() < 0.1:
                        step *= 4.0
                    true_position[oid] = np.clip(true_position[oid] + step, 0, 10_000)
                    # Threshold-triggered update: the server hears from a
                    # client only when it leaves its uncertainty circle.
                    drift = np.linalg.norm(true_position[oid] - reported[oid])
                    if drift > REPORT_THRESHOLD:
                        writer.delete(oid)
                        reported[oid] = true_position[oid].copy()
                        writer.insert(make_client(oid, reported[oid]))
                        re_reports += 1

                barrier.wait()  # release the district apps...
                barrier.wait()  # ...and collect their answers
                downtown_truth = sum(
                    1
                    for oid in range(N_CLIENTS)
                    if DISTRICTS["downtown"].contains_point(true_position[oid])
                )
                per_district = " ".join(
                    f"{name}={counts[name]:3d}" for name in names
                )
                print(
                    f"epoch {epoch}: {re_reports:3d} re-reports | clients with "
                    f">= {CONFIDENCE:.0%}: {per_district} "
                    f"(downtown ground truth {downtown_truth:3d})"
                )

            stats = writer.stats()

        for app in apps:
            app.join()

    queue = stats["queue"]
    print(
        f"\nserver: {stats['served']['requests']} requests, "
        f"{queue['batches']} engine batches, "
        f"{queue['cross_client_batches']} of them cross-client "
        f"(largest {queue['largest_batch_requests']} apps together)"
    )
    for name in names:
        per_app = sorted(latencies[name])
        p50 = 1000.0 * per_app[len(per_app) // 2]
        worst = 1000.0 * per_app[-1]
        print(f"  {name:>8s} app: p50 {p50:5.1f} ms, worst {worst:5.1f} ms")

    print(
        "\nNote: the probabilistic answer can legitimately differ from the "
        "ground truth — the server only knows each client's last report."
    )


if __name__ == "__main__":
    main()
