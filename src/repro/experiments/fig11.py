"""Figure 11 — update overhead of the U-tree.

The paper reports (a) the average cost of one insertion during index
construction, broken into I/O and CPU — where CPU covers the CFB fits
(the paper ran the simplex; here the closed form) plus PCR derivation —
and (b) the amortised cost of deleting every object.  Expected shapes:
insertion CPU dominated by the one-time CFB/PCR computation with a small
I/O component; deletion dominated by I/O (locating the leaf plus
condensing), CPU negligible.

This experiment builds fresh trees (no cache) because it *is* the build.
"""

from __future__ import annotations

import numpy as np

from repro.exec.executor import measure_delete_drain, measure_insert_build
from repro.experiments.config import Scale, active_scale
from repro.experiments.data import DATASETS, dataset_objects
from repro.experiments.harness import format_table

__all__ = ["run", "main"]


def run(
    scale: Scale | None = None,
    datasets: tuple[str, ...] = DATASETS,
    config=None,
) -> dict:
    """Measure per-dataset insertion and deletion cost of the U-tree.

    Builds a fresh single-U-tree :class:`repro.api.Database` per dataset
    (no cache — this experiment *is* the build) and measures through the
    facade's ``insert``/``delete`` under ``config``; the default,
    ``ExecConfig(batched=False)``, is the paper's per-query accounting.
    """
    from repro.api import Database, ExecConfig

    scale = scale if scale is not None else active_scale()
    config = config if config is not None else ExecConfig(batched=False)
    out: dict = {}
    for name in datasets:
        objects = dataset_objects(name, scale)
        dim = objects[0].dim
        db = Database.create([], config, methods=("utree",), dim=dim)

        insert_costs = measure_insert_build(db, objects)
        insert_io = [cost.io_total for cost in insert_costs]
        insert_cpu = [cost.cpu_seconds for cost in insert_costs]

        delete_costs = measure_delete_drain(
            db, [obj.oid for obj in objects], np.random.default_rng(5)
        )
        delete_io = [cost.io_total for cost in delete_costs]

        out[name] = {
            "insert_avg_io": float(np.mean(insert_io)),
            "insert_avg_cpu_seconds": float(np.mean(insert_cpu)),
            "insert_avg_io_seconds": float(np.mean(insert_io)) * scale.io_latency_seconds,
            "delete_avg_io": float(np.mean(delete_io)),
            "delete_avg_io_seconds": float(np.mean(delete_io)) * scale.io_latency_seconds,
            "objects": len(objects),
        }
    return out


def main() -> None:
    results = run()
    rows = []
    for name, row in results.items():
        rows.append(
            [
                name,
                row["objects"],
                row["insert_avg_io"],
                row["insert_avg_io_seconds"],
                row["insert_avg_cpu_seconds"],
                row["delete_avg_io"],
                row["delete_avg_io_seconds"],
            ]
        )
    print("Figure 11: U-tree update overhead (per-operation averages)")
    print(
        format_table(
            [
                "dataset",
                "objects",
                "ins IO",
                "ins IO (s)",
                "ins CPU (s)",
                "del IO",
                "del IO (s)",
            ],
            rows,
        )
    )


if __name__ == "__main__":
    main()
