"""Figure 8 — tuning the U-catalog size for U-PCR.

The paper builds U-PCR trees with m = 3 ... 12 over each dataset and runs
80 workloads (qs = 500, pq = 0.11 ... 0.9), finding a U-shaped cost curve:
more catalog values prune/validate more objects (less CPU) but shrink the
node fanout (more I/O).  The optimum lands at m = 9 (2-D) / 10 (3-D).

The same sweep with ``tree="utree"`` serves as the catalog-size ablation
for the U-tree, whose entry size — and hence I/O — is independent of m, so
its curve should be monotone (more catalog values never hurt I/O).
"""

from __future__ import annotations

import numpy as np

from repro.core.catalog import UCatalog
from repro.datasets.workload import make_workload
from repro.experiments.config import Scale, active_scale
from repro.experiments.data import build_database, dataset_points
from repro.experiments.harness import (
    format_table,
    run_spec_workload,
    total_cost_seconds,
)

__all__ = ["run", "main"]

_QS = 500.0


def threshold_values(scale: Scale) -> list[float]:
    """The pq sweep (paper: 0.11, 0.12, ..., 0.9 — 80 workloads)."""
    if scale.queries_per_workload >= 100:
        return [round(p, 2) for p in np.arange(0.11, 0.901, 0.01)]
    return [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]


def catalog_sizes(scale: Scale) -> list[int]:
    """The m sweep (paper: 3 ... 12)."""
    if scale.queries_per_workload >= 100:
        return list(range(3, 13))
    return [3, 5, 7, 9, 12]


def run(
    scale: Scale | None = None,
    dataset: str = "LB",
    tree: str = "upcr",
    m_values: list[int] | None = None,
    config=None,
) -> dict:
    """Average query cost per catalog size; returns the cost series.

    ``config`` (an :class:`repro.api.ExecConfig`) wires execution; the
    default, ``ExecConfig(batched=False)``, is the paper's query-at-a-time
    accounting.
    """
    scale = scale if scale is not None else active_scale()
    if tree not in ("upcr", "utree"):
        raise ValueError(f"tree must be 'upcr' or 'utree', got {tree!r}")
    m_values = m_values if m_values is not None else catalog_sizes(scale)
    points = dataset_points(dataset, scale)
    thresholds = threshold_values(scale)
    workloads = [
        make_workload(points, scale.queries_per_workload, _QS, pq, seed=101)
        for pq in thresholds
    ]

    costs = []
    details = []
    for m in m_values:
        catalog = UCatalog.evenly_spaced(m)
        db = build_database(
            dataset, scale, methods=(tree,), catalog=catalog, config=config
        )
        index = db.access_method(tree)
        per_workload = []
        io_total = 0.0
        cpu_total = 0.0
        for workload in workloads:
            stats = run_spec_workload(db, workload, method=tree)
            per_workload.append(total_cost_seconds(stats, scale))
            io_total += stats.avg_total_io
            cpu_total += stats.avg_prob_computations
        costs.append(float(np.mean(per_workload)))
        details.append(
            {
                "m": m,
                "avg_cost_seconds": costs[-1],
                "avg_io": io_total / len(workloads),
                "avg_prob_computations": cpu_total / len(workloads),
                "index_bytes": index.size_bytes,
            }
        )
    return {"dataset": dataset, "tree": tree, "m": m_values, "cost_seconds": costs, "details": details}


def main() -> None:
    scale = active_scale()
    for dataset in ("LB", "CA", "Aircraft"):
        result = run(scale, dataset=dataset)
        print(f"Figure 8: U-PCR catalog tuning on {dataset} (qs={_QS:g})")
        rows = [
            [d["m"], d["avg_cost_seconds"], d["avg_io"], d["avg_prob_computations"], d["index_bytes"]]
            for d in result["details"]
        ]
        print(format_table(["m", "cost (s)", "avg IO", "avg #P_app", "index bytes"], rows))
        print()


if __name__ == "__main__":
    main()
