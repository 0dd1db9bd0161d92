"""Figure 10 — query cost versus probability threshold (qs = 1500).

The complement of Fig. 9: qs is fixed at the median value 1500 and the
threshold sweeps 0.3 ... 0.9.  Expected shapes: U-tree keeps its I/O
advantage at every pq; the number of P_app computations peaks at middling
thresholds (hard to prune *and* hard to validate) and shrinks towards the
extremes; validated percentages stay high for 2-D datasets and dip for
Aircraft at low pq, as in the paper.
"""

from __future__ import annotations

from repro.datasets.workload import make_workload
from repro.experiments.config import Scale, active_scale
from repro.experiments.data import DATASETS, build_database, dataset_points
from repro.experiments.harness import (
    format_table,
    run_spec_workload,
    total_cost_seconds,
)

__all__ = ["run", "main", "PQ_VALUES", "DEFAULT_QS"]

PQ_VALUES = (0.3, 0.45, 0.6, 0.75, 0.9)
DEFAULT_QS = 1500.0


def run(
    scale: Scale | None = None,
    datasets: tuple[str, ...] = DATASETS,
    pq_values: tuple[float, ...] = PQ_VALUES,
    qs: float = DEFAULT_QS,
    config=None,
) -> dict:
    """Sweep pq per dataset; returns the three panel series for each.

    Execution runs through one :class:`repro.api.Database` per dataset
    under ``config`` (see :func:`repro.experiments.fig9.run` for the
    sweepable knobs).  This experiment reuses one set of query
    rectangles across all five thresholds, so
    ``ExecConfig(batched=True)`` — the facade holds one batched executor
    per method, and its ``(object, rect)``-keyed P_app memo spans the
    sweep — removes most repeated Monte-Carlo work.  Logical I/O panels
    are unchanged; the prob-computations panel then reports *actual*
    computations — memo hits are excluded (and depend on sweep order,
    since the first threshold that needs a value computes it).  The
    default ``ExecConfig(batched=False)`` reproduces the paper's
    per-query CPU *counts* (node accesses, prob computations, validated
    percentages); note that measured wall-clock is engine-accelerated in
    every mode — the shared sample cache persists across the sweep, so
    the first threshold pays the cloud draws and later ones reuse them.
    """
    scale = scale if scale is not None else active_scale()
    out: dict = {}
    for name in datasets:
        points = dataset_points(name, scale)
        db = build_database(name, scale, methods=("utree", "upcr"), config=config)
        # Fresh memos per run() call (the memo still spans this run's
        # threshold sweep — the access pattern it was built for — but a
        # repeated run must report the same cost counters).
        db.clear_memos()
        # Same query regions across thresholds, as in the paper.
        base = make_workload(points, scale.queries_per_workload, qs, pq_values[0], seed=900)
        series: dict = {
            "pq": list(pq_values),
            "config": db.config.summary(),
        }
        for label in ("utree", "upcr"):
            ios, probs, validated, totals = [], [], [], []
            for pq in pq_values:
                workload = [type(q)(q.rect, pq) for q in base]
                stats = run_spec_workload(db, workload, method=label)
                ios.append(stats.avg_node_accesses)
                probs.append(stats.avg_prob_computations)
                validated.append(stats.validated_percentage)
                totals.append(total_cost_seconds(stats, scale))
            series[label] = {
                "node_accesses": ios,
                "prob_computations": probs,
                "validated_pct": validated,
                "total_cost_seconds": totals,
            }
        out[name] = series
    return out


def main() -> None:
    results = run()
    for name, series in results.items():
        print(f"Figure 10 ({name}): cost vs probability threshold, qs = {DEFAULT_QS:g}")
        rows = []
        for i, pq in enumerate(series["pq"]):
            rows.append(
                [
                    pq,
                    series["utree"]["node_accesses"][i],
                    series["upcr"]["node_accesses"][i],
                    series["utree"]["prob_computations"][i],
                    series["upcr"]["prob_computations"][i],
                    f"{series['utree']['validated_pct'][i]:.0f}%",
                    f"{series['upcr']['validated_pct'][i]:.0f}%",
                    series["utree"]["total_cost_seconds"][i],
                    series["upcr"]["total_cost_seconds"][i],
                ]
            )
        print(
            format_table(
                [
                    "pq",
                    "IO(U-tree)",
                    "IO(U-PCR)",
                    "#Papp(U-tree)",
                    "#Papp(U-PCR)",
                    "val%(U-tree)",
                    "val%(U-PCR)",
                    "total(U-tree)",
                    "total(U-PCR)",
                ],
                rows,
            )
        )
        print()


if __name__ == "__main__":
    main()
