"""Figure 9 — query cost versus search-region size (pq = 0.6).

For each dataset (LB, CA, Aircraft) and each qs in {500 ... 2500}, the
paper reports per query: node accesses (I/O), the number of appearance-
probability computations annotated with the percentage of qualifying
objects validated directly (CPU), and total cost.  Expected shapes:

* the U-tree accesses far fewer nodes than U-PCR at every qs (fanout);
* both structures' costs grow with qs; prob computations are comparable,
  with U-PCR at best slightly ahead (tighter PCRs vs CFBs);
* the U-tree wins total cost everywhere.
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

__all__ = ["run", "main", "QS_VALUES", "DEFAULT_PQ"]

QS_VALUES = (500.0, 1000.0, 1500.0, 2000.0, 2500.0)
DEFAULT_PQ = 0.6


def run(
    scale: Scale | None = None,
    datasets: tuple[str, ...] = DATASETS,
    qs_values: tuple[float, ...] = QS_VALUES,
    pq: float = DEFAULT_PQ,
    config=None,
) -> dict:
    """Sweep qs per dataset; returns the three panel series for each.

    Execution is wired entirely by ``config`` (an
    :class:`repro.api.ExecConfig`); the harness queries one
    :class:`repro.api.Database` holding both structures per dataset.
    The default — ``ExecConfig(batched=False)`` — reproduces the paper's
    query-at-a-time accounting.  The interesting sweeps:

    * ``ExecConfig(batched=True, parallelism=N)`` runs each workload
      through the batched executor (cross-query page dedup, P_app
      memoisation; ``N >= 2`` overlaps filter / fetch / refine on a
      thread pool) — logical I/O panels are unchanged, wall-clock and
      physical reads drop;
    * ``ExecConfig(shards=N, partitioner=...)`` partitions each dataset
      behind the shard router — answers are identical at any shard
      count; node-access panels then reflect routed probes.
    """
    scale = scale if scale is not None else active_scale()
    out: dict = {}
    for name in datasets:
        points = dataset_points(name, scale)
        db = build_database(name, scale, methods=("utree", "upcr"), config=config)
        # The database is memoised across run() calls; dropping the P_app
        # memos here keeps repeated sweeps' cost counters reproducible
        # (pre-facade behaviour: a fresh executor per run call).
        db.clear_memos()
        series: dict = {
            "qs": list(qs_values),
            "config": db.config.summary(),
        }
        for label in ("utree", "upcr"):
            ios, probs, validated, totals = [], [], [], []
            for i, qs in enumerate(qs_values):
                workload = make_workload(
                    points, scale.queries_per_workload, qs, pq, seed=300 + i
                )
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
        print(f"Figure 9 ({name}): cost vs query size, pq = {DEFAULT_PQ}")
        rows = []
        for i, qs in enumerate(series["qs"]):
            rows.append(
                [
                    int(qs),
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
                    "qs",
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
