"""Shared experiment runner utilities: workloads, cost model, tables.

The paper reports three cost views per workload (Figs. 9-10): average node
accesses (I/O), average number of appearance-probability computations with
the directly-validated percentage (CPU), and total elapsed seconds.  Total
cost here is ``page_accesses * io_latency + measured CPU seconds`` —
the simulated-disk equivalent of the paper's wall-clock measurements.

The figure harnesses execute through a :class:`repro.api.Database`
(:func:`run_spec_workload`) under the caller's
:class:`repro.api.ExecConfig`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.query import ProbRangeQuery
from repro.core.stats import WorkloadStats, format_aligned
from repro.exec.refine import RefinementEngine
from repro.experiments.config import Scale

__all__ = [
    "as_specs",
    "format_table",
    "run_spec_workload",
    "run_workload",
    "total_cost_seconds",
]

def as_specs(queries: Sequence[ProbRangeQuery]):
    """Engine-level queries as the facade's declarative range specs."""
    from repro.api import RangeSpec

    return [RangeSpec(q.rect, q.threshold) for q in queries]


def run_spec_workload(db, queries: Sequence[ProbRangeQuery], *, method: str | None = None) -> WorkloadStats:
    """Run a workload through a :class:`repro.api.Database`.

    The facade executes under its own config (``batched``,
    ``parallelism`` and the rest all live there); ``method`` pins one of
    the database's access methods, as the figure sweeps need.
    """
    return db.run(as_specs(queries), method=method).workload


def run_workload(
    tree,
    queries: Sequence[ProbRangeQuery],
    *,
    engine: RefinementEngine | None = None,
) -> WorkloadStats:
    """Run every query against ``tree`` through the shared executor.

    ``tree`` is any :class:`repro.exec.access.AccessMethod`; structures
    without a filter phase (legacy/test doubles exposing only ``query``)
    fall back to their own driver.  The executor refines through a
    :class:`RefinementEngine` held for the whole workload (pass your own
    to share sample clouds across workloads); all reported statistics
    keep the paper's per-pair meaning.
    """
    from repro.exec.executor import execute_workload

    if hasattr(tree, "filter_candidates"):
        return execute_workload(tree, queries, engine=engine)
    stats = WorkloadStats()
    for query in queries:
        stats.add(tree.query(query).stats)
    return stats


def total_cost_seconds(stats: WorkloadStats, scale: Scale) -> float:
    """Average per-query total cost: simulated I/O latency plus CPU time."""
    return stats.avg_total_io * scale.io_latency_seconds + stats.avg_wall_seconds


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table used by all experiment CLIs."""
    return format_aligned(headers, rows)
