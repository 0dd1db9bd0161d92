"""The unified query-execution layer.

Separates *structures* (U-tree, U-PCR, sequential scan — anything
implementing the :class:`~repro.exec.access.AccessMethod` protocol) from
*execution*:

* :func:`~repro.exec.executor.execute_query` / :class:`QueryExecutor` —
  the shared filter → refine driver every ``query()`` method delegates to;
* :class:`~repro.exec.refine.RefinementEngine` — sample-reuse
  appearance-probability evaluation (per-object column-major clouds
  drawn once into a bounded cache, every pair answered by the scalar
  estimator's own per-axis mask reduction, so bit-identical to it);
* :class:`~repro.exec.batch.BatchExecutor` — workload execution with
  batch-deduplicated data-page fetches, memoised appearance
  probabilities, and optional thread-pool overlap of its filter / fetch /
  refine phases (``parallelism``);
* :class:`~repro.exec.planner.Planner` — cost-model-driven access-method
  selection per query, self-calibrating from observed workloads;
* :class:`~repro.exec.shard.ShardedAccessMethod` — ``N`` spatially or
  hash-partitioned child structures behind one ``AccessMethod`` facade,
  with a :class:`~repro.exec.shard.ShardRouter` pruning and cost-ordering
  shard probes per query (answers stay bit-identical to the monolithic
  path; the batch executor adds shard-group parallel filtering);
* :class:`~repro.exec.resilience.BatchSupervisor` — graceful degradation
  down a ``process -> thread -> serial`` backend ladder on
  :class:`~repro.faults.FaultError`, with the fault taxonomy re-exported
  here (:class:`FaultError`, :class:`TransientIOError`,
  :class:`CorruptPageError`, :class:`WorkerError`,
  :class:`WorkerTimeout`, :class:`DegradedWarning`).

Pair any of these with a :class:`repro.storage.bufferpool.BufferPool` to
separate physical from logical I/O; with no pool (or capacity 0) all
accounting reproduces the paper's uncached numbers exactly.
"""

from repro.exec.access import AccessMethod, FilterResult
from repro.exec.batch import (
    SERIAL_FALLBACK_SAMPLE_OPS,
    BatchExecutor,
    BatchResult,
    BatchStats,
)
from repro.exec.mpexec import ProcessBatchExecutor, WorkerError, WorkerTimeout
from repro.exec.resilience import (
    BatchSupervisor,
    CorruptPageError,
    DegradedWarning,
    FaultError,
    TransientIOError,
)
from repro.exec.executor import (
    QueryExecutor,
    execute_query,
    execute_workload,
    measure_delete_drain,
    measure_insert_build,
)
from repro.exec.planner import (
    PlannedQuery,
    Planner,
    PlanReport,
    ScanCostModel,
    derive_data_records_per_page,
)
from repro.exec.refine import RefinementEngine, refine_with_engine
from repro.exec.shard import (
    PARTITIONERS,
    ShardRouter,
    ShardedAccessMethod,
    hash_partition,
    str_tile_partition,
)

__all__ = [
    "AccessMethod",
    "BatchExecutor",
    "BatchResult",
    "BatchStats",
    "BatchSupervisor",
    "CorruptPageError",
    "DegradedWarning",
    "FaultError",
    "FilterResult",
    "PARTITIONERS",
    "PlanReport",
    "PlannedQuery",
    "Planner",
    "ProcessBatchExecutor",
    "QueryExecutor",
    "RefinementEngine",
    "SERIAL_FALLBACK_SAMPLE_OPS",
    "ScanCostModel",
    "TransientIOError",
    "WorkerError",
    "WorkerTimeout",
    "ShardRouter",
    "ShardedAccessMethod",
    "derive_data_records_per_page",
    "execute_query",
    "execute_workload",
    "hash_partition",
    "measure_delete_drain",
    "measure_insert_build",
    "refine_with_engine",
    "str_tile_partition",
]
