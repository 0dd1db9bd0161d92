"""Batched execution: amortise I/O and Monte-Carlo work across a workload.

Running a workload query-by-query repeats two kinds of work whenever the
queries overlap:

* the same **data page** is fetched once per query that has a candidate on
  it (the refinement step of Section 5.2 dedupes within one query only);
* the same ``(object, query rectangle)`` **appearance probability** is
  recomputed whenever two queries share a rectangle at different
  thresholds — the exact access pattern of the Fig. 10 experiment, where
  one set of rectangles is swept across five thresholds.

The :class:`BatchExecutor` closes both gaps.  It runs every query's filter
phase first, fetches each candidate data page once for the entire batch
(skipping pages whose every candidate is already memoised), then refines
per query through the :class:`~repro.exec.refine.RefinementEngine`
(shared column-major sample clouds) with a memo keyed on
``(disk address, query_rect)``, the rectangle given as its coordinate
bytes (:func:`~repro.exec.refine.memo_rect_key`).
The memo is FIFO-bounded: at the start of every batch its oldest
entries beyond :data:`MEMO_CAP` are dropped, so it only ever grows
*within* a batch, which the batch-start fetch plan relies on.  A
reused object id lands at a fresh address, and under ``reclaim`` a
freed address's entries are dropped before the next batch (its slot
may now hold another record), so no query is ever served a stale
probability.  The Monte-Carlo
estimator derives its sample stream from ``(seed, object_id)``, so
memoised and engine-computed values are bit-identical to freshly
recomputed ones — batching changes cost, never answers.

With ``parallelism > 1`` the three phases overlap: the main thread runs
the filter walks, a dedicated fetch thread (the simulated disk arm) reads
candidate pages — optionally sleeping ``io_latency_seconds`` per page —
and a pool of refinement workers mask-and-reduce as soon as their pages
land.  Answers are identical in every mode; ``parallelism=1`` runs the
strictly serial path and reproduces its counters *exactly*, which is what
the accounting tests pin.  In parallel mode the per-query physical-read /
cache-hit attribution is not meaningful (threads interleave on the shared
``IOCounter``), so it is left at zero and the authoritative totals live in
:class:`BatchStats`; likewise ``prob_computations`` / ``memoized_probs`` /
sample-cache counters may exceed their serial values when concurrent
workers race to compute the same ``(object, rect)`` pair before either
lands in the memo — the values themselves are deterministic, so only the
cost accounting (never an answer) is affected.  Use ``parallelism=1``
wherever paper-exact CPU counts matter (the figure harnesses default to
it).

Per-query :class:`~repro.core.stats.QueryStats` keep their *logical*
meaning (a query that needed three data pages reports three data-page
reads even if the batch fetched them earlier); the batch-level savings
show up in the physical counters and in :class:`BatchStats`.

Against a :class:`~repro.exec.shard.ShardedAccessMethod` the executor is
shard-aware: it routes every query itself, groups queries by identical
shard-overlap sets, and (in parallel mode) runs one filter task per
``(group, shard)`` on the worker pool, so different shards filter
concurrently while refinement drains through the shared data file.
:class:`BatchStats` then carries one :class:`~repro.core.stats.ShardStats`
per shard (probes, filter node accesses, exact per-shard physical
reads / cache hits — each shard owns its counter — and the candidates it
fed refinement).  Per-phase wall-clock fields stay *per query*: each
shard probe contributes its own elapsed time exactly once to its query's
``filter_seconds``, never the whole query window once per probe.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

from repro.core.query import ProbRangeQuery, QueryAnswer
from repro.core.stats import QueryStats, ShardStats, WorkloadStats
from repro.exec.access import AccessMethod, FilterResult
from repro.exec.refine import RefinementEngine, memo_rect_key, refine_with_engine
from repro.storage.bufferpool import pool_counters, pools_of
from repro.storage.pager import DiskAddress

__all__ = [
    "BatchExecutor",
    "BatchResult",
    "BatchStats",
    "MEMO_CAP",
    "SERIAL_FALLBACK_SAMPLE_OPS",
]

# P_app memo entries kept across batches (about 1.3 MB at 8,192),
# trimmed oldest-first at each batch start.  Without a bound a
# long-lived database keeps every (address, rect) pair it ever refined.
MEMO_CAP = 8192


def trim_memo(memo: dict | None, cap: int = MEMO_CAP) -> None:
    """Drop the oldest memo entries beyond ``cap`` (batch start only)."""
    if memo is None:
        return
    excess = len(memo) - cap
    if excess > 0:
        for key in list(islice(memo, excess)):
            del memo[key]


# Queries per sharded filter task in parallel mode: large enough to
# amortise task dispatch over a shard's warm walk, small enough that an
# early query's probes resolve while the rest of its group still filters
# (one task per whole group would stall the fetch/refine pipeline behind
# the group's last member).
_PROBE_CHUNK = 4

# Batches whose estimated Monte-Carlo volume (queries x samples) falls
# below this run serially even when parallelism > 1: thread dispatch
# overhead exceeds the overlap it buys (the BENCH_shard wall-clock
# inversion — 758 qps parallel vs 857 serial on a 48-query batch).
# Calibrated so that workload (48 x 4000 = 192k sample-ops) falls back
# while latency-bound or genuinely heavy batches still fan out.  Only
# zero-latency batches are eligible: simulated disk latency is exactly
# the case the fetch/refine overlap exists for.
SERIAL_FALLBACK_SAMPLE_OPS = 250_000


@dataclass
class BatchStats:
    """Batch-level cost summary (what batching saved)."""

    queries: int = 0
    parallelism: int = 1
    # Which backend executed the batch ("thread" covers the serial path
    # too — one thread), and whether a parallel-configured executor chose
    # the serial path for a batch below the fallback work threshold.
    executor: str = "thread"
    serial_fallback: bool = False
    # Sharded execution (zero / empty for monolithic methods): shard
    # count, per-shard filter probes actually executed, probes the
    # router pruned, and the per-shard cost breakdown.  Per-phase
    # wall-clock fields below stay *per query*: a query probed against
    # three shards contributes each probe's own elapsed time once —
    # never the whole query window once per probe.
    shards: int = 0
    shard_probes: int = 0
    shards_pruned: int = 0
    shard_stats: list[ShardStats] = field(default_factory=list)
    unique_data_pages: int = 0
    data_page_fetches: int = 0
    logical_data_page_reads: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    cache_hits: int = 0
    # Buffer-pool accounting across every pool the method touches (node
    # stores plus data files, all shards).  ``pool_ghost_hits`` counts
    # misses whose identity an ARC ghost list still remembered.  Under
    # the process backend the workers' forked pool copies do the
    # filtering, so the parent-side deltas reported here stay near zero.
    pool_hits: int = 0
    pool_misses: int = 0
    pool_ghost_hits: int = 0
    prob_computations: int = 0
    memo_hits: int = 0
    sample_cache_hits: int = 0
    sample_cache_misses: int = 0
    filter_seconds: float = 0.0
    fetch_seconds: float = 0.0
    refine_seconds: float = 0.0
    wall_seconds: float = 0.0
    # Resilience accounting (all zero/empty on a fault-free run, so the
    # seed's repr/summary and every equality-based test are untouched).
    # ``degraded_to`` names the ladder level that finally answered when
    # the batch fell below its configured backend ("" = no degradation);
    # ``fault_events`` lists the absorbed faults in order.
    degraded_to: str = ""
    fault_events: list[str] = field(default_factory=list)
    fault_retries: int = 0  # supervised fault-domain retry rounds
    worker_respawns: int = 0  # workers killed and re-forked mid-batch
    corrupt_pages: int = 0  # crc mismatches detected during the batch
    pages_scrubbed: int = 0  # of those, quarantined and rebuilt
    io_retries: int = 0  # transient read failures absorbed by retry

    @property
    def degraded(self) -> bool:
        """Whether any fault was absorbed while producing this batch."""
        return bool(
            self.degraded_to
            or self.fault_events
            or self.fault_retries
            or self.worker_respawns
            or self.pages_scrubbed
            or self.io_retries
        )

    @property
    def data_pages_saved(self) -> int:
        """Page fetches avoided by batch dedup and the warm memo.

        With ``dedupe_pages=False`` and a cold memo every query fetches
        its own pages, so ``data_page_fetches ==
        logical_data_page_reads``; dedup collapses repeats to one fetch
        and a warm memo can skip a page's fetch entirely.
        """
        return self.logical_data_page_reads - self.data_page_fetches

    @property
    def memo_hit_rate(self) -> float:
        total = self.prob_computations + self.memo_hits
        return self.memo_hits / total if total else 0.0

    @property
    def sample_cache_hit_rate(self) -> float:
        total = self.sample_cache_hits + self.sample_cache_misses
        return self.sample_cache_hits / total if total else 0.0

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of buffer-pool accesses served from memory this batch."""
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def __repr__(self) -> str:
        text = (
            f"BatchStats({self.queries} queries, parallelism={self.parallelism}, "
            f"{self.data_page_fetches} fetches for {self.logical_data_page_reads} "
            f"logical page reads, {self.prob_computations} P_app + "
            f"{self.memo_hits} memo hits, "
            f"sample-cache {100 * self.sample_cache_hit_rate:.0f}%, "
            f"wall={1000 * self.wall_seconds:.1f}ms"
        )
        if self.shards:
            text += f", {self.shards} shards/{self.shard_probes} probes"
        return text + ")"

    def summary(self) -> str:
        """The whole batch as one aligned table (plus per-shard rows)."""
        from repro.core.stats import format_aligned

        rows = [
            ["queries", self.queries],
            ["parallelism", self.parallelism],
            ["unique data pages", self.unique_data_pages],
            ["data page fetches", self.data_page_fetches],
            ["logical page reads", self.logical_data_page_reads],
            ["pages saved", self.data_pages_saved],
            ["physical reads", self.physical_reads],
            ["cache hits", self.cache_hits],
            ["pool hit rate",
             f"{100 * self.pool_hit_rate:.1f}%"
             + (f" ({self.pool_ghost_hits} ghost hits)"
                if self.pool_ghost_hits else "")],
            ["P_app computed", self.prob_computations],
            ["P_app memo hits", self.memo_hits],
            ["sample-cache hit rate", f"{100 * self.sample_cache_hit_rate:.1f}%"],
            ["filter / fetch / refine (ms)",
             f"{1000 * self.filter_seconds:.1f} / {1000 * self.fetch_seconds:.1f}"
             f" / {1000 * self.refine_seconds:.1f}"],
            ["wall (ms)", f"{1000 * self.wall_seconds:.1f}"],
        ]
        if self.degraded:
            rows.append([
                "resilience",
                f"degraded_to={self.degraded_to or 'none'} "
                f"retries={self.fault_retries} respawns={self.worker_respawns} "
                f"scrubbed={self.pages_scrubbed}/{self.corrupt_pages} "
                f"io_retries={self.io_retries}",
            ])
        if self.shards:
            rows.insert(2, ["shards (probes / pruned)",
                            f"{self.shards} ({self.shard_probes} / {self.shards_pruned})"])
        table = format_aligned(["metric", "value"], rows)
        if self.shard_stats:
            table += "\n" + format_aligned(
                ["shard", "probes", "routed away", "nodes", "validated",
                 "candidates", "pruned", "reads", "hits", "filter ms"],
                [s.row() for s in self.shard_stats],
            )
        return table


@dataclass
class BatchResult:
    """Answers (in submission order) plus per-query and batch statistics."""

    answers: list[QueryAnswer] = field(default_factory=list)
    workload: WorkloadStats = field(default_factory=WorkloadStats)
    batch: BatchStats = field(default_factory=BatchStats)


class BatchExecutor:
    """Run workloads against one access method with cross-query reuse.

    Args:
        method: the structure to execute against.
        memoize: share appearance-probability results across queries keyed
            on ``(disk_address, query_rect)``.  The memo persists across
            :meth:`run` calls until :meth:`clear_memo`, holding at most
            :data:`MEMO_CAP` entries at each batch start (oldest dropped
            first); entries of addresses the data file released in
            between are dropped.
        dedupe_pages: fetch each candidate data page once per batch rather
            than once per query.
        engine: refinement engine to use; defaults to one bound to the
            method's estimator.  The engine (and its sample cache)
            persists across :meth:`run` calls.
        parallelism: refinement worker threads.  ``1`` (default) is the
            strictly serial reference path with exact per-query
            accounting; ``>= 2`` overlaps filter, page fetch and
            Monte-Carlo refinement.
        io_latency_seconds: simulated per-page disk latency applied by
            the parallel fetch thread (the overlap the thread pool buys).
            Ignored in serial mode, where latency is accounted
            analytically by the harness.
        serial_fallback_threshold: minimum estimated Monte-Carlo volume
            (``len(queries) * estimator.n_samples``) for a zero-latency
            batch to actually fan out when ``parallelism > 1``; smaller
            batches run the serial path (identical answers *and*
            counters, ``BatchStats.serial_fallback`` set).  ``0``
            disables the fallback; ``None`` uses
            :data:`SERIAL_FALLBACK_SAMPLE_OPS`.
    """

    def __init__(
        self,
        method: AccessMethod,
        *,
        memoize: bool = True,
        dedupe_pages: bool = True,
        engine: RefinementEngine | None = None,
        parallelism: int = 1,
        io_latency_seconds: float = 0.0,
        serial_fallback_threshold: int | None = None,
    ):
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if io_latency_seconds < 0:
            raise ValueError("io_latency_seconds must be non-negative")
        if serial_fallback_threshold is not None and serial_fallback_threshold < 0:
            raise ValueError("serial_fallback_threshold must be non-negative")
        self.method = method
        self.memoize = memoize
        self.dedupe_pages = dedupe_pages
        self.engine = engine if engine is not None else RefinementEngine.for_method(method)
        self.parallelism = int(parallelism)
        self.io_latency_seconds = float(io_latency_seconds)
        self.serial_fallback_threshold = (
            SERIAL_FALLBACK_SAMPLE_OPS
            if serial_fallback_threshold is None
            else int(serial_fallback_threshold)
        )
        self._prob_memo: dict[tuple[DiskAddress, bytes], float] = {}
        self._memo_releases = method.data_file.released_slots
        self._pools = pools_of(method)

    def clear_memo(self) -> None:
        """Drop memoised appearance probabilities."""
        self._prob_memo.clear()

    def _drop_released(self) -> None:
        """Forget memo entries of slots released since the last batch.

        Under ``reclaim`` a moved object may reuse its old slot, and its
        old probabilities must not answer for it.  The release count
        never moves with ``reclaim`` off, so this is one comparison there.
        """
        data_file = self.method.data_file
        released = data_file.released_slots
        if released == self._memo_releases:
            return
        freed = data_file.released_since(self._memo_releases)
        self._memo_releases = released
        for key in list(self._prob_memo):
            if key[0] in freed:
                self._prob_memo.pop(key, None)

    @property
    def memo_size(self) -> int:
        return len(self._prob_memo)

    # ------------------------------------------------------------------
    # sharded-method support
    # ------------------------------------------------------------------
    @property
    def _sharded(self):
        """The method, when it is a routed shard set (else ``None``).

        Duck-typed so this module needs no import of
        :mod:`repro.exec.shard`: anything exposing ``shards`` plus the
        ``route``/``merge_filter``/``filter_with`` trio gets shard-group
        execution and per-shard accounting.
        """
        method = self.method
        if (
            getattr(method, "shards", None)
            and callable(getattr(method, "route", None))
            and callable(getattr(method, "merge_filter", None))
            and callable(getattr(method, "filter_with", None))
        ):
            return method
        return None

    def _new_shard_stats(self) -> list[ShardStats] | None:
        sharded = self._sharded
        if sharded is None:
            return None
        return [ShardStats(shard=i) for i in range(len(sharded.shards))]

    def _shard_io_baseline(self) -> list[tuple[int, int]] | None:
        sharded = self._sharded
        if sharded is None:
            return None
        return [(s.io.reads, s.io.cache_hits) for s in sharded.shards]

    def _probe_serial(
        self,
        query: ProbRangeQuery,
        shard_stats: list[ShardStats],
    ) -> FilterResult:
        """Route one query and probe its shards inline, tallying per shard.

        Delegates to the facade's single serial filter implementation
        (:meth:`ShardedAccessMethod.filter_with`), hooking the per-shard
        tallies into its probe callback.
        """
        return self.method.filter_with(
            query,
            on_probe=lambda shard_id, filtered, elapsed: self._tally_probe(
                shard_stats[shard_id], filtered, elapsed
            ),
        )

    @staticmethod
    def _tally_probe(
        stats: ShardStats, filtered: FilterResult, elapsed: float
    ) -> None:
        stats.probes += 1
        stats.node_accesses += filtered.node_accesses
        stats.validated += len(filtered.validated)
        stats.candidates += len(filtered.candidates)
        stats.pruned += filtered.pruned
        stats.filter_seconds += elapsed

    def _settle_shard_stats(
        self,
        result: BatchResult,
        shard_stats: list[ShardStats] | None,
        baseline: list[tuple[int, int]] | None,
    ) -> None:
        """Attach per-shard I/O deltas and totals to the batch summary.

        Exact in both execution modes: only a shard's own filter probes
        touch its private counter (refinement reads land on the shared
        data file), so a batch-window delta is that shard's filter I/O.
        """
        if shard_stats is None or baseline is None:
            return
        sharded = self._sharded
        for stats, (reads0, hits0), shard in zip(
            shard_stats, baseline, sharded.shards
        ):
            stats.physical_reads = shard.io.reads - reads0
            stats.cache_hits = shard.io.cache_hits - hits0
            stats.routed_away = result.batch.queries - stats.probes
        result.batch.shards = len(shard_stats)
        result.batch.shard_stats = shard_stats

    def run(self, queries: Sequence[ProbRangeQuery]) -> BatchResult:
        """Execute the whole workload, amortising page fetches and P_app."""
        self._drop_released()
        trim_memo(self._prob_memo)
        if self.parallelism == 1:
            return self._run_serial(queries)
        if self._below_fallback_threshold(queries):
            # Tiny batch: thread dispatch would cost more than it
            # overlaps.  The serial path gives identical answers and
            # exact counters; report the configured width plus the flag
            # so callers can see the path taken.
            result = self._run_serial(queries)
            result.batch.parallelism = self.parallelism
            result.batch.serial_fallback = True
            return result
        return self._run_parallel(queries)

    def _below_fallback_threshold(self, queries: Sequence[ProbRangeQuery]) -> bool:
        """Whether this batch is too small to be worth fanning out.

        Only zero-latency batches are eligible — with simulated disk
        latency the fetch/refine overlap is the whole point, however
        small the batch.  Work is estimated as Monte-Carlo sample-ops:
        queries times the estimator's per-object sample count.
        """
        if self.io_latency_seconds > 0.0 or self.serial_fallback_threshold <= 0:
            return False
        n_samples = getattr(
            getattr(self.method, "estimator", None), "n_samples", 0
        )
        return len(queries) * n_samples < self.serial_fallback_threshold

    # ------------------------------------------------------------------
    # serial path: the exact-accounting reference
    # ------------------------------------------------------------------
    def _run_serial(self, queries: Sequence[ProbRangeQuery]) -> BatchResult:
        start = time.perf_counter()
        method = self.method
        io = method.io
        reads0, writes0, hits0 = io.reads, io.writes, io.cache_hits
        cache_hits0, cache_misses0 = self.engine.cache.counters()
        pool0 = pool_counters(self._pools)
        memo = self._prob_memo if self.memoize else None

        result = BatchResult()
        result.batch.queries = len(queries)
        result.batch.parallelism = 1
        shard_stats = self._new_shard_stats()
        shard_baseline = self._shard_io_baseline()

        # Phase 1: every query's filter pass (per-query node accounting;
        # the filter's physical/cache split is attributed per query).
        # Sharded methods route here and probe shard by shard, so the
        # per-shard tallies are exact; the query's own filter_seconds is
        # the single whole-filter window (once per query, not per probe).
        per_query: list[tuple[ProbRangeQuery, QueryStats, QueryAnswer, list]] = []
        needed_pages: set[int] = set()
        for query in queries:
            q_start = time.perf_counter()
            q_reads, q_hits = io.reads, io.cache_hits
            stats = QueryStats()
            answer = QueryAnswer(stats=stats)
            if shard_stats is None:
                filtered = method.filter_candidates(query)
            else:
                filtered = self._probe_serial(query, shard_stats)
            stats.node_accesses = filtered.node_accesses
            stats.validated_directly = len(filtered.validated)
            stats.pruned = filtered.pruned
            stats.shard_probes = filtered.shard_probes
            stats.shards_pruned = filtered.shards_pruned
            answer.object_ids.extend(filtered.validated)
            stats.physical_reads = io.reads - q_reads
            stats.cache_hits = io.cache_hits - q_hits
            stats.filter_seconds = time.perf_counter() - q_start
            stats.wall_seconds = stats.filter_seconds
            needed_pages.update(addr.page_id for _, addr in filtered.candidates)
            per_query.append((query, stats, answer, filtered.candidates))

        # Phase 2: fetch the union of candidate pages once for the batch —
        # except pages whose every (candidate, query) pair is already
        # memoised, which need no payload at all.  These shared fetches
        # belong to no single query, so their I/O is in BatchStats only.
        fetch_start = time.perf_counter()
        page_payloads: dict[int, list] = {}
        if self.dedupe_pages:
            fetch_pages: set[int] = set()
            for query, _, _, candidates in per_query:
                rect_key = memo_rect_key(query.rect)
                fetch_pages.update(
                    addr.page_id
                    for _, addr in candidates
                    if memo is None or (addr, rect_key) not in memo
                )
            for page_id in sorted(fetch_pages):
                page_payloads[page_id] = method.data_file.read_page(page_id)
            result.batch.data_page_fetches = len(fetch_pages)
        result.batch.unique_data_pages = len(needed_pages)
        result.batch.fetch_seconds = time.perf_counter() - fetch_start

        # Phase 3: refine per query from the shared pages + probability memo.
        for query, stats, answer, candidates in per_query:
            q_start = time.perf_counter()
            q_reads, q_hits = io.reads, io.cache_hits
            fetched = refine_with_engine(
                self.engine,
                candidates,
                query,
                method.data_file,
                stats,
                answer.object_ids,
                pages=page_payloads if self.dedupe_pages else None,
                memo=memo,
            )
            if not self.dedupe_pages:
                result.batch.data_page_fetches += fetched
            stats.physical_reads += io.reads - q_reads
            stats.cache_hits += io.cache_hits - q_hits
            stats.result_count = len(answer.object_ids)
            stats.wall_seconds += time.perf_counter() - q_start
            result.answers.append(answer)
            result.workload.add(stats)

        if not self.dedupe_pages:
            result.batch.fetch_seconds += sum(
                s.fetch_seconds for _, s, _, _ in per_query
            )
        self._settle_shard_stats(result, shard_stats, shard_baseline)
        self._finalise(
            result, per_query, io, reads0, writes0, hits0,
            (cache_hits0, cache_misses0), pool0, start,
        )
        return result

    # ------------------------------------------------------------------
    # parallel path: filter / fetch / refine overlap
    # ------------------------------------------------------------------
    def _run_parallel(self, queries: Sequence[ProbRangeQuery]) -> BatchResult:
        start = time.perf_counter()
        method = self.method
        io = method.io
        reads0, writes0, hits0 = io.reads, io.writes, io.cache_hits
        cache_hits0, cache_misses0 = self.engine.cache.counters()
        pool0 = pool_counters(self._pools)
        memo = self._prob_memo if self.memoize else None
        latency = self.io_latency_seconds

        result = BatchResult()
        result.batch.queries = len(queries)
        result.batch.parallelism = self.parallelism
        shard_stats = self._new_shard_stats()
        shard_baseline = self._shard_io_baseline()

        fetch_clock: list[float] = []

        def fetch(page_id: int) -> list:
            t0 = time.perf_counter()
            payloads = method.data_file.read_page(page_id)
            if latency > 0.0:
                time.sleep(latency)
            fetch_clock.append(time.perf_counter() - t0)
            return payloads

        per_query: list[tuple[ProbRangeQuery, QueryStats, QueryAnswer, list]] = []
        needed_pages: set[int] = set()
        page_futures: dict[int, Future] = {}
        refine_futures: list[Future] = []
        fetch_count = 0

        # One fetch worker models the single simulated disk arm; the
        # refinement pool does the Monte-Carlo work.  Refine tasks block
        # on fetch futures from a *different* executor, so the pools
        # cannot deadlock on each other.
        with ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="batch-fetch"
        ) as io_pool, ThreadPoolExecutor(
            max_workers=self.parallelism, thread_name_prefix="batch-refine"
        ) as cpu_pool:

            def loader(page_id: int) -> list:
                if self.dedupe_pages:
                    return page_futures[page_id].result()
                # Undeduped mode still routes every read through the
                # single fetch thread so the shared IOCounter and buffer
                # pool see one writer.
                return io_pool.submit(fetch, page_id).result()

            def refine(
                query: ProbRangeQuery,
                stats: QueryStats,
                answer: QueryAnswer,
                candidates: list,
            ) -> None:
                t0 = time.perf_counter()
                refine_with_engine(
                    self.engine,
                    candidates,
                    query,
                    method.data_file,
                    stats,
                    answer.object_ids,
                    page_loader=loader,
                    memo=memo,
                    attribute_cache=False,  # batch-level deltas only
                )
                stats.result_count = len(answer.object_ids)
                stats.wall_seconds += time.perf_counter() - t0

            def schedule(
                query: ProbRangeQuery,
                stats: QueryStats,
                answer: QueryAnswer,
                filtered: FilterResult,
            ) -> None:
                """Queue one filtered query's page fetches and refinement."""
                stats.node_accesses = filtered.node_accesses
                stats.validated_directly = len(filtered.validated)
                stats.pruned = filtered.pruned
                stats.shard_probes = filtered.shard_probes
                stats.shards_pruned = filtered.shards_pruned
                answer.object_ids.extend(filtered.validated)
                candidates = filtered.candidates
                rect_key = memo_rect_key(query.rect)
                for _, addr in candidates:
                    needed_pages.add(addr.page_id)
                    if (
                        self.dedupe_pages
                        and addr.page_id not in page_futures
                        and (memo is None or (addr, rect_key) not in memo)
                    ):
                        page_futures[addr.page_id] = io_pool.submit(
                            fetch, addr.page_id
                        )
                per_query.append((query, stats, answer, candidates))
                refine_futures.append(
                    cpu_pool.submit(refine, query, stats, answer, candidates)
                )

            if shard_stats is None:
                # Phase 1 on the main thread; fetch and refine tasks start
                # flowing while later queries are still being filtered.
                for query in queries:
                    q_start = time.perf_counter()
                    stats = QueryStats()
                    answer = QueryAnswer(stats=stats)
                    filtered = method.filter_candidates(query)
                    stats.filter_seconds = time.perf_counter() - q_start
                    stats.wall_seconds = stats.filter_seconds
                    schedule(query, stats, answer, filtered)
            else:
                # Sharded phase 1: route every query on the main thread
                # (cheap and deterministic), group queries by identical
                # shard-overlap sets, and run the filter probes of each
                # shard group on the worker pool — shard structures are
                # read-only during queries and their counters/pools are
                # lock-protected, so concurrent probes of one shard are
                # safe.  A group's members are chunked across tasks so
                # an early query's probes resolve without waiting for
                # the whole group: its fetch and refinement overlap the
                # remaining filter work, as in the monolithic path.
                routes = [method.route(query) for query in queries]
                groups: dict[frozenset[int], list[int]] = {}
                for index, route in enumerate(routes):
                    groups.setdefault(frozenset(route), []).append(index)

                def probe_chunk(
                    shard_id: int, members: list[int]
                ) -> dict[int, tuple[FilterResult, float]]:
                    shard = method.shards[shard_id]
                    out: dict[int, tuple[FilterResult, float]] = {}
                    for index in members:
                        t0 = time.perf_counter()
                        filtered = shard.filter_candidates(queries[index])
                        out[index] = (filtered, time.perf_counter() - t0)
                    return out

                probe_futures: list[list[tuple[int, Future]]] = [
                    [] for _ in queries
                ]
                for key, members in sorted(
                    groups.items(), key=lambda item: item[1][0]
                ):
                    chunks = [
                        members[at : at + _PROBE_CHUNK]
                        for at in range(0, len(members), _PROBE_CHUNK)
                    ]
                    for shard_id in sorted(key):
                        for chunk in chunks:
                            future = cpu_pool.submit(
                                probe_chunk, shard_id, chunk
                            )
                            for index in chunk:
                                probe_futures[index].append((shard_id, future))
                for index, query in enumerate(queries):
                    stats = QueryStats()
                    answer = QueryAnswer(stats=stats)
                    probes: dict[int, tuple[FilterResult, float]] = {}
                    for shard_id, future in probe_futures[index]:
                        probes[shard_id] = future.result()[index]
                    route = routes[index]
                    filtered = method.merge_filter(
                        route, [probes[shard_id][0] for shard_id in route]
                    )
                    for shard_id in route:
                        self._tally_probe(
                            shard_stats[shard_id], *probes[shard_id]
                        )
                    # Per-phase wall-clock once per query: each probe
                    # bills its own elapsed time exactly once here — the
                    # group task's other queries never land on this one.
                    stats.filter_seconds = sum(
                        elapsed for _, elapsed in probes.values()
                    )
                    stats.wall_seconds = stats.filter_seconds
                    schedule(query, stats, answer, filtered)
            for future in refine_futures:
                future.result()
            fetch_count = len(fetch_clock)

        for _, stats, answer, _ in per_query:
            result.answers.append(answer)
            result.workload.add(stats)

        result.batch.unique_data_pages = len(needed_pages)
        result.batch.data_page_fetches = fetch_count
        result.batch.fetch_seconds = sum(fetch_clock)
        self._settle_shard_stats(result, shard_stats, shard_baseline)
        self._finalise(
            result, per_query, io, reads0, writes0, hits0,
            (cache_hits0, cache_misses0), pool0, start,
        )
        return result

    def _finalise(
        self,
        result: BatchResult,
        per_query: list,
        io,
        reads0: int,
        writes0: int,
        hits0: int,
        cache_baseline: tuple[int, int],
        pool_baseline: tuple[int, int, int],
        start: float,
    ) -> None:
        result.batch.logical_data_page_reads = sum(
            s.data_page_reads for _, s, _, _ in per_query
        )
        result.batch.shard_probes = sum(
            s.shard_probes for _, s, _, _ in per_query
        )
        result.batch.shards_pruned = sum(
            s.shards_pruned for _, s, _, _ in per_query
        )
        result.batch.prob_computations = sum(
            s.prob_computations for _, s, _, _ in per_query
        )
        result.batch.memo_hits = sum(s.memoized_probs for _, s, _, _ in per_query)
        result.batch.filter_seconds = sum(
            s.filter_seconds for _, s, _, _ in per_query
        )
        result.batch.refine_seconds = sum(
            s.refine_seconds for _, s, _, _ in per_query
        )
        result.batch.physical_reads = io.reads - reads0
        result.batch.physical_writes = io.writes - writes0
        result.batch.cache_hits = io.cache_hits - hits0
        cache_hits1, cache_misses1 = self.engine.cache.counters()
        result.batch.sample_cache_hits = cache_hits1 - cache_baseline[0]
        result.batch.sample_cache_misses = cache_misses1 - cache_baseline[1]
        pool1 = pool_counters(self._pools)
        result.batch.pool_hits = pool1[0] - pool_baseline[0]
        result.batch.pool_misses = pool1[1] - pool_baseline[1]
        result.batch.pool_ghost_hits = pool1[2] - pool_baseline[2]
        result.batch.wall_seconds = time.perf_counter() - start
