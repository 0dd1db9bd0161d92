"""Multiprocess execution: per-shard workers over shared-memory columns.

The thread pool in :mod:`repro.exec.batch` overlaps simulated I/O but
cannot scale CPU-bound work past one interpreter: NumPy kernels release
the GIL, the Python-side chunk loops and probe walks do not.  This module
adds a process backend in the near-data-processing mould — push each
piece of work to the worker that *owns* its data instead of funnelling
everything through one interpreter:

* **Workers** are forked processes, one per shard (shard ``s`` lands on
  worker ``s % workers``) or per round-robin chunk group for monolithic
  methods.  Fork means nothing is pickled to set them up: workers inherit
  the whole object graph — trees, pdfs, sample caches — copy-on-write.
* **Hot read-only state is physically shared.**  Before forking, the
  executor moves the columnar filter-kernel sidecars (CFB faces / PCR
  planes / MBR columns) — and, opted in, the resident Monte-Carlo sample
  clouds — into anonymous ``MAP_SHARED`` mappings via
  :class:`~repro.storage.shm.SharedArena`, so every worker reads one
  physical copy with zero attach cost.  Data-file payload pages are live
  Python objects and stay fork-inherited COW.
* **Near-data refinement.**  Every data page is owned by exactly one
  worker (``page_id % workers``); a query's candidates are split by
  owning worker, and each worker fetches and refines only its own pages
  through a private :class:`~repro.storage.pager.DataFileView` — the
  page is read, slept on (simulated latency) and mask-reduced inside the
  process that owns it.

**Bit-identical accounting.**  Page ownership is what makes the merged
counters reproduce the serial path *exactly*, not just approximately:
the probability memo is keyed on ``(DiskAddress, rect)`` and the sample
cache on the object (one address, one page), so both partition cleanly
across workers.  Each worker processes its slice serially in submission
order and computes its batch-level fetch set before refining — the same
phase structure as :meth:`BatchExecutor._run_serial` — so per-query
``QueryStats``, per-shard ``ShardStats`` and the batch totals all merge
back equal to the serial run.  Two documented exceptions, both cost-only
(answers are always identical): a buffer pool (``pool_capacity > 0``)
makes physical/cache splits access-order-dependent, and
``share_samples=True`` prewarms the cache, shifting hit/miss ledgers.
The defaults (no pool, no prewarm) are the exact regime, and the
equivalence tests pin it.  Across batches the P_app memo is bounded: each
worker keeps at most ``MEMO_CAP // workers`` entries at a batch start,
trimmed oldest-first by its own order, so once a long-lived pool reaches
the cap its memo-hit ledger may drift from the serial run's — cost only.

Workers persist across :meth:`ProcessBatchExecutor.run` calls — their
memos and caches stay warm like the thread executor's — and are re-forked
automatically if the method grows or shrinks under them.  Shutdown is by
``close()`` (or context manager), with a ``weakref.finalize`` backstop so
an abandoned executor never strands processes under pytest.

**Supervision.**  Every command exchange is a supervised unit: with
``worker_timeout > 0`` the parent waits on each reply with a per-command
deadline and a liveness probe instead of blocking forever, so a dead
worker is detected immediately and a wedged one within the deadline.
On death or hang the parent kills the worker, respawns it by re-forking
from the live parent state (the shared-memory arena is still mapped, so
the replacement attaches the same kernel columns for free) and — with
``max_retries > 0`` — re-sends **only the failed fault domain**: that
worker's shard probes / query slice / page-ownership refinement group,
never the commands other workers already answered.  Retries are bounded
with linear backoff; a respawned worker starts with a cold memo, which
can only shift *later* batches' memo-hit ledgers (cost, never answers —
within the retried batch the re-run recomputes exactly what the dead
worker would have).  When the budget is exhausted (or with the default
``max_retries=0``) the pool is torn down before the
:class:`~repro.faults.WorkerError`/:class:`~repro.faults.WorkerTimeout`
propagates, so the next ``run()`` re-forks cleanly and the owning
``Database`` object survives the fault.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import warnings
import weakref
from collections.abc import Sequence
from typing import Any

from repro.core.query import ProbRangeQuery, QueryAnswer
from repro.core.stats import QueryStats
from repro.exec.access import AccessMethod, FilterResult
from repro.exec.batch import MEMO_CAP, BatchExecutor, BatchResult, trim_memo
from repro.exec.refine import RefinementEngine, memo_rect_key, refine_with_engine
from repro.faults import DegradedWarning, WorkerError, WorkerTimeout
from repro.storage.shm import SharedArena

__all__ = ["ProcessBatchExecutor", "WorkerError", "WorkerTimeout"]

_JOIN_TIMEOUT_SECONDS = 5.0

# How often the supervised receive loop interleaves liveness probes
# while waiting under a deadline; never hit with worker_timeout=0
# (the unsupervised blocking receive of the seed).
_POLL_INTERVAL_SECONDS = 0.05


# ----------------------------------------------------------------------
# worker side (runs in the forked child)
# ----------------------------------------------------------------------
def _do_filter(method: AccessMethod, entries: list) -> list:
    """Monolithic filter for ``[(qidx, query)]``; per-query io deltas.

    The forked ``method.io`` counter is private to this worker, and the
    worker runs its queries serially — so the per-query read/cache-hit
    deltas are exact, matching the serial path's attribution.
    """
    io = method.io
    out = []
    for qidx, query in entries:
        reads0, hits0 = io.reads, io.cache_hits
        start = time.perf_counter()
        filtered = method.filter_candidates(query)
        elapsed = time.perf_counter() - start
        out.append(
            (qidx, filtered, elapsed, io.reads - reads0, io.cache_hits - hits0)
        )
    return out


def _do_probe(method, entries: list) -> list:
    """Sharded probes for ``[(qidx, shard_id, query)]``, routed by parent.

    Probes run against this worker's owned shards; each shard's private
    (forked) counter yields exact per-probe deltas.
    """
    out = []
    for qidx, shard_id, query in entries:
        shard = method.shards[shard_id]
        io = shard.io
        reads0, hits0 = io.reads, io.cache_hits
        start = time.perf_counter()
        filtered = shard.filter_candidates(query)
        elapsed = time.perf_counter() - start
        out.append(
            (
                qidx,
                shard_id,
                filtered,
                elapsed,
                io.reads - reads0,
                io.cache_hits - hits0,
            )
        )
    return out


def _do_refine(
    engine: RefinementEngine,
    view,
    memo: dict | None,
    dedupe_pages: bool,
    entries: list,
) -> tuple:
    """Near-data refinement for ``[(qidx, query, candidates)]``.

    Mirrors the serial executor's phase 2 + 3 over this worker's owned
    pages: first the batch-level fetch set (pages with at least one
    unmemoized ``(address, rect)`` pair, sorted), then per-query
    refinement in submission order against the preloaded payloads.  The
    memo only grows within a batch, so the batch-start fetch set always
    covers what refinement needs — exactly the serial argument.
    """
    entries = sorted(entries, key=lambda entry: entry[0])
    pages: dict[int, list] | None = None
    fetched_total = 0
    fetch_wall = 0.0
    reads_before = view.io.reads
    if dedupe_pages:
        fetch_start = time.perf_counter()
        fetch_pages: set[int] = set()
        for _, query, candidates in entries:
            rect_key = memo_rect_key(query.rect)
            fetch_pages.update(
                address.page_id
                for _, address in candidates
                if memo is None or (address, rect_key) not in memo
            )
        pages = {}
        for page_id in sorted(fetch_pages):
            pages[page_id] = view.read_page(page_id)
        fetched_total = len(fetch_pages)
        fetch_wall = time.perf_counter() - fetch_start

    replies = []
    for qidx, query, candidates in entries:
        stats = QueryStats()
        qualifying: list[int] = []
        q_reads = view.io.reads
        start = time.perf_counter()
        fetched = refine_with_engine(
            engine,
            candidates,
            query,
            view,
            stats,
            qualifying,
            pages=pages,
            memo=memo,
        )
        stats.wall_seconds = time.perf_counter() - start
        stats.physical_reads = view.io.reads - q_reads
        if not dedupe_pages:
            fetched_total += fetched
        replies.append((qidx, qualifying, stats))
    return (replies, fetched_total, fetch_wall, view.io.reads - reads_before)


def _worker_loop(
    conn,
    method: AccessMethod,
    memoize: bool,
    dedupe_pages: bool,
    io_latency_seconds: float,
    memo_cap: int,
) -> None:
    """Command loop of one forked worker.

    State is built post-fork from the inherited object graph: the shared
    refinement engine (``for_method`` resolves to the same per-estimator
    engine the parent uses, so the forked sample cache starts warm), a
    private data-file reader view carrying this worker's I/O ledger and
    simulated latency, and the worker-resident probability memo, trimmed
    to ``memo_cap`` entries at each batch start.
    """
    engine = RefinementEngine.for_method(method)
    view = method.data_file.reader_view(latency_seconds=io_latency_seconds)
    memo: dict | None = {} if memoize else None
    pending_chaos: tuple[str, float] | None = None
    try:
        while True:
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                break
            if kind == "close":
                break
            if kind == "chaos":
                # Chaos-harness surface (tests/faultinject.py): arm a
                # fault that fires on the *next* real command — the
                # worker dies or stalls mid-batch, exactly the failure
                # the supervisor exists for.
                pending_chaos = payload
                conn.send(("ok", True))
                continue
            if pending_chaos is not None:
                mode, seconds = pending_chaos
                pending_chaos = None
                if mode == "exit":
                    os._exit(17)
                time.sleep(seconds)  # "hang": stall, then proceed
            try:
                reply: Any
                if kind == "filter":
                    reply = _do_filter(method, payload)
                elif kind == "probe":
                    reply = _do_probe(method, payload)
                elif kind == "refine":
                    trim_memo(memo, memo_cap)  # batch start: grows only within it
                    reply = _do_refine(
                        engine, view, memo, dedupe_pages, payload
                    )
                elif kind == "clear_memo":
                    if memo is not None:
                        memo.clear()
                    reply = True
                elif kind == "memo_size":
                    reply = len(memo) if memo is not None else 0
                else:
                    raise ValueError(f"unknown worker command {kind!r}")
            except Exception:
                conn.send(("error", traceback.format_exc()))
            else:
                conn.send(("ok", reply))
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# parent-side pool management
# ----------------------------------------------------------------------
def _shutdown_pool(conns: list, procs: list) -> None:
    """Ask every worker to exit, then join (terminate as last resort)."""
    for conn in conns:
        try:
            conn.send(("close", None))
        except (BrokenPipeError, OSError):
            pass
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for proc in procs:
        proc.join(timeout=_JOIN_TIMEOUT_SECONDS)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - stuck-worker backstop
            proc.terminate()
            proc.join(timeout=1.0)


class ProcessBatchExecutor(BatchExecutor):
    """A :class:`BatchExecutor` whose workers are forked processes.

    Args:
        method: the structure to execute against (monolithic or sharded).
        workers: worker processes.  Shards map to workers by
            ``shard % workers``; data pages by ``page % workers``.
        memoize / dedupe_pages / engine: as in :class:`BatchExecutor`.
            Memos live *inside* the workers (partitioned by page
            ownership, each capped at ``MEMO_CAP // workers``);
            ``memo_size`` asks every worker for its size and
            :meth:`clear_memo` broadcasts to the pool.
        io_latency_seconds: simulated per-page latency applied inside
            each worker's reader view — this is the time the process pool
            overlaps, and what the multicore benchmark measures on a
            single-core host.
        share_memory: place filter-kernel columns in a
            :class:`~repro.storage.shm.SharedArena` before forking.
        share_samples: additionally prewarm the estimator's sample cache
            from the data file and move the clouds into the arena.
            Changes sample-cache hit/miss ledgers versus a cold serial
            run (never the answers), so it is opt-in.
        worker_timeout: per-command reply deadline in seconds; ``0``
            (the default) blocks forever exactly like the seed, so hung
            workers go undetected but behavior is byte-identical.
        max_retries: supervised retry budget per exchange — how many
            respawn-and-resend rounds a failed fault domain gets before
            the fault propagates.  ``0`` (the default) fails fast on the
            first fault (after tearing the pool down so the executor
            stays usable).
        retry_backoff_seconds: base of the linear backoff between retry
            rounds (round ``n`` sleeps ``n * retry_backoff_seconds``).
    """

    def __init__(
        self,
        method: AccessMethod,
        *,
        workers: int = 2,
        memoize: bool = True,
        dedupe_pages: bool = True,
        engine: RefinementEngine | None = None,
        io_latency_seconds: float = 0.0,
        share_memory: bool = True,
        share_samples: bool = False,
        worker_timeout: float = 0.0,
        max_retries: int = 0,
        retry_backoff_seconds: float = 0.05,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if worker_timeout < 0:
            raise ValueError("worker_timeout must be non-negative")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff_seconds < 0:
            raise ValueError("retry_backoff_seconds must be non-negative")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the process executor requires the fork start method "
                "(unpicklable pdfs travel by inheritance, not pickling)"
            )
        super().__init__(
            method,
            memoize=memoize,
            dedupe_pages=dedupe_pages,
            engine=engine,
            parallelism=int(workers),
            io_latency_seconds=io_latency_seconds,
        )
        self.workers = int(workers)
        self.share_memory = share_memory
        self.share_samples = share_samples
        self.worker_timeout = float(worker_timeout)
        self.max_retries = int(max_retries)
        self.retry_backoff_seconds = float(retry_backoff_seconds)
        self._ctx = multiprocessing.get_context("fork")
        self._conns: list = []
        self._procs: list = []
        self._forked_state: tuple | None = None
        self._arena: SharedArena | None = None
        self._finalizer: weakref.finalize | None = None
        # Supervision ledgers: lifetime totals plus the current run's
        # deltas (surfaced in BatchStats.fault_retries/worker_respawns).
        self.retries = 0
        self.respawns = 0
        self._run_retries = 0
        self._run_respawns = 0

    # -- pool lifecycle -------------------------------------------------
    def _state_snapshot(self) -> tuple:
        """What a fork bakes in: method size, data-file extent and the
        data file's lifetime release count.

        Any change means the workers' inherited copies are stale — the
        parent is the only writer, so comparing this snapshot before
        each batch is enough to know when to re-fork.  Under ``reclaim``
        a delete + insert can leave size and extent as they were (the
        insert reuses the freed slot); the release count still moves,
        so the workers re-fork with fresh trees and empty memos.
        """
        method = self.method
        data_file = method.data_file
        try:
            size = len(method)
        except TypeError:
            size = -1
        return (
            size,
            data_file.page_count,
            data_file.record_count,
            data_file.released_slots,
        )

    def _share_hot_state(self) -> SharedArena:
        """Move the numeric hot state into shared mappings, pre-fork."""
        arena = SharedArena()
        method = self.method
        structures = list(getattr(method, "shards", None) or [method])
        for structure in structures:
            structure.kernel.rebind_columns(arena.share_array)
        if self.share_samples:
            cache = self.engine.cache
            data_file = method.data_file
            pairs = []
            for page_id in range(data_file.page_count):
                for obj in data_file.peek_page(page_id):
                    pairs.append((obj.pdf, obj.oid))
            cache.prewarm(pairs)
            cache.rebind_resident(arena.share_array)
        return arena

    def _spawn_worker(self, worker_id: int) -> None:
        """Fork one worker into slot ``worker_id`` (append or replace).

        In-place slot replacement keeps the ``weakref.finalize`` backstop
        valid: the finalizer holds the *list* objects, not their contents.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(
                child_conn,
                self.method,
                self.memoize,
                self.dedupe_pages,
                self.io_latency_seconds,
                # The pages, hence the memo entries, split across workers;
                # so does the cap, keeping the pool's total at MEMO_CAP.
                max(1, MEMO_CAP // self.workers),
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if worker_id < len(self._conns):
            self._conns[worker_id] = parent_conn
            self._procs[worker_id] = proc
        else:
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def _respawn_worker(self, worker_id: int) -> None:
        """Kill a dead/wedged worker and re-fork its slot from live state.

        The parent is the only writer and never mutates mid-batch, so
        the replacement forks exactly the state the batch was planned
        against; the shared arena is still mapped, so rebound kernel
        columns come along at zero copy cost.  Only the replacement's
        memo starts cold (cost-only, later batches).
        """
        try:
            self._conns[worker_id].close()
        except OSError:
            pass
        proc = self._procs[worker_id]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=_JOIN_TIMEOUT_SECONDS)
        if proc.is_alive():  # pragma: no cover - kill-resistant worker
            proc.kill()
            proc.join(timeout=1.0)
        self._spawn_worker(worker_id)
        self.respawns += 1
        self._run_respawns += 1

    def _ensure_pool(self) -> None:
        snapshot = self._state_snapshot()
        if self._procs and snapshot == self._forked_state:
            return
        self.close()
        if self.share_memory:
            self._arena = self._share_hot_state()
        for worker_id in range(self.workers):
            self._spawn_worker(worker_id)
        self._forked_state = snapshot
        self._finalizer = weakref.finalize(
            self, _shutdown_pool, self._conns, self._procs
        )

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pool re-forks on use)."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self._procs:
            _shutdown_pool(self._conns, self._procs)
        self._conns = []
        self._procs = []
        self._forked_state = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "ProcessBatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def clear_memo(self) -> None:
        """Drop memoised probabilities in the parent and every worker."""
        super().clear_memo()
        if self._procs:
            self._exchange(
                {wid: ("clear_memo", None) for wid in range(len(self._conns))}
            )

    @property
    def memo_size(self) -> int:
        """Memo entries held in the parent plus every live worker."""
        size = super().memo_size
        if self._procs:
            replies = self._exchange(
                {wid: ("memo_size", None) for wid in range(len(self._conns))}
            )
            size += sum(replies.values())
        return size

    @property
    def worker_layout(self) -> tuple[int, ...]:
        """Worker owning each shard (empty for monolithic methods)."""
        sharded = self._sharded
        if sharded is None:
            return ()
        return tuple(
            shard_id % self.workers for shard_id in range(len(sharded.shards))
        )

    # -- parent/worker exchange ----------------------------------------
    def _recv_supervised(self, worker_id: int):
        """One reply under the per-command deadline and liveness probe.

        Returns ``(status, payload, None)`` on a reply, or
        ``(None, None, reason)`` with reason ``"died"``/``"hung"`` when
        the worker failed.  With ``worker_timeout == 0`` this is the
        seed's plain blocking receive (death still surfaces as EOF).
        """
        conn = self._conns[worker_id]
        proc = self._procs[worker_id]
        if self.worker_timeout <= 0.0:
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                return None, None, "died"
            return status, payload, None
        deadline = time.monotonic() + self.worker_timeout
        while True:
            try:
                if conn.poll(_POLL_INTERVAL_SECONDS):
                    status, payload = conn.recv()
                    return status, payload, None
            except (EOFError, OSError):
                return None, None, "died"
            if not proc.is_alive():
                # Drain a reply the worker may have flushed before dying.
                try:
                    if conn.poll(0):
                        status, payload = conn.recv()
                        return status, payload, None
                except (EOFError, OSError):
                    pass
                return None, None, "died"
            if time.monotonic() >= deadline:
                return None, None, "hung"

    def _exchange(self, messages: dict[int, tuple[str, Any]]) -> dict[int, Any]:
        """Send one command per worker, then gather every reply, supervised.

        Sends all complete before the first receive, so the addressed
        workers run concurrently.  A worker that dies or misses its
        deadline fails only its own fault domain: with retry budget left
        the worker is killed, respawned from live parent state and
        *only its* command re-sent (bounded rounds, linear backoff) —
        every other worker's reply is kept.  A worker *traceback* is
        never retried (it would recur deterministically — e.g. a corrupt
        page); it propagates as :class:`~repro.faults.WorkerError` for
        the degradation ladder to handle.  On any propagated fault the
        pool is torn down first, so the next ``run()`` re-forks cleanly
        instead of failing on dead pipes.
        """
        pending = dict(messages)
        replies: dict[int, Any] = {}
        rounds = 0
        while pending:
            failed: dict[int, str] = {}
            for worker_id, message in pending.items():
                try:
                    self._conns[worker_id].send(message)
                except (BrokenPipeError, OSError):
                    failed[worker_id] = "died"
            for worker_id in list(pending):
                if worker_id in failed:
                    continue
                status, payload, reason = self._recv_supervised(worker_id)
                if reason is not None:
                    failed[worker_id] = reason
                    continue
                if status != "ok":
                    self.close()
                    raise WorkerError(
                        f"worker {worker_id} failed:\n{payload}"
                    )
                replies[worker_id] = payload
                del pending[worker_id]
            if not failed:
                continue
            rounds += 1
            if rounds > self.max_retries:
                self.close()
                reasons = ", ".join(
                    f"worker {wid} {why}" for wid, why in sorted(failed.items())
                )
                exc_type = (
                    WorkerTimeout
                    if all(why == "hung" for why in failed.values())
                    else WorkerError
                )
                raise exc_type(
                    f"{reasons} mid-command "
                    f"(retry budget {self.max_retries} exhausted)"
                )
            if self.retry_backoff_seconds > 0.0:
                time.sleep(self.retry_backoff_seconds * rounds)
            for worker_id, why in sorted(failed.items()):
                self._respawn_worker(worker_id)
                self.retries += 1
                self._run_retries += 1
                warnings.warn(
                    f"worker {worker_id} {why}; respawned and retrying its "
                    f"fault domain (round {rounds}/{self.max_retries})",
                    DegradedWarning,
                    stacklevel=3,
                )
        return replies

    # -- execution ------------------------------------------------------
    def run(self, queries: Sequence[ProbRangeQuery]) -> BatchResult:
        """Execute the workload on the process pool, merging stats back."""
        start = time.perf_counter()
        self._run_retries = 0
        self._run_respawns = 0
        self._ensure_pool()
        sharded = self._sharded

        result = BatchResult()
        result.batch.queries = len(queries)
        result.batch.parallelism = self.workers
        result.batch.executor = "process"
        shard_stats = self._new_shard_stats()

        # Phase 1: filter in the workers.  Monolithic methods round-robin
        # whole queries; sharded methods are routed *here* (router
        # counters and decisions stay in the parent, exactly as serial)
        # and each probe runs on the worker owning its shard.
        per_query: list[tuple[ProbRangeQuery, QueryStats, QueryAnswer, list]] = []
        if sharded is None:
            filtered_by_query = self._filter_monolithic(queries)
        else:
            filtered_by_query = self._filter_sharded(
                sharded, queries, shard_stats
            )
        needed_pages: set[int] = set()
        for qidx, query in enumerate(queries):
            filtered, elapsed, delta_reads, delta_hits = filtered_by_query[qidx]
            stats = QueryStats()
            answer = QueryAnswer(stats=stats)
            stats.node_accesses = filtered.node_accesses
            stats.validated_directly = len(filtered.validated)
            stats.pruned = filtered.pruned
            stats.shard_probes = filtered.shard_probes
            stats.shards_pruned = filtered.shards_pruned
            answer.object_ids.extend(filtered.validated)
            stats.physical_reads = delta_reads
            stats.cache_hits = delta_hits
            stats.filter_seconds = elapsed
            stats.wall_seconds = elapsed
            needed_pages.update(
                address.page_id for _, address in filtered.candidates
            )
            per_query.append((query, stats, answer, filtered.candidates))

        # Phases 2+3: near-data refinement.  Each query's candidates are
        # split by owning worker (page % workers); workers preload their
        # fetch sets and refine serially, reporting qualifying oids plus
        # a per-query refinement QueryStats to merge.
        refine_entries: dict[int, list] = {}
        for qidx, (query, _, _, candidates) in enumerate(per_query):
            if not candidates:
                continue
            split: dict[int, list] = {}
            for oid, address in candidates:
                owner = address.page_id % self.workers
                split.setdefault(owner, []).append((oid, address))
            for owner, subset in split.items():
                refine_entries.setdefault(owner, []).append(
                    (qidx, query, subset)
                )
        refine_replies = self._exchange(
            {
                worker_id: ("refine", entries)
                for worker_id, entries in refine_entries.items()
            }
        )

        qualified: dict[int, set[int]] = {}
        filter_physical = sum(s.physical_reads for _, s, _, _ in per_query)
        refine_physical = 0
        for replies, fetched_total, fetch_wall, view_reads in (
            refine_replies.values()
        ):
            result.batch.data_page_fetches += fetched_total
            result.batch.fetch_seconds += fetch_wall
            refine_physical += view_reads
            for qidx, qualifying, worker_stats in replies:
                qualified.setdefault(qidx, set()).update(qualifying)
                stats = per_query[qidx][1]
                stats.data_page_reads += worker_stats.data_page_reads
                stats.prob_computations += worker_stats.prob_computations
                stats.memoized_probs += worker_stats.memoized_probs
                stats.sample_cache_hits += worker_stats.sample_cache_hits
                stats.sample_cache_misses += worker_stats.sample_cache_misses
                stats.physical_reads += worker_stats.physical_reads
                stats.fetch_seconds += worker_stats.fetch_seconds
                stats.refine_seconds += worker_stats.refine_seconds
                stats.wall_seconds += worker_stats.wall_seconds

        # Assemble answers in the serial order: validated oids first
        # (already appended), then qualifying candidates page-sorted with
        # the within-page candidate order preserved.  Page ownership
        # guarantees a page's whole candidate group refined in one
        # worker, so membership in the merged qualifying set is enough to
        # reconstruct the exact serial sequence.
        for qidx, (query, stats, answer, candidates) in enumerate(per_query):
            winners = qualified.get(qidx, set())
            if winners:
                by_page: dict[int, list[int]] = {}
                for oid, address in candidates:
                    by_page.setdefault(address.page_id, []).append(oid)
                for page_id in sorted(by_page):
                    answer.object_ids.extend(
                        oid for oid in by_page[page_id] if oid in winners
                    )
            stats.result_count = len(answer.object_ids)
            result.answers.append(answer)
            result.workload.add(stats)

        if not self.dedupe_pages:
            result.batch.fetch_seconds += sum(
                s.fetch_seconds for _, s, _, _ in per_query
            )
        result.batch.unique_data_pages = len(needed_pages)
        self._settle_process_shard_stats(result, shard_stats)
        self._finalise_process(
            result, per_query, filter_physical + refine_physical, start
        )
        return result

    def _filter_monolithic(
        self, queries: Sequence[ProbRangeQuery]
    ) -> dict[int, tuple[FilterResult, float, int, int]]:
        assignments: dict[int, list] = {}
        for qidx, query in enumerate(queries):
            assignments.setdefault(qidx % self.workers, []).append(
                (qidx, query)
            )
        replies = self._exchange(
            {
                worker_id: ("filter", entries)
                for worker_id, entries in assignments.items()
            }
        )
        out: dict[int, tuple[FilterResult, float, int, int]] = {}
        for worker_replies in replies.values():
            for qidx, filtered, elapsed, delta_reads, delta_hits in (
                worker_replies
            ):
                out[qidx] = (filtered, elapsed, delta_reads, delta_hits)
        return out

    def _filter_sharded(
        self,
        sharded,
        queries: Sequence[ProbRangeQuery],
        shard_stats,
    ) -> dict[int, tuple[FilterResult, float, int, int]]:
        routes = [sharded.route(query) for query in queries]
        assignments: dict[int, list] = {}
        for qidx, (query, route) in enumerate(zip(queries, routes)):
            for shard_id in route:
                assignments.setdefault(shard_id % self.workers, []).append(
                    (qidx, shard_id, query)
                )
        replies = self._exchange(
            {
                worker_id: ("probe", entries)
                for worker_id, entries in assignments.items()
            }
        )
        probes: dict[int, dict[int, tuple]] = {qidx: {} for qidx in range(len(queries))}
        for worker_replies in replies.values():
            for qidx, shard_id, filtered, elapsed, delta_reads, delta_hits in (
                worker_replies
            ):
                probes[qidx][shard_id] = (
                    filtered, elapsed, delta_reads, delta_hits
                )
        out: dict[int, tuple[FilterResult, float, int, int]] = {}
        for qidx, route in enumerate(routes):
            merged = sharded.merge_filter(
                route, [probes[qidx][shard_id][0] for shard_id in route]
            )
            elapsed = 0.0
            total_reads = 0
            total_hits = 0
            for shard_id in route:
                filtered, probe_elapsed, delta_reads, delta_hits = (
                    probes[qidx][shard_id]
                )
                self._tally_probe(shard_stats[shard_id], filtered, probe_elapsed)
                shard_stats[shard_id].physical_reads += delta_reads
                shard_stats[shard_id].cache_hits += delta_hits
                elapsed += probe_elapsed
                total_reads += delta_reads
                total_hits += delta_hits
            out[qidx] = (merged, elapsed, total_reads, total_hits)
        return out

    def _settle_process_shard_stats(self, result: BatchResult, shard_stats) -> None:
        """Per-shard totals from worker deltas (I/O already attributed)."""
        if shard_stats is None:
            return
        for stats in shard_stats:
            stats.routed_away = result.batch.queries - stats.probes
        result.batch.shards = len(shard_stats)
        result.batch.shard_stats = shard_stats

    def _finalise_process(
        self,
        result: BatchResult,
        per_query: list,
        physical_reads: int,
        start: float,
    ) -> None:
        """Batch totals from the merged per-query stats and worker ledgers.

        Unlike the thread path there is no shared parent counter to
        delta: every physical read happened on some worker's private
        ledger, and the sums reproduce the serial window exactly (the
        equivalence tests assert it).  Queries never write, and worker
        views have no buffer pool, so writes and refinement cache hits
        are structurally zero — as in the serial uncached regime.
        """
        batch = result.batch
        batch.logical_data_page_reads = sum(
            s.data_page_reads for _, s, _, _ in per_query
        )
        batch.shard_probes = sum(s.shard_probes for _, s, _, _ in per_query)
        batch.shards_pruned = sum(s.shards_pruned for _, s, _, _ in per_query)
        batch.prob_computations = sum(
            s.prob_computations for _, s, _, _ in per_query
        )
        batch.memo_hits = sum(s.memoized_probs for _, s, _, _ in per_query)
        batch.sample_cache_hits = sum(
            s.sample_cache_hits for _, s, _, _ in per_query
        )
        batch.sample_cache_misses = sum(
            s.sample_cache_misses for _, s, _, _ in per_query
        )
        batch.filter_seconds = sum(s.filter_seconds for _, s, _, _ in per_query)
        batch.refine_seconds = sum(s.refine_seconds for _, s, _, _ in per_query)
        batch.physical_reads = physical_reads
        batch.cache_hits = sum(s.cache_hits for _, s, _, _ in per_query)
        batch.fault_retries = self._run_retries
        batch.worker_respawns = self._run_respawns
        batch.wall_seconds = time.perf_counter() - start

    def __repr__(self) -> str:
        return (
            f"ProcessBatchExecutor(workers={self.workers}, "
            f"live={len(self._procs)}, memoize={self.memoize}, "
            f"share_memory={self.share_memory})"
        )
