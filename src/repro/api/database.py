"""The ``Database`` facade: one front door over the whole engine.

PRs 1-4 left four separately-wired subsystems (shared executor, batched
executor, refinement engine, shard router, filter kernel).  ``Database``
owns them all behind one object:

* :meth:`Database.create` builds the access method(s) — monolithic or
  sharded — the shared Monte-Carlo estimator, the buffer pool and the
  cost-model planner from a single
  :class:`~repro.api.config.ExecConfig`;
* :meth:`Database.run` answers batches of declarative specs
  (:class:`~repro.api.specs.RangeSpec`,
  :class:`~repro.api.specs.NearestSpec`), routed through the planner
  when several methods are registered, returning typed
  :class:`~repro.api.specs.Result` objects with per-phase stats;
* :meth:`Database.explain` surfaces the planner's cost comparison and
  the chosen path — method, shard probe order — without executing
  anything;
* :meth:`Database.save` / :meth:`Database.open` persist the whole thing.

Everything underneath is the existing execution layer; the facade adds
no third code path, so its answers are bit-identical to hand-wired
``QueryExecutor``/``BatchExecutor`` runs (``tests/test_api.py`` pins the
full knob matrix).
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.api.config import ExecConfig
from repro.api.specs import NearestSpec, QuerySpec, RangeSpec, Result
from repro.core.nn import expected_nearest_neighbors, probabilistic_nearest_neighbors
from repro.core.query import ProbRangeQuery
from repro.core.stats import QueryStats, WorkloadStats
from repro.exec.access import AccessMethod
from repro.exec.batch import SERIAL_FALLBACK_SAMPLE_OPS, BatchExecutor, BatchStats
from repro.exec.executor import QueryExecutor
from repro.exec.mpexec import ProcessBatchExecutor
from repro.exec.planner import (
    PlannedQuery,
    Planner,
    ScanCostModel,
    derive_data_records_per_page,
)
from repro.exec.refine import RefinementEngine
from repro.exec.resilience import BatchSupervisor
from repro.exec.shard import ShardedAccessMethod
from repro.storage.bufferpool import BufferPool
from repro.storage.wal import WriteAheadLog
from repro.uncertainty.objects import UncertainObject

__all__ = ["Database", "Explanation", "RunResult"]

_METHOD_NAMES = ("utree", "upcr", "scan")
_METHOD_VARIANTS = ("mono", "sharded")


def _parse_method_name(name: str) -> tuple[str, str | None]:
    """Split ``"utree@mono"`` into ``("utree", "mono")``.

    The optional ``@mono``/``@sharded`` suffix pins the layout of one
    method regardless of ``config.shards`` — how a database registers
    both variants of the same structure side by side, so the planner can
    arbitrate between them at query time.
    """
    base, sep, variant = name.partition("@")
    if not sep:
        return base, None
    if variant not in _METHOD_VARIANTS:
        raise ValueError(
            f"unknown method variant {name!r}; the suffix must be one of "
            f"{_METHOD_VARIANTS}"
        )
    return base, variant

# Archive keys the save/open pair speaks (npz entries).
_META_KEY = "database_meta"
# v2: descriptors are a UTF-8 JSON bytes entry, so np.load never needs
# allow_pickle (untrusted archives cannot execute code on open).
_FORMAT_OBJECTS = "repro-database-objects-v2"
_FORMAT_OBJECTS_V1 = "repro-database-objects-v1"
_FORMAT_UTREE = "repro-database-utree-v1"
# Durable (wal=True) databases persist as a directory: a manifest, one
# npz member per method (per shard when sharded) and a write-ahead log.
# Member files are epoch-versioned and each checkpoint starts a fresh
# WAL segment, so the atomic manifest replace is the single commit
# point: a crash at any byte leaves either the old checkpoint (plus its
# full WAL) or the new one (plus an empty WAL) — never a mix.
_FORMAT_DIR = "repro-database-dir-v1"
_MANIFEST_NAME = "MANIFEST.json"


def _default_catalog(name: str, dim: int):
    from repro.core.catalog import UCatalog

    if _parse_method_name(name)[0] == "upcr":
        return UCatalog.paper_upcr_default(dim)
    return UCatalog.paper_utree_default()


def _resolve_catalog(catalog, name: str, dim: int):
    """One method's catalog from a single override, a per-method map, or None."""
    if catalog is None:
        return _default_catalog(name, dim)
    if isinstance(catalog, dict):
        chosen = catalog.get(name)
        if chosen is None:  # variant names fall back to their base entry
            chosen = catalog.get(_parse_method_name(name)[0])
        return chosen if chosen is not None else _default_catalog(name, dim)
    return catalog


def _method_catalog(method):
    """The catalog a (possibly sharded) structure classifies with."""
    if isinstance(method, ShardedAccessMethod):
        return method.shards[0].catalog
    return method.catalog


def _build_monolithic(name, dim, catalog, config, estimator, pool):
    if name == "utree":
        from repro.core.utree import UTree

        return UTree(
            dim, catalog, page_size=config.page_size, pool=pool, estimator=estimator
        )
    if name == "upcr":
        from repro.core.upcr import UPCRTree

        return UPCRTree(
            dim, catalog, page_size=config.page_size, pool=pool, estimator=estimator
        )
    if name == "scan":
        from repro.core.scan import SequentialScan

        return SequentialScan(
            dim, catalog, page_size=config.page_size, pool=pool, estimator=estimator
        )
    raise ValueError(f"unknown method {name!r}; pick from {_METHOD_NAMES}")


def _live_records(method):
    """The authoritative leaf records of a structure (post-update truth)."""
    if isinstance(method, ShardedAccessMethod):
        for child in method.shards:
            yield from _live_records(child)
    elif hasattr(method, "engine"):  # UTree / UPCRTree
        for entry in method.engine.leaf_entries():
            yield entry.data
    elif hasattr(method, "records"):  # SequentialScan
        yield from method.records()
    else:  # pragma: no cover - protocol violation
        raise TypeError(f"cannot enumerate records of {type(method).__name__}")


@dataclass(frozen=True)
class Explanation:
    """The planner's verdict for one spec, produced without executing.

    ``estimates`` maps every registered method to its predicted total
    I/O; ``choice`` is the cheapest (or the caller's pin).  For a
    sharded choice, ``shard_probes`` is the router's probe order
    (cheapest first) and ``shards_pruned`` how many shards it proved
    disjoint.  ``parallelism``/``batched`` describe the execution mode
    the spec would run under.
    """

    spec: QuerySpec
    choice: str
    estimates: dict[str, float]
    shards: int
    shard_probes: tuple[int, ...]
    shards_pruned: int
    batched: bool
    parallelism: int
    data_records_per_page: float
    executor: str = "thread"
    # Process backend only: the worker owning each shard (shard i on
    # worker_layout[i]); empty for the thread backend or a monolithic
    # choice, where work round-robins instead of following ownership.
    worker_layout: tuple[int, ...] = ()
    # How many probes the router's residual-probability bound dropped
    # beyond plain MBR pruning (sharded choices only).
    shards_bound_skipped: int = 0
    # The batch size the fallback prediction was made for (explain's
    # batch_size argument) and the PR 6 small-batch serial fallback: a
    # parallel-configured executor runs a zero-latency batch serially
    # when its Monte-Carlo volume (queries x samples) stays under the
    # threshold, because thread dispatch would cost more than it buys.
    batch_queries: int = 1
    serial_fallback_threshold: int = SERIAL_FALLBACK_SAMPLE_OPS
    serial_fallback: bool = False
    pool_capacity: int = 0
    # Resilience posture: how a fault mid-batch would be handled.  With
    # on_fault="degrade", degradation_ladder lists the backend fallback
    # chain the batch would descend (most capable first, exact serial
    # path last); empty under "fail".
    on_fault: str = "fail"
    worker_timeout: float = 0.0
    max_retries: int = 2
    checksum: bool = False
    degradation_ladder: tuple[str, ...] = ()

    def summary(self) -> str:
        lines = [f"{type(self.spec).__name__} -> {self.choice!r}"]
        priced = "  ".join(
            f"{name}={cost:.1f}" + (" *" if name == self.choice else "")
            for name, cost in sorted(self.estimates.items(), key=lambda kv: kv[1])
        )
        lines.append(f"  estimated I/O: {priced}")
        if self.shards > 1:
            lines.append(
                f"  shards: probe {list(self.shard_probes)} of {self.shards} "
                f"({self.shards_pruned} pruned, "
                f"{self.shards_bound_skipped} bound-skipped)"
            )
        mode = (
            f"batched, {self.executor} x{self.parallelism}" if self.batched
            else "per-query serial"
        )
        if self.worker_layout:
            mode += f", shard->worker {list(self.worker_layout)}"
        lines.append(
            f"  mode: {mode} | "
            f"calibration: {self.data_records_per_page:.2f} records/page"
        )
        if self.batched and self.parallelism > 1:
            lines.append(
                f"  serial fallback: "
                f"{'taken' if self.serial_fallback else 'not taken'} for "
                f"{self.batch_queries} queries "
                f"(threshold {self.serial_fallback_threshold} sample-ops)"
            )
        if self.pool_capacity:
            lines.append(f"  buffer pool: arc, {self.pool_capacity} frames")
        if self.on_fault != "fail" or self.checksum:
            ladder = " -> ".join(self.degradation_ladder) or "none"
            lines.append(
                f"  resilience: on_fault={self.on_fault} | ladder: {ladder} | "
                f"worker timeout {self.worker_timeout:g}s, "
                f"{self.max_retries} retries | "
                f"checksums {'on' if self.checksum else 'off'}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()


@dataclass
class RunResult:
    """Answers for one ``db.run`` batch, in submission order."""

    results: list[Result] = field(default_factory=list)
    workload: WorkloadStats = field(default_factory=WorkloadStats)
    # One batch-level cost summary per access method that executed range
    # specs through the batched executor (empty under batched=False).
    batches: dict[str, BatchStats] = field(default_factory=dict)

    @property
    def batch(self) -> BatchStats | None:
        """The single batch summary, when exactly one method executed."""
        if len(self.batches) == 1:
            return next(iter(self.batches.values()))
        return None

    def answers(self) -> list[list[int]]:
        return [r.object_ids for r in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> Result:
        return self.results[index]

    def __repr__(self) -> str:
        methods = sorted({r.method for r in self.results})
        return (
            f"RunResult({len(self.results)} specs via {methods}, "
            f"avg logical I/O {self.workload.avg_total_io:.1f})"
        )

    def summary(self) -> str:
        """The batch in one aligned table (plus per-method batch stats)."""
        from repro.core.stats import format_aligned

        rows = []
        for i, result in enumerate(self.results):
            s = result.stats
            rows.append([
                i,
                type(result.spec).__name__.replace("Spec", "").lower(),
                result.method,
                len(result.object_ids),
                s.node_accesses,
                s.data_page_reads,
                s.prob_computations,
                s.validated_directly,
                f"{1000 * s.wall_seconds:.2f}",
            ])
        table = format_aligned(
            ["#", "spec", "method", "results", "nodes", "pages", "P_app",
             "validated", "ms"],
            rows,
        )
        parts = [table]
        for name, batch in self.batches.items():
            parts.append(f"[{name}] {batch!r}")
        return "\n".join(parts)


class Database:
    """One handle over built access methods, planner and executors.

    Construct with :meth:`create` (from objects), :meth:`from_methods`
    (around structures you built yourself) or :meth:`open` (from a
    saved archive).  All query traffic goes through :meth:`run` /
    :meth:`query` / :meth:`nearest`; :meth:`explain` previews the plan.
    """

    def __init__(
        self,
        methods: dict[str, AccessMethod],
        config: ExecConfig,
        *,
        planner: Planner | None = None,
    ):
        if not methods:
            raise ValueError("at least one access method is required")
        self._methods = dict(methods)
        self.config = config
        # Durability state.  The WAL attaches at the first checkpoint
        # (save with config.wal=True) or when open() loads a directory
        # archive; until then mutations are in-memory only, exactly as
        # before.  _epochs counts mutations per archive member so an
        # incremental save can skip members that are clean on disk.
        self.wal: WriteAheadLog | None = None
        self._replaying = False
        self._epochs: dict[str, int] = dict.fromkeys(self._member_keys(), 0)
        # Set by open() after WAL replay: {"wal_entries": n}.
        self.last_recovery: dict | None = None
        self.planner = planner if planner is not None else self._build_planner()
        # Keyed by (method name, executor backend, parallelism): per-call
        # overrides select among cached executors instead of rebuilding
        # them per batch.
        # The lock makes the cache (and close()) safe against a run()
        # in flight on another thread — the query service's shutdown
        # path closes the database while batches may still be draining.
        self._exec_lock = threading.RLock()
        self._batch_executors: dict[tuple, BatchExecutor] = {}
        self._query_executors: dict[str, QueryExecutor] = {}
        # Resilience wiring is applied here — the one funnel every
        # construction path (create / from_methods / open) goes through.
        for method in self._methods.values():
            self._apply_integrity(method)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        objects: Iterable[UncertainObject],
        config: ExecConfig | None = None,
        *,
        methods: Sequence[str] = ("utree",),
        catalog=None,
        dim: int | None = None,
    ) -> "Database":
        """Build access methods over ``objects`` under one config.

        ``methods`` names the structures to build (any subset of
        ``utree``/``upcr``/``scan``); all share one Monte-Carlo
        estimator, so their answers are bit-identical.  With
        ``config.shards > 1`` each method is a
        :class:`~repro.exec.shard.ShardedAccessMethod` over that many
        children.  ``catalog`` overrides the default paper catalogs —
        one ``UCatalog`` for every method, or a ``{method: UCatalog}``
        map for per-method overrides (how :meth:`open` restores saved
        catalogs).  ``dim`` is required only for an empty object list.
        """
        config = config if config is not None else ExecConfig()
        objects = list(objects)
        if dim is None:
            if not objects:
                raise ValueError(
                    "cannot infer dimensionality from an empty object list; pass dim="
                )
            dim = objects[0].dim
        if not methods:
            raise ValueError("at least one method name is required")
        estimator = config.estimator()
        built: dict[str, AccessMethod] = {}
        for name in methods:
            if name in built:
                raise ValueError(f"method {name!r} requested twice")
            base, variant = _parse_method_name(name)
            if variant == "sharded" and not config.sharded:
                raise ValueError(
                    f"method {name!r} pins the sharded layout but "
                    f"config.shards == {config.shards}; raise shards to >= 2"
                )
            sharded = config.sharded if variant is None else variant == "sharded"
            cat = _resolve_catalog(catalog, name, dim)
            if sharded:
                built[name] = ShardedAccessMethod.build(
                    objects,
                    shards=config.shards,
                    partitioner=config.partitioner,
                    method=base,
                    dim=dim,
                    catalog=cat,
                    page_size=config.page_size,
                    estimator=estimator,
                    pool_capacity=config.pool_capacity,
                    prune=config.prune,
                    probe_bound=config.probe_bound,
                )
            else:
                pool = (
                    BufferPool(config.pool_capacity) if config.pool_capacity else None
                )
                method = _build_monolithic(base, dim, cat, config, estimator, pool)
                for obj in objects:
                    method.insert(obj)
                built[name] = method
        if config.reclaim:
            for method in built.values():
                method.data_file.reclaim = True
        return cls(built, config)

    def _apply_integrity(self, method) -> None:
        """Switch a method's data file into the configured integrity mode.

        ``checksum`` stamps crc32 shadow images (capacity accounting
        shifts by the header for *future* appends; existing addresses
        are untouched); ``on_fault="degrade"`` additionally lets the
        file scrub-and-continue on a crc mismatch instead of raising.
        Both off (the defaults) leaves the file byte-identical.
        """
        data_file = getattr(method, "data_file", None)
        if data_file is None:  # pragma: no cover - protocol tolerance
            return
        if self.config.checksum:
            data_file.enable_checksum()
        if self.config.on_fault == "degrade":
            data_file.scrub = True

    @classmethod
    def from_methods(
        cls,
        methods: dict[str, AccessMethod],
        config: ExecConfig | None = None,
    ) -> "Database":
        """Wrap structures you built (or memoised) yourself."""
        return cls(dict(methods), config if config is not None else ExecConfig())

    # ------------------------------------------------------------------
    # planner wiring
    # ------------------------------------------------------------------
    def _build_planner(self) -> Planner:
        first = next(iter(self._methods.values()))
        planner = Planner(
            derive_data_records_per_page(first),
            auto_observe=self.config.auto_observe,
        )
        for name, method in self._methods.items():
            planner.register(name, method, self._cost_fn(name, method, planner))
        return planner

    def _cost_fn(self, name: str, method, planner: Planner):
        from repro.core.costmodel import UTreeCostModel

        if isinstance(method, ShardedAccessMethod):
            # Price a sharded method as the sum of its surviving shards'
            # estimates (the same models the router orders probes with) —
            # without mutating the router's decision counters.
            def sharded_cost(query: ProbRangeQuery, _m=method) -> float:
                if _m.prune:
                    live = [
                        i for i, box in enumerate(_m.shard_bounds)
                        if box is not None and box.intersects(query.rect)
                    ]
                else:
                    live = [
                        i for i, box in enumerate(_m.shard_bounds)
                        if box is not None
                    ]
                return sum(_m.router.price(i, query) for i in live)

            return sharded_cost

        # The cost model snapshots the structure's geometry, so build it
        # lazily on the first priced query: a method that is empty at
        # registration time (the create-then-insert pattern) prices as
        # infinite only while it stays empty, then gets a real model.
        # After heavy updates, refresh_planner() re-derives snapshots.
        state: dict = {"model": None}

        def cost(query: ProbRangeQuery, _m=method, _p=planner, _s=state) -> float:
            if len(_m) == 0:
                return float("inf")
            if _s["model"] is None:
                if hasattr(_m, "scan_pages"):
                    _s["model"] = ("scan", ScanCostModel(_m))
                else:
                    _s["model"] = ("tree", UTreeCostModel(_m))
            kind, model = _s["model"]
            if kind == "scan":
                return model.total_io(query, _p.data_records_per_page)
            return model.estimate(query).total_io(_p.data_records_per_page)

        return cost

    def refresh_planner(self) -> None:
        """Re-derive every cost model after heavy update traffic.

        The learnt calibration — packing constant *and* per-method bias
        — carries over; only the geometry snapshots are rebuilt.
        """
        learnt = self.planner.state_dict()
        self.planner = self._build_planner()
        self.planner.load_state(learnt)
        for method in self._methods.values():
            if isinstance(method, ShardedAccessMethod):
                method.refresh_router()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def method_names(self) -> list[str]:
        return list(self._methods)

    @property
    def dim(self) -> int:
        return next(iter(self._methods.values())).dim

    def access_method(self, name: str | None = None) -> AccessMethod:
        """The underlying structure (the only one, or by name)."""
        if name is None:
            if len(self._methods) != 1:
                raise ValueError(
                    f"database holds {self.method_names}; pass a method name"
                )
            return next(iter(self._methods.values()))
        return self._methods[name]

    def __len__(self) -> int:
        return len(next(iter(self._methods.values())))

    def __repr__(self) -> str:
        return (
            f"Database(methods={self.method_names}, objects={len(self)}, "
            f"shards={self.config.shards}, "
            f"parallelism={self.config.parallelism})"
        )

    def summary(self) -> str:
        lines = [repr(self), f"  {self.config.summary()}"]
        for name, method in self._methods.items():
            size = getattr(method, "size_bytes", None)
            size_text = f", {size / 1024:.0f} KiB" if size is not None else ""
            lines.append(f"  {name}: {len(method)} objects{size_text}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # durability plumbing
    # ------------------------------------------------------------------
    def _member_keys(self) -> list[str]:
        """Archive member keys: one per method, or per shard when sharded."""
        keys: list[str] = []
        for name, method in self._methods.items():
            if isinstance(method, ShardedAccessMethod):
                keys.extend(f"{name}/shard{i}" for i in range(method.shard_count))
            else:
                keys.append(name)
        return keys

    def _bump_member(self, name: str, method) -> None:
        """Mark the member an update landed in as dirty (epoch += 1)."""
        if isinstance(method, ShardedAccessMethod):
            shard = method.last_update_shard
            if shard is None:  # unknown landing shard: dirty the whole method
                for i in range(method.shard_count):
                    key = f"{name}/shard{i}"
                    self._epochs[key] = self._epochs.get(key, 0) + 1
            else:
                key = f"{name}/shard{shard}"
                self._epochs[key] = self._epochs.get(key, 0) + 1
        else:
            self._epochs[name] = self._epochs.get(name, 0) + 1

    def _log(self, record: dict) -> None:
        """Commit one mutation record to the WAL before it is applied.

        A no-op until a WAL is attached (first checkpoint) and during
        replay (replayed operations are already on the log).
        """
        if self.wal is not None and not self._replaying:
            self.wal.commit(record)

    def _attach_wal(self, directory: str, wal_name: str) -> None:
        """Point the log at ``directory/wal_name`` (closing any old segment)."""
        path = os.path.join(directory, wal_name)
        if self.wal is not None:
            if self.wal.path == path:
                return
            self.wal.close()
        self.wal = WriteAheadLog(path)

    def _apply_logged(self, entry: dict) -> None:
        """Re-apply one replayed WAL record through the public API."""
        from repro.storage.serialize import density_from_descriptor

        op = entry.get("op")
        if op == "insert":
            self.insert(
                UncertainObject(
                    int(entry["oid"]), density_from_descriptor(entry["pdf"])
                )
            )
        elif op == "delete":
            self.delete(int(entry["oid"]))
        elif op == "rebalance":
            self.rebalance(
                entry.get("method"), min_skew=float(entry.get("min_skew", 0.0))
            )
        else:
            raise ValueError(f"unknown WAL operation {op!r}")

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, obj: UncertainObject):
        """Insert into every method; returns the (single) update cost.

        With several registered methods a dict of per-method costs is
        returned instead.  With a WAL attached the operation is logged
        and fsynced *before* any structure mutates, so an acknowledged
        insert survives a crash and an unacknowledged one is never
        observable after recovery.
        """
        if obj.dim != self.dim:
            # Validate before logging: a rejected insert must never
            # reach the WAL (replay would re-raise on open).
            raise ValueError(
                f"object dimensionality {obj.dim} != database dimensionality {self.dim}"
            )
        if self.wal is not None and not self._replaying:
            from repro.storage.serialize import density_descriptor

            self._log(
                {
                    "op": "insert",
                    "oid": int(obj.oid),
                    "pdf": density_descriptor(obj.pdf),
                }
            )
        costs = {}
        for name, m in self._methods.items():
            costs[name] = m.insert(obj)
            self._bump_member(name, m)
        if len(costs) == 1:
            return next(iter(costs.values()))
        return costs

    def delete(self, oid: int):
        """Delete from every method; single outcome or per-method dict."""
        self._log({"op": "delete", "oid": int(oid)})
        outcomes = {}
        for name, m in self._methods.items():
            outcomes[name] = m.delete(oid)
            if outcomes[name]:
                self._bump_member(name, m)
                # The deleted object's cloud can never hit again; drop it
                # now rather than when the LRU gets round to it.
                RefinementEngine.for_method(m).cache.invalidate(oid)
        if len(outcomes) == 1:
            return next(iter(outcomes.values()))
        return outcomes

    def rebalance(self, method: str | None = None, *, min_skew: float = 0.0) -> dict:
        """Repartition sharded methods whose update traffic skewed them.

        Inserts follow the least-enlargement rule and hash residues, so
        a drifting workload concentrates objects (and probe cost) on a
        few shards; each sharded method counts that traffic in
        ``insert_traffic``/``delete_traffic`` and exposes the resulting
        imbalance as ``size_skew()`` (max shard size over mean, 1.0 =
        perfectly even).  This rebuilds the partition from the live
        records — same shard count, partitioner, catalog and estimator,
        so answers stay bit-identical — and resets the traffic counters.

        Args:
            method: one registered method to rebalance (default: every
                sharded method).  Monolithic methods are skipped.
            min_skew: only rebuild methods whose ``size_skew()`` is at
                least this (0.0 rebuilds unconditionally).

        Returns:
            Per-method report: objects carried over, the update traffic
            that triggered the rebuild, and skew before/after.
        """
        self._log({"op": "rebalance", "method": method, "min_skew": float(min_skew)})
        names = [method] if method is not None else list(self._methods)
        report: dict[str, dict] = {}
        for name in names:
            if name not in self._methods:
                raise KeyError(
                    f"method {name!r} is not registered (have {self.method_names})"
                )
            old = self._methods[name]
            if not isinstance(old, ShardedAccessMethod):
                continue
            skew_before = old.size_skew()
            if skew_before < min_skew:
                continue
            traffic = old.update_traffic
            records = sorted(_live_records(old), key=lambda r: r.oid)
            objects = [old.data_file.peek(r.address) for r in records]
            rebuilt = ShardedAccessMethod.build(
                objects,
                shards=old.shard_count,
                partitioner=old.partitioner,
                method=_parse_method_name(name)[0],
                dim=old.dim,
                catalog=old.shards[0].catalog,
                page_size=old.data_file.page_size,
                estimator=old.estimator,
                pool_capacity=self.config.pool_capacity,
                prune=old.prune,
                probe_bound=old.probe_bound,
            )
            rebuilt.data_file.reclaim = self.config.reclaim
            self._apply_integrity(rebuilt)
            self._methods[name] = rebuilt
            self._drop_executors(name)
            # The rebuild rewrote every shard from scratch.
            for i in range(rebuilt.shard_count):
                key = f"{name}/shard{i}"
                self._epochs[key] = self._epochs.get(key, 0) + 1
            report[name] = {
                "objects": len(objects),
                "update_traffic": traffic,
                "skew_before": skew_before,
                "skew_after": rebuilt.size_skew(),
            }
        if report:
            self.refresh_planner()
        return report

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def _pick_nn_method(self, pinned: str | None) -> str:
        from repro.core.utree import UTree

        def nn_capable(method) -> bool:
            if isinstance(method, ShardedAccessMethod):
                return all(isinstance(s, UTree) for s in method.shards)
            return isinstance(method, UTree)

        if pinned is not None:
            if pinned not in self._methods:
                raise KeyError(
                    f"method {pinned!r} is not registered (have {self.method_names})"
                )
            if not nn_capable(self._methods[pinned]):
                raise ValueError(
                    f"method {pinned!r} cannot answer nearest-neighbour specs "
                    "(the branch-and-bound walk needs a U-tree)"
                )
            return pinned
        for name, method in self._methods.items():
            if nn_capable(method):
                return name
        raise ValueError(
            f"no NN-capable method registered (have {self.method_names}); "
            "nearest-neighbour search needs a U-tree"
        )

    def _choose(
        self, spec: QuerySpec, pinned: str | None
    ) -> tuple[str, PlannedQuery | None]:
        """The method for one spec, plus the plan when the planner chose.

        The decision rides along so :meth:`run` can feed the executed
        cost back into the planner's per-method bias
        (:meth:`~repro.exec.planner.Planner.observe_choice`).
        """
        if isinstance(spec, NearestSpec):
            return self._pick_nn_method(pinned), None
        if pinned is not None:
            if pinned not in self._methods:
                raise KeyError(
                    f"method {pinned!r} is not registered (have {self.method_names})"
                )
            return pinned, None
        if len(self._methods) == 1:
            return next(iter(self._methods)), None
        decision = self.planner.plan(spec.to_query())
        return decision.choice, decision

    def _batch_executor(
        self,
        name: str,
        *,
        executor: str | None = None,
        parallelism: int | None = None,
    ) -> BatchExecutor:
        executor = self.config.executor if executor is None else executor
        parallelism = (
            self.config.parallelism if parallelism is None else parallelism
        )
        key = (name, executor, parallelism)
        with self._exec_lock:
            if key not in self._batch_executors:
                if executor == "process":
                    # The fault-domain retry budget engages only in degrade
                    # mode; in fail mode faults propagate on first contact
                    # (after pool teardown, so the executor stays usable).
                    # The command deadline applies in both modes — detecting
                    # a hang is orthogonal to what happens next.
                    supervised = self.config.on_fault == "degrade"
                    self._batch_executors[key] = ProcessBatchExecutor(
                        self._methods[name],
                        workers=parallelism,
                        memoize=self.config.memoize,
                        dedupe_pages=self.config.dedupe_pages,
                        io_latency_seconds=self.config.io_latency_seconds,
                        worker_timeout=self.config.worker_timeout,
                        max_retries=self.config.max_retries if supervised else 0,
                    )
                else:
                    self._batch_executors[key] = BatchExecutor(
                        self._methods[name],
                        memoize=self.config.memoize,
                        dedupe_pages=self.config.dedupe_pages,
                        parallelism=parallelism,
                        io_latency_seconds=self.config.io_latency_seconds,
                    )
            return self._batch_executors[key]

    def _degradation_ladder(
        self,
        name: str,
        *,
        executor: str | None = None,
        parallelism: int | None = None,
    ) -> list:
        """The backend fallback chain for one method's batches.

        Most capable configured backend first, the exact serial path
        last: ``process → thread → serial`` under the process backend,
        ``thread → serial`` for a parallel thread config, and just
        ``serial`` when that is all that was configured.  Factories are
        lazy, so a fault-free run never builds the fallback executors.
        """
        resolved_exec = self.config.executor if executor is None else executor
        resolved_par = (
            self.config.parallelism if parallelism is None else parallelism
        )
        ladder: list = []
        if resolved_exec == "process":
            ladder.append((
                "process",
                lambda: self._batch_executor(
                    name, executor="process", parallelism=resolved_par
                ),
            ))
        if resolved_par > 1:
            ladder.append((
                "thread",
                lambda: self._batch_executor(
                    name, executor="thread", parallelism=resolved_par
                ),
            ))
        ladder.append((
            "serial",
            lambda: self._batch_executor(name, executor="thread", parallelism=1),
        ))
        return ladder

    def _run_range_batch(
        self,
        name: str,
        queries,
        *,
        executor: str | None = None,
        parallelism: int | None = None,
    ):
        """One method's batch, through the ladder when degradation is on."""
        if self.config.on_fault != "degrade":
            return self._batch_executor(
                name, executor=executor, parallelism=parallelism
            ).run(queries)
        supervisor = BatchSupervisor(
            self._degradation_ladder(
                name, executor=executor, parallelism=parallelism
            ),
            data_file=getattr(self._methods[name], "data_file", None),
        )
        return supervisor.run(queries)

    def _drop_executors(self, name: str) -> None:
        """Forget every executor bound to ``name``'s current structure."""
        with self._exec_lock:
            dropped = [
                self._batch_executors.pop(key)
                for key in [k for k in self._batch_executors if k[0] == name]
            ]
            self._query_executors.pop(name, None)
        for executor in dropped:
            closer = getattr(executor, "close", None)
            if closer is not None:
                closer()

    def close(self) -> None:
        """Release executor resources (the process backend's worker pool).

        Idempotent and thread-safe: concurrent calls — or a call racing a
        ``run()`` in flight on another thread (the query service's
        shutdown path) — never raise, and the database stays usable: the
        next batch under ``executor="process"`` simply re-forks its pool.
        An executor a concurrent ``run()`` builds *after* the snapshot
        below is released by the next ``close()`` (or the process pool's
        finalizer backstop).  The thread backend holds no persistent
        workers, so this is a no-op there.
        """
        with self._exec_lock:
            executors = list(self._batch_executors.values())
        for executor in executors:
            closer = getattr(executor, "close", None)
            if closer is not None:
                closer()
        wal = self.wal
        if wal is not None:
            wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _query_executor(self, name: str) -> QueryExecutor:
        with self._exec_lock:
            if name not in self._query_executors:
                self._query_executors[name] = QueryExecutor(self._methods[name])
            return self._query_executors[name]

    def clear_memos(self) -> None:
        """Drop every batched executor's cross-query P_app memo.

        The memos persist across :meth:`run` calls by design (the fig-10
        access pattern); callers that need run-to-run reproducible *cost
        counters* — repeated experiment sweeps — reset here.  Answers are
        never affected either way.
        """
        with self._exec_lock:
            executors = list(self._batch_executors.values())
        for executor in executors:
            executor.clear_memo()

    def _run_nearest(self, spec: NearestSpec, name: str) -> Result:
        method = self._methods[name]
        point = np.asarray(spec.point, dtype=float)
        if spec.mode == "expected":
            nn = expected_nearest_neighbors(
                method, point, k=spec.k, rounds=spec.rounds, seed=spec.seed
            )
            ranked = nn.candidates
        else:
            nn = probabilistic_nearest_neighbors(
                method, point, rounds=spec.rounds, seed=spec.seed
            )
            ranked = nn.candidates[: spec.k]
        stats = QueryStats(
            node_accesses=nn.node_accesses,
            data_page_reads=nn.data_page_reads,
            prob_computations=nn.objects_examined,
            result_count=len(ranked),
            wall_seconds=nn.wall_seconds,
        )
        return Result(
            spec=spec,
            method=name,
            object_ids=[c.oid for c in ranked],
            stats=stats,
            nn=nn,
        )

    def run(
        self,
        specs: Sequence[QuerySpec],
        *,
        method: str | None = None,
        parallelism: int | None = None,
        executor: str | None = None,
    ) -> RunResult:
        """Answer a batch of specs (submission order preserved).

        Range specs execute through the batched executor (cross-query
        page dedup + P_app memoisation; the serial/parallel mode and all
        reuse knobs come from the config) or, under ``batched=False``,
        query-at-a-time through the shared executor — the paper's exact
        accounting.  Nearest specs run the branch-and-bound NN walk.
        With several registered methods and no ``method`` pin, the
        planner prices every range spec and routes it to the cheapest
        structure.

        ``parallelism``/``executor`` override the config for this batch
        only (answers never change — these are pure cost knobs).
        """
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, (RangeSpec, NearestSpec)):
                raise TypeError(
                    f"specs must be RangeSpec or NearestSpec, got {type(spec).__name__}"
                )
        if executor is not None and executor not in ("thread", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; pick 'thread' or 'process'"
            )
        if parallelism is not None and parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if not self.config.batched and (
            parallelism not in (None, 1) or executor == "process"
        ):
            raise ValueError(
                "per-batch parallelism/executor overrides need batched=True"
            )

        decisions = [self._choose(spec, method) for spec in specs]
        choices = [choice for choice, _ in decisions]
        out = RunResult()
        slots: list[Result | None] = [None] * len(specs)

        # Group range specs per chosen method, preserving submission
        # order within each group (a single-method batch is then exactly
        # one legacy BatchExecutor.run call).
        grouped: dict[str, list[int]] = {}
        for i, (spec, choice) in enumerate(zip(specs, choices)):
            if isinstance(spec, RangeSpec):
                grouped.setdefault(choice, []).append(i)
            else:
                slots[i] = self._run_nearest(spec, choices[i])

        for name, indices in grouped.items():
            queries = [specs[i].to_query() for i in indices]
            if self.config.batched:
                batch = self._run_range_batch(
                    name, queries, executor=executor, parallelism=parallelism
                )
                answers = batch.answers
                if name in out.batches:  # pragma: no cover - defensive
                    raise RuntimeError(f"duplicate batch for method {name!r}")
                out.batches[name] = batch.batch
            else:
                query_executor = self._query_executor(name)
                answers = [query_executor.execute(query) for query in queries]
            for i, answer in zip(indices, answers):
                slots[i] = Result(
                    spec=specs[i],
                    method=name,
                    object_ids=answer.object_ids,
                    stats=answer.stats,
                )
        out.results = [slot for slot in slots if slot is not None]
        for result in out.results:
            out.workload.add(result.stats)
        if self.config.auto_observe and grouped:
            # Calibrate from range-spec stats only: NN results carry
            # walk counters with different semantics (objects_examined
            # in prob_computations) that would skew the packing EWMA.
            # Planner-routed specs additionally feed their observed cost
            # into the per-method bias, so a method whose model flatters
            # it (the sharded regression BENCH_shard exposed) loses
            # future plans to what actually ran cheaper.
            range_stats = WorkloadStats()
            for i, result in enumerate(slots):
                if result is None or not isinstance(result.spec, RangeSpec):
                    continue
                range_stats.add(result.stats)
                decision = decisions[i][1]
                if decision is not None:
                    self.planner.observe_choice(
                        result.method,
                        decision.raw_estimates.get(result.method, 0.0),
                        result.stats.node_accesses + result.stats.data_page_reads,
                    )
            self.planner.observe(range_stats)
        return out

    def query(self, spec: QuerySpec, *, method: str | None = None) -> Result:
        """Answer one spec (the single-query convenience form)."""
        return self.run([spec], method=method).results[0]

    def nearest(self, spec: NearestSpec) -> Result:
        """Answer one nearest-neighbour spec."""
        if not isinstance(spec, NearestSpec):
            raise TypeError(f"nearest() takes a NearestSpec, got {type(spec).__name__}")
        return self._run_nearest(spec, self._pick_nn_method(None))

    def probabilities(
        self,
        rect,
        oids: Iterable[int],
        *,
        method: str | None = None,
    ) -> dict[int, float]:
        """``P_app`` of each oid against ``rect`` (oid -> probability).

        Served from the method's shared
        :class:`~repro.exec.refine.RefinementEngine`, so the values are
        bit-identical to what query refinement computes for the same
        pairs (the Monte-Carlo stream derives from ``(seed, oid)``).
        This is the surface the query service's ``probs=True`` replies
        use — and what the wire-equivalence tests compare with ``==``.

        ``rect`` is a :class:`~repro.geometry.rect.Rect` or a
        :class:`~repro.api.specs.RangeSpec` (its rectangle is taken).
        Unknown oids raise ``KeyError``.
        """
        if isinstance(rect, RangeSpec):
            rect = rect.rect
        name = method if method is not None else next(iter(self._methods))
        if name not in self._methods:
            raise KeyError(
                f"method {name!r} is not registered (have {self.method_names})"
            )
        chosen = self._methods[name]
        engine = RefinementEngine.for_method(chosen)
        data_file = chosen.data_file
        wanted = {int(oid) for oid in oids}
        out: dict[int, float] = {}
        for record in _live_records(chosen):
            if record.oid in wanted and record.oid not in out:
                obj = data_file.peek(record.address)
                out[record.oid] = engine.estimate(obj, rect)
        missing = sorted(wanted - out.keys())
        if missing:
            raise KeyError(f"oids not present in method {name!r}: {missing}")
        return out

    # ------------------------------------------------------------------
    # explain
    # ------------------------------------------------------------------
    def explain(
        self,
        spec: QuerySpec,
        *,
        method: str | None = None,
        batch_size: int = 1,
    ) -> Explanation:
        """The planner's cost comparison and chosen path, no execution.

        Prices the spec under every registered method's cost model,
        reports the winner (or the pinned ``method``) and — for a
        sharded choice — the router's probe order, prune count and how
        many extra probes the residual-probability bound dropped.
        ``batch_size`` is the hypothetical batch the spec would ship in:
        it drives the PR 6 serial-fallback prediction (a parallel
        executor runs small zero-latency batches serially), reported in
        ``serial_fallback``/``serial_fallback_threshold``.
        """
        if not isinstance(spec, RangeSpec):
            raise TypeError(
                "explain() prices range specs; nearest-neighbour search has "
                "no cost model yet"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        query = spec.to_query()
        decision = self.planner.plan(query)
        choice = decision.choice if method is None else method
        if choice not in self._methods:
            raise KeyError(
                f"method {choice!r} is not registered (have {self.method_names})"
            )
        chosen = self._methods[choice]
        bound_skipped = 0
        if isinstance(chosen, ShardedAccessMethod):
            skips_before = chosen.router.bound_skips
            probes = tuple(chosen.route(query))
            bound_skipped = chosen.router.bound_skips - skips_before
            shards = chosen.shard_count
            pruned = shards - len(probes)
        else:
            probes = ()
            shards = 1
            pruned = 0
        layout: tuple[int, ...] = ()
        if self.config.executor == "process" and shards > 1:
            layout = tuple(
                shard_id % self.config.parallelism for shard_id in range(shards)
            )
        # Mirror BatchExecutor._below_fallback_threshold: a zero-latency
        # batch under the Monte-Carlo volume threshold takes the exact
        # serial path even when parallelism is configured.
        fallback = (
            self.config.batched
            and self.config.parallelism > 1
            and self.config.io_latency_seconds == 0.0
            and batch_size * self.config.mc_samples < SERIAL_FALLBACK_SAMPLE_OPS
        )
        return Explanation(
            spec=spec,
            choice=choice,
            estimates=dict(decision.estimates),
            shards=shards,
            shard_probes=probes,
            shards_pruned=pruned,
            batched=self.config.batched,
            parallelism=self.config.parallelism,
            data_records_per_page=self.planner.data_records_per_page,
            executor=self.config.executor,
            worker_layout=layout,
            shards_bound_skipped=bound_skipped,
            batch_queries=batch_size,
            serial_fallback_threshold=SERIAL_FALLBACK_SAMPLE_OPS,
            serial_fallback=fallback,
            pool_capacity=self.config.pool_capacity,
            on_fault=self.config.on_fault,
            worker_timeout=self.config.worker_timeout,
            max_retries=self.config.max_retries,
            checksum=self.config.checksum,
            degradation_ladder=(
                tuple(
                    level
                    for level, _ in self._degradation_ladder(
                        choice, executor=self.config.executor
                    )
                )
                if self.config.on_fault == "degrade"
                else ()
            ),
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _meta(self, archive_format: str) -> str:
        return json.dumps(
            {
                "format": archive_format,
                "config": json.loads(self.config.to_json()),
                "methods": self.method_names,
                "catalogs": {
                    name: np.asarray(_method_catalog(m).values).tolist()
                    for name, m in self._methods.items()
                },
                # Learnt planner state rides along so a reopened
                # database plans from where this one left off instead of
                # re-learning from scratch.
                "planner": self.planner.state_dict(),
            },
            sort_keys=True,
        )

    @staticmethod
    def _restore_learned(db: "Database", meta: dict | None) -> None:
        """Reload archived planner state into a reopened database."""
        if not meta:
            return
        planner_state = meta.get("planner")
        if planner_state:
            db.planner.load_state(planner_state)

    def save(self, path):
        """Persist the database.

        With ``config.wal=False`` (the default) this writes one ``.npz``
        archive, exactly as before — atomically now (temp file +
        ``os.replace``), so a crash mid-save never clobbers the previous
        archive.  A monolithic single-U-tree database uses the
        fitted-summary archive of
        :func:`repro.storage.serialize.save_utree` (no CFB re-fitting on
        open).  Every other shape — sharded methods, U-PCR, scans,
        multi-method databases — stores the object set (ids + pdf
        descriptors) plus the config, and :meth:`open` rebuilds the
        structures deterministically; answers round-trip bit-identically
        (P_app streams derive from ``(seed, oid)``), while I/O accounting
        may differ from the pre-save instance when the original insert
        order did (the same caveat as ``load_utree``).

        With ``config.wal=True`` the target is a *directory*: a manifest,
        one ``.npz`` member per method (per shard when sharded) and a
        write-ahead log.  Saves are incremental — members whose dirty
        epoch matches the manifest's are skipped — and each successful
        checkpoint truncates the WAL.  From the first such save on,
        every mutation is logged durably before it is applied, and
        :meth:`open` replays the log over the checkpoint.  Returns a
        ``{"path", "written", "skipped"}`` report in this mode.

        Only the built-in pdf families round-trip; custom densities raise
        :class:`~repro.storage.serialize.SerializationError` — tabulate
        them first.
        """
        from repro.storage.serialize import (
            atomic_savez,
            density_descriptor,
            pack_json,
            save_utree,
        )

        if self.config.wal:
            return self._save_incremental(path)

        if self.method_names == ["utree"] and not isinstance(
            self._methods["utree"], ShardedAccessMethod
        ):
            save_utree(
                self._methods["utree"],
                path,
                extra={_META_KEY: self._meta(_FORMAT_UTREE)},
            )
            return None

        first = next(iter(self._methods.values()))
        records = sorted(_live_records(first), key=lambda r: r.oid)
        seen: set[int] = set()
        oids: list[int] = []
        descriptors: list[dict] = []
        data_file = first.data_file
        for record in records:
            if record.oid in seen:  # sharded children never overlap, but be safe
                continue
            seen.add(record.oid)
            obj = data_file.peek(record.address)
            oids.append(record.oid)
            descriptors.append(density_descriptor(obj.pdf))
        atomic_savez(
            path,
            **{_META_KEY: self._meta(_FORMAT_OBJECTS)},
            dim=np.int64(self.dim),
            oids=np.array(oids, dtype=np.int64),
            descriptors=pack_json(descriptors),
        )
        return None

    def _member_objects(self, method, shard: int | None) -> list:
        """``(oid, object)`` pairs of one archive member, oid-sorted."""
        source = method.shards[shard] if shard is not None else method
        records = sorted(_live_records(source), key=lambda r: r.oid)
        data_file = method.data_file
        return [(r.oid, data_file.peek(r.address)) for r in records]

    def _save_incremental(self, path) -> dict:
        """Checkpoint into a directory archive, rewriting dirty members only.

        Crash protocol: dirty members land first, under epoch-versioned
        filenames that the current manifest never references; then the
        manifest is atomically replaced, switching to the new member set
        and naming a fresh (empty) WAL segment in one step.  A crash
        before the replace leaves the old checkpoint plus its full WAL; a
        crash after it leaves the new checkpoint with nothing to replay.
        Stale member files and WAL segments are garbage-collected only
        after the replace has landed.
        """
        from repro.storage.serialize import (
            atomic_savez,
            atomic_write_text,
            density_descriptor,
            pack_json,
        )

        root = os.fspath(path)
        os.makedirs(root, exist_ok=True)
        manifest_path = os.path.join(root, _MANIFEST_NAME)
        previous: dict = {}
        if os.path.exists(manifest_path):
            with open(manifest_path, encoding="utf-8") as fh:
                previous = json.load(fh)
            if previous.get("format") != _FORMAT_DIR:
                raise ValueError(
                    f"{manifest_path} is not a {_FORMAT_DIR} manifest; refusing "
                    "to overwrite a foreign directory"
                )
        old_members: dict[str, dict] = previous.get("members", {})
        checkpoint = int(previous.get("checkpoint", -1)) + 1
        written: list[str] = []
        skipped: list[str] = []
        members: dict[str, dict] = {}
        for name, method in self._methods.items():
            if isinstance(method, ShardedAccessMethod):
                parts = [
                    (f"{name}/shard{i}", i) for i in range(method.shard_count)
                ]
            else:
                parts = [(name, None)]
            for key, shard in parts:
                epoch = self._epochs.setdefault(key, 0)
                old = old_members.get(key)
                if (
                    old is not None
                    and int(old["epoch"]) == epoch
                    and os.path.exists(os.path.join(root, old["file"]))
                ):
                    members[key] = {"file": old["file"], "epoch": epoch}
                    skipped.append(key)
                    continue
                safe = key.replace("/", ".").replace("@", "-")
                filename = f"{safe}.e{epoch}.npz"
                pairs = self._member_objects(method, shard)
                atomic_savez(
                    os.path.join(root, filename),
                    dim=np.int64(self.dim),
                    oids=np.array([oid for oid, _ in pairs], dtype=np.int64),
                    descriptors=pack_json(
                        [density_descriptor(obj.pdf) for _, obj in pairs]
                    ),
                )
                members[key] = {"file": filename, "epoch": epoch}
                written.append(key)
        wal_name = f"wal.{checkpoint}.log"
        manifest = {
            "format": _FORMAT_DIR,
            "checkpoint": checkpoint,
            "meta": json.loads(self._meta(_FORMAT_DIR)),
            "members": members,
            "wal": wal_name,
        }
        atomic_write_text(manifest_path, json.dumps(manifest, sort_keys=True))
        # Committed: mutations from here on log to the fresh segment.
        self._attach_wal(root, wal_name)
        self._collect_garbage(root, members, wal_name)
        return {"path": root, "written": written, "skipped": skipped}

    @staticmethod
    def _collect_garbage(root: str, members: dict, wal_name: str) -> None:
        """Drop member/WAL files the just-committed manifest no longer uses."""
        import re

        keep = {member["file"] for member in members.values()}
        keep.add(wal_name)
        ours = re.compile(r"(.+\.e\d+\.npz|wal\.\d+\.log)$")
        for filename in os.listdir(root):
            if filename in keep or not ours.fullmatch(filename):
                continue
            try:
                os.unlink(os.path.join(root, filename))
            except OSError:  # pragma: no cover - GC is best-effort
                pass

    @classmethod
    def open(cls, path, config: ExecConfig | None = None) -> "Database":
        """Reconstruct a database saved with :meth:`save`.

        ``config`` overrides the archived execution config (the archive's
        is used when omitted).  Plain ``save_utree`` archives open too,
        as a single-U-tree database under default config.  A directory
        archive (saved under ``config.wal=True``) is opened from its
        latest checkpoint, then the write-ahead log is replayed over it —
        ``db.last_recovery["wal_entries"]`` reports how many logged
        operations recovery re-applied.
        """
        from repro.core.catalog import UCatalog
        from repro.storage.serialize import (
            SerializationError,
            density_from_descriptor,
            load_utree,
            unpack_json,
        )

        if os.path.isdir(path):
            return cls._open_directory(path, config)

        with np.load(path) as archive:
            meta = None
            if _META_KEY in archive:
                meta = json.loads(str(archive[_META_KEY]))
            if meta is not None and meta.get("format") == _FORMAT_OBJECTS_V1:
                raise SerializationError(
                    "this archive uses the v1 object format (pickled "
                    "descriptors); re-save it with a current build"
                )
            if meta is not None and meta.get("format") == _FORMAT_OBJECTS:
                if config is None:
                    config = ExecConfig.from_json(json.dumps(meta["config"]))
                dim = int(archive["dim"])
                catalogs = {
                    name: UCatalog(np.asarray(values))
                    for name, values in meta.get("catalogs", {}).items()
                }
                objects = [
                    UncertainObject(int(oid), density_from_descriptor(doc))
                    for oid, doc in zip(
                        archive["oids"], unpack_json(archive["descriptors"])
                    )
                ]
                db = cls.create(
                    objects,
                    config,
                    methods=tuple(meta["methods"]),
                    catalog=catalogs or None,
                    dim=dim,
                )
                cls._restore_learned(db, meta)
                return db

        # A fitted U-tree archive (facade-saved with _FORMAT_UTREE, or a
        # plain save_utree file): load_utree restores the fitted CFBs and
        # the archived catalog without re-fitting anything.
        if config is None and meta is not None:
            config = ExecConfig.from_json(json.dumps(meta["config"]))
        if config is None:
            config = ExecConfig()
        pool = BufferPool(config.pool_capacity) if config.pool_capacity else None
        tree = load_utree(
            path,
            estimator=config.estimator(),
            pool=pool,
        )
        db = cls({"utree": tree}, config)
        cls._restore_learned(db, meta)
        return db

    @classmethod
    def _open_directory(cls, path, config: ExecConfig | None) -> "Database":
        """Open a WAL-backed directory archive: checkpoint + log replay."""
        from repro.core.catalog import UCatalog
        from repro.storage.serialize import density_from_descriptor, unpack_json

        root = os.fspath(path)
        manifest_path = os.path.join(root, _MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise ValueError(
                f"{root} has no {_MANIFEST_NAME}; not a database directory"
            )
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("format") != _FORMAT_DIR:
            raise ValueError(
                f"{manifest_path} declares {manifest.get('format')!r}, "
                f"expected {_FORMAT_DIR}"
            )
        meta = manifest["meta"]
        if config is None:
            config = ExecConfig.from_json(json.dumps(meta["config"]))
        if not config.wal:
            raise ValueError(
                "directory archives are WAL-backed; open them with a "
                "wal=True config (or omit config to use the archived one)"
            )
        method_names = tuple(meta["methods"])
        first = method_names[0]
        # Every method indexes the same object set, so loading the first
        # method's member(s) recovers it; the others rebuild from it.
        objects_by_oid: dict[int, UncertainObject] = {}
        dim: int | None = None
        for key, member in manifest["members"].items():
            if key != first and not key.startswith(first + "/"):
                continue
            with np.load(os.path.join(root, member["file"])) as archive:
                dim = int(archive["dim"])
                for oid, doc in zip(
                    archive["oids"], unpack_json(archive["descriptors"])
                ):
                    objects_by_oid[int(oid)] = UncertainObject(
                        int(oid), density_from_descriptor(doc)
                    )
        if dim is None:  # pragma: no cover - manifest always lists members
            raise ValueError(f"manifest lists no members for method {first!r}")
        objects = [objects_by_oid[oid] for oid in sorted(objects_by_oid)]
        catalogs = {
            name: UCatalog(np.asarray(values))
            for name, values in meta.get("catalogs", {}).items()
        }
        db = cls.create(
            objects,
            config,
            methods=method_names,
            catalog=catalogs or None,
            dim=dim,
        )
        cls._restore_learned(db, meta)
        db._epochs = {
            key: int(member["epoch"])
            for key, member in manifest["members"].items()
        }
        db._attach_wal(root, manifest["wal"])
        entries = db.wal.replay()
        db._replaying = True
        try:
            for entry in entries:
                db._apply_logged(entry)
        finally:
            db._replaying = False
        db.last_recovery = {"wal_entries": len(entries)}
        return db
