"""``ExecConfig`` — every execution knob of the engine in one dataclass.

PRs 1-4 grew four subsystems (executor, refinement engine, shard router,
filter kernel), each with its own constructor knobs and environment
overrides.  ``ExecConfig`` is the single place they all resolve:

* construction: ``page_size``, ``pool_capacity`` (0 = the paper's
  uncached accounting), ``mc_samples``/``seed`` (the shared Monte-Carlo
  estimator), ``shards``/``partitioner``/``prune``;
* execution: ``batched``, ``parallelism``, ``memoize``,
  ``dedupe_pages``, ``io_latency_seconds``, ``auto_observe`` (planner
  calibration);
* environment: :meth:`ExecConfig.from_env` reads every recognised
  ``REPRO_*`` variable exactly once (through :mod:`repro.env`) and warns
  about unrecognised ones.

The config is frozen: derive variants with :meth:`with_options` (a typed
:func:`dataclasses.replace`).  :meth:`paper_exact` is the preset that
pins the paper's accounting — capacity-0 buffer pool, one shard,
strictly serial per-query execution — which the equivalence tests hold
against the seed counters.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro import env as repro_env
from repro.uncertainty.montecarlo import AppearanceEstimator

__all__ = ["ExecConfig"]

_PARTITIONER_NAMES = ("str", "hash")
_EXECUTOR_NAMES = ("thread", "process")
_ON_FAULT_NAMES = ("fail", "degrade")


@dataclass(frozen=True)
class ExecConfig:
    """The engine's execution configuration (validated, immutable).

    Attributes:
        shards: child structures per access method (1 = monolithic).
        partitioner: ``"str"`` (spatial tiling) or ``"hash"``.
        prune: let the shard router skip provably disjoint shards.
        batched: run workloads through the cross-query
            :class:`~repro.exec.batch.BatchExecutor`; ``False`` executes
            query-at-a-time through the plain executor (the paper's
            accounting).
        parallelism: executor workers (1 = exact serial path) — threads
            for the default backend, forked processes for
            ``executor="process"``.
        executor: batch backend, ``"thread"`` (default; covers the
            serial path) or ``"process"`` (forked per-shard workers over
            shared-memory columns — see :mod:`repro.exec.mpexec`).
            Environment default via ``REPRO_EXECUTOR``.
        memoize: share ``(address, rect)`` P_app results across queries.
        dedupe_pages: fetch each candidate data page once per batch.
        io_latency_seconds: simulated per-page latency for the parallel
            fetch thread.
        pool_capacity: frames of the ARC buffer pool
            (:class:`~repro.storage.bufferpool.BufferPool`); 0 (the
            default) builds no pool — paper-exact uncached I/O.
        probe_bound: let the shard router stop probing once the
            cost-ordered cheapest shards provably satisfy the query
            (Observation-4 residual-probability bound for ranges,
            running best-worst distance bound for NN).  Answers are
            identical either way; only probe counts change.
        wal: durable storage mode.  :meth:`Database.save` writes an
            incremental directory archive (per-method / per-shard
            members, clean ones skipped) instead of one monolithic
            ``.npz``, and attaches a write-ahead log
            (:mod:`repro.storage.wal`): every ``insert``/``delete``/
            ``rebalance`` after the first save is fsync'd to the log
            before the in-memory mutation, and :meth:`Database.open`
            replays the log on top of the snapshot.  Off (the default)
            preserves the seed's single-archive persistence and I/O
            accounting exactly.  Environment default via ``REPRO_WAL``.
        reclaim: let each method's :class:`~repro.storage.pager.DataFile`
            reuse slots freed by ``delete`` (exact-size free list; one
            page write per reused slot) instead of growing append-only
            forever.  Off by default — the paper's byte and I/O
            accounting assumes strict append.  Environment default via
            ``REPRO_RECLAIM``.
        on_fault: what the runtime does with a recoverable execution
            fault (:class:`~repro.faults.FaultError`).  ``"fail"`` (the
            default) propagates the structured exception after cleaning
            up, leaving behavior byte-identical to the seed on the
            fault-free path.  ``"degrade"`` turns on the full resilience
            ladder: supervised fault-domain retries in the process pool,
            quarantine-and-scrub of corrupt pages, and per-batch
            process → thread → serial backend fallback — answers stay
            bit-identical, only throughput degrades.  Environment
            default via ``REPRO_ON_FAULT``.
        worker_timeout: per-command reply deadline (seconds) for the
            process backend's workers; ``0`` (the default) blocks
            forever exactly as the seed did, so a hung worker goes
            undetected but nothing else changes.  Environment default
            via ``REPRO_WORKER_TIMEOUT``.
        max_retries: bounded attempts a failed fault domain gets
            (worker respawn-and-resend rounds; transient-read retries
            use the storage layer's own bound).  Only consulted under
            ``on_fault="degrade"``.  Environment default via
            ``REPRO_MAX_RETRIES``.
        checksum: keep a crc32 per data page and verify it on every
            physical read (:class:`~repro.storage.pager.DataFile`
            integrity mode).  The crc header costs
            :data:`~repro.storage.layout.PAGE_CHECKSUM_BYTES` of packing
            capacity per page; off (the default) is byte-compatible with
            the seed.  Environment default via ``REPRO_CHECKSUM``.
        serve_host: bind address for :class:`repro.serve.QueryServer`
            (the query-service front-end).  Environment default via
            ``REPRO_SERVE_HOST``.
        serve_port: TCP port the server binds; ``0`` (the default) picks
            an ephemeral port (read the resolved one from
            ``QueryServer.port``).  Environment default via
            ``REPRO_SERVE_PORT``.
        max_inflight: admission-control bound of the query service —
            requests pending beyond this are shed with a typed ``BUSY``
            reply instead of growing an unbounded backlog.  Environment
            default via ``REPRO_MAX_INFLIGHT``.
        page_size: simulated page size in bytes.
        mc_samples: Monte-Carlo samples per P_app evaluation.
        seed: base RNG seed; per-object streams derive from
            ``(seed, oid)``, so equal configs give bit-identical answers.
        auto_observe: let the planner recalibrate its packing constant
            from executed workloads.
    """

    shards: int = 1
    partitioner: str = "str"
    prune: bool = True
    batched: bool = True
    parallelism: int = 1
    executor: str = "thread"
    memoize: bool = True
    dedupe_pages: bool = True
    io_latency_seconds: float = 0.0
    pool_capacity: int = 0
    probe_bound: bool = True
    wal: bool = False
    reclaim: bool = False
    on_fault: str = "fail"
    worker_timeout: float = 0.0
    max_retries: int = 2
    checksum: bool = False
    serve_host: str = "127.0.0.1"
    serve_port: int = 0
    max_inflight: int = 64
    page_size: int = 4096
    mc_samples: int = 10_000
    seed: int = 0
    auto_observe: bool = True

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.partitioner not in _PARTITIONER_NAMES:
            raise ValueError(
                f"unknown partitioner {self.partitioner!r}; "
                f"pick one of {_PARTITIONER_NAMES}"
            )
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if not self.batched and self.parallelism != 1:
            raise ValueError(
                "parallelism > 1 requires batched=True (the per-query "
                "executor is strictly serial)"
            )
        if self.executor not in _EXECUTOR_NAMES:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"pick one of {_EXECUTOR_NAMES}"
            )
        if self.executor == "process" and not self.batched:
            raise ValueError(
                "executor='process' requires batched=True (the process "
                "pool is a batch backend)"
            )
        if self.io_latency_seconds < 0:
            raise ValueError("io_latency_seconds must be non-negative")
        if self.pool_capacity < 0:
            raise ValueError("pool_capacity must be non-negative")
        if self.on_fault not in _ON_FAULT_NAMES:
            raise ValueError(
                f"unknown on_fault {self.on_fault!r}; "
                f"pick one of {_ON_FAULT_NAMES}"
            )
        if self.worker_timeout < 0:
            raise ValueError("worker_timeout must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not self.serve_host:
            raise ValueError("serve_host must be a non-empty bind address")
        if not 0 <= self.serve_port <= 65535:
            raise ValueError("serve_port must be in [0, 65535] (0 = ephemeral)")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.page_size < 256:
            raise ValueError("page_size must be at least 256 bytes")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")

    # ------------------------------------------------------------------
    # presets and variants
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, **overrides) -> "ExecConfig":
        """Resolve the configuration from the environment, once.

        Reads every recognised ``REPRO_*`` key through :mod:`repro.env`
        (the package's only ``os.environ`` accessor), warns about
        unrecognised ``REPRO_*`` keys, and applies ``overrides`` on top
        of the environment-derived fields.
        """
        repro_env.warn_unknown_keys()
        fields: dict = {
            "parallelism": repro_env.env_int("REPRO_SHARD_PARALLELISM", 1)
        }
        executor = repro_env.env_value("REPRO_EXECUTOR")
        if executor is not None and executor.strip():
            fields["executor"] = executor.strip().lower()
        bound = repro_env.env_value("REPRO_PROBE_BOUND")
        if bound is not None and bound.strip():
            fields["probe_bound"] = repro_env.env_flag("REPRO_PROBE_BOUND")
        if repro_env.env_flag("REPRO_WAL"):
            fields["wal"] = True
        if repro_env.env_flag("REPRO_RECLAIM"):
            fields["reclaim"] = True
        on_fault = repro_env.env_value("REPRO_ON_FAULT")
        if on_fault is not None and on_fault.strip():
            fields["on_fault"] = on_fault.strip().lower()
        timeout = repro_env.env_value("REPRO_WORKER_TIMEOUT")
        if timeout is not None and timeout.strip():
            fields["worker_timeout"] = float(timeout)
        retries = repro_env.env_value("REPRO_MAX_RETRIES")
        if retries is not None and retries.strip():
            fields["max_retries"] = int(retries)
        if repro_env.env_flag("REPRO_CHECKSUM"):
            fields["checksum"] = True
        host = repro_env.env_value("REPRO_SERVE_HOST")
        if host is not None and host.strip():
            fields["serve_host"] = host.strip()
        port = repro_env.env_value("REPRO_SERVE_PORT")
        if port is not None and port.strip():
            fields["serve_port"] = int(port)
        inflight = repro_env.env_value("REPRO_MAX_INFLIGHT")
        if inflight is not None and inflight.strip():
            fields["max_inflight"] = int(inflight)
        fields.update(overrides)
        return cls(**fields)

    @classmethod
    def paper_exact(cls) -> "ExecConfig":
        """The frozen paper-accounting preset.

        Capacity-0 buffer pool, one shard, strictly serial
        query-at-a-time execution with no cross-query memoisation —
        node accesses, data-page reads and P_app computation counts
        reproduce the seed implementation exactly.
        """
        return cls(
            shards=1,
            batched=False,
            parallelism=1,
            memoize=False,
            dedupe_pages=False,
            pool_capacity=0,
            auto_observe=False,
        )

    def with_options(self, **changes) -> "ExecConfig":
        """A modified copy (the frozen dataclass's update surface)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # derived wiring
    # ------------------------------------------------------------------
    @property
    def sharded(self) -> bool:
        return self.shards > 1

    def estimator(self) -> AppearanceEstimator:
        """A fresh Monte-Carlo estimator under this config's sampling."""
        return AppearanceEstimator(n_samples=self.mc_samples, seed=self.seed)

    def refinement_engine(self, *, cache_capacity: int = 4096):
        """A fresh refinement engine under this config's sampling."""
        from repro.exec.refine import RefinementEngine

        return RefinementEngine(
            n_samples=self.mc_samples, seed=self.seed, cache_capacity=cache_capacity
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """A JSON document reconstructing this config (for archives)."""
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, doc: str) -> "ExecConfig":
        fields = json.loads(doc)
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in fields.items() if k in known})

    def summary(self) -> str:
        """One human line: only the fields that differ from the defaults."""
        default = ExecConfig()
        diffs = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != getattr(default, f.name)
        ]
        return f"ExecConfig({', '.join(diffs) if diffs else 'defaults'})"
