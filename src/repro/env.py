"""The single ``REPRO_*`` environment-resolution point.

Every runtime knob this library reads from the environment goes through
this module: :func:`env_value` is the one ``os.environ`` accessor, and
:data:`KNOWN_ENV_KEYS` is the registry of every recognised key.  Nothing
else in the package (or its tests and benchmarks) touches ``os.environ``
directly, so a typo'd override — ``REPRO_FITLER_KERNEL=off`` silently
doing nothing — is caught by :func:`warn_unknown_keys`, which
:meth:`repro.api.ExecConfig.from_env` runs on every snapshot.

This module sits below everything (it imports only the standard
library), so the core structures, the storage layer, the experiment
harness and the ``repro.api`` facade can all share it without cycles.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Mapping

__all__ = [
    "KNOWN_ENV_KEYS",
    "ENV_PREFIX",
    "env_flag",
    "env_int",
    "env_value",
    "snapshot",
    "warn_unknown_keys",
]

ENV_PREFIX = "REPRO_"

# Every REPRO_* key the code base recognises, with what consumes it.
KNOWN_ENV_KEYS: dict[str, str] = {
    "REPRO_SHARD_PARALLELISM": "executor thread-pool width (ExecConfig.parallelism)",
    "REPRO_EXECUTOR": "batch backend thread|process (ExecConfig.executor)",
    "REPRO_FULL_SCALE": "paper-scale experiment parameters (experiments.config.active_scale)",
    "REPRO_PROBE_BOUND": "latency-bounded shard probing on/off (ExecConfig.probe_bound)",
    "REPRO_WAL": "write-ahead-logged durable saves on/off (ExecConfig.wal)",
    "REPRO_RECLAIM": "data-file free-slot reuse on/off (ExecConfig.reclaim)",
    "REPRO_ON_FAULT": "fault handling fail|degrade (ExecConfig.on_fault)",
    "REPRO_WORKER_TIMEOUT": "process-worker command deadline seconds (ExecConfig.worker_timeout)",
    "REPRO_MAX_RETRIES": "fault-domain retry budget (ExecConfig.max_retries)",
    "REPRO_CHECKSUM": "crc32 page checksums on/off (ExecConfig.checksum)",
    "REPRO_SERVE_HOST": "query-service bind address (ExecConfig.serve_host)",
    "REPRO_SERVE_PORT": "query-service TCP port, 0 = ephemeral (ExecConfig.serve_port)",
    "REPRO_MAX_INFLIGHT": "query-service admission bound (ExecConfig.max_inflight)",
    "REPRO_FAULT_EXHAUSTIVE": "exhaustive end-to-end crash sweep in the fault suite",
    "REPRO_SKIP_PERF_ASSERT": "skip wall-clock perf contracts (CI correctness matrix)",
    "REPRO_BENCH_SAMPLES": "Monte-Carlo budget for benchmark smoke runs",
    "REPRO_BENCH_ARTIFACT": "refinement-engine benchmark artifact path",
    "REPRO_SHARD_ARTIFACT": "shard-scaling benchmark artifact path",
    "REPRO_MULTICORE_ARTIFACT": "multicore benchmark artifact path",
    "REPRO_STORAGE_ARTIFACT": "storage-engine benchmark artifact path",
    "REPRO_RESILIENCE_ARTIFACT": "resilience benchmark artifact path",
    "REPRO_SERVE_ARTIFACT": "query-service load-harness artifact path",
}

_TRUE_WORDS = ("1", "true", "yes", "on")


def env_value(key: str, default: str | None = None) -> str | None:
    """The raw value of one recognised ``REPRO_*`` key.

    Unknown keys are a programming error here (the registry exists so the
    warning in :func:`warn_unknown_keys` stays trustworthy).
    """
    if key not in KNOWN_ENV_KEYS:
        raise KeyError(
            f"{key!r} is not a registered REPRO_* key; add it to "
            "repro.env.KNOWN_ENV_KEYS"
        )
    return os.environ.get(key, default)


def env_flag(key: str, default: bool = False) -> bool:
    """A recognised key interpreted as a boolean flag."""
    raw = env_value(key)
    if raw is None:
        return default
    return raw.strip().lower() in _TRUE_WORDS


def env_int(key: str, default: int) -> int:
    """A recognised key interpreted as an integer."""
    raw = env_value(key)
    if raw is None or not raw.strip():
        return default
    return int(raw)


def snapshot(environ: Mapping[str, str] | None = None) -> dict[str, str]:
    """All ``REPRO_*`` keys currently set (known or not)."""
    source = os.environ if environ is None else environ
    return {k: v for k, v in source.items() if k.startswith(ENV_PREFIX)}


def warn_unknown_keys(environ: Mapping[str, str] | None = None) -> list[str]:
    """Warn about set ``REPRO_*`` keys the code base does not recognise.

    Returns the offending keys (for tests).  A misspelt override that
    silently changes nothing is the worst kind of config bug, so
    :meth:`repro.api.ExecConfig.from_env` calls this on every resolve.
    """
    unknown = sorted(k for k in snapshot(environ) if k not in KNOWN_ENV_KEYS)
    if unknown:
        known = ", ".join(sorted(KNOWN_ENV_KEYS))
        warnings.warn(
            f"unrecognised REPRO_* environment keys ignored: {', '.join(unknown)} "
            f"(known keys: {known})",
            UserWarning,
            stacklevel=3,
        )
    return unknown
