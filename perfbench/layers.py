"""Per-layer metrics of a traced run, from spans plus the program's counters.

Which end-to-end metric each layer metric should move is listed in the
README.  Layers a workload does not cross (the wire on an in-process
workload, the WAL without ``wal=True``) report 0.
"""

from __future__ import annotations

import statistics
import threading

from spans import CLIENT_TARGETS, RANGE_TARGETS, SERVER_TARGETS, Breakdown, Tracer

PER_LAYER = [
    ("api.run_overhead_ms_per_call", "ms"),
    ("exec.filter_ms_per_query", "ms"),
    ("exec.fetch_ms_per_query", "ms"),
    ("exec.refine_ms_per_query", "ms"),
    ("exec.pages_saved_per_query", "count"),
    ("exec.memo_hit_rate", "ratio"),
    ("exec.papp_per_refine_ms", "1/ms"),
    ("core.node_accesses_per_query", "count"),
    ("core.candidates_per_query", "count"),
    ("core.validated_per_query", "count"),
    ("core.pruned_per_query", "count"),
    ("core.refine_yield", "ratio"),
    ("core.classify_ms_per_query", "ms"),
    ("core.fit_ms_per_insert", "ms"),
    ("lp.solves_per_insert", "count"),
    ("index.insert_ms_per_insert", "ms"),
    ("index.delete_ms_per_delete", "ms"),
    ("index.update_io_per_write", "count"),
    ("uncertainty.cloud_draws_per_query", "count"),
    ("uncertainty.sample_cache_hit_rate", "ratio"),
    ("uncertainty.draw_ms_per_draw", "ms"),
    ("uncertainty.resident_mb", "MB"),
    ("storage.data_page_reads_per_query", "count"),
    ("storage.page_writes_per_write", "count"),
    ("storage.wal_bytes_per_write", "B"),
    ("storage.wal_append_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.codec_ms_per_request", "ms"),
    ("serve.wire_ms_per_request", "ms"),
    ("serve.batch_requests_avg", "count"),
]

_SERVER_CODEC_IN_HANDLER = (
    "codec.spec_from_doc", "codec.result_doc", "codec.density_from_descriptor",
)


def _cost(result, _args):
    if result is None or not hasattr(result, "io_reads"):
        return None
    return {"reads": result.io_reads, "writes": result.io_writes}


def _first_spec(_result, args):
    return {"key": id(args[1][0])}


def _hooks() -> dict:
    """Span attributes: update costs, WAL bytes, cache misses, request keys."""
    misses = threading.local()

    def before_get(args, _kwargs):
        misses.value = args[0].misses

    def after_get(_result, args):
        return {"miss": args[0].misses > misses.value}

    return {
        "api.Database.insert": {"after": _cost},
        "api.Database.delete": {"after": _cost},
        "api.Database.run": {"after": _first_spec},
        "serve.AdmissionQueue.submit": {"after": _first_spec},
        "storage.WriteAheadLog.commit": {"after": lambda n, _a: {"bytes": n}},
        "uncertainty.SampleCache.get": {"before": before_get, "after": after_get},
    }


def load_tracer() -> Tracer:
    tracer = Tracer()
    tracer.install(RANGE_TARGETS + CLIENT_TARGETS, _hooks())
    tracer.trace_json("repro.serve.protocol")
    return tracer


def server_tracer() -> Tracer:
    tracer = Tracer()

    def adopt_request(result, _args):
        if isinstance(result, dict) and isinstance(result.get("id"), int):
            tracer.request = result["id"]
        return None

    hooks = _hooks()
    hooks["serve.recv_frame"] = {"after": adopt_request}
    tracer.install(RANGE_TARGETS + SERVER_TARGETS, hooks)
    tracer.trace_json("repro.serve.protocol")
    return tracer


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(
    *,
    spans: list[dict],
    window: tuple[float, float],
    stats: list,
    reports: int,
    resident_bytes: int,
    client_spans: list[dict] | None = None,
    roundtrip_s: float = 0.0,
    requests: int = 0,
    batch_requests_avg: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``spans`` are the spans of the process that holds the database (set-up
    included); ``window`` bounds the measured phase; ``stats`` are the
    ``QueryStats`` of the measured queries.  For ``serve-mixed``,
    ``client_spans`` are the load process's spans and ``roundtrip_s`` and
    ``requests`` its wire round trips.
    """
    every = Breakdown(spans)
    b = Breakdown(spans, window)
    nq = len(stats)
    papp = sum(s.prob_computations for s in stats)
    memo = sum(s.memoized_probs for s in stats)
    logical_pages = sum(s.data_page_reads for s in stats)
    hits = sum(s.sample_cache_hits for s in stats)
    misses = sum(s.sample_cache_misses for s in stats)
    validated = sum(s.validated_directly for s in stats)
    answers = sum(s.result_count for s in stats)

    refine_ids = {s["id"] for s in b.of("exec.refine_with_engine")}
    fetch_in_refine = sum(
        s["end"] - s["start"]
        for s in b.of("storage.DataFile.read_page")
        if s["parent"] in refine_ids
    )
    refine_s = b.total.get("exec.refine_with_engine", 0.0) - fetch_in_refine
    inserts = every.count.get("core.compute_pcrs", 0)
    fit_s = every.total.get("core.compute_pcrs", 0.0) + every.total.get("core.fit_cfbs", 0.0)
    costs = [
        s["attrs"] for s in b.of("api.Database.insert") + b.of("api.Database.delete")
        if s["attrs"]
    ]
    draws = [s["end"] - s["start"] for s in b.of("uncertainty.SampleCache.get")
             if s["attrs"] and s["attrs"]["miss"]]
    wal = b.of("storage.WriteAheadLog.commit")

    out = {
        "api.run_overhead_ms_per_call": 1e3 * _per(
            b.self_time.get("api.Database.run", 0.0), b.count.get("api.Database.run", 0)
        ),
        "exec.filter_ms_per_query": 1e3 * _per(
            b.total.get("core.UTree.filter_candidates", 0.0), nq
        ),
        "exec.fetch_ms_per_query": 1e3 * _per(
            b.total.get("storage.DataFile.read_page", 0.0), nq
        ),
        "exec.refine_ms_per_query": 1e3 * _per(refine_s, nq),
        "exec.pages_saved_per_query": _per(
            logical_pages - b.count.get("storage.DataFile.read_page", 0), nq
        ),
        "exec.memo_hit_rate": _per(memo, memo + papp),
        "exec.papp_per_refine_ms": _per(papp, 1e3 * refine_s),
        "core.node_accesses_per_query": _per(sum(s.node_accesses for s in stats), nq),
        "core.candidates_per_query": _per(papp + memo, nq),
        "core.validated_per_query": _per(validated, nq),
        "core.pruned_per_query": _per(sum(s.pruned for s in stats), nq),
        "core.refine_yield": _per(answers - validated, papp + memo),
        "core.classify_ms_per_query": 1e3 * _per(
            b.total.get("core.classify_records", 0.0), nq
        ),
        "core.fit_ms_per_insert": 1e3 * _per(fit_s, inserts),
        "lp.solves_per_insert": _per(every.count.get("lp.solve_lp", 0), inserts),
        "index.insert_ms_per_insert": 1e3 * _per(
            every.total.get("index.RStarEngine.insert", 0.0),
            every.count.get("index.RStarEngine.insert", 0),
        ),
        "index.delete_ms_per_delete": 1e3 * _per(
            b.total.get("index.RStarEngine.delete", 0.0),
            b.count.get("index.RStarEngine.delete", 0),
        ),
        "index.update_io_per_write": _per(
            sum(c["reads"] + c["writes"] for c in costs), reports
        ),
        "uncertainty.cloud_draws_per_query": _per(misses, nq),
        "uncertainty.sample_cache_hit_rate": _per(hits, hits + misses),
        "uncertainty.draw_ms_per_draw": 1e3 * _per(sum(draws), len(draws)),
        "uncertainty.resident_mb": resident_bytes / 2**20,
        "storage.data_page_reads_per_query": _per(logical_pages, nq),
        "storage.page_writes_per_write": _per(sum(c["writes"] for c in costs), reports),
        "storage.wal_bytes_per_write": _per(
            sum(s["attrs"]["bytes"] for s in wal), reports
        ),
        "storage.wal_append_ms_p50": 1e3 * _p50([s["end"] - s["start"] for s in wal]),
        "serve.queue_wait_ms_p50": 0.0,
        "serve.codec_ms_per_request": 0.0,
        "serve.wire_ms_per_request": 0.0,
        "serve.batch_requests_avg": batch_requests_avg,
    }
    if client_spans is not None:
        out.update(_serve_layers(b, Breakdown(client_spans, window), roundtrip_s, requests))
    return out


def _serve_layers(server: Breakdown, client: Breakdown, roundtrip_s: float, requests: int):
    """Queue wait, codec and wire time of the measured wire requests."""
    submitted: dict[int, list[float]] = {}
    for s in server.of("serve.AdmissionQueue.submit"):
        submitted.setdefault(s["attrs"]["key"], []).append(s["end"])
    waits = []
    for run in server.of("api.Database.run"):
        before = [t for t in submitted.get(run["attrs"]["key"], []) if t <= run["start"]]
        if before:
            waits.append(run["start"] - max(before))
    # The connection thread alternates recv_frame and send_frame; the
    # server handles a request between the end of one and the start of
    # the next.
    frames = sorted(server.of("serve.recv_frame") + server.of("serve.send_frame"),
                    key=lambda s: s["start"])
    handle_s = sum(
        nxt["start"] - cur["end"]
        for cur, nxt in zip(frames, frames[1:])
        if cur["name"] == "serve.recv_frame" and nxt["name"] == "serve.send_frame"
    )
    server_codec = sum(t for n, t in server.total.items() if n.startswith("codec."))
    in_handler = sum(server.total.get(n, 0.0) for n in _SERVER_CODEC_IN_HANDLER)
    client_codec = sum(t for n, t in client.total.items() if n.startswith("codec."))
    return {
        "serve.queue_wait_ms_p50": 1e3 * _p50(waits),
        "serve.codec_ms_per_request": 1e3 * _per(server_codec + client_codec, requests),
        "serve.wire_ms_per_request": 1e3 * _per(
            roundtrip_s - handle_s - (server_codec - in_handler) - client_codec, requests
        ),
    }
