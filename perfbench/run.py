"""One benchmark command for the U-tree reproduction.

    python3 perfbench/run.py --workload range-batch --seed 1 --seconds 30 --trace 0

Runs one workload (``range-batch`` or ``serve-mixed``;
see ``perfbench/README.md``) under the default ``ExecConfig``, checks
every range answer against the independent oracle of ``oracle.py`` and
prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and the metrics — every end-to-end metric with ``--trace 0``,
every per-layer metric (from a traced run) with ``--trace 1``.

The load is one closed-loop client in one thread.  A run sets up, warms
up with one untimed round, then executes whole rounds until ``--seconds``
have passed (and at least ``MIN_ROUNDS``), then checks the answers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import data
import layers
import oracle
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Rounds every run completes; io_per_query and papp_per_query count the
# queries of exactly these rounds, so they repeat for a seed.
MIN_ROUNDS = 8
# Slack on each side of the threshold left to Monte-Carlo error: about 5
# standard errors of a 10,000-sample estimate at P_app = 0.5.
DELTA = 0.03
# The read-latency tail percentile of each workload: at least 10
# requests lie beyond it in every 30 s reference run (perfbench/README.md).
TAIL = {"range-batch": 90.0, "serve-mixed": 98.0}
# The re-report tail percentile: both workloads acknowledge 600+
# re-reports in a 30 s run.
WRITE_TAIL = 98.0

END_TO_END = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("writes_per_s", "1/s"),
    ("io_per_query", "count"),
    ("papp_per_query", "count"),
    ("peak_rss_mb", "MB"),
]
# Measured in every untraced run and printed on the line before the
# result, but not end-to-end metrics: their spread over seeds is the
# program's (perfbench/README.md, "Choices").
UNGATED = {"write_p50_ms": "ms", "write_tail_ms": "ms"}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class InProcess:
    """The load's view of a ``Database`` in this process."""

    def __init__(self, db):
        self.db = db

    def query(self, specs):
        out = self.db.run(specs)
        return [(r.object_ids, r.stats) for r in out.results]

    def rereport(self, obj) -> bool:
        return self.db.delete(obj.oid) is not None and self.db.insert(obj) is not None


class OverWire:
    """The load's view of the served database: one ``ServeClient``."""

    def __init__(self, client):
        self.client = client

    def query(self, specs):
        out = self.client.run(specs)
        return [(r.object_ids, r.stats) for r in out.results]

    def rereport(self, obj) -> bool:
        return bool(self.client.delete(obj.oid)) and self.client.insert(obj) == 1


class Load:
    """Executes rounds and keeps what the checks and metrics need."""

    def __init__(self, shape, dataset, seed: int, target):
        self.shape = shape
        self.dataset = dataset
        self.seed = seed
        self.target = target
        self.positions = dataset.centres.copy()
        self.log: list[tuple] = []  # ("q", lo, hi, pq, ids, measured) | ("w", oid, centre)
        self.read_s: list[float] = []
        self.write_s: list[float] = []
        self.stats: list = []  # QueryStats of measured queries
        self.counted: list = []  # QueryStats of the first MIN_ROUNDS rounds
        self.round_s: list[float] = []  # wall time of each measured round
        self.queries = 0
        self.reports = 0

    def round(self, index: int, measured: bool, counted: bool) -> None:
        from repro import RangeSpec, Rect

        queries, reports = data.round_ops(self.shape, self.dataset, self.seed, index)
        specs = [RangeSpec(Rect.from_center(q.centre, q.side / 2.0), q.threshold)
                 for q in queries]
        size = self.shape.batch_size
        requests = [specs[i:i + size] for i in range(0, len(specs), size)]
        pending = list(reports)
        for r, chunk in enumerate(requests + [None]):
            while pending and pending[0].after_request <= r:
                self._rereport(pending.pop(0), measured)
            if chunk is None:
                break
            start = time.perf_counter()
            answers = self.target.query(chunk)
            elapsed = time.perf_counter() - start
            if measured:
                self.read_s.append(elapsed)
                self.queries += len(chunk)
            for spec, (ids, stats) in zip(chunk, answers):
                self.log.append(("q", spec.rect.lo, spec.rect.hi, spec.threshold,
                                 list(ids), measured))
                if measured:
                    self.stats.append(stats)
                if counted:
                    self.counted.append(stats)

    def _rereport(self, report, measured: bool) -> None:
        centre = data.moved(self.positions[report.oid], report.displacement)
        obj = data.make_object(report.oid, centre, self.dataset.pdf)
        start = time.perf_counter()
        ok = self.target.rereport(obj)
        elapsed = time.perf_counter() - start
        if not ok:
            raise RuntimeError(f"re-report of object {report.oid} was not acknowledged")
        self.positions[report.oid] = centre
        self.log.append(("w", report.oid, centre))
        if measured:
            self.write_s.append(elapsed)
            self.reports += 1

    def measure(self, seconds: float) -> tuple[float, float]:
        """Warm-up round, then whole rounds for ``seconds``; the phase window."""
        self.round(0, measured=False, counted=False)
        start = time.perf_counter()
        index = 1
        while index <= MIN_ROUNDS or time.perf_counter() - start < seconds:
            began = time.perf_counter()
            self.round(index, measured=True, counted=index <= MIN_ROUNDS)
            self.round_s.append(time.perf_counter() - began)
            index += 1
        return start, time.perf_counter()

    def rates(self) -> tuple[float, float]:
        """Queries and re-reports per second of the median round.

        Rounds hold equal work, and the median ignores a round that
        another process sharing the CPUs slowed down.
        """
        per_round = statistics.median(self.round_s) * len(self.round_s)
        return self.queries / per_round, self.reports / per_round

    def wrong_answers(self) -> int:
        """Measured queries whose answer the oracle refutes."""
        sigma = data.SIGMA if self.dataset.pdf == "congau" else None
        positions = self.dataset.centres.copy()
        wrong = 0
        for entry in self.log:
            if entry[0] == "w":
                positions[entry[1]] = entry[2]
                continue
            _, lo, hi, pq, ids, measured = entry
            if not measured:
                continue
            missing, extra = oracle.violations(
                positions, data.RADIUS, sigma, lo, hi, pq, ids, DELTA
            )
            if missing or extra:
                wrong += 1
                print(f"wrong answer: rect {lo}-{hi} pq {pq}: missing {missing[:5]}, "
                      f"returned below threshold {extra[:5]}", file=sys.stderr)
        return wrong


def end_to_end(workload: str, load: Load, setup_s: float,
               peak_rss_mb: float) -> dict[str, float]:
    counted = load.counted
    qps, writes_per_s = load.rates()
    return {
        "setup_s": setup_s,
        "qps": qps,
        "latency_p50_ms": 1e3 * percentile(load.read_s, 50),
        "latency_tail_ms": 1e3 * percentile(load.read_s, TAIL[workload]),
        "writes_per_s": writes_per_s,
        "io_per_query": sum(s.total_io for s in counted) / len(counted),
        "papp_per_query": sum(s.prob_computations for s in counted) / len(counted),
        "peak_rss_mb": peak_rss_mb,
    }


def ungated(load: Load) -> dict[str, float]:
    return {
        "write_p50_ms": 1e3 * percentile(load.write_s, 50),
        "write_tail_ms": 1e3 * percentile(load.write_s, WRITE_TAIL),
    }


def run_in_process(workload: str, seed: int, seconds: float, tracing: bool):
    from repro import Database, ExecConfig, RefinementEngine

    tracer = layers.load_tracer() if tracing else None
    shape = data.SHAPES[workload]
    dataset = data.dataset(shape.dataset)
    start = time.perf_counter()
    objects = data.objects(dataset)
    db = Database.create(objects, ExecConfig())
    setup_s = time.perf_counter() - start
    cache = RefinementEngine.for_method(db.access_method()).cache
    # The working set fits the cache: draw every cloud once, as a
    # long-running process would hold them.
    cache.prewarm((o.pdf, o.oid) for o in objects)
    load = Load(shape, dataset, seed, InProcess(db))
    t0, t1 = load.measure(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        records = tracer.records()
        _write_spans(records, workload, seed, "load")
        metrics = layers.per_layer(
            spans=records, window=(t0, t1), stats=load.stats, reports=load.reports,
            resident_bytes=cache.resident_bytes,
        )
        units = dict(layers.PER_LAYER)
        _traced_summary(load)
    else:
        metrics = end_to_end(workload, load, setup_s, peak_rss_mb)
        units = dict(END_TO_END)
    db.close()
    return load, metrics, units, 0


def run_served(workload: str, seed: int, seconds: float, tracing: bool):
    from repro import Database, Rect, ServeClient

    shape = data.SHAPES[workload]
    dataset = data.dataset(shape.dataset)
    work = os.path.join(ROOT, ".perfbench_tmp", f"serve-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    archive = os.path.join(work, "db")
    span_file = os.path.join(work, "server-spans.jsonl") if tracing else ""
    tracer = layers.load_tracer() if tracing else None
    lost = 0
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "server.py"), "--dir", archive,
         "--dataset", shape.dataset, "--spans", span_file],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
    )
    try:
        port = int(proc.stdout.readline())
        client = ServeClient("127.0.0.1", port, timeout=120.0)
        client.ping()
        setup_s = time.perf_counter() - start
        if proc.stdout.readline().strip() != b"warm":
            raise RuntimeError("the server did not draw its sample clouds")
        load = Load(shape, dataset, seed, OverWire(client))
        t0, t1 = load.measure(seconds)
        batch_avg = client.stats()["queue"]["avg_batch_requests"]
        peak_rss_mb = _peak_rss_mb(proc.pid)
        if span_file:
            proc.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 60.0
            while not os.path.exists(span_file) and time.monotonic() < deadline:
                time.sleep(0.05)
        client.close()
    finally:
        # The crash the durability check recovers from.
        proc.kill()
        proc.wait()
    # Every acknowledged re-report must survive SIGKILL + reopen.
    reopened = Database.open(archive)
    try:
        moved = {entry[1] for entry in load.log if entry[0] == "w"}
        if len(reopened) != len(dataset.centres):
            lost += len(moved)
        else:
            for oid in sorted(moved):
                c = load.positions[oid]
                box = Rect(c - data.RADIUS - 1e-6, c + data.RADIUS + 1e-6)
                if reopened.probabilities(box, [oid])[oid] != 1.0:
                    lost += 1
    finally:
        reopened.close()
    if tracer is not None:
        tracer.uninstall()
        server_spans, extra = spans.load(span_file)
        client_spans = tracer.records()
        _write_spans(server_spans, workload, seed, "server")
        _write_spans(client_spans, workload, seed, "load")
        metrics = layers.per_layer(
            spans=server_spans, window=(t0, t1), stats=load.stats,
            reports=load.reports, resident_bytes=extra.get("resident_bytes", 0),
            client_spans=client_spans, roundtrip_s=sum(load.read_s) + sum(load.write_s),
            requests=len(load.read_s) + 2 * len(load.write_s),
            batch_requests_avg=batch_avg,
        )
        units = dict(layers.PER_LAYER)
        _traced_summary(load)
    else:
        metrics = end_to_end(workload, load, setup_s, peak_rss_mb)
        units = dict(END_TO_END)
    shutil.rmtree(work, ignore_errors=True)
    return load, metrics, units, lost


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def _write_spans(records, workload: str, seed: int, process: str) -> None:
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    spans.write(os.path.join(out, f"spans-{workload}-seed{seed}-{process}.jsonl"), records)


def _traced_summary(load: Load) -> None:
    # Compared with the untraced qps, this gives the tracing overhead.
    qps, writes_per_s = load.rates()
    print(f"traced: {qps:.2f} qps, {writes_per_s:.2f} writes/s, "
          f"{len(load.round_s)} rounds")


RUNNERS = {
    "range-batch": run_in_process,
    "serve-mixed": run_served,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    load, metrics, units, lost = RUNNERS[args.workload](
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    wrong = load.wrong_answers()
    attempted = load.queries + load.reports
    failed = wrong + lost
    if not args.trace:
        print("ungated: " + json.dumps(
            {name: {"value": v, "unit": UNGATED[name]} for name, v in ungated(load).items()}
        ))
    # A wrong answer or a lost acknowledged re-report is a failed
    # operation, and any failed operation makes the run incorrect.
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
