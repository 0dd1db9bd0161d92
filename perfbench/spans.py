"""Span recorder for the traced run, installed from the benchmark's files.

Each wrapper replaces a public function on the name its caller looks up
(a class attribute, or a module global the calling module imported), so
the program runs unmodified.  A span records its name, start, end, parent
span and request id; spans stay in memory and are written out as JSON
lines when the run ends.  A layer's self time is its span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types

# (span name, module, class or None for a module global, attribute)
RANGE_TARGETS = [
    ("api.Database.run", "repro.api.database", "Database", "run"),
    ("api.Database.insert", "repro.api.database", "Database", "insert"),
    ("api.Database.delete", "repro.api.database", "Database", "delete"),
    ("exec.BatchExecutor.run", "repro.exec.batch", "BatchExecutor", "run"),
    ("exec.refine_with_engine", "repro.exec.batch", None, "refine_with_engine"),
    ("core.UTree.filter_candidates", "repro.core.utree", "UTree", "filter_candidates"),
    ("core.classify_records", "repro.core.utree", None, "classify_records"),
    ("core.compute_pcrs", "repro.core.utree", None, "compute_pcrs"),
    ("core.fit_cfbs", "repro.core.utree", None, "fit_cfbs"),
    ("lp.solve_lp", "repro.core.cfb", None, "solve_lp"),
    ("index.RStarEngine.insert", "repro.index.engine", "RStarEngine", "insert"),
    ("index.RStarEngine.delete", "repro.index.engine", "RStarEngine", "delete"),
    ("uncertainty.SampleCache.get", "repro.uncertainty.montecarlo", "SampleCache", "get"),
    ("storage.DataFile.read_page", "repro.storage.pager", "DataFile", "read_page"),
    ("storage.WriteAheadLog.commit", "repro.storage.wal", "WriteAheadLog", "commit"),
]

SERVER_TARGETS = [
    ("serve.recv_frame", "repro.serve.server", None, "recv_frame"),
    ("serve.send_frame", "repro.serve.server", None, "send_frame"),
    ("serve.AdmissionQueue.submit", "repro.serve.queue", "AdmissionQueue", "submit"),
    ("codec.spec_from_doc", "repro.serve.server", None, "spec_from_doc"),
    ("codec.result_doc", "repro.serve.server", None, "result_doc"),
    ("codec.density_from_descriptor", "repro.serve.server", None, "density_from_descriptor"),
]

CLIENT_TARGETS = [
    ("codec.spec_doc", "repro.serve.client", None, "spec_doc"),
    ("codec.result_from_doc", "repro.serve.client", None, "result_from_doc"),
    ("codec.density_descriptor", "repro.serve.client", None, "density_descriptor"),
]


class Tracer:
    """In-memory spans: ``[sid, name, start, end, parent, request, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- request ids -------------------------------------------------------
    @property
    def request(self) -> int:
        return getattr(self._local, "request", -1)

    @request.setter
    def request(self, value: int) -> None:
        self._local.request = value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` may return a request id to adopt for the
        span; ``after(result, args)`` returns a dict of span attributes.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                adopted = before(args, kwargs)
                if adopted is not None:
                    tracer.request = adopted
            stack = tracer._stack()
            span = [next(tracer._ids), name, time.perf_counter(), None,
                    stack[-1] if stack else -1, tracer.request, None]
            stack.append(span[0])
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                span[6] = after(result, args)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def install(self, targets, hooks: dict | None = None) -> None:
        import importlib

        hooks = hooks or {}
        for name, module, owner, attr in targets:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            self.wrap(target, attr, name, **hooks.get(name, {}))

    def trace_json(self, module_name: str) -> None:
        """Trace the JSON encode/decode a protocol module looks up."""
        import importlib
        import json as _json

        module = importlib.import_module(module_name)
        proxy = types.SimpleNamespace(
            dumps=_json.dumps, loads=_json.loads, JSONDecodeError=_json.JSONDecodeError
        )
        self.wrap(proxy, "dumps", "codec.json.dumps")
        self.wrap(proxy, "loads", "codec.json.loads")
        self._installed.append((module, "json", module.json))
        module.json = proxy

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def records(self) -> list[dict]:
        return [
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "request": req, "attrs": attrs}
            for sid, name, start, end, parent, req, attrs in list(self.spans)
        ]


def write(path: str, records: list[dict], extra: dict | None = None) -> None:
    """Spans as JSON lines, after an optional ``{"extra": ...}`` line."""
    with open(path, "w", encoding="utf-8") as fh:
        if extra is not None:
            fh.write(json.dumps({"extra": extra}) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")


def load(path: str) -> tuple[list[dict], dict]:
    spans, extra = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if "extra" in doc:
                extra = doc["extra"]
            else:
                spans.append(doc)
    return spans, extra


class Breakdown:
    """Totals over spans: count, total time and self time per name."""

    def __init__(self, spans: list[dict], window: tuple[float, float] | None = None):
        if window is not None:
            lo, hi = window
            spans = [s for s in spans if s["start"] >= lo and s["end"] <= hi]
        self.spans = spans
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] >= 0:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        for s in spans:
            name = s["name"]
            duration = s["end"] - s["start"]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + (
                duration - child_time.get(s["id"], 0.0)
            )

    def of(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]
