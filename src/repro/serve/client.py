"""The wire client: the ``Database`` verbs over a socket.

:class:`ServeClient` speaks the protocol of :mod:`repro.serve.protocol`
to a :class:`~repro.serve.server.QueryServer` and exposes the same
query surface as the in-process facade — ``run`` / ``query`` /
``nearest`` / ``insert`` / ``delete`` / ``explain`` — returning the same
typed :class:`~repro.api.specs.Result` objects, so code written against
``Database`` ports to the served deployment by swapping the handle.
Served answers are bit-identical to in-process ones (the server runs
the same engine; ``tests/test_serve.py`` pins ids *and* P_app).

One client is one connection with synchronous request/reply framing;
use one client per thread (clients are cheap — the concurrency story
lives server-side, where the admission queue batches across them).

Typed failures: the server's error replies surface as
:class:`ServeError` (``.code`` from the protocol's vocabulary), with
:class:`BusyError` for admission-control shedding so load harnesses can
back off on exactly that.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field

from repro.api.specs import NearestSpec, QuerySpec, RangeSpec, Result
from repro.serve import protocol
from repro.serve.protocol import (
    recv_frame,
    request,
    result_from_doc,
    send_frame,
    spec_doc,
)
from repro.storage.serialize import density_descriptor
from repro.uncertainty.objects import UncertainObject

__all__ = ["BusyError", "ServeClient", "ServeError", "ServedRun"]


class ServeError(Exception):
    """A typed error reply from the server."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class BusyError(ServeError):
    """The admission queue shed this request (back off and retry)."""


@dataclass
class ServedRun:
    """One served batch: typed results plus optional per-result P_app maps."""

    results: list[Result] = field(default_factory=list)
    # Parallel to ``results``: {oid: P_app} for range specs when the
    # batch was requested with ``probs=True``, else None per slot.
    probs: list[dict[int, float] | None] = field(default_factory=list)

    def answers(self) -> list[list[int]]:
        return [r.object_ids for r in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> Result:
        return self.results[index]


class ServeClient:
    """A connected client session (context-manager friendly)."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
    ):
        self.host = host
        self.port = port
        self._max_frame_bytes = max_frame_bytes
        self._req_id = 0
        self._sock = socket.create_connection((host, port), timeout=timeout)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _call(self, verb: str, body: dict | None = None) -> dict:
        self._req_id += 1
        send_frame(self._sock, request(verb, body, req_id=self._req_id))
        reply = recv_frame(self._sock, max_bytes=self._max_frame_bytes)
        if reply is None:
            raise ConnectionError("server closed the connection")
        if not reply.get("ok"):
            error = reply.get("error", {})
            code = error.get("code", "SERVER_ERROR")
            message = error.get("message", "")
            if code == "BUSY":
                raise BusyError(code, message)
            raise ServeError(code, message)
        return reply

    @staticmethod
    def _overlay(
        method: str | None,
        parallelism: int | None,
        executor: str | None,
    ) -> dict | None:
        overlay = {
            key: value
            for key, value in (
                ("method", method),
                ("parallelism", parallelism),
                ("executor", executor),
            )
            if value is not None
        }
        return overlay or None

    # ------------------------------------------------------------------
    # the Database verbs, over the wire
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self._call("ping")["server"]

    def run(
        self,
        specs: list[QuerySpec],
        *,
        method: str | None = None,
        parallelism: int | None = None,
        executor: str | None = None,
        probs: bool = False,
    ) -> ServedRun:
        """Answer a batch of specs (the server may co-batch other clients).

        ``probs=True`` additionally returns each range result's appearance
        probabilities ({oid: P_app}), computed on the server from the
        same snapshot that produced the answer.
        """
        body: dict = {"specs": [spec_doc(s) for s in specs]}
        overlay = self._overlay(method, parallelism, executor)
        if overlay:
            body["overlay"] = overlay
        if probs:
            body["probs"] = True
        reply = self._call("run", body)
        out = ServedRun()
        for doc in reply["results"]:
            result, p = result_from_doc(doc)
            out.results.append(result)
            out.probs.append(p)
        return out

    def query(self, spec: QuerySpec, *, method: str | None = None) -> Result:
        """Answer one spec (the single-query convenience form)."""
        return self.run([spec], method=method).results[0]

    def nearest(self, spec: NearestSpec) -> Result:
        if not isinstance(spec, NearestSpec):
            raise TypeError(
                f"nearest() takes a NearestSpec, got {type(spec).__name__}"
            )
        return self.run([spec]).results[0]

    def insert(self, objects: UncertainObject | list[UncertainObject]) -> int:
        """Insert one object (or a list) through the server's write path."""
        if isinstance(objects, UncertainObject):
            objects = [objects]
        reply = self._call(
            "insert",
            {
                "objects": [
                    {"oid": int(obj.oid), "pdf": density_descriptor(obj.pdf)}
                    for obj in objects
                ]
            },
        )
        return int(reply["inserted"])

    def delete(self, oids: int | list[int]) -> bool | list[bool]:
        """Delete by oid; returns whether each oid was present."""
        single = isinstance(oids, int)
        oid_list = [oids] if single else list(oids)
        deleted = self._call("delete", {"oids": oid_list})["deleted"]
        return deleted[0] if single else deleted

    def explain(self, spec: RangeSpec, *, method: str | None = None) -> dict:
        body: dict = {"spec": spec_doc(spec)}
        if method is not None:
            body["method"] = method
        return self._call("explain", body)["explain"]

    def stats(self) -> dict:
        reply = self._call("stats")
        return {k: v for k, v in reply.items() if k not in ("v", "id", "ok")}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
