"""Admission control: cross-client batch forming in front of one engine.

The server's whole throughput story lives here.  Every client request
lands in one bounded queue; a single dispatcher thread takes the first
pending request, sweeps in whatever else is already queued, groups
compatible requests (same per-client config overlay), and submits each
group as **one** :meth:`repro.api.Database.run` batch.  There is no
timed wait: an idle engine serves a lone request at once, and requests
that arrive while a batch runs are swept into the next one (the
group-commit rule of DeWitt et al., SIGMOD 1984).  The existing
:class:`~repro.exec.batch.BatchExecutor` then does what it has done
since PR 1 — fetch each candidate data page once for the whole batch and
memoise ``(address, rect)`` appearance probabilities — except the
batch's queries now come from *different clients*, so concurrent
sessions pay for shared pages and repeated rectangles once instead of
once each.  Answers are unaffected (batching changes cost, never
answers); the wire-equivalence suite pins that.

Admission is bounded: when ``max_inflight`` requests are already
pending, :meth:`AdmissionQueue.submit` raises :class:`QueueFull` and the
server sheds the request with a typed ``BUSY`` reply instead of growing
an unbounded backlog.

The dispatcher holds the server's :class:`ReadWriteLock` in read mode
for the whole group run, while writes (insert/delete) take it in write
mode — so a query batch sees every update either entirely applied or not
at all, never a structure mid-mutation.  That is the snapshot the wire
contract promises: reads admitted before a write drained see the
pre-write database; reads after it see the post-write one.
"""

from __future__ import annotations

import queue as _queue
import threading
from dataclasses import dataclass, field

from repro.api.specs import QuerySpec, RangeSpec, Result
from repro.serve.protocol import BadRequest

__all__ = ["AdmissionQueue", "PendingRequest", "QueueFull", "ReadWriteLock"]

# The per-batch overlay keys a client may set; everything else in the
# server's base ExecConfig is fixed at serve time.  These are exactly
# Database.run's per-call overrides — pure cost knobs, never answers.
OVERLAY_KEYS = ("method", "parallelism", "executor")


class QueueFull(Exception):
    """The admission bound is hit; the caller must shed the request."""


class ReadWriteLock:
    """A writer-preferring shared/exclusive lock.

    Readers (query batches, P_app lookups) share; writers (insert /
    delete / rebalance) exclude everyone.  Writer preference keeps a
    steady query stream from starving updates: once a writer is waiting,
    new readers queue behind it.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _Guard:
        def __init__(self, acquire, release):
            self._acquire, self._release = acquire, release

        def __enter__(self):
            self._acquire()
            return self

        def __exit__(self, *exc_info):
            self._release()

    def read(self) -> "ReadWriteLock._Guard":
        return self._Guard(self.acquire_read, self.release_read)

    def write(self) -> "ReadWriteLock._Guard":
        return self._Guard(self.acquire_write, self.release_write)


def _overlay_key(overlay: dict) -> tuple:
    return tuple(sorted(overlay.items()))


def validate_overlay(overlay: dict | None) -> dict:
    """A client overlay narrowed to the allowed knobs (typed errors)."""
    if overlay is None:
        return {}
    if not isinstance(overlay, dict):
        raise BadRequest(
            f"overlay must be an object, got {type(overlay).__name__}"
        )
    unknown = sorted(set(overlay) - set(OVERLAY_KEYS))
    if unknown:
        raise BadRequest(
            f"unknown overlay keys {unknown}; allowed: {list(OVERLAY_KEYS)}"
        )
    out: dict = {}
    if "method" in overlay:
        if not isinstance(overlay["method"], str):
            raise BadRequest("overlay.method must be a string")
        out["method"] = overlay["method"]
    if "parallelism" in overlay:
        try:
            out["parallelism"] = int(overlay["parallelism"])
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"overlay.parallelism must be an int: {exc}") from exc
        if out["parallelism"] < 1:
            raise BadRequest("overlay.parallelism must be at least 1")
    if "executor" in overlay:
        if overlay["executor"] not in ("thread", "process"):
            raise BadRequest(
                f"overlay.executor must be 'thread' or 'process', "
                f"got {overlay['executor']!r}"
            )
        out["executor"] = overlay["executor"]
    return out


@dataclass
class PendingRequest:
    """One client's specs waiting for (or holding) their batch's answers."""

    specs: list[QuerySpec]
    overlay: dict = field(default_factory=dict)
    want_probs: bool = False
    done: threading.Event = field(default_factory=threading.Event)
    results: list[Result] | None = None
    probs: list[dict[int, float] | None] | None = None
    error: BaseException | None = None

    def wait(self, timeout: float | None = None) -> None:
        """Block until dispatched; re-raise the batch's failure here."""
        if not self.done.wait(timeout):
            raise TimeoutError("request was not dispatched in time")
        if self.error is not None:
            raise self.error


class AdmissionQueue:
    """The bounded request queue and its batch-forming dispatcher.

    Args:
        db: the served :class:`~repro.api.Database`.
        lock: the server's :class:`ReadWriteLock` (read side here).
        max_inflight: pending-request bound; beyond it :meth:`submit`
            raises :class:`QueueFull`.  It also caps one batch's sweep.
    """

    def __init__(self, db, lock: ReadWriteLock, *, max_inflight: int = 64):
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self._db = db
        self._lock = lock
        self._pending: _queue.Queue = _queue.Queue(maxsize=max_inflight)
        self._closed = False
        self._stop_after_batch = False
        self._stats_lock = threading.Lock()
        self._stats = {
            "requests": 0,
            "specs": 0,
            "busy_rejections": 0,
            "batches": 0,
            "cross_client_batches": 0,
            "largest_batch_specs": 0,
            "largest_batch_requests": 0,
        }
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(
        self,
        specs: list[QuerySpec],
        *,
        overlay: dict | None = None,
        want_probs: bool = False,
    ) -> PendingRequest:
        """Enqueue one request; raises :class:`QueueFull` over the bound."""
        if self._closed:
            raise QueueFull("server is shutting down")
        pending = PendingRequest(
            specs=list(specs),
            overlay=validate_overlay(overlay),
            want_probs=want_probs,
        )
        try:
            self._pending.put_nowait(pending)
        except _queue.Full:
            with self._stats_lock:
                self._stats["busy_rejections"] += 1
            raise QueueFull(
                f"admission queue is at its bound "
                f"({self._pending.maxsize} in-flight requests)"
            ) from None
        with self._stats_lock:
            self._stats["requests"] += 1
            self._stats["specs"] += len(pending.specs)
        return pending

    def stats(self) -> dict:
        with self._stats_lock:
            out = dict(self._stats)
        out["avg_batch_requests"] = (
            out["requests"] / out["batches"] if out["batches"] else 0.0
        )
        return out

    # ------------------------------------------------------------------
    # dispatcher side
    # ------------------------------------------------------------------
    def _sweep(self, first: PendingRequest) -> list[PendingRequest]:
        """``first`` plus whatever is already queued, without waiting.

        Everything that queued while the previous batch ran joins this
        one (up to ``max_inflight`` more); a shutdown sentinel ends the
        sweep and stops the dispatcher after this batch.
        """
        group = [first]
        while len(group) <= self._pending.maxsize:
            try:
                nxt = self._pending.get_nowait()
            except _queue.Empty:
                break
            if nxt is None:
                self._stop_after_batch = True
                break
            group.append(nxt)
        return group

    def _dispatch_loop(self) -> None:
        while True:
            first = self._pending.get()
            if first is None:
                break
            group = self._sweep(first)
            for key_group in self._split_by_overlay(group):
                self._run_group(key_group)
            if self._stop_after_batch:  # sentinel swept with the batch
                break
        # Drain anything still queued after the sentinel with a typed
        # shutdown failure, so no client blocks forever.
        while True:
            try:
                leftover = self._pending.get_nowait()
            except _queue.Empty:
                break
            if leftover is None:
                continue
            leftover.error = QueueFull("server shut down before dispatch")
            leftover.done.set()

    @staticmethod
    def _split_by_overlay(group: list[PendingRequest]) -> list[list[PendingRequest]]:
        by_key: dict[tuple, list[PendingRequest]] = {}
        for pending in group:
            by_key.setdefault(_overlay_key(pending.overlay), []).append(pending)
        return list(by_key.values())

    def _run_group(self, group: list[PendingRequest]) -> None:
        """One cross-client batch: a single Database.run under read lock."""
        specs: list[QuerySpec] = []
        for pending in group:
            specs.extend(pending.specs)
        overlay = group[0].overlay
        try:
            with self._lock.read():
                out = self._db.run(specs, **overlay)
                # P_app lookups stay inside the same read window so the
                # probabilities describe the snapshot the answers came
                # from (a write between run and lookup could delete an
                # answered oid).
                cursor = 0
                for pending in group:
                    n = len(pending.specs)
                    pending.results = out.results[cursor:cursor + n]
                    cursor += n
                    if pending.want_probs:
                        pending.probs = [
                            self._db.probabilities(
                                result.spec.rect,
                                result.object_ids,
                                method=result.method,
                            )
                            if isinstance(result.spec, RangeSpec)
                            else None
                            for result in pending.results
                        ]
        except BaseException as exc:  # noqa: BLE001 - routed to each client
            for pending in group:
                pending.error = exc
                pending.done.set()
            return
        with self._stats_lock:
            self._stats["batches"] += 1
            if len(group) > 1:
                self._stats["cross_client_batches"] += 1
            self._stats["largest_batch_specs"] = max(
                self._stats["largest_batch_specs"], len(specs)
            )
            self._stats["largest_batch_requests"] = max(
                self._stats["largest_batch_requests"], len(group)
            )
        for pending in group:
            pending.done.set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop admitting, dispatch what's queued, join the dispatcher."""
        if self._closed:
            return
        self._closed = True
        # May wait for a slot when the queue is at its bound, but the
        # dispatcher is still consuming, so the sentinel always lands.
        self._pending.put(None)
        self._dispatcher.join(timeout)
