"""The query service: one shared ``Database`` behind many sockets.

:class:`QueryServer` wraps exactly one :class:`~repro.api.Database` and
accepts any number of concurrent clients over the length-prefixed JSON
protocol of :mod:`repro.serve.protocol`.  The execution paths split:

* **reads** (``run`` — range and nearest specs) are admitted into the
  :class:`~repro.serve.queue.AdmissionQueue`, where a single dispatcher
  forms cross-client batches and executes them through the engine's
  batched executor under the shared read lock;
* **writes** (``insert`` / ``delete``) run on the connection's own
  thread under the exclusive write lock, straight through the facade's
  WAL-backed update path — with ``config.wal`` on and a checkpoint
  taken, every acknowledged write is fsync'd before it is applied.

The lock split is what gives wire clients snapshot reads: a query batch
never observes a half-applied update, because updates exclude readers
for exactly the duration of the in-memory mutation.

The server is deliberately in-process-friendly (port 0 binds an
ephemeral port, ``start``/``stop`` are cheap, everything is daemon
threads), so tests, benchmarks and the location-services example can
boot a real server and drive it over real sockets in milliseconds.
"""

from __future__ import annotations

import socket
import threading

from repro.api.config import ExecConfig
from repro.api.database import Database
from repro.api.specs import RangeSpec
from repro.serve import protocol
from repro.serve.protocol import (
    BadRequest,
    FrameTooLarge,
    ProtocolError,
    error_reply,
    ok_reply,
    recv_frame,
    result_doc,
    send_frame,
    spec_from_doc,
)
from repro.serve.queue import AdmissionQueue, QueueFull, ReadWriteLock
from repro.storage.serialize import SerializationError, density_from_descriptor
from repro.uncertainty.objects import UncertainObject

__all__ = ["QueryServer"]

_VERBS = ("ping", "run", "insert", "delete", "explain", "stats")


class QueryServer:
    """A threaded socket front-end over one shared database.

    Args:
        db: the database to serve.  The server owns its lifecycle from
            :meth:`start` to :meth:`stop` (which closes it by default).
        host/port: bind address; default from ``db.config.serve_host`` /
            ``serve_port`` (port 0 = ephemeral, read the resolved one
            from :attr:`port`).
        max_inflight: admission bound; default ``db.config.max_inflight``.
        max_frame_bytes: largest accepted request frame.
    """

    def __init__(
        self,
        db: Database,
        *,
        host: str | None = None,
        port: int | None = None,
        max_inflight: int | None = None,
        max_frame_bytes: int = protocol.DEFAULT_MAX_FRAME_BYTES,
    ):
        config: ExecConfig = db.config
        self.db = db
        self.host = config.serve_host if host is None else host
        self._requested_port = config.serve_port if port is None else port
        self._max_inflight = (
            config.max_inflight if max_inflight is None else max_inflight
        )
        self._max_frame_bytes = max_frame_bytes
        self.lock = ReadWriteLock()
        self.queue: AdmissionQueue | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._handlers: list[threading.Thread] = []
        self._state_lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._served = {"requests": 0, "errors": 0}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (the resolved one when 0 was requested)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self) -> "QueryServer":
        with self._state_lock:
            if self._started:
                raise RuntimeError("server is already started")
            self._started = True
        self.queue = AdmissionQueue(
            self.db, self.lock, max_inflight=self._max_inflight
        )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(128)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self, *, close_db: bool = True, timeout: float = 10.0) -> None:
        """Drain and shut down (idempotent).

        Stops accepting, closes every live connection, dispatches what
        the queue already admitted, then — by default — closes the
        database (which this PR made safe even when a batch is still in
        flight on another thread).
        """
        with self._state_lock:
            if self._stopping or not self._started:
                return
            self._stopping = True
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, so the accept loop exits at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:  # not supported for listeners everywhere
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout)
        with self._conn_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout)
        if self.queue is not None:
            self.queue.close(timeout)
        if close_db:
            self.db.close()

    def __enter__(self) -> "QueryServer":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # accept / per-connection loops
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed: shutdown
                return
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="serve-conn", daemon=True,
            )
            with self._conn_lock:
                self._connections.add(conn)
                self._handlers = [h for h in self._handlers if h.is_alive()]
                self._handlers.append(handler)
            handler.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    doc = recv_frame(conn, max_bytes=self._max_frame_bytes)
                except FrameTooLarge as exc:
                    # The unread body leaves the stream out of sync: the
                    # typed reply is the last frame on this connection.
                    self._send_safe(conn, error_reply(0, exc.code, str(exc)))
                    return
                except ProtocolError as exc:
                    self._send_safe(conn, error_reply(0, exc.code, str(exc)))
                    return
                except OSError:  # socket closed under us (stop() or peer reset)
                    return
                if doc is None:  # clean disconnect
                    return
                reply = self._handle(doc)
                try:
                    send_frame(conn, reply)
                except OSError:
                    return
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _send_safe(self, conn: socket.socket, payload: dict) -> None:
        try:
            send_frame(conn, payload)
        except OSError:  # peer already gone
            pass

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _handle(self, doc: dict) -> dict:
        req_id = doc.get("id", 0) if isinstance(doc.get("id", 0), int) else 0
        with self._state_lock:
            self._served["requests"] += 1
            if self._stopping:
                return error_reply(
                    req_id, "SHUTTING_DOWN", "server is shutting down"
                )
        try:
            protocol.check_version(doc)
            verb = doc.get("verb")
            if verb not in _VERBS:
                raise BadRequest(
                    f"unknown verb {verb!r}; supported: {list(_VERBS)}"
                )
            body = getattr(self, f"_verb_{verb}")(doc)
            return ok_reply(req_id, body)
        except QueueFull as exc:
            return error_reply(req_id, "BUSY", str(exc))
        except ProtocolError as exc:
            with self._state_lock:
                self._served["errors"] += 1
            return error_reply(req_id, exc.code, str(exc))
        except (KeyError, TypeError, ValueError, SerializationError) as exc:
            with self._state_lock:
                self._served["errors"] += 1
            return error_reply(req_id, "BAD_REQUEST", f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - fault barrier per request
            with self._state_lock:
                self._served["errors"] += 1
            return error_reply(
                req_id, "SERVER_ERROR", f"{type(exc).__name__}: {exc}"
            )

    # ------------------------------------------------------------------
    # verbs
    # ------------------------------------------------------------------
    def _verb_ping(self, doc: dict) -> dict:
        return {
            "server": {
                "protocol": protocol.PROTOCOL_VERSION,
                "methods": self.db.method_names,
                "objects": len(self.db),
                "dim": self.db.dim,
            }
        }

    def _verb_run(self, doc: dict) -> dict:
        specs_doc = doc.get("specs")
        if not isinstance(specs_doc, list) or not specs_doc:
            raise BadRequest("run needs a non-empty 'specs' list")
        specs = [spec_from_doc(d) for d in specs_doc]
        want_probs = bool(doc.get("probs", False))
        pending = self.queue.submit(
            specs, overlay=doc.get("overlay"), want_probs=want_probs
        )
        try:
            pending.wait()
        except (QueueFull, ProtocolError):
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequest(f"{type(exc).__name__}: {exc}") from exc
        probs = pending.probs or [None] * len(pending.results)
        return {
            "results": [
                result_doc(result, p)
                for result, p in zip(pending.results, probs)
            ]
        }

    def _verb_insert(self, doc: dict) -> dict:
        objects_doc = doc.get("objects")
        if not isinstance(objects_doc, list) or not objects_doc:
            raise BadRequest("insert needs a non-empty 'objects' list")
        objects = []
        for entry in objects_doc:
            if not isinstance(entry, dict) or "oid" not in entry or "pdf" not in entry:
                raise BadRequest("each object needs 'oid' and 'pdf' fields")
            objects.append(
                UncertainObject(int(entry["oid"]), density_from_descriptor(entry["pdf"]))
            )
        with self.lock.write():
            for obj in objects:
                self.db.insert(obj)
        return {"inserted": len(objects)}

    def _verb_delete(self, doc: dict) -> dict:
        oids_doc = doc.get("oids")
        if not isinstance(oids_doc, list) or not oids_doc:
            raise BadRequest("delete needs a non-empty 'oids' list")
        oids = [int(oid) for oid in oids_doc]
        deleted = []
        with self.lock.write():
            for oid in oids:
                outcome = self.db.delete(oid)
                if isinstance(outcome, dict):
                    outcome = any(v is not None for v in outcome.values())
                deleted.append(outcome is not None and outcome is not False)
        return {"deleted": deleted}

    def _verb_explain(self, doc: dict) -> dict:
        spec = spec_from_doc(doc.get("spec"))
        if not isinstance(spec, RangeSpec):
            raise BadRequest("explain prices range specs only")
        method = doc.get("method")
        with self.lock.read():
            explanation = self.db.explain(spec, method=method)
        return {
            "explain": {
                "choice": explanation.choice,
                "estimates": explanation.estimates,
                "shards": explanation.shards,
                "shard_probes": list(explanation.shard_probes),
                "shards_pruned": explanation.shards_pruned,
                "batched": explanation.batched,
                "parallelism": explanation.parallelism,
                "executor": explanation.executor,
                "summary": explanation.summary(),
            }
        }

    def _verb_stats(self, doc: dict) -> dict:
        with self._state_lock:
            served = dict(self._served)
        return {
            "queue": self.queue.stats() if self.queue is not None else {},
            "served": served,
            "objects": len(self.db),
        }
