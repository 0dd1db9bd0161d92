"""``repro.serve`` — the concurrent network front-end over one engine.

Serve a :class:`~repro.api.Database` to many concurrent clients::

    from repro import Database, ExecConfig, RangeSpec, Rect
    from repro.serve import QueryServer, ServeClient

    db = Database.create(objects, ExecConfig(max_inflight=64))
    with QueryServer(db) as server:                  # port 0 = ephemeral
        with ServeClient(*server.address) as client:
            result = client.query(RangeSpec(Rect([0, 0], [5e3, 5e3]), 0.8))
            print(result.object_ids)

Wire format, verbs and error codes live in :mod:`repro.serve.protocol`;
cross-client batch forming and the snapshot read/write split in
:mod:`repro.serve.queue`; the socket server in
:mod:`repro.serve.server`; the client SDK in :mod:`repro.serve.client`.
"""

from repro.serve.client import BusyError, ServeClient, ServeError, ServedRun
from repro.serve.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ERROR_CODES,
    PROTOCOL_VERSION,
    BadFrame,
    BadRequest,
    FrameTooLarge,
    ProtocolError,
    VersionMismatch,
)
from repro.serve.queue import AdmissionQueue, QueueFull, ReadWriteLock
from repro.serve.server import QueryServer

__all__ = [
    "AdmissionQueue",
    "BadFrame",
    "BadRequest",
    "BusyError",
    "DEFAULT_MAX_FRAME_BYTES",
    "ERROR_CODES",
    "FrameTooLarge",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QueryServer",
    "QueueFull",
    "ReadWriteLock",
    "ServeClient",
    "ServeError",
    "ServedRun",
    "VersionMismatch",
]
