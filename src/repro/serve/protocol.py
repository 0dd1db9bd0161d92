"""The query service's wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Every request carries the protocol version and a
client-chosen request id; every reply echoes the id and either the
verb's result (``"ok": true``) or a typed error (``"ok": false`` with an
``error.code`` from :data:`ERROR_CODES`).  The codec functions here are
the single vocabulary both ends speak — the server
(:mod:`repro.serve.server`) and the client (:mod:`repro.serve.client`)
contain no JSON of their own — so a spec or a result round-trips through
one pair of functions and the equivalence tests can hold served answers
``==`` to in-process ones.

Framing is deliberately boring (the cxdb exemplar's shape: a small
binary header in front of a structured body): it needs no dependency,
survives partial reads, and rejects oversize or malformed frames with a
typed error instead of undefined behaviour.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from operator import attrgetter
from typing import Any

from repro.api.specs import NearestSpec, QuerySpec, RangeSpec, Result
from repro.core.nn import NNCandidate, NNResult
from repro.core.stats import QueryStats
from repro.geometry.rect import Rect

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "ERROR_CODES",
    "PROTOCOL_VERSION",
    "BadFrame",
    "BadRequest",
    "FrameTooLarge",
    "ProtocolError",
    "VersionMismatch",
    "error_reply",
    "ok_reply",
    "recv_frame",
    "request",
    "result_doc",
    "result_from_doc",
    "send_frame",
    "spec_doc",
    "spec_from_doc",
    "stats_doc",
    "stats_from_doc",
]

PROTOCOL_VERSION = 1

# Frames above this are rejected before any allocation happens; both
# sides enforce it (a client can lower its own bound, never raise the
# server's).
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")

# The typed error vocabulary.  BUSY is the admission queue shedding
# load; SHUTTING_DOWN a server that is draining; the rest are protocol
# or request faults attributable to the client (except SERVER_ERROR).
ERROR_CODES = (
    "BAD_FRAME",
    "TOO_LARGE",
    "BAD_VERSION",
    "BAD_REQUEST",
    "BUSY",
    "SERVER_ERROR",
    "SHUTTING_DOWN",
)


class ProtocolError(Exception):
    """A wire-level fault with a typed error code."""

    code = "BAD_FRAME"


class BadFrame(ProtocolError):
    """A frame that is not a complete, decodable JSON document."""

    code = "BAD_FRAME"


class FrameTooLarge(ProtocolError):
    """A frame whose declared length exceeds the receiver's bound."""

    code = "TOO_LARGE"


class VersionMismatch(ProtocolError):
    """A request speaking a protocol version this end does not."""

    code = "BAD_VERSION"


class BadRequest(ProtocolError):
    """A well-formed frame whose content the verb cannot accept."""

    code = "BAD_REQUEST"


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------

def send_frame(sock, payload: dict) -> None:
    """Serialise ``payload`` and write one length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock, n: int, *, at_boundary: bool) -> bytes | None:
    """``n`` bytes off the socket, or None on EOF at a frame boundary.

    EOF mid-frame is a :class:`BadFrame` — the peer died or sent a
    truncated frame; silently treating it as a clean close would hide
    torn requests.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if at_boundary and not chunks:
                return None
            raise BadFrame(
                f"connection closed mid-frame ({n - remaining} of {n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock, *, max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> dict | None:
    """Read one frame; ``None`` on a clean close between frames.

    Raises :class:`FrameTooLarge` when the header declares more than
    ``max_bytes`` (the body is left unread — callers must close the
    connection after replying, the stream is no longer in sync) and
    :class:`BadFrame` for truncation or an undecodable body.
    """
    header = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise FrameTooLarge(f"frame of {length} bytes exceeds bound {max_bytes}")
    body = _recv_exact(sock, length, at_boundary=False)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadFrame(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadFrame(f"frame body must be a JSON object, got {type(payload).__name__}")
    return payload


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------

def request(verb: str, body: dict | None = None, *, req_id: int = 0) -> dict:
    """A request envelope (version + id + verb + verb-specific body)."""
    doc = {"v": PROTOCOL_VERSION, "id": req_id, "verb": verb}
    if body:
        doc.update(body)
    return doc


def ok_reply(req_id: int, body: dict | None = None) -> dict:
    doc = {"v": PROTOCOL_VERSION, "id": req_id, "ok": True}
    if body:
        doc.update(body)
    return doc


def error_reply(req_id: int, code: str, message: str) -> dict:
    if code not in ERROR_CODES:  # pragma: no cover - programming error
        raise ValueError(f"unknown error code {code!r}")
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def check_version(doc: dict) -> None:
    """Reject a request from a different protocol generation."""
    version = doc.get("v")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"protocol version {version!r} not supported (server speaks "
            f"{PROTOCOL_VERSION})"
        )


# ----------------------------------------------------------------------
# spec / result codecs
# ----------------------------------------------------------------------

def spec_doc(spec: QuerySpec) -> dict:
    """A JSON document reconstructing one query spec."""
    if isinstance(spec, RangeSpec):
        return {
            "kind": "range",
            "lo": [float(x) for x in spec.rect.lo],
            "hi": [float(x) for x in spec.rect.hi],
            "threshold": float(spec.threshold),
        }
    if isinstance(spec, NearestSpec):
        return {
            "kind": "nearest",
            "point": list(spec.point),
            "k": spec.k,
            "rounds": spec.rounds,
            "seed": spec.seed,
            "mode": spec.mode,
        }
    raise BadRequest(f"cannot encode spec type {type(spec).__name__}")


def spec_from_doc(doc: Any) -> QuerySpec:
    """Inverse of :func:`spec_doc` (typed errors on malformed docs)."""
    if not isinstance(doc, dict):
        raise BadRequest(f"spec must be an object, got {type(doc).__name__}")
    kind = doc.get("kind")
    try:
        if kind == "range":
            return RangeSpec(Rect(doc["lo"], doc["hi"]), float(doc["threshold"]))
        if kind == "nearest":
            return NearestSpec(
                point=doc["point"],
                k=int(doc.get("k", 1)),
                rounds=int(doc.get("rounds", 2000)),
                seed=int(doc.get("seed", 0)),
                mode=doc.get("mode", "probability"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRequest(f"malformed {kind!r} spec: {exc}") from exc
    raise BadRequest(f"unknown spec kind {kind!r}")


_STATS_FIELDS = tuple(f.name for f in fields(QueryStats))
_read_stats = attrgetter(*_STATS_FIELDS)


def stats_doc(stats: QueryStats) -> dict:
    """Per-query stats as a flat JSON object (all fields numeric).

    Every field is a scalar, so one flat read gives what
    ``dataclasses.asdict`` gives without its recursive deep copy.
    """
    return dict(zip(_STATS_FIELDS, _read_stats(stats)))


def stats_from_doc(doc: dict) -> QueryStats:
    known = set(QueryStats.__dataclass_fields__)
    return QueryStats(**{k: v for k, v in doc.items() if k in known})


def result_doc(result: Result, probs: dict[int, float] | None = None) -> dict:
    """One answered spec: ids, stats, optional P_app map, optional NN detail.

    ``probs`` (oid -> appearance probability) is attached verbatim; JSON
    forces string keys, so :func:`result_from_doc` restores the ints.
    Floats survive the round-trip exactly — ``json`` prints shortest
    round-trippable reprs — which is what lets the wire-equivalence
    tests compare P_app with ``==``.
    """
    doc: dict[str, Any] = {
        "spec": spec_doc(result.spec),
        "method": result.method,
        "object_ids": [int(oid) for oid in result.object_ids],
        "stats": stats_doc(result.stats),
    }
    if probs is not None:
        doc["probs"] = {str(oid): float(p) for oid, p in probs.items()}
    if result.nn is not None:
        doc["nn"] = {
            "candidates": [
                {
                    "oid": c.oid,
                    "probability": c.probability,
                    "expected_distance": c.expected_distance,
                }
                for c in result.nn.candidates
            ],
            "node_accesses": result.nn.node_accesses,
            "data_page_reads": result.nn.data_page_reads,
            "objects_examined": result.nn.objects_examined,
            "mc_rounds": result.nn.mc_rounds,
            "wall_seconds": result.nn.wall_seconds,
            "shards_skipped": result.nn.shards_skipped,
        }
    return doc


def result_from_doc(doc: dict) -> tuple[Result, dict[int, float] | None]:
    """Inverse of :func:`result_doc`: a typed Result plus its P_app map."""
    nn = None
    if "nn" in doc:
        nn_doc = doc["nn"]
        nn = NNResult(
            candidates=[
                NNCandidate(
                    oid=int(c["oid"]),
                    probability=float(c["probability"]),
                    expected_distance=float(c["expected_distance"]),
                )
                for c in nn_doc["candidates"]
            ],
            node_accesses=int(nn_doc["node_accesses"]),
            data_page_reads=int(nn_doc["data_page_reads"]),
            objects_examined=int(nn_doc["objects_examined"]),
            mc_rounds=int(nn_doc["mc_rounds"]),
            wall_seconds=float(nn_doc["wall_seconds"]),
            shards_skipped=int(nn_doc["shards_skipped"]),
        )
    result = Result(
        spec=spec_from_doc(doc["spec"]),
        method=doc["method"],
        object_ids=[int(oid) for oid in doc["object_ids"]],
        stats=stats_from_doc(doc["stats"]),
        nn=nn,
    )
    probs = None
    if "probs" in doc:
        probs = {int(oid): float(p) for oid, p in doc["probs"].items()}
    return result, probs
