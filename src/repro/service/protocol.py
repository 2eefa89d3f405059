"""Wire protocol of the query service: length-prefixed JSON frames.

A frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  The prefix makes torn input *detectable*: a reader that
gets EOF mid-body knows the frame was cut, and a prefix larger than
:data:`MAX_FRAME` is rejected before a single payload byte is read —
a hostile or confused client cannot make the server buffer gigabytes.

Requests are JSON objects with an ``op`` key::

    {"op": "query", "queries": [{"kind": "xpath", "text": "//δ"}],
     "options": {"timeout_ms": 500}}
    {"op": "health"}
    {"op": "stats"}
    {"op": "ping"}

Responses either succeed::

    {"ok": true, ...op-specific payload...}

or carry one structured error (never a traceback)::

    {"ok": false, "error": {"code": "OVERLOADED",
                            "message": "...",
                            "retry_after_ms": 25}}

The error codes are a closed set (:data:`ERROR_CODES`) so clients can
switch on them; everything unexpected maps to ``INTERNAL`` and the
*session stays up* — one bad query never costs the connection.

A frame's body is byte for byte ``json.dumps(payload,
ensure_ascii=False, separators=(",", ":"))``, whatever the payload.
A query response's ``results`` are most of its bytes: one row per tree,
one cell per query, each cell a bool, a tuple of node addresses or a
tuple of address pairs.  :func:`encode_frame` writes them from one
process-wide table that maps each node address (and address pair) it
has seen to its JSON text, so a cell costs one C-level join over
cached texts instead of re-encoding every int of every address.  The
table is keyed by value, and Python treats ``(0, 1)``, ``(0, True)``
and ``(0, 1.0)`` as one key, so it serves only rows whose cells are
canonical by contract: the executor's
:class:`~repro.corpus.executor.ResultRows`, which
:meth:`~repro.service.session.Dispatcher.handle` returns as they are
and the result cache shares.  Any other ``results`` value goes through
``json.dumps`` whole.  The table holds at most
:data:`ADDRESS_TEXTS_MAX` entries and empties when full.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Optional, Tuple

from ..corpus.executor import ResultRows

__all__ = [
    "MAX_FRAME",
    "ERROR_CODES",
    "PARSE_ERROR",
    "RESOURCE_EXHAUSTED",
    "DEADLINE",
    "OVERLOADED",
    "BAD_REQUEST",
    "INTERNAL",
    "SHUTDOWN",
    "FrameError",
    "FrameTooLarge",
    "TornFrame",
    "ServiceError",
    "encode_frame",
    "decode_payload",
    "split_frame",
    "read_frame_from_socket",
    "error_response",
    "ok_response",
]

#: Hard cap on one frame's JSON body (1 MiB) — enforced by both ends.
MAX_FRAME = 1 << 20

#: Most node-address texts the encoder keeps; the table empties when
#: full.  One scan response names a few thousand distinct addresses.
ADDRESS_TEXTS_MAX = 16_384

#: Struct format of the length prefix: 4-byte big-endian unsigned.
_PREFIX = struct.Struct(">I")
PREFIX_SIZE = _PREFIX.size

PARSE_ERROR = "PARSE_ERROR"
RESOURCE_EXHAUSTED = "RESOURCE_EXHAUSTED"
DEADLINE = "DEADLINE"
OVERLOADED = "OVERLOADED"
BAD_REQUEST = "BAD_REQUEST"
INTERNAL = "INTERNAL"
SHUTDOWN = "SHUTDOWN"

#: The closed set of error codes a response may carry.
ERROR_CODES = (
    PARSE_ERROR,
    RESOURCE_EXHAUSTED,
    DEADLINE,
    OVERLOADED,
    BAD_REQUEST,
    INTERNAL,
    SHUTDOWN,
)


class FrameError(Exception):
    """A frame that cannot be read: torn, oversized, or undecodable."""


class FrameTooLarge(FrameError):
    """The length prefix exceeds :data:`MAX_FRAME`."""


class TornFrame(FrameError):
    """EOF arrived mid-prefix or mid-body."""


class ServiceError(Exception):
    """A structured error response, raised client-side.

    ``code`` is one of :data:`ERROR_CODES`; ``retry_after_ms`` is set
    only for ``OVERLOADED`` rejections."""

    def __init__(
        self,
        code: str,
        message: str,
        retry_after_ms: Optional[int] = None,
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.retry_after_ms = retry_after_ms


# -- encoding ----------------------------------------------------------------


#: ``_JSON.encode(value)`` is ``json.dumps(value, ensure_ascii=False,
#: separators=(",", ":"))``, without building an encoder per call.
_JSON = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


class _AddressTexts(dict):
    """Node address (or address pair) → its JSON text, filled on first
    sight.  Lookups need no lock; a miss inserts under one, so the
    bound holds while threads share the table."""

    __slots__ = ()

    def __missing__(self, address) -> str:
        text = _JSON.encode(address)
        with _ADDRESS_TEXTS_LOCK:
            if len(self) >= ADDRESS_TEXTS_MAX:
                self.clear()
            self[address] = text
        return text


_ADDRESS_TEXTS = _AddressTexts()
_ADDRESS_TEXTS_LOCK = threading.Lock()
_address_text = _ADDRESS_TEXTS.__getitem__


def _cell_text(cell) -> str:
    if cell is True:
        return "true"
    if cell is False:
        return "false"
    if type(cell) is not tuple:
        return _JSON.encode(cell)
    if not cell:
        return "[]"
    return f"[{','.join(map(_address_text, cell))}]"


def _rows_text(rows: ResultRows) -> str:
    return "[" + ",".join(
        [f"[{','.join(map(_cell_text, row))}]" for row in rows]
    ) + "]"


def _payload_text(payload) -> str:
    """``_JSON.encode(payload)``, with executor rows under ``results``
    written from cached address texts.  A dict's JSON is its items'
    texts joined by commas inside braces, and each item's text depends
    on that item alone, so encoding the items before and after
    ``results`` apart and splicing the rows' text between them writes
    the same bytes."""
    rows = payload.get("results") if isinstance(payload, dict) else None
    if type(rows) is not ResultRows:
        return _JSON.encode(payload)
    before, after = {}, {}
    side = before
    for key, value in payload.items():
        if isinstance(key, str) and key == "results":
            side = after
        else:
            side[key] = value
    parts = (
        _JSON.encode(before)[1:-1],
        '"results":' + _rows_text(rows),
        _JSON.encode(after)[1:-1],
    )
    return "{" + ",".join(filter(None, parts)) + "}"


def encode_frame(payload: dict) -> bytes:
    """One wire frame for ``payload``: length prefix + compact JSON."""
    body = _payload_text(payload).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameTooLarge(
            f"frame of {len(body)} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return _PREFIX.pack(len(body)) + body


def decode_payload(body: bytes) -> dict:
    """The JSON object inside a frame body.

    Raises :class:`FrameError` for non-JSON bodies and non-object
    payloads — the protocol only ever carries objects."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"undecodable frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def split_frame(buffer: bytes) -> Tuple[Optional[bytes], bytes]:
    """``(body, rest)`` if ``buffer`` starts with one complete frame,
    else ``(None, buffer)``.  Raises :class:`FrameTooLarge` as soon as
    the prefix alone condemns the frame."""
    if len(buffer) < PREFIX_SIZE:
        return None, buffer
    (length,) = _PREFIX.unpack_from(buffer)
    if length > MAX_FRAME:
        raise FrameTooLarge(
            f"announced frame of {length} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    end = PREFIX_SIZE + length
    if len(buffer) < end:
        return None, buffer
    return buffer[PREFIX_SIZE:end], buffer[end:]


def read_frame_from_socket(sock: socket.socket) -> dict:
    """Blocking read of one frame from a connected socket (client side).

    Raises :class:`TornFrame` on EOF mid-frame and propagates a clean
    ``ConnectionError``/``TornFrame`` on a closed peer."""
    prefix = _read_exact(sock, PREFIX_SIZE, "length prefix")
    (length,) = _PREFIX.unpack(prefix)
    if length > MAX_FRAME:
        raise FrameTooLarge(
            f"announced frame of {length} bytes exceeds MAX_FRAME={MAX_FRAME}"
        )
    return decode_payload(_read_exact(sock, length, "frame body"))


def _read_exact(sock: socket.socket, count: int, what: str) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise TornFrame(f"EOF after {count - remaining}/{count} bytes of {what}")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- response shapes ---------------------------------------------------------


def ok_response(**payload) -> dict:
    return {"ok": True, **payload}


def error_response(
    code: str, message: str, retry_after_ms: Optional[int] = None
) -> dict:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    error = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = int(retry_after_ms)
    return {"ok": False, "error": error}


def raise_for_error(response: dict) -> dict:
    """Client-side: return a successful response, raise
    :class:`ServiceError` for an error one."""
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    raise ServiceError(
        error.get("code", INTERNAL),
        error.get("message", "unspecified error"),
        error.get("retry_after_ms"),
    )
