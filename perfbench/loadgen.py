"""The load generator: one process, one connection at a time.

It speaks the service's wire format itself (a 4-byte big-endian length
and a UTF-8 JSON body) and keeps every response body raw until the
timed phase is over, so decoding and checking never delay a send.

* :func:`open_loop` sends each request on one connection at its due
  time whatever the server is doing and times it from that due time,
  so a stall is charged to every request that fell due during it.
  The server answers a connection's requests in order, so a request
  can also queue behind the one before it.
* :func:`closed_loop` sends the next request only after the previous
  reply.

Both take a :class:`Speed` and probe the machine's speed with it while
no request is outstanding: the closed loop every
:data:`PROBE_EVERY_S`, the open loop whenever it waits for a send.

Each result is ``(rid, due, sent, received, body)`` in
``time.perf_counter`` seconds.  Lateness is ``sent - due``; in a closed
loop ``due`` is the moment the previous reply arrived (or the previous
probe ended).
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import struct
import threading
import time
from collections import deque
from typing import List, Sequence, Tuple

_PREFIX = struct.Struct(">I")

Result = Tuple[object, float, float, float, bytes]

#: Iterations of one speed probe: 2-4 ms on a 2-vCPU x86 VM.
PROBE_LOOPS = 30_000
#: Milliseconds one probe takes on the reference machine (100 ns per
#: iteration).  Times are reported as they would read there.
REFERENCE_PROBE_MS = 3.0
#: Least spacing of probes within a closed-loop phase, in seconds.
PROBE_EVERY_S = 0.05
#: The open loop starts no probe closer than this to the next send
#: (seconds; a probe takes 2-4 ms, longer while the host stalls it).
PROBE_MARGIN_S = 0.008


def spin_ms(loops: int = PROBE_LOOPS) -> float:
    """A fixed pure-Python loop, timed: the machine's speed right now."""
    began = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return (time.perf_counter() - began) * 1000.0


class Speed:
    """Speed probes taken during one phase.

    A shared 2-vCPU x86 virtual machine runs the same code up to ~1.5x
    slower for seconds to minutes at a time, and its two cores at
    different speeds, as other tenants load the host.  A probe is
    :func:`spin_ms`, run by the generator on the core it shares with the
    process under test, while that process has no request outstanding
    (or between pieces of work the generator times itself, during the
    set-up ingest), so the two never compete for it.
    :func:`reference_scale` turns the phase's times into
    reference-machine times; it changes no comparison between two
    versions of the program run at one speed."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0  # seconds spent probing
        self._last = float("-inf")

    def due(self) -> bool:
        return time.perf_counter() - self._last >= PROBE_EVERY_S

    def probe(self) -> None:
        began = time.perf_counter()
        self.samples.append(spin_ms())
        self._last = time.perf_counter()
        self.spent += self._last - began


def reference_scale(samples: Sequence[float]) -> float:
    """Reference-machine seconds per second measured while ``samples``
    were probed (the median probe against :data:`REFERENCE_PROBE_MS`)."""
    return REFERENCE_PROBE_MS / statistics.median(samples)


def frame(payload: dict) -> bytes:
    body = json.dumps(payload, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")
    return _PREFIX.pack(len(body)) + body


def _read_exact(sock: socket.socket, count: int) -> bytes:
    buffer = bytearray(count)
    view = memoryview(buffer)
    got = 0
    while got < count:
        n = sock.recv_into(view[got:], count - got)
        if n == 0:
            raise ConnectionError(f"connection closed after {got}/{count} bytes")
        got += n
    return bytes(buffer)


def read_body(sock: socket.socket) -> bytes:
    (length,) = _PREFIX.unpack(_read_exact(sock, _PREFIX.size))
    return _read_exact(sock, length)


def connect(address) -> socket.socket:
    sock = socket.create_connection(address, timeout=120.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def call(address, payload: dict) -> dict:
    """One request on a fresh connection (markers and probes)."""
    with connect(address) as sock:
        sock.sendall(frame(payload))
        return json.loads(read_body(sock))


def _wait_until(due: float, speed: Speed, pending: deque,
                answered: threading.Event) -> None:
    """Wait for ``due`` without letting the shared core go idle.

    While a request is outstanding the generator blocks and leaves the
    core to the server.  Once every request is answered it probes the
    speed back to back and then spins until ``due``: on a busy host an
    idle virtual core can take milliseconds to be woken, which the next
    request would be charged.  Probing and spinning hold the interpreter
    lock, so they run only while no reply can arrive."""
    while True:
        now = time.perf_counter()
        if now >= due:
            return
        if pending:
            answered.clear()
            if pending:  # the reader sets ``answered`` when it empties
                answered.wait(due - now)
        elif due - now > PROBE_MARGIN_S:
            speed.probe()


def open_loop(address, requests: Sequence, speed: Speed) -> List[Result]:
    """Send ``requests`` (each with ``payload``, ``rid`` and ``due``
    seconds after the start) on schedule; returns one result each."""
    sock = connect(address)
    pending: deque = deque()
    answered = threading.Event()
    results: List[Result] = []
    failures: List[BaseException] = []

    def reader() -> None:
        try:
            while True:
                body = read_body(sock)
                received = time.perf_counter()
                rid, due, sent = pending.popleft()
                if not pending:
                    answered.set()
                if rid is None:  # the end-of-phase ping
                    return
                results.append((rid, due, sent, received, body))
        except BaseException as exc:  # surfaced after the join
            failures.append(exc)
            answered.set()

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        speed.probe()
        start = time.perf_counter()
        for request in requests:
            due = start + request.due
            _wait_until(due, speed, pending, answered)
            sent = time.perf_counter()
            pending.append((request.rid, due, sent))
            sock.sendall(frame(request.payload))
        pending.append((None, 0.0, 0.0))
        sock.sendall(frame({"op": "ping"}))
        thread.join(timeout=120.0)
    finally:
        sock.close()
    if failures:
        raise failures[0]
    if thread.is_alive():
        raise TimeoutError("open-loop reader did not finish")
    return results


def closed_loop(address, requests: Sequence, speed: Speed) -> List[Result]:
    """Send ``requests`` back to back on one connection."""
    results: List[Result] = []
    with connect(address) as sock:
        previous = time.perf_counter()
        for request in requests:
            if speed.due():
                speed.probe()
                previous = time.perf_counter()
            sent = time.perf_counter()
            sock.sendall(frame(request.payload))
            body = read_body(sock)
            received = time.perf_counter()
            results.append((request.rid, previous, sent, received, body))
            previous = received
    return results


# -- the process under test, from /proc ---------------------------------------


def cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "r") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _status_kb(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def peak_rss_mb(pid: int) -> float:
    return _status_kb(pid, "VmHWM") / 1024.0
