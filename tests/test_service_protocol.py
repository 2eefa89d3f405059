"""The service wire protocol in isolation: framing round-trips, the
size cap binds at both ends, torn input is detected, the error
envelope carries its closed code set, and every frame is byte for byte
``json.dumps`` of its payload however its result rows are written."""

import json
import socket
import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.corpus.executor import ResultRows
from repro.service import protocol


class TestFraming:
    def test_roundtrip(self):
        frame = protocol.encode_frame({"op": "ping", "n": 3})
        body, rest = protocol.split_frame(frame)
        assert rest == b""
        assert protocol.decode_payload(body) == {"op": "ping", "n": 3}

    def test_prefix_is_big_endian_length(self):
        frame = protocol.encode_frame({})
        assert frame[:4] == (len(frame) - 4).to_bytes(4, "big")

    def test_split_waits_for_a_full_frame(self):
        frame = protocol.encode_frame({"op": "ping"})
        for cut in range(len(frame)):
            body, rest = protocol.split_frame(frame[:cut])
            assert body is None
            assert rest == frame[:cut]

    def test_split_leaves_the_next_frame_in_the_buffer(self):
        one = protocol.encode_frame({"a": 1})
        two = protocol.encode_frame({"b": 2})
        body, rest = protocol.split_frame(one + two)
        assert protocol.decode_payload(body) == {"a": 1}
        assert rest == two

    def test_oversized_frame_is_rejected_before_buffering(self):
        prefix = (protocol.MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(protocol.FrameTooLarge):
            protocol.split_frame(prefix)

    def test_encode_rejects_an_oversized_payload(self):
        with pytest.raises(protocol.FrameTooLarge):
            protocol.encode_frame({"blob": "x" * (protocol.MAX_FRAME + 1)})

    def test_non_json_body_is_a_frame_error(self):
        with pytest.raises(protocol.FrameError):
            protocol.decode_payload(b"\xff\xfe not json")

    def test_non_object_payload_is_a_frame_error(self):
        with pytest.raises(protocol.FrameError):
            protocol.decode_payload(b"[1, 2, 3]")

    def test_unicode_query_text_survives_the_wire(self):
        payload = {"queries": [{"kind": "xpath", "text": "//σ//δ"}]}
        body, _ = protocol.split_frame(protocol.encode_frame(payload))
        assert protocol.decode_payload(body) == payload


class TestSocketReads:
    def _serve_bytes(self, blob):
        """A throwaway listener that sends ``blob`` and closes."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def run():
            conn, _ = listener.accept()
            conn.sendall(blob)
            conn.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        client = socket.create_connection(listener.getsockname(), timeout=5)
        return listener, thread, client

    def test_read_frame_from_socket_roundtrips(self):
        frame = protocol.encode_frame({"op": "pong"})
        listener, thread, client = self._serve_bytes(frame)
        try:
            assert protocol.read_frame_from_socket(client) == {"op": "pong"}
        finally:
            client.close()
            listener.close()
            thread.join(timeout=5)

    def test_torn_body_is_detected(self):
        frame = protocol.encode_frame({"op": "pong"})
        listener, thread, client = self._serve_bytes(frame[:-3])
        try:
            with pytest.raises(protocol.TornFrame):
                protocol.read_frame_from_socket(client)
        finally:
            client.close()
            listener.close()
            thread.join(timeout=5)

    def test_torn_prefix_is_detected(self):
        listener, thread, client = self._serve_bytes(b"\x00\x00")
        try:
            with pytest.raises(protocol.TornFrame):
                protocol.read_frame_from_socket(client)
        finally:
            client.close()
            listener.close()
            thread.join(timeout=5)


class TestErrorEnvelope:
    def test_error_response_shape(self):
        response = protocol.error_response(
            protocol.OVERLOADED, "full", retry_after_ms=40
        )
        assert response == {
            "ok": False,
            "error": {
                "code": "OVERLOADED",
                "message": "full",
                "retry_after_ms": 40,
            },
        }

    def test_unknown_code_is_rejected(self):
        with pytest.raises(ValueError):
            protocol.error_response("SURPRISE", "nope")

    def test_raise_for_error_passes_success_through(self):
        response = protocol.ok_response(results=[])
        assert protocol.raise_for_error(response) is response

    def test_raise_for_error_raises_the_structured_code(self):
        response = protocol.error_response(
            protocol.DEADLINE, "too slow"
        )
        with pytest.raises(protocol.ServiceError) as err:
            protocol.raise_for_error(response)
        assert err.value.code == protocol.DEADLINE
        assert err.value.retry_after_ms is None

    def test_every_code_is_in_the_closed_set(self):
        assert set(protocol.ERROR_CODES) == {
            "PARSE_ERROR", "RESOURCE_EXHAUSTED", "DEADLINE",
            "OVERLOADED", "BAD_REQUEST", "INTERNAL", "SHUTDOWN",
        }


def _dumped(payload) -> bytes:
    """The frame body every payload must encode to."""
    return json.dumps(
        payload, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")


def _body(payload) -> bytes:
    frame = protocol.encode_frame(payload)
    assert frame[:4] == (len(frame) - 4).to_bytes(4, "big")
    return frame[4:]


#: Executor-shaped result cells: bools, node sets (tuples of int
#: addresses, the root being ``()``) and sets of address pairs.
_addresses = st.lists(st.integers(0, 12), max_size=5).map(tuple)
_cells = st.one_of(
    st.booleans(),
    st.lists(_addresses, max_size=6).map(tuple),
    st.lists(st.tuples(_addresses, _addresses), max_size=4).map(tuple),
)
_rows = st.lists(st.lists(_cells, max_size=4).map(tuple), max_size=6)
#: Whatever else a payload may hold: non-ASCII text, floats (NaN and
#: infinities included), ``None``, nested dicts and lists.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
_keys = st.one_of(
    st.text(max_size=8), st.integers(), st.floats(), st.booleans(), st.none()
)


@st.composite
def _payloads(draw):
    """A dict of extras with ``results`` at any position, or none: the
    executor's marked rows, the same rows unmarked, or any JSON value."""
    items = list(draw(st.dictionaries(_keys, _json_values, max_size=5)).items())
    results = draw(
        st.one_of(
            _rows.map(lambda rows: ResultRows(rows)),
            _rows.map(tuple),
            _rows,
            _json_values,
        )
    )
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), ("results", results))
    return dict(items)


class TestResultEncoding:
    @settings(max_examples=200, deadline=None)
    @given(_payloads())
    def test_every_frame_is_the_json_dumps_bytes(self, payload):
        assert _body(payload) == _dumped(payload)

    def test_executor_rows_are_written_from_the_address_table(self):
        rows = ResultRows([(True, ((), (0, 7)), (((0,), (0, 7, 1)),))])
        assert _body({"ok": True, "results": rows}) == _dumped(
            {"ok": True, "results": rows}
        )
        assert protocol._ADDRESS_TEXTS[(0, 7)] == "[0,7]"
        assert protocol._ADDRESS_TEXTS[((0,), (0, 7, 1))] == "[[0],[0,7,1]]"

    def test_an_equal_address_of_other_types_is_written_as_itself(self):
        """Python hashes ``(0, 1)``, ``(0, True)`` and ``(0, 1.0)`` alike
        and finds them equal, so the table must not serve hand-built
        results: they go through ``json.dumps`` whole."""
        seen = {"results": ResultRows([(((0, 1), (1,)),)])}
        assert _body(seen) == b'{"results":[[[[0,1],[1]]]]}'
        assert (0, 1) in protocol._ADDRESS_TEXTS
        assert (1,) in protocol._ADDRESS_TEXTS
        for results in (
            ((((0, True), (1.0,)),),),
            [[[(0, True), (1.0,)]]],
        ):
            payload = {"ok": True, "results": results}
            assert _body(payload) == _dumped(payload)
            assert b"[0,true]" in _body(payload)
            assert b"[1.0]" in _body(payload)

    def test_more_distinct_addresses_than_the_table_holds(self):
        side = 1 + int(protocol.ADDRESS_TEXTS_MAX ** 0.5)
        assert side * side > protocol.ADDRESS_TEXTS_MAX
        rows = ResultRows(
            (tuple((i, j) for j in range(side)),) for i in range(side)
        )
        payload = {"ok": True, "results": rows, "trees": side}
        assert _body(payload) == _dumped(payload)
        assert len(protocol._ADDRESS_TEXTS) <= protocol.ADDRESS_TEXTS_MAX

    def test_threads_sharing_a_small_table_write_exact_frames(
        self, monkeypatch
    ):
        """Four threads encode rows of addresses no other thread uses
        while the table, bounded at 16 entries, keeps emptying: every
        frame must still be exact, and the bound must hold."""
        monkeypatch.setattr(protocol, "ADDRESS_TEXTS_MAX", 16)
        mismatches = []

        def encode(thread):
            for round_ in range(400):
                rows = ResultRows(
                    (
                        tuple((thread, round_, i) for i in range(k)),
                        k % 2 == 0,
                        (((thread,), (round_, k)),),
                    )
                    for k in range(6)
                )
                payload = {"ok": True, "results": rows, "round": round_}
                if _body(payload) != _dumped(payload):
                    mismatches.append((thread, round_))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=encode, args=(t,)) for t in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(protocol._ADDRESS_TEXTS) <= 16
