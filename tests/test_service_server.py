"""The dispatcher and TCP server on the sunny path: every query kind
answers exactly like the corpus engine, admission prices and settles,
health/stats tell the truth, and a store-backed server opens read-only
without disturbing a writer's lock."""

import threading
import time

import pytest

from repro.corpus import CorpusStore, TreeCorpus, xpath_query
from repro.service import (
    AdmissionController,
    Dispatcher,
    Overloaded,
    QueryServer,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import decode_payload, encode_frame, split_frame

TERMS = ["σ(δ, σ(δ))", "δ(σ(δ), δ)", "σ(σ, σ(δ, δ))"]


@pytest.fixture()
def corpus():
    with TreeCorpus.from_terms(TERMS) as corpus:
        yield corpus


@pytest.fixture()
def dispatcher(corpus):
    return Dispatcher(corpus)


@pytest.fixture()
def server(dispatcher):
    with QueryServer(dispatcher).start_in_thread() as server:
        yield server


def _expected_rows(corpus, queries):
    import json

    return json.loads(json.dumps(corpus.run(queries).rows))


def _as_lists(cell):
    """A result cell as responses carried it while rows went out as
    lists: bools as they are, per-node lists, pairs of lists."""
    if isinstance(cell, bool):
        return cell
    return [
        [list(part) for part in item]
        if item and isinstance(item[0], tuple)
        else list(item)
        for item in cell
    ]


def _received(response):
    """``response`` as a client receives it: through one wire frame.
    In-process, ``handle`` returns result rows as tuples."""
    body, rest = split_frame(encode_frame(response))
    assert rest == b""
    return decode_payload(body)


class TestDispatcher:
    def test_every_query_kind_matches_the_corpus_engine(
        self, corpus, dispatcher
    ):
        from repro.corpus import (
            ask_query,
            caterpillar_query,
            caterpillar_relation_query,
            select_query,
        )

        queries = [
            xpath_query("//δ"),
            ask_query("exists x O_σ(x)"),
            select_query("x << y & O_δ(y)"),
            caterpillar_query("(down)* <δ>"),
            caterpillar_relation_query("down <σ>"),
        ]
        session = dispatcher.open_session()
        response = dispatcher.handle(
            {
                "op": "query",
                "queries": [
                    {"kind": q.kind, "text": q.text} for q in queries
                ],
            },
            session,
        )
        assert response["ok"] is True
        assert _received(response)["results"] == _expected_rows(
            corpus, queries
        )
        assert response["trees"] == len(TERMS)
        assert response["degraded_chunks"] == 0
        assert all(chunk["steps"] > 0 for chunk in response["chunks"])

    @pytest.mark.parametrize("source", ["trees", "store-lanes", "store-trees"])
    def test_tuple_rows_make_the_frame_per_node_lists_made(
        self, tmp_path, source
    ):
        """Rows go out as the executor made them, tuples all the way
        down; each frame is byte for byte the one a response holding
        per-node lists encodes to, for every query kind."""
        from repro.corpus import (
            ask_query,
            caterpillar_query,
            caterpillar_relation_query,
            select_query,
        )
        from repro.trees.generators import random_tree

        queries = [
            xpath_query("//δ"),
            ask_query("exists x O_σ(x)"),
            select_query("x << y & O_δ(y)"),
            caterpillar_query("(down | right)* <δ>"),
            caterpillar_relation_query("down <σ>"),
        ]
        if source == "store-lanes":  # the relation kind has no IR plan
            queries = queries[:4]
        trees = [
            random_tree(4 + i % 9, value_pool=(1, 2), max_children=3, seed=i)
            for i in range(12)
        ]
        if source == "trees":
            served = TreeCorpus(trees)
        else:
            served = CorpusStore.create(str(tmp_path / "s"), segment_size=8)
            served.ingest(iter(trees))
        with served:
            dispatcher = Dispatcher(served)
            response = dispatcher.handle(
                {
                    "op": "query",
                    "queries": [
                        {"kind": q.kind, "text": q.text} for q in queries
                    ],
                },
                dispatcher.open_session(),
            )
        assert response["ok"] is True
        assert {c["source"] for c in response["chunks"]} == {
            "lanes" if source == "store-lanes" else "trees"
        }
        assert isinstance(response["results"], tuple)
        assert all(any(column) for column in zip(*response["results"]))
        listed = dict(
            response,
            results=[
                [_as_lists(cell) for cell in row]
                for row in response["results"]
            ],
        )
        assert encode_frame(response) == encode_frame(listed)

    def test_window_bounds_select_a_sub_range(self, corpus, dispatcher):
        session = dispatcher.open_session()
        response = dispatcher.handle(
            {
                "op": "query",
                "queries": [{"kind": "xpath", "text": "//δ"}],
                "options": {"start": 1, "stop": 3},
            },
            session,
        )
        expected = _expected_rows(corpus, [xpath_query("//δ")])
        assert _received(response)["results"] == expected[1:3]

    def test_parse_error_is_structured_and_isolated(self, dispatcher):
        session = dispatcher.open_session()
        bad = dispatcher.handle(
            {"op": "query", "queries": [{"kind": "xpath", "text": "//["}]},
            session,
        )
        assert bad["ok"] is False
        assert bad["error"]["code"] == "PARSE_ERROR"
        # The same session keeps answering afterwards.
        good = dispatcher.handle(
            {"op": "query", "queries": [{"kind": "xpath", "text": "//δ"}]},
            session,
        )
        assert good["ok"] is True

    @pytest.mark.parametrize(
        "request_, code",
        [
            ({"op": "nope"}, "BAD_REQUEST"),
            ({"op": "query"}, "BAD_REQUEST"),
            ({"op": "query", "queries": []}, "BAD_REQUEST"),
            ({"op": "query", "queries": ["//δ"]}, "BAD_REQUEST"),
            (
                {"op": "query",
                 "queries": [{"kind": "sql", "text": "select 1"}]},
                "BAD_REQUEST",
            ),
            (
                {"op": "query",
                 "queries": [{"kind": "xpath", "text": "//δ"}],
                 "options": {"start": 99}},
                "BAD_REQUEST",
            ),
            (
                {"op": "query",
                 "queries": [{"kind": "xpath", "text": "//δ"}],
                 "options": {"timeout_ms": "soon"}},
                "BAD_REQUEST",
            ),
        ],
    )
    def test_malformed_requests_are_bad_requests(
        self, dispatcher, request_, code
    ):
        session = dispatcher.open_session()
        response = dispatcher.handle(request_, session)
        assert response["ok"] is False
        assert response["error"]["code"] == code

    @pytest.mark.parametrize(
        "options", [{"budget_steps": -1}, {"timeout_ms": -5}]
    )
    def test_negative_budgets_are_bad_requests(self, dispatcher, options):
        """A negative budget is the client's mistake: it is refused
        before pricing and admission, counted as BAD_REQUEST rather
        than INTERNAL, and the session goes on answering."""
        session = dispatcher.open_session()
        query = [{"kind": "xpath", "text": "//δ"}]
        response = dispatcher.handle(
            {"op": "query", "queries": query, "options": options}, session
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "BAD_REQUEST"
        assert dispatcher.admission.counters()["admitted"] == 0
        good = dispatcher.handle({"op": "query", "queries": query}, session)
        assert good["ok"] is True
        errors = dispatcher.handle({"op": "stats"}, session)["service"][
            "errors"
        ]
        assert errors == {"BAD_REQUEST": 1}

    @pytest.mark.parametrize(
        "options",
        [
            '{"start": NaN}',
            '{"stop": Infinity}',
            '{"start": 1.5}',
            '{"timeout_ms": -Infinity}',
            '{"budget_steps": NaN}',
        ],
    )
    def test_options_that_are_not_whole_numbers_are_bad_requests(
        self, dispatcher, options
    ):
        """Python's json reads ``NaN`` and ``Infinity``; like a
        fractional window bound, they are refused before pricing and
        admission and counted as BAD_REQUEST, not INTERNAL."""
        session = dispatcher.open_session()
        request = decode_payload(
            (
                '{"op": "query", "queries": [{"kind": "xpath", '
                '"text": "//δ"}], "options": ' + options + "}"
            ).encode("utf-8")
        )
        response = dispatcher.handle(request, session)
        assert response["ok"] is False
        assert response["error"]["code"] == "BAD_REQUEST"
        assert "whole number" in response["error"]["message"]
        assert dispatcher.admission.counters()["admitted"] == 0
        errors = dispatcher.handle({"op": "stats"}, session)["service"][
            "errors"
        ]
        assert errors == {"BAD_REQUEST": 1}

    def test_integral_float_options_are_taken(self, corpus, dispatcher):
        response = dispatcher.handle(
            {
                "op": "query",
                "queries": [{"kind": "xpath", "text": "//δ"}],
                "options": {"start": 1.0, "stop": 3.0, "timeout_ms": 500.0},
            },
            dispatcher.open_session(),
        )
        assert response["ok"] is True
        expected = _expected_rows(corpus, [xpath_query("//δ")])
        assert _received(response)["results"] == expected[1:3]

    @pytest.mark.parametrize(
        "context", [[[0]], ["a"], [-1], [True], [0.0]]
    )
    def test_malformed_contexts_are_bad_requests(self, corpus, context):
        """A context is an array of non-negative integers.  With the
        result cache on, a nested array once failed while building the
        cache key; the others failed in the engines."""
        dispatcher = Dispatcher(corpus, result_cache=8)
        session = dispatcher.open_session()
        response = dispatcher.handle(
            {
                "op": "query",
                "queries": [
                    {"kind": "xpath", "text": "//δ", "context": context}
                ],
            },
            session,
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "BAD_REQUEST"
        assert "context" in response["error"]["message"]
        assert dispatcher.admission.counters()["admitted"] == 0
        errors = dispatcher.handle({"op": "stats"}, session)["service"][
            "errors"
        ]
        assert errors == {"BAD_REQUEST": 1}

    @pytest.mark.parametrize("kind", ["xpath", "select", "caterpillar"])
    def test_a_context_some_tree_lacks_is_a_bad_request(self, kind):
        """``(0, 5)`` is a node of no tree in this window: the request
        is refused as BAD_REQUEST naming the node, the session goes on,
        and a context every tree has still answers."""
        text = {
            "xpath": "//δ",
            "select": "x << y & O_δ(y)",
            "caterpillar": "(down)* <δ>",
        }[kind]
        with TreeCorpus.random(6, max_size=20, seed=3) as corpus:
            dispatcher = Dispatcher(corpus, result_cache=8)
            session = dispatcher.open_session()
            response = dispatcher.handle(
                {
                    "op": "query",
                    "queries": [
                        {"kind": kind, "text": text, "context": [0, 5]}
                    ],
                },
                session,
            )
            assert response["ok"] is False
            assert response["error"]["code"] == "BAD_REQUEST"
            assert "(0, 5)" in response["error"]["message"]
            good = dispatcher.handle(
                {
                    "op": "query",
                    "queries": [{"kind": kind, "text": text, "context": []}],
                },
                session,
            )
            assert good["ok"] is True
            errors = dispatcher.handle({"op": "stats"}, session)["service"][
                "errors"
            ]
            assert errors == {"BAD_REQUEST": 1}

    def test_fault_injection_is_rejected_unless_enabled(self, dispatcher):
        session = dispatcher.open_session()
        response = dispatcher.handle(
            {
                "op": "query",
                "queries": [{"kind": "xpath", "text": "//δ"}],
                "options": {"faults": {"0": {"at": 1, "kind": "error"}}},
            },
            session,
        )
        assert response["error"]["code"] == "BAD_REQUEST"
        assert "disabled" in response["error"]["message"]

    def test_crash_faults_need_worker_pools(self, corpus):
        dispatcher = Dispatcher(corpus, allow_faults=True, workers=0)
        session = dispatcher.open_session()
        response = dispatcher.handle(
            {
                "op": "query",
                "queries": [{"kind": "xpath", "text": "//δ"}],
                "options": {"faults": {"0": {"at": 1, "kind": "crash"}}},
            },
            session,
        )
        assert response["error"]["code"] == "BAD_REQUEST"

    @pytest.mark.parametrize("at", [1.5, True, "2"])
    def test_fault_checkpoints_that_are_not_whole_numbers_are_bad_requests(
        self, corpus, at
    ):
        """A fault's ``at`` is read like every numeric option: a
        fraction, a bool or a numeric string is refused, not rounded
        or coerced into a checkpoint."""
        dispatcher = Dispatcher(corpus, allow_faults=True, workers=0)
        session = dispatcher.open_session()
        response = dispatcher.handle(
            {
                "op": "query",
                "queries": [{"kind": "xpath", "text": "//δ"}],
                "options": {"faults": {"0": {"at": at, "kind": "error"}}},
            },
            session,
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "BAD_REQUEST"
        assert "'at'" in response["error"]["message"]
        assert dispatcher.admission.counters()["admitted"] == 0

    def test_handle_never_raises_even_on_internal_bugs(self, dispatcher):
        session = dispatcher.open_session()
        dispatcher.corpus = None  # simulate a corrupted server state
        response = dispatcher.handle(
            {"op": "query", "queries": [{"kind": "xpath", "text": "//δ"}]},
            session,
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "INTERNAL"

    def test_health_and_stats_reflect_traffic(self, dispatcher):
        session = dispatcher.open_session()
        dispatcher.handle(
            {"op": "query", "queries": [{"kind": "xpath", "text": "//δ"}]},
            session,
        )
        dispatcher.handle(
            {"op": "query", "queries": [{"kind": "xpath", "text": "//["}]},
            session,
        )
        health = dispatcher.handle({"op": "health"}, session)
        assert health["status"] == "ok"
        assert health["trees"] == len(TERMS)
        stats = dispatcher.handle({"op": "stats"}, session)
        assert stats["service"]["queries_ok"] == 1
        assert stats["service"]["errors"] == {"PARSE_ERROR": 1}
        assert stats["admission"]["admitted"] == 1
        assert stats["sessions"][session.session_id]["queries"] == 1
        assert stats["sessions"][session.session_id]["errors"] == 1


class TestAdmission:
    def test_inflight_bucket_rejects_with_retry_after(self):
        control = AdmissionController(max_inflight=2, quota_steps=None)
        tickets = [control.admit("a", 10), control.admit("b", 10)]
        with pytest.raises(Overloaded) as err:
            control.admit("c", 10)
        assert err.value.code == "OVERLOADED"
        assert err.value.retry_after_ms >= 1
        tickets[0].settle(5)
        control.admit("c", 10).settle(5)  # slot freed, admissible again
        assert control.counters()["rejected_inflight"] == 1

    def test_session_quota_rejects_and_refills(self):
        control = AdmissionController(
            max_inflight=8, quota_steps=1000, window_seconds=0.2
        )
        control.admit("s", 900).settle(900)
        with pytest.raises(Overloaded) as err:
            control.admit("s", 900)
        assert err.value.retry_after_ms >= 1
        time.sleep(0.25)  # a full window refills the bucket
        control.admit("s", 900).settle(900)
        assert control.counters()["rejected_quota"] == 1

    def test_quotas_are_per_session(self):
        control = AdmissionController(
            max_inflight=8, quota_steps=1000, window_seconds=60.0
        )
        control.admit("greedy", 1000).settle(1000)
        with pytest.raises(Overloaded):
            control.admit("greedy", 1000)
        control.admit("bystander", 1000).settle(1000)  # unaffected

    def test_settle_refunds_the_overcharge(self):
        control = AdmissionController(
            max_inflight=8, quota_steps=1000, window_seconds=60.0
        )
        # Priced pessimistically at 900, actually spent 10: the refund
        # leaves room for the next pessimistic admission.
        control.admit("s", 900).settle(10)
        control.admit("s", 900).settle(10)

    def test_settle_is_idempotent(self):
        control = AdmissionController(max_inflight=1, quota_steps=None)
        ticket = control.admit("s", 10)
        ticket.settle(1)
        ticket.settle(1)
        assert control.inflight == 0

    def test_forget_session_resets_the_quota(self):
        control = AdmissionController(
            max_inflight=8, quota_steps=1000, window_seconds=60.0
        )
        control.admit("s", 1000).settle(1000)
        control.forget_session("s")
        control.admit("s", 1000).settle(1000)  # fresh bucket


class TestServer:
    def test_tcp_roundtrip_matches_the_corpus(self, corpus, server):
        with ServiceClient(*server.address) as client:
            response = client.query(["//δ"])
        assert response["results"] == _expected_rows(
            corpus, [xpath_query("//δ")]
        )

    def test_many_sequential_requests_reuse_the_session(self, server):
        with ServiceClient(*server.address) as client:
            for _ in range(10):
                assert client.ping() == {"ok": True, "pong": True}
            stats = client.stats()
        assert len(stats["sessions"]) == 1

    def test_concurrent_clients_all_get_correct_answers(
        self, corpus, server
    ):
        expected = _expected_rows(corpus, [xpath_query("//δ")])
        failures = []

        def hammer():
            try:
                with ServiceClient(*server.address) as client:
                    for _ in range(20):
                        if client.query(["//δ"])["results"] != expected:
                            failures.append("wrong answer")
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert failures == []

    def test_disconnect_frees_the_session(self, dispatcher, server):
        client = ServiceClient(*server.address)
        client.ping()
        client.close()
        deadline = time.time() + 5
        while dispatcher._sessions and time.time() < deadline:
            time.sleep(0.01)
        assert not dispatcher._sessions

    def test_stopped_server_refuses_connections(self, dispatcher):
        server = QueryServer(dispatcher).start_in_thread()
        address = server.address
        server.stop()
        with pytest.raises(OSError):
            ServiceClient(*address, timeout=0.5).ping()


class TestStoreBacked:
    def test_readonly_store_serves_while_a_writer_holds_the_lock(
        self, tmp_path
    ):
        from repro.trees import parse_term

        path = str(tmp_path / "store")
        writer = CorpusStore.create(path)
        for term in TERMS:
            writer.append(parse_term(term))
        # The writer still holds the lock; a read-only open must not
        # steal it, and the served answers must match the writer's.
        reader = CorpusStore.open(path, readonly=True)
        try:
            dispatcher = Dispatcher(reader)
            session = dispatcher.open_session()
            response = dispatcher.handle(
                {
                    "op": "query",
                    "queries": [{"kind": "xpath", "text": "//δ"}],
                },
                session,
            )
            assert response["ok"] is True
            assert _received(response)["results"] == _expected_rows(
                writer, [xpath_query("//δ")]
            )
        finally:
            reader.close()
            writer.close()
