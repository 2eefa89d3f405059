"""The dispatcher: one request in, one response out, transport-free.

:class:`Dispatcher` is the service's whole brain with the network cut
away: it holds the loaded corpus (a
:class:`~repro.corpus.TreeCorpus` or :class:`~repro.corpus.CorpusStore`
— both expose the same ``run``/``statistics`` surface), the
:class:`~repro.service.admission.AdmissionController`, and the
service-wide counters, and turns one request dict into one response
dict.  The asyncio server calls it from worker threads; the local REPL
calls it directly; the tests call it without a socket in sight.

Isolation contract: :meth:`handle` **never raises**.  Every failure —
malformed request, parse error, exhausted budget, expired deadline,
admission rejection, even an unexpected internal exception — becomes a
structured error response for *that request alone*.  The session that
sent it, and every other session, keeps going.

Per-query robustness plumbing:

* ``timeout_ms`` becomes a cooperative ``budget_seconds`` deadline —
  the executor's fuel checkpoints notice the expiry mid-walk and the
  query fails with ``DEADLINE`` instead of running long;
* the corpus runs with ``on_exhausted="raise"``: an exhausted budget is
  *reported*, never silently degraded to a possibly-slower reference
  pass that would blow the deadline anyway;
* each session gets a stable ``route`` offset, spreading chunk → pool
  routing across sessions when the server runs worker pools;
* worker batches run with bounded ``worker_retries`` — a worker that
  dies mid-chunk is retried on a healed pool with exponential backoff
  before the chunk degrades to the in-process reference engine.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, Optional, Sequence

from ..corpus.executor import ENGINES, BatchResult, plan_queries
from ..corpus.query import KINDS, CorpusQuery
from ..resilience.errors import ParseError, ReproError, ResourceExhausted
from ..resilience.faults import Fault
from .admission import AdmissionController
from .cache import ResultCache
from .protocol import (
    BAD_REQUEST,
    DEADLINE,
    INTERNAL,
    PARSE_ERROR,
    RESOURCE_EXHAUSTED,
    ServiceError,
    error_response,
    ok_response,
)

__all__ = ["Dispatcher", "SessionState"]

#: Fallback price per (query, tree) cell when the planner cannot model
#: the corpus (e.g. an empty one).
_DEFAULT_CELL_PRICE = 50.0

_SESSION_IDS = itertools.count(1)


class SessionState:
    """Per-connection identity and counters (one per client)."""

    __slots__ = ("session_id", "route", "started", "queries", "errors")

    def __init__(self, session_id: Optional[str] = None) -> None:
        number = next(_SESSION_IDS)
        self.session_id = session_id or f"session-{number}"
        #: Stable routing offset so concurrent sessions spread their
        #: chunks across routed worker pools instead of piling onto
        #: pool 0.
        self.route = number
        self.started = time.monotonic()
        self.queries = 0
        self.errors = 0


class Dispatcher:
    """Turns request dicts into response dicts over one loaded corpus."""

    def __init__(
        self,
        corpus,
        admission: Optional[AdmissionController] = None,
        workers: int = 0,
        default_timeout_ms: Optional[int] = 10_000,
        max_budget_steps: Optional[int] = None,
        worker_retries: int = 2,
        retry_backoff: float = 0.02,
        allow_faults: bool = False,
        resilience_log=None,
        result_cache: int = 0,
    ) -> None:
        self.corpus = corpus
        self.admission = admission or AdmissionController()
        self.workers = workers
        self.default_timeout_ms = default_timeout_ms
        self.max_budget_steps = max_budget_steps
        self.worker_retries = worker_retries
        self.retry_backoff = retry_backoff
        #: Fault injection is opt-in (the chaos harness turns it on);
        #: a production server rejects fault-carrying requests.
        self.allow_faults = allow_faults
        self.resilience_log = resilience_log
        #: Generation-keyed window result cache (``repro serve
        #: --result-cache N``; 0 disables).  Keys lead with the corpus
        #: token, which embeds the store generation — any mutation
        #: changes the token and orphans every cached window.
        self.result_cache = (
            ResultCache(result_cache) if result_cache > 0 else None
        )
        self.started = time.monotonic()
        self._lock = threading.Lock()
        self._sessions: Dict[str, SessionState] = {}
        self._counters = {
            "queries_ok": 0,
            "errors": {},  # code -> count
            "degraded_chunks": 0,
            "worker_retries": 0,
            "cells_answered": 0,
        }

    # -- session lifecycle --------------------------------------------

    def open_session(self) -> SessionState:
        session = SessionState()
        with self._lock:
            self._sessions[session.session_id] = session
        return session

    def close_session(self, session: SessionState) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)
        self.admission.forget_session(session.session_id)

    # -- the single entry point ---------------------------------------

    def handle(self, request: dict, session: SessionState) -> dict:
        """One response for one request; never raises (see module doc)."""
        try:
            if not isinstance(request, dict):
                raise _bad_request("request must be a JSON object")
            op = request.get("op")
            if op == "query":
                return self._handle_query(request, session)
            if op == "health":
                return self._handle_health()
            if op == "stats":
                return self._handle_stats()
            if op == "ping":
                return ok_response(pong=True)
            raise _bad_request(f"unknown op {op!r}")
        except ServiceError as exc:
            self._count_error(session, exc.code)
            return error_response(exc.code, exc.message, exc.retry_after_ms)
        except ParseError as exc:
            self._count_error(session, PARSE_ERROR)
            return error_response(PARSE_ERROR, str(exc))
        except ResourceExhausted as exc:
            code = DEADLINE if exc.resource == "deadline" else RESOURCE_EXHAUSTED
            self._count_error(session, code)
            return error_response(code, str(exc))
        except ReproError as exc:
            self._count_error(session, INTERNAL)
            return error_response(INTERNAL, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # the isolation backstop
            self._count_error(session, INTERNAL)
            return error_response(INTERNAL, f"{type(exc).__name__}: {exc}")

    # -- query ---------------------------------------------------------

    def _handle_query(self, request: dict, session: SessionState) -> dict:
        queries = self._parse_queries(request.get("queries"))
        options = request.get("options") or {}
        if not isinstance(options, dict):
            raise _bad_request("options must be an object")
        start = _int_option(options, "start", 0)
        stop = _int_option(options, "stop", None)
        engine = options.get("engine", "fast")
        if engine not in ENGINES:
            raise _bad_request(f"unknown engine {engine!r}")
        timeout_ms = _int_option(options, "timeout_ms", self.default_timeout_ms)
        budget_steps = _int_option(options, "budget_steps", None)
        if self.max_budget_steps is not None:
            budget_steps = (
                self.max_budget_steps
                if budget_steps is None
                else min(budget_steps, self.max_budget_steps)
            )
        faults = self._parse_faults(options.get("faults"))

        tree_count = self._tree_count()
        stop_at = tree_count if stop is None else min(stop, tree_count)
        if start < 0 or start > stop_at:
            raise _bad_request(f"bad tree range [{start}, {stop})")
        window = stop_at - start

        # Cache check before pricing and admission: a hit answers from
        # memory, burning neither a ticket nor a single engine step.
        # Fault-carrying requests bypass the cache in both directions —
        # injected chaos must hit the real pipeline, and its possibly
        # degraded responses must not be replayed to clean requests.
        cache_key = None
        if self.result_cache is not None and faults is None:
            token = getattr(self.corpus, "token", None)
            if token is not None:
                cache_key = ResultCache.key(
                    token, engine, start, stop_at, queries
                )
                hit = self.result_cache.get(cache_key)
                if hit is not None:
                    with self._lock:
                        session.queries += 1
                        self._counters["queries_ok"] += 1
                    response = dict(hit)
                    response["cached"] = True
                    return response

        price = self._price(queries, window)
        ticket = self.admission.admit(session.session_id, price)
        actual_steps: Optional[int] = None
        try:
            began = time.perf_counter()
            result = self.corpus.run(
                queries,
                workers=self.workers,
                engine=engine,
                start=start,
                stop=stop,
                budget_steps=budget_steps,
                budget_seconds=(
                    None if timeout_ms is None else timeout_ms / 1000.0
                ),
                on_exhausted="raise",
                faults=faults,
                route=session.route,
                worker_retries=self.worker_retries if self.workers else 0,
                retry_backoff=self.retry_backoff,
            )
            elapsed = time.perf_counter() - began
            actual_steps = sum(chunk.steps for chunk in result.chunks)
            response = self._query_response(result, session, elapsed)
            if cache_key is not None:
                self.result_cache.put(cache_key, response)
            return response
        finally:
            ticket.settle(actual_steps)

    def _parse_queries(self, raw) -> Sequence[CorpusQuery]:
        if not isinstance(raw, list) or not raw:
            raise _bad_request("queries must be a non-empty array")
        queries = []
        for item in raw:
            if not isinstance(item, dict):
                raise _bad_request("each query must be an object")
            kind = item.get("kind")
            text = item.get("text")
            if kind not in KINDS:
                raise _bad_request(
                    f"unknown query kind {kind!r}; expected one of {KINDS}"
                )
            if not isinstance(text, str):
                raise _bad_request("query text must be a string")
            context = item.get("context", [])
            if not isinstance(context, list):
                raise _bad_request("query context must be an array")
            queries.append(CorpusQuery(kind, text, tuple(context)))
        return queries

    def _parse_faults(self, raw) -> Optional[Dict[int, Fault]]:
        if raw is None:
            return None
        if not self.allow_faults:
            raise _bad_request(
                "fault injection is disabled on this server"
            )
        if not isinstance(raw, dict):
            raise _bad_request("faults must map chunk index to a fault")
        faults = {}
        for key, spec in raw.items():
            try:
                index = int(key)
            except (TypeError, ValueError):
                raise _bad_request(f"bad fault chunk index {key!r}")
            if not isinstance(spec, dict):
                raise _bad_request("each fault must be an object")
            kind = spec.get("kind", "error")
            if kind == "crash" and self.workers == 0:
                # An in-process "crash" would take the whole server
                # down — only a worker process may die for science.
                raise _bad_request(
                    "crash faults need worker pools (serve --workers N)"
                )
            try:
                faults[index] = Fault(
                    at_checkpoint=int(spec.get("at", 1)), kind=kind
                )
            except (TypeError, ValueError) as exc:
                raise _bad_request(f"bad fault spec: {exc}")
        return faults or None

    def _price(self, queries: Sequence[CorpusQuery], window: int) -> float:
        """Planner-derived admission price: modeled per-tree cost of
        each query, summed, times the window size."""
        try:
            plans = plan_queries(queries, self.corpus.statistics())
            per_tree = sum(plan.estimated_cost for plan in plans)
        except ParseError:
            raise  # malformed query: reject before admission
        except Exception:
            per_tree = _DEFAULT_CELL_PRICE * len(queries)
        return max(per_tree, _DEFAULT_CELL_PRICE * len(queries)) * max(window, 1)

    def _query_response(
        self, result: BatchResult, session: SessionState, elapsed: float
    ) -> dict:
        degraded = sum(1 for c in result.chunks if c.fell_back)
        retried = sum(c.retries for c in result.chunks)
        with self._lock:
            session.queries += 1
            self._counters["queries_ok"] += 1
            self._counters["degraded_chunks"] += degraded
            self._counters["worker_retries"] += retried
            self._counters["cells_answered"] += (
                result.tree_count * len(result.queries)
            )
        return ok_response(
            results=[
                [_jsonable(cell) for cell in row] for row in result.rows
            ],
            trees=result.tree_count,
            chunks=[
                {
                    "index": c.index,
                    "start": c.start,
                    "stop": c.stop,
                    "engine": c.engine,
                    "fell_back": c.fell_back,
                    "error": c.error,
                    "steps": c.steps,
                    "retries": c.retries,
                }
                for c in result.chunks
            ],
            degraded_chunks=degraded,
            elapsed_ms=elapsed * 1000.0,
        )

    # -- health / stats ------------------------------------------------

    def _handle_health(self) -> dict:
        # Liveness of each routed pool slot the corpus holds.
        owner = getattr(self.corpus, "pools", None)
        pools = owner.health() if owner is not None else {}
        degraded = any(not alive for alive in pools.values())
        return ok_response(
            status="degraded" if degraded else "ok",
            uptime_s=time.monotonic() - self.started,
            trees=self._tree_count(),
            workers=self.workers,
            pools={str(k): v for k, v in pools.items()},
            inflight=self.admission.inflight,
        )

    def _handle_stats(self) -> dict:
        with self._lock:
            counters = {
                "queries_ok": self._counters["queries_ok"],
                "errors": dict(self._counters["errors"]),
                "degraded_chunks": self._counters["degraded_chunks"],
                "worker_retries": self._counters["worker_retries"],
                "cells_answered": self._counters["cells_answered"],
            }
            sessions = {
                state.session_id: {
                    "queries": state.queries,
                    "errors": state.errors,
                    "age_s": time.monotonic() - state.started,
                }
                for state in self._sessions.values()
            }
        payload = ok_response(
            service=counters,
            admission=self.admission.counters(),
            sessions=sessions,
        )
        if self.result_cache is not None:
            payload["result_cache"] = self.result_cache.info()
        if self.resilience_log is not None:
            payload["resilience"] = self.resilience_log.snapshot()
        return payload

    # -- internals -----------------------------------------------------

    def _tree_count(self) -> int:
        count = getattr(self.corpus, "tree_count", None)
        if count is None:
            return len(self.corpus)
        return count() if callable(count) else count

    def _count_error(self, session: SessionState, code: str) -> None:
        with self._lock:
            session.errors += 1
            errors = self._counters["errors"]
            errors[code] = errors.get(code, 0) + 1


def _bad_request(message: str) -> ServiceError:
    return ServiceError(BAD_REQUEST, message)


def _int_option(options: dict, key: str, default):
    value = options.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad_request(f"option {key!r} must be a number")
    return int(value)


def _jsonable(cell):
    """One result cell as JSON: bools pass through, node tuples become
    lists of lists, pair tuples become pairs of lists."""
    if isinstance(cell, bool):
        return cell
    return [
        [list(part) for part in item]
        if item and isinstance(item[0], tuple)
        else list(item)
        for item in cell
    ]
