"""The executor's service-facing knobs, at the run_batch level:
budget enforcement in both ``on_exhausted`` modes (including the
reference path's deadline), steps accounting on chunk reports,
chunk→pool routing with ``route``, explicit ``bounds``, and the
worker-crash retry ladder."""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.corpus import CorpusQuery, TreeCorpus, ask_query, xpath_query
from repro.corpus.executor import _run_chunk, run_batch
from repro.resilience.errors import ResourceExhausted
from repro.resilience.faults import Fault
from repro.trees import parse_term

TERMS = ["σ(δ, σ(δ))", "δ(σ(δ), δ)", "σ(σ, σ(δ, δ))"]
HEAVY = ask_query("forall x forall y (x << y -> O_δ(y) | O_σ(y))")


@pytest.fixture(scope="module")
def trees():
    return tuple(parse_term(term) for term in TERMS)


@pytest.fixture(scope="module")
def expected(trees):
    return run_batch(trees, [xpath_query("//δ")]).rows


class TestValidation:
    def test_on_exhausted_accepts_only_the_two_modes(self, trees):
        with pytest.raises(ValueError, match="on_exhausted"):
            run_batch(trees, [xpath_query("//δ")], on_exhausted="explode")

    def test_unknown_engine_is_refused(self, trees):
        with pytest.raises(ValueError, match="unknown engine"):
            run_batch(trees, [xpath_query("//δ")], engine="warp")


class TestBudgets:
    def test_degrade_mode_absorbs_exhaustion_into_reference(
        self, trees, expected
    ):
        result = run_batch(
            trees, [xpath_query("//δ")], budget_steps=1,
            on_exhausted="degrade",
        )
        assert result.rows == expected
        assert all(chunk.fell_back for chunk in result.chunks)
        assert all(
            "ResourceExhausted" in chunk.error for chunk in result.chunks
        )

    def test_raise_mode_propagates_exhaustion(self, trees):
        with pytest.raises(ResourceExhausted) as err:
            run_batch(
                trees, [xpath_query("//δ")], budget_steps=1,
                on_exhausted="raise",
            )
        assert err.value.resource == "steps"

    def test_expired_deadline_raises_with_the_deadline_resource(self, trees):
        with pytest.raises(ResourceExhausted) as err:
            run_batch(
                trees, [HEAVY], budget_seconds=0.0, on_exhausted="raise"
            )
        assert err.value.resource == "deadline"

    def test_reference_chunks_honor_the_deadline_when_raising(self, trees):
        # The service contract: a deadline cancels cooperatively on
        # EVERY engine, including an explicitly-requested reference run.
        with pytest.raises(ResourceExhausted) as err:
            run_batch(
                trees, [HEAVY], engine="reference",
                budget_seconds=0.0, on_exhausted="raise",
            )
        assert err.value.resource == "deadline"

    def test_reference_recovery_runs_unbudgeted_in_degrade_mode(
        self, trees, expected
    ):
        # In degrade mode the reference run IS the recovery: the budget
        # that killed the fast attempt must not kill the fallback too.
        result = run_batch(
            trees, [xpath_query("//δ")], engine="reference",
            budget_seconds=0.0, on_exhausted="degrade",
        )
        assert result.rows == expected
        assert not result.fell_back


class TestStepsAccounting:
    def test_budgeted_chunks_report_their_fuel(self, trees):
        result = run_batch(
            trees, [xpath_query("//δ")], budget_steps=10**9
        )
        assert all(chunk.steps > 0 for chunk in result.chunks)
        assert all(not chunk.fell_back for chunk in result.chunks)

    def test_unbudgeted_chunks_report_zero(self, trees):
        result = run_batch(trees, [xpath_query("//δ")])
        assert all(chunk.steps == 0 for chunk in result.chunks)

    def test_reference_chunks_meter_fuel_under_raise(self, trees):
        result = run_batch(
            trees, [xpath_query("//δ")], engine="reference",
            budget_steps=10**9, on_exhausted="raise",
        )
        assert all(chunk.steps > 0 for chunk in result.chunks)


class _FakeFuture:
    def __init__(self, task):
        self._task = task

    def result(self):
        return _run_chunk(self._task)


class _FakePool:
    """Runs chunks inline but records which chunk indices it was
    routed — enough to observe the route arithmetic without processes."""

    def __init__(self):
        self.chunks = []

    def submit(self, fn, task):
        assert fn is _run_chunk
        self.chunks.append(task.index)
        return _FakeFuture(task)


class TestRouting:
    def test_route_rotates_the_chunk_to_pool_assignment(
        self, trees, expected
    ):
        pools = [_FakePool(), _FakePool()]
        result = run_batch(
            trees, [xpath_query("//δ")], workers=2, pool=pools,
            chunk_size=1, route=1,
        )
        assert result.rows == expected
        # Chunk i lands on pool (i + route) % len(pools).
        assert pools[0].chunks == [1]
        assert pools[1].chunks == [0, 2]

    def test_route_zero_is_the_identity_assignment(self, trees):
        pools = [_FakePool(), _FakePool()]
        run_batch(
            trees, [xpath_query("//δ")], workers=2, pool=pools,
            chunk_size=1, route=0,
        )
        assert pools[0].chunks == [0, 2]
        assert pools[1].chunks == [1]


class TestBounds:
    def test_explicit_bounds_window_the_batch(self, trees, expected):
        result = run_batch(
            trees, [xpath_query("//δ")], bounds=[(1, 3)]
        )
        assert result.rows == expected[1:3]
        assert result.chunks[0].start == 1
        assert result.chunks[0].stop == 3


class TestInjectedEngineFault:
    def test_error_fault_costs_the_chunk_its_fast_path_only(
        self, trees, expected
    ):
        result = run_batch(
            trees, [xpath_query("//δ")],
            faults={0: Fault(at_checkpoint=1, kind="error")},
        )
        assert result.rows == expected
        assert result.chunks[0].fell_back
        assert "injected" in result.chunks[0].error


class TestReshipProtocol:
    """A routed worker keeps a corpus token's chunks warm, so later
    batches ship ``trees=None``; a worker that no longer holds a chunk
    answers a cache miss, the parent reruns that chunk itself, and the
    pool forgets it shipped the chunk so the next batch re-ships it."""

    def test_a_worker_missing_the_chunk_gets_it_rerun_in_the_parent(
        self, trees, expected
    ):
        token = f"reship-miss-{os.getpid()}"
        key = (token, 0, len(trees))
        pool = ProcessPoolExecutor(max_workers=1)
        try:
            pool._corpus_shipped = {key}  # the parent's stale belief
            result = run_batch(
                trees, [xpath_query("//δ")], workers=1, pool=pool,
                token=token, chunk_size=len(trees),
            )
            assert key not in pool._corpus_shipped
        finally:
            pool.shutdown()
        assert result.rows == expected
        assert not result.fell_back

    def test_a_second_routed_run_ships_no_trees(self, trees, monkeypatch):
        shipped = []
        submit = ProcessPoolExecutor.submit

        def recording_submit(pool, fn, task, *args, **kwargs):
            shipped.append(task.trees)
            return submit(pool, fn, task, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", recording_submit)
        queries = [xpath_query("//δ"), ask_query("exists x O_σ(x)")]
        with TreeCorpus(trees) as corpus:
            first = corpus.run(queries, workers=2)
            cold, shipped[:] = list(shipped), []
            second = corpus.run(queries, workers=2)
        assert cold and all(chunk is not None for chunk in cold)
        assert len(shipped) == len(cold)
        assert all(chunk is None for chunk in shipped)
        assert second.rows == first.rows
        assert not second.fell_back


@pytest.mark.faults
class TestWorkerCrashRetries:
    def test_deterministic_crash_exhausts_retries_then_degrades(
        self, trees, expected
    ):
        # The scheduled crash kills the worker on every resubmission,
        # so the ladder runs dry and the parent answers the chunk on
        # the reference engine, stamping the attempt count.
        result = run_batch(
            trees, [xpath_query("//δ")], workers=1,
            faults={0: Fault(at_checkpoint=1, kind="crash")},
            worker_retries=2, retry_backoff=0.01,
        )
        assert result.rows == expected
        report = result.chunks[0]
        assert report.fell_back
        assert report.retries == 2
        assert "worker failed" in report.error

    def test_a_pool_shut_down_under_the_batch_degrades_like_a_dead_worker(
        self, trees, expected
    ):
        # Another batch's heal can shut a routed pool down after this
        # batch picked it: the refused submit sends the chunk down the
        # dead-worker ladder instead of failing the whole batch.
        pool = ProcessPoolExecutor(max_workers=1)
        pool.shutdown()
        result = run_batch(trees, [xpath_query("//δ")], workers=1, pool=pool)
        assert result.rows == expected
        report = result.chunks[0]
        assert report.fell_back
        assert "worker failed: RuntimeError" in report.error
