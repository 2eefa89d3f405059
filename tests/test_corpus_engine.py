"""The corpus engine: shared plans, picklable trees, batch execution."""

import pickle

import pytest

from repro.corpus import (
    BatchResult,
    CorpusQuery,
    TreeCorpus,
    ask_query,
    caterpillar_query,
    caterpillar_relation_query,
    run_batch,
    select_query,
    xpath_query,
)
from repro.corpus import executor
from repro.engine import ir as ir_module
from repro.engine.index import TreeIndex, index_for
from repro.engine.plans import (
    compile_xpath_plan,
    plan_cache_clear,
    plan_cache_info,
)
from repro.queries.facade import TreeDatabase
from repro.resilience.errors import ParseError
from repro.resilience.faults import Fault
from repro.trees.parser import parse_term

TERMS = [
    "σ(δ, σ)",
    "δ(σ(δ))",
    "σ(σ(δ, δ), δ, σ)",
    "δ",
    "σ(δ(σ, δ), σ(σ))",
]

QUERIES = [
    xpath_query("//δ"),
    ask_query("exists x O_σ(x)"),
    select_query("x << y & O_δ(y)"),
    caterpillar_query("down*"),
    caterpillar_relation_query("down <σ>"),
]


def sequential_rows(trees, queries):
    """The answers a per-tree loop of facade calls produces."""
    rows = []
    for tree in trees:
        db = TreeDatabase(tree)
        row = []
        for q in queries:
            if q.kind == "xpath":
                row.append(db.xpath(q.text, context=q.context))
            elif q.kind == "ask":
                row.append(db.ask(q.text))
            elif q.kind == "select":
                row.append(db.select_where(q.text, context=q.context))
            elif q.kind == "caterpillar":
                row.append(db.caterpillar(q.text, context=q.context))
            else:
                row.append(tuple(sorted(db.caterpillar_relation(q.text))))
        rows.append(tuple(row))
    return tuple(rows)


@pytest.fixture()
def trees():
    return [parse_term(text) for text in TERMS]


# -- shared plan cache -------------------------------------------------


def test_plan_cache_shared_across_databases(trees):
    plan_cache_clear()
    db1 = TreeDatabase(trees[0])
    db2 = TreeDatabase(trees[1])
    db1.xpath("//δ")
    before = plan_cache_info()
    db2.xpath("//δ")  # second database, same text: no recompile
    after = plan_cache_info()
    assert after.misses == before.misses
    # One shared artifact per text: the parsed AST.  The per-tree IR
    # plan is keyed by that AST's identity, so the second database
    # reuses it without rendering the text.
    assert after.hits == before.hits + 1
    assert len(ir_module._TREE_PLANS) == 1


def test_plan_cache_returns_same_object():
    plan_cache_clear()
    assert compile_xpath_plan("//δ") is compile_xpath_plan("//δ")


# -- pickling ----------------------------------------------------------


def test_tree_pickle_round_trip(trees):
    for tree in trees:
        clone = pickle.loads(pickle.dumps(tree))
        assert clone == tree
        assert clone.nodes == tree.nodes
        assert tuple(clone.attributes) == tuple(tree.attributes)
        for name in tree.attributes:
            for node in tree.nodes:
                assert clone.value(name, node) == tree.value(name, node)


def test_tree_pickle_is_compact(trees):
    # Derived structure (children maps, node orderings) is rebuilt on
    # load, not shipped; the payload stays within a few hundred bytes
    # for small trees.
    assert len(pickle.dumps(trees[0])) < 600


def test_index_pickle_round_trip(trees):
    index = index_for(trees[2])
    clone = pickle.loads(pickle.dumps(index))
    assert isinstance(clone, TreeIndex)
    assert clone.tree == trees[2]
    assert clone.id_of[()] == index.id_of[()]


def test_corpus_query_pickle_round_trip():
    query = CorpusQuery("xpath", "//δ", (0, 1))
    assert pickle.loads(pickle.dumps(query)) == query


# -- batch execution ---------------------------------------------------


def test_batch_matches_sequential_loop(trees):
    result = run_batch(trees, QUERIES)
    assert result.rows == sequential_rows(trees, QUERIES)


def test_batch_ordering_invariant_under_chunking(trees):
    baseline = run_batch(trees, QUERIES, chunk_size=len(trees))
    for chunk_size in (1, 2, 3):
        again = run_batch(trees, QUERIES, chunk_size=chunk_size)
        assert again.rows == baseline.rows


def test_batch_with_workers_matches_serial(trees):
    serial = run_batch(trees, QUERIES)
    fanned = run_batch(trees, QUERIES, workers=2, chunk_size=2)
    assert fanned.rows == serial.rows
    assert fanned.workers == 2
    # The answers must come from live workers, not from the parent-side
    # degradation path silently absorbing worker crashes.
    assert not fanned.fell_back, [c.error for c in fanned.chunks]


def test_reference_engine_batch_agrees(trees):
    assert (
        run_batch(trees, QUERIES, engine="reference").rows
        == run_batch(trees, QUERIES).rows
    )


def test_batch_result_accessors(trees):
    result = run_batch(trees, QUERIES)
    assert isinstance(result, BatchResult)
    assert result.tree_count == len(trees)
    assert result.for_query(1) == tuple(row[1] for row in result.rows)
    assert result.cell(0, 0) == result.rows[0][0]
    assert not result.fell_back
    assert "trees" in repr(result)


def test_empty_batch_shapes():
    empty = run_batch([], QUERIES)
    assert empty.rows == ()
    assert empty.chunks == ()
    no_queries = run_batch([parse_term("σ")], [])
    assert no_queries.rows == ((),)


def test_run_batch_validates_arguments(trees):
    with pytest.raises(ValueError):
        run_batch(trees, QUERIES, engine="mystery")
    with pytest.raises(ValueError):
        run_batch(trees, QUERIES, workers=-1)
    with pytest.raises(ValueError):
        run_batch(trees, QUERIES, chunk_size=0)


def test_parse_error_propagates(trees):
    with pytest.raises(ParseError):
        run_batch(trees, [xpath_query("//[")])


# -- resilience --------------------------------------------------------


def test_faulted_chunk_degrades_without_failing_batch(trees):
    clean = run_batch(trees, QUERIES, chunk_size=1)
    faulty = run_batch(
        trees, QUERIES, chunk_size=1, faults={2: Fault(1, "error")}
    )
    assert faulty.rows == clean.rows  # same answers, same order
    assert faulty.fell_back
    assert [c.fell_back for c in faulty.chunks] == [
        False, False, True, False, False,
    ]
    report = faulty.chunks[2]
    assert report.engine == "reference"
    assert "InjectedFault" in report.error


def test_stall_fault_degrades_too(trees):
    clean = run_batch(trees, QUERIES)
    stalled = run_batch(trees, QUERIES, faults={0: Fault(1, "stall")})
    assert stalled.rows == clean.rows
    assert stalled.chunks[0].fell_back


def test_budget_exhaustion_degrades_every_chunk(trees):
    clean = run_batch(trees, QUERIES, chunk_size=2)
    tight = run_batch(trees, QUERIES, chunk_size=2, budget_steps=1)
    assert tight.rows == clean.rows
    assert all(c.fell_back for c in tight.chunks)


def test_fault_in_worker_chunk_degrades(trees):
    clean = run_batch(trees, QUERIES)
    faulty = run_batch(
        trees, QUERIES, workers=2, chunk_size=2, faults={0: Fault(1, "error")}
    )
    assert faulty.rows == clean.rows
    assert faulty.chunks[0].fell_back


# -- TreeCorpus --------------------------------------------------------


def test_corpus_construction_and_inspection(trees):
    corpus = TreeCorpus(trees)
    assert len(corpus) == len(trees)
    assert corpus[0] == trees[0]
    assert list(corpus) == list(trees)
    assert corpus.total_nodes() == sum(t.size for t in trees)
    assert "unprepared" in repr(corpus)
    corpus.prepare()
    assert "prepared" in repr(corpus)


def test_corpus_from_terms_and_run():
    with TreeCorpus.from_terms(TERMS) as corpus:
        result = corpus.run(QUERIES)
        assert result.rows == sequential_rows(corpus.trees, QUERIES)


def test_corpus_random_is_deterministic():
    a = TreeCorpus.random(6, max_size=9, seed=3)
    b = TreeCorpus.random(6, max_size=9, seed=3)
    assert a.trees == b.trees
    assert TreeCorpus.random(6, max_size=9, seed=4).trees != a.trees
    with pytest.raises(ValueError):
        TreeCorpus.random(-1)
    with pytest.raises(ValueError):
        TreeCorpus.random(1, max_size=0)


def test_warm_reruns_of_a_serial_corpus_stack_no_shard(monkeypatch):
    """A serial corpus keeps each chunk's stacked shard with its warm
    window, so reruns of the same windows stack nothing: 8 trees in
    2-tree chunks stack 4 shards on the first run, none on 5 reruns."""
    stacked = []
    real = executor.StackedShard

    def counting(indexes):
        stacked.append(len(indexes))
        return real(indexes)

    monkeypatch.setattr(executor, "StackedShard", counting)
    corpus = TreeCorpus.random(8, max_size=12, seed=3)
    expected = sequential_rows(corpus.trees, QUERIES)
    assert corpus.run(QUERIES, chunk_size=2).rows == expected
    assert stacked == [2, 2, 2, 2]
    for _ in range(5):
        assert corpus.run(QUERIES, chunk_size=2).rows == expected
    assert stacked == [2, 2, 2, 2]


def test_corpus_reuses_pool_across_runs(trees):
    with TreeCorpus(trees) as corpus:
        first = corpus.run(QUERIES, workers=2)
        pool = corpus.pools.routed(2)
        second = corpus.run(QUERIES, workers=2)
        assert corpus.pools.routed(2) is pool
        assert first.rows == second.rows
        assert not first.fell_back and not second.fell_back
    assert corpus.pools.health() == {}
