"""TreeDatabase facade tests."""

import pytest

from repro import TreeDatabase
from repro.automata import TWClass
from repro.automata.examples import (
    all_leaves_same_twrl,
    even_leaves_automaton,
    example_32,
)
from repro.logic import tree_fo as T
from repro.logic.exists_star import descendants_with_label
from repro.mso import leaf_count_mod_hedge


@pytest.fixture
def db():
    return TreeDatabase.from_term(
        'catalog(dept(item[cur="EUR"], item[cur="EUR"]), dept(item[cur="USD"]))'
    )


def test_roundtrips(db):
    assert TreeDatabase.from_term(db.to_term()).tree == db.tree
    assert TreeDatabase.from_xml(db.to_xml()).tree == db.tree
    assert db.size == 6


def test_xpath(db):
    assert db.xpath("catalog//item") == ((0, 0), (0, 1), (1, 0))
    assert db.xpath("catalog/dept[item]") == ((0,), (1,))
    assert db.xpath("item", context=(0, 0)) == ((0, 0),)


def test_xpath_cache(db):
    db.xpath("catalog//item")
    assert "catalog//item" in db._xpath_cache


def test_xpath_as_fo_agrees(db):
    query = db.xpath_as_fo("catalog//item")
    assert query.select(db.tree, ()) == db.xpath("catalog//item")


def test_holds(db):
    x = T.NVar("x")
    assert db.holds(T.exists(x, T.ValConst("cur", x, "USD")))
    assert not db.holds(T.forall(x, T.Leaf(x)))


def test_select(db):
    q = descendants_with_label("dept")
    assert db.select(q) == ((0,), (1,))


def test_run_automaton(db):
    assert not db.run_automaton(all_leaves_same_twrl("cur"))
    assert db.run_automaton(even_leaves_automaton()) == False  # 3 leaves
    t2 = TreeDatabase.from_term("a(b, c)")
    assert t2.run_automaton(even_leaves_automaton())


def test_run_automaton_delimited():
    db = TreeDatabase.from_term("σ(δ(σ[a=1], σ[a=1]))")
    assert db.run_automaton(example_32(), delimited=True)


def test_memoised_agrees(db):
    a = all_leaves_same_twrl("cur")
    assert db.run_automaton(a, memoised=True) == db.run_automaton(a)


def test_run_with_trace(db):
    result = db.run_with_trace(even_leaves_automaton())
    assert result.trace is not None and len(result.trace) > 0


def test_automaton_class(db):
    assert db.automaton_class(even_leaves_automaton()) is TWClass.TW


def test_matches_hedge(db):
    h = leaf_count_mod_hedge(("catalog", "dept", "item"), "item", 3, [0])
    assert db.matches_hedge(h)  # exactly 3 item leaves


def test_with_ids(db):
    extended = db.with_ids()
    assert "ID" in extended.tree.attributes
    assert db.tree.attributes == ("cur",)  # original untouched


def test_ensure_ids_flag():
    db = TreeDatabase.from_term("a(b)", ensure_ids=True)
    assert "ID" in db.tree.attributes


def test_cache_info_counts_hits_and_misses(db):
    assert db.cache_info() == (0, 0, 128, 0)
    db.xpath("catalog//item")
    db.xpath("catalog//item")
    db.xpath("catalog/dept")
    info = db.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    assert info.maxsize == 128


def test_cache_is_lru_bounded():
    db = TreeDatabase.from_term("a(b, c)", xpath_cache_size=2)
    db.xpath("a")
    db.xpath("b")
    db.xpath("a")      # refresh 'a' so 'b' is the eviction victim
    db.xpath("c")      # evicts 'b'
    assert set(db._xpath_cache) == {"a", "c"}
    assert db.cache_info().currsize == 2
    db.xpath("b")      # miss again after eviction
    assert db.cache_info().misses == 4


def test_cache_size_zero_disables_caching():
    db = TreeDatabase.from_term("a(b)", xpath_cache_size=0)
    db.xpath("a")
    db.xpath("a")
    info = db.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def test_cache_clear_resets_stats(db):
    db.xpath("catalog//item")
    db.xpath("catalog//item")
    db.cache_clear()
    assert db.cache_info() == (0, 0, 128, 0)
    assert db.xpath("catalog//item") == ((0, 0), (0, 1), (1, 0))


def test_cache_rejects_negative_size():
    with pytest.raises(ValueError):
        TreeDatabase.from_term("a", xpath_cache_size=-1)


def test_cached_result_identical_to_fresh(db):
    first = db.xpath("catalog/dept[item]")
    again = db.xpath("catalog/dept[item]")
    assert first == again
    assert db.cache_info().hits == 1


# -- caterpillar walks and their parse cache ---------------------------------


def test_caterpillar_walk_and_relation(db):
    leaves = db.caterpillar("(down | right)* isLeaf")
    assert leaves == ((0, 0), (0, 1), (1, 0))
    assert db.caterpillar("(down | right)* isLeaf", engine="reference") \
        == leaves
    pairs = db.caterpillar_relation("down")
    assert pairs == db.caterpillar_relation("down", engine="reference")
    assert ((), (0,)) in pairs  # DOWN is first-child


def test_caterpillar_context_parameter(db):
    assert db.caterpillar("isLeaf", context=(0, 0)) == ((0, 0),)
    assert db.caterpillar("isLeaf") == ()


def test_caterpillar_rejects_unknown_engine(db):
    with pytest.raises(ValueError):
        db.caterpillar("down", engine="bogus")
    with pytest.raises(ValueError):
        db.caterpillar_relation("down", engine="bogus")


def test_caterpillar_cache_counts_hits_and_misses(db):
    assert db.caterpillar_cache_info() == (0, 0, 128, 0)
    db.caterpillar("(down | right)* isLeaf")
    db.caterpillar("(down | right)* isLeaf")
    db.caterpillar_relation("down")
    info = db.caterpillar_cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    assert info.maxsize == 128


def test_caterpillar_cache_is_lru_bounded():
    db = TreeDatabase.from_term("a(b, c)", caterpillar_cache_size=2)
    db.caterpillar("down")
    db.caterpillar("up")
    db.caterpillar("down")   # refresh 'down' so 'up' is evicted next
    db.caterpillar("right")  # evicts 'up'
    assert set(db._caterpillar_cache) == {"down", "right"}
    db.caterpillar("up")     # miss again after eviction
    assert db.caterpillar_cache_info().misses == 4


def test_caterpillar_cache_size_zero_disables_caching():
    db = TreeDatabase.from_term("a(b)", caterpillar_cache_size=0)
    db.caterpillar("down")
    db.caterpillar("down")
    info = db.caterpillar_cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def test_caterpillar_cache_clear_resets_stats(db):
    db.caterpillar("down")
    db.caterpillar("down")
    db.caterpillar_cache_clear()
    assert db.caterpillar_cache_info() == (0, 0, 128, 0)


def test_caterpillar_cache_rejects_negative_size():
    with pytest.raises(ValueError):
        TreeDatabase.from_term("a", caterpillar_cache_size=-1)


def test_caterpillar_cache_independent_of_xpath_cache(db):
    db.caterpillar("down")
    assert db.cache_info().misses == 0
    db.xpath("catalog//item")
    assert db.caterpillar_cache_info().misses == 1


def test_run_automaton_engine_parameter(db):
    auto = even_leaves_automaton()
    assert db.run_automaton(auto, engine="fast") == db.run_automaton(
        auto, engine="reference"
    )
    with pytest.raises(ValueError):
        db.run_automaton(auto, engine="bogus")


QUERY_KINDS = (
    ("xpath", "catalog//item", (0,)),
    ("ask", "forall x (leaf(x) -> O_item(x))", ()),
    ("select", "x << y & O_item(y)", (1,)),
    ("caterpillar", "(down | right)* isLeaf", (0, 0)),
    ("caterpillar-relation", "down", ()),
)


@pytest.mark.parametrize("engine", ["fast", "reference", "resilient", "auto"])
def test_query_answers_every_kind_like_its_own_method(db, engine):
    typed = {
        "xpath": lambda text, context: db.xpath(text, context, engine),
        "ask": lambda text, context: db.ask(text, engine),
        "select": lambda text, context: db.select_where(
            text, context, engine
        ),
        "caterpillar": lambda text, context: db.caterpillar(
            text, context, engine
        ),
        "caterpillar-relation": lambda text, context: db.caterpillar_relation(
            text, engine
        ),
    }
    for kind, text, context in QUERY_KINDS:
        assert db.query(kind, text, context, engine) == typed[kind](
            text, context
        )


def test_query_rejects_unknown_kinds_and_engines(db):
    with pytest.raises(ValueError, match="unknown query kind"):
        db.query("sql", "select 1")
    with pytest.raises(ValueError, match="unknown engine"):
        db.query("xpath", "//item", engine="bogus")


def test_query_applies_the_formula_size_limit_of_fo_kinds(db):
    from repro.resilience import Budget, ResourceExhausted

    tight = Budget(max_formula_size=2)
    for kind, text, _ in QUERY_KINDS[1:3]:
        with pytest.raises(ResourceExhausted):
            db.query(kind, text, budget=tight)
    # XPath and walks have no FO formula to bound.
    assert db.query("xpath", "catalog//item", budget=Budget(max_formula_size=0))
