"""Unit tests for the differential oracle: generators, engine pairs,
encodings, and the driver."""

import random

import pytest

from repro.logic import tree_fo
from repro.logic.exists_star import ExistsStarQuery, is_exists_star, variable_count
from repro.oracle import (
    Case,
    default_pairs,
    pairs_by_name,
    run_oracle,
)
from repro.oracle import generators as gen
from repro.oracle.pairs import (
    FUEL,
    XPathVsCaterpillar,
    enumerate_select,
    path_to_caterpillar,
)
from repro.trees.parser import parse_term
from repro.xpath.compiler import compile_xpath
from repro.xpath.parser import parse_xpath

from tests.conftest import tree_family


# -- generators --------------------------------------------------------------------


def test_random_tree_respects_vocabulary():
    rng = random.Random(1)
    for _ in range(20):
        tree = gen.random_attributed_tree(rng, 9)
        assert 1 <= tree.size <= 9
        assert set(tree.alphabet) <= set(gen.ALPHABET)
        assert tree.attributes == gen.ATTRIBUTES


def test_random_context_is_a_node():
    rng = random.Random(2)
    tree = gen.random_attributed_tree(rng, 12)
    for _ in range(10):
        assert gen.random_context(rng, tree) in tree


def test_random_xpath_round_trips_and_stays_small():
    rng = random.Random(3)
    for _ in range(40):
        expr = gen.random_xpath(rng)
        assert parse_xpath(repr(expr)) == expr
        assert variable_count(compile_xpath(expr).formula) <= 5


def test_random_walking_xpath_translates():
    rng = random.Random(4)
    for _ in range(40):
        path = gen.random_walking_xpath(rng)
        path_to_caterpillar(path)  # must not raise


def test_random_exists_star_is_in_fragment():
    rng = random.Random(5)
    for _ in range(40):
        formula = gen.random_exists_star(rng)
        assert is_exists_star(formula)
        assert tree_fo.free_variables(formula) <= {gen.X, gen.Y}


def test_specimens_cover_all_templates():
    rng = random.Random(6)
    seen = {gen.random_automaton_specimen(rng).template for _ in range(200)}
    assert seen == set(gen.TEMPLATES)


def test_generators_are_deterministic_per_seed():
    a = gen.random_attributed_tree(random.Random(7), 10)
    b = gen.random_attributed_tree(random.Random(7), 10)
    assert a == b
    assert gen.random_xpath(random.Random(7)) == gen.random_xpath(random.Random(7))


# -- the xpath → caterpillar translation -------------------------------------------


def test_path_to_caterpillar_child_axis(sigma_delta_tree):
    pair = XPathVsCaterpillar()
    for text in ["σ/δ", "*/σ", "./δ//σ", "σ//δ/σ", "*"]:
        case = Case(sigma_delta_tree, parse_xpath(text), ())
        outcome = pair.check(case)
        assert outcome.agree, (text, outcome)


def test_path_to_caterpillar_rejects_absolute_and_filters():
    with pytest.raises(ValueError):
        path_to_caterpillar(parse_xpath("/σ"))
    with pytest.raises(ValueError):
        path_to_caterpillar(parse_xpath("σ[δ]"))


# -- the from-scratch FO(∃*) reference ---------------------------------------------


def test_enumerate_select_matches_query_on_family():
    rng = random.Random(8)
    for tree in tree_family(count=6, max_size=7):
        for _ in range(5):
            formula = gen.random_exists_star(rng)
            query = ExistsStarQuery(formula, gen.X, gen.Y)
            for context in tree.nodes:
                assert enumerate_select(formula, tree, context) == query.select(
                    tree, context
                )


def test_enumerate_select_all_or_none_convention():
    # φ does not mention y → every node or none, matching ExistsStarQuery.
    tree = parse_term("σ[a=1](δ[a=2])")
    holds = tree_fo.Label("σ", gen.X)
    assert enumerate_select(holds, tree, ()) == tree.nodes
    assert enumerate_select(holds, tree, (0,)) == ()


# -- engine pairs ------------------------------------------------------------------


@pytest.mark.parametrize("pair", default_pairs(), ids=lambda p: p.name)
def test_pair_agrees_on_generated_cases(pair):
    rng = random.Random(9)
    for _ in range(8):
        case = pair.generate(rng, 8)
        outcome = pair.check(case)
        assert outcome.agree, (pair.name, outcome)


@pytest.mark.parametrize("pair", default_pairs(), ids=lambda p: p.name)
def test_pair_query_encoding_round_trips(pair):
    rng = random.Random(10)
    for _ in range(10):
        case = pair.generate(rng, 8)
        payload = pair.encode_query(case.query)
        assert pair.decode_query(payload) == case.query


@pytest.mark.parametrize("pair", default_pairs(), ids=lambda p: p.name)
def test_pair_shrink_candidates_are_wellformed(pair):
    rng = random.Random(11)
    case = pair.generate(rng, 8)
    for candidate in pair.shrink_query(case.query):
        # Every candidate must stay encodable (hence persistable).
        pair.encode_query(candidate)


# -- driver ------------------------------------------------------------------------


def test_run_oracle_round_robin_and_clean():
    report = run_oracle(seed=0, budget=26, max_size=6)
    assert report.total_cases() == 26
    assert report.total_disagreements() == 0
    assert [s.cases for s in report.stats] == [2] * 13


def test_run_oracle_subset_of_pairs():
    registry = pairs_by_name()
    report = run_oracle(
        seed=1, budget=6, pairs=[registry["runner/memo"]], max_size=6
    )
    assert len(report.stats) == 1
    assert report.stats[0].name == "runner/memo"
    assert report.stats[0].cases == 6
    # The runner/memo pair reports comparable step counters.
    assert report.stats[0].left_steps > 0
    assert report.stats[0].right_steps > 0


def test_runner_memo_fuel_is_bounded():
    assert FUEL <= 1_000_000  # keep the fuzzer's worst case bounded


def test_summary_lines_cover_all_pairs():
    report = run_oracle(seed=2, budget=6, max_size=5)
    text = "\n".join(report.summary_lines())
    for pair in default_pairs():
        assert pair.name in text
