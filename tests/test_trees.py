from __future__ import annotations

import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unicover import (
    ParseError,
    RootedTree,
    canonical_code,
    parse_tree,
    read_collection,
    truncate,
    write_collection,
)
from unicover.trees import Forest, code_sort_key, count_nodes, depth
from treegen import random_tree, shuffle_tree

trees_st = st.recursive(
    st.just(RootedTree()),
    lambda kids: st.lists(kids, max_size=4).map(lambda cs: RootedTree(tuple(cs))),
    max_leaves=25,
)


def test_parse_single_node():
    assert parse_tree("()") == RootedTree()


def test_parse_two_leaf_children():
    assert parse_tree("(()())") == RootedTree((RootedTree(), RootedTree()))


def test_parse_path_of_three():
    assert parse_tree("((()))") == RootedTree((RootedTree((RootedTree(),)),))


def test_parse_ignores_surrounding_whitespace():
    assert parse_tree("  (())\n") == parse_tree("(())")


@pytest.mark.parametrize("bad", ["", "   ", "(", ")", "(()", "())", ")(", "()()", "(())x", "(a)"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_tree(bad)


def test_canonical_sorts_children():
    a = RootedTree((parse_tree("(())"), parse_tree("()")))
    b = RootedTree((parse_tree("()"), parse_tree("(())")))
    assert canonical_code(a) == canonical_code(b) == "(()(()))"


def test_canonical_single_node():
    assert canonical_code(RootedTree()) == "()"


def test_code_sort_key_orders_short_before_long():
    assert code_sort_key("()") < code_sort_key("(())")
    assert code_sort_key("(()())") != code_sort_key("((()))")


@pytest.mark.parametrize(
    "text,want", [("()", 0), ("((()))", 2), ("(()(()))", 2), ("(()())", 1)]
)
def test_depth(text, want):
    assert depth(parse_tree(text)) == want


def test_truncate_cuts_at_depth():
    assert canonical_code(truncate(parse_tree("((()))"), 1)) == "(())"
    assert canonical_code(truncate(parse_tree("(()(()))"), 1)) == "(()())"


def test_truncate_identity_at_full_depth():
    t = parse_tree("(()(())((())))")
    assert canonical_code(truncate(t, depth(t))) == canonical_code(t)


def test_truncate_to_zero_is_leaf():
    assert truncate(parse_tree("((()))"), 0) == RootedTree()


def test_truncate_negative_rejected():
    with pytest.raises(ValueError):
        truncate(RootedTree(), -1)


def test_canonical_code_examples():
    assert canonical_code(parse_tree("(()())")) == "(()())"
    assert canonical_code(RootedTree((parse_tree("(())"), RootedTree()))) == "(()(()))"


def test_deep_tree_does_not_overflow():
    # parse, code, and depth are stack-based on purpose
    text = "(" * 5000 + ")" * 5000
    t = parse_tree(text)
    assert depth(t) == 4999
    assert canonical_code(t) == text


@given(trees_st)
def test_roundtrip_is_identity_up_to_isomorphism(t):
    assert canonical_code(parse_tree(canonical_code(t))) == canonical_code(t)


@given(trees_st, st.integers(min_value=0, max_value=10**6))
def test_canonical_code_ignores_child_order(t, seed):
    rng = random.Random(seed)
    assert canonical_code(shuffle_tree(t, rng)) == canonical_code(t)


@given(trees_st, st.integers(min_value=0, max_value=6))
def test_truncate_depth_law(t, k):
    assert depth(truncate(t, k)) == min(depth(t), k)


@given(trees_st, st.integers(min_value=0, max_value=6))
def test_truncate_node_count_law(t, k):
    cut = truncate(t, k)
    assert count_nodes(cut) <= count_nodes(t)
    assert (count_nodes(cut) == count_nodes(t)) == (depth(t) <= k)


def _stored_code(tree: RootedTree) -> str:
    """The tree's word with children in stored order, canonical or not."""
    return "(" + "".join(map(_stored_code, tree.children)) + ")"


def test_parse_tree_is_canonical_fixed_point():
    rng = random.Random(7)
    for _ in range(50):
        t = shuffle_tree(random_tree(rng), rng)
        c = parse_tree(_stored_code(t))
        assert canonical_code(c) == canonical_code(t)
        # children already stored in sorted order
        assert _stored_code(c) == canonical_code(t)
        assert c == parse_tree(canonical_code(c)) == read_collection([_stored_code(t)])[0]


def test_read_collection_skips_blanks_and_comments():
    text = "# heading\n\n(())\n   \n# mid\n(()())\n"
    got = read_collection(text.splitlines())
    assert [canonical_code(t) for t in got] == ["(())", "(()())"]


def test_read_collection_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        read_collection(["(())", "# ok", "(()"])


def test_write_collection_emits_canonical_codes():
    out = io.StringIO()
    write_collection([parse_tree("((())())")], out)
    assert out.getvalue() == "(()(()))\n"


def test_collection_is_canonical_and_shares_isomorphic_subtrees():
    a, b, c = read_collection(["((())())", "(()(()))", "((())(()))"])
    assert a is b
    assert a.children == (RootedTree(), RootedTree((RootedTree(),)))
    assert c.children[0] is c.children[1] is a.children[1]


def test_forest_ids_follow_isomorphism():
    forest = Forest()
    x = forest.parse("((())())")
    assert forest.parse(" (()(())) ") == x
    assert forest.node([forest.parse("(())"), forest.leaf]) == x
    assert forest.parse("(()()())") != x
    assert (forest.codes[x], forest.depths[x], forest.tree(x)) == ("(()(()))", 2, parse_tree("(()(()))"))
    assert forest.codes[forest.truncate(x, 1)] == "(()())"
    assert forest.truncate(x, 2) == x
