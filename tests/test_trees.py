from __future__ import annotations

import copy
import io
import json
import pickle
import random
from pathlib import Path

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
from unicover.trees import Forest, code_sort_key, depth, iter_collection
from unicover.unfold import ball_ids, neighborhood_collection
import reference
from treegen import random_graph, random_tree, shuffle_tree

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


MALFORMED = {
    "": "empty tree text",
    "   ": "empty tree text",
    "(": "unbalanced '(': tree text ends too early",
    ")": "unbalanced ')' at position 0",
    "(()": "unbalanced '(': tree text ends too early",
    "())": "trailing characters after the tree at position 2",
    ")(": "unbalanced ')' at position 0",
    "()()": "trailing characters after the tree at position 2",
    "(())x": "trailing characters after the tree at position 4",
    "(a)": "unexpected character 'a' at position 1",
}


@pytest.mark.parametrize("bad", list(MALFORMED))
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError) as exc:
        parse_tree(bad)
    assert str(exc.value) == MALFORMED[bad]


def test_parse_names_the_first_fault_of_deep_and_padded_words():
    for bad, message in [
        ("(" * 5000 + ")" * 5001, "trailing characters after the tree at position 10000"),
        ("(" * 5000, "unbalanced '(': tree text ends too early"),
        ("(" * 5000 + "." + ")" * 5000, "unexpected character '.' at position 5000"),
        ("\t (x)(", "unexpected character 'x' at position 1"),
        ("(()) ()", "trailing characters after the tree at position 4"),
        ("())x", "trailing characters after the tree at position 2"),
        ("()(.", "trailing characters after the tree at position 2"),
        (".()", "unexpected character '.' at position 0"),
    ]:
        with pytest.raises(ParseError) as exc:
            Forest().parse(bad)
        assert str(exc.value) == message, bad


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


def test_truncate_reads_the_depth_as_an_integer():
    t = parse_tree("((()))")
    with pytest.raises(TypeError):
        truncate(t, 1.5)
    with pytest.raises(TypeError):
        Forest().truncate(0, 1.0)
    assert canonical_code(truncate(t, True)) == "(())"


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
    assert reference.count_nodes(cut) <= reference.count_nodes(t)
    assert (reference.count_nodes(cut) == reference.count_nodes(t)) == (depth(t) <= k)


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


def _outcome(parse, text: str) -> int | str:
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _parse_agrees_with_the_reference(words) -> int:
    """Compare Forest.parse with the per-character reference on each word; return how many parsed."""
    new, old = Forest(), Forest()
    valid = 0
    for text in words:
        want = _outcome(lambda t: reference.parse_by_character(Forest(), t), text)
        if isinstance(want, str):
            # Only the message is compared: how much of a malformed word
            # gets interned before the fault is found is not specified.
            assert _outcome(Forest().parse, text) == want, repr(text)
        else:
            valid += 1
            assert new.parse(text) == reference.parse_by_character(old, text), repr(text)
    assert (new.kids, new.codes) == (old.kids, old.codes)
    return valid


def test_parse_matches_the_per_character_reference_on_random_strings():
    rng = random.Random(20)
    alphabet = "() x.\t"
    words = ["", " ", "\t", " \t  ", ".", "()", " () "]
    for _ in range(3000):
        words.append("".join(rng.choice(alphabet) for _ in range(rng.randrange(10))))
    for _ in range(1500):
        # Near-misses of well-formed words: change or insert a character, and pad.
        word = list(_stored_code(shuffle_tree(random_tree(rng, 12), rng)))
        if rng.random() < 0.6:
            word[rng.randrange(len(word))] = rng.choice(alphabet)
        if rng.random() < 0.3:
            word.insert(rng.randrange(len(word) + 1), rng.choice(alphabet))
        words.append(rng.choice(["", " ", "\t"]) + "".join(word) + rng.choice(["", " ", "\t"]))
    assert _parse_agrees_with_the_reference(words) > 500


def test_parse_matches_the_per_character_reference_on_the_golden_tree_files():
    corpus = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))
    words = [line for case in corpus for line in case.get("trees", "").split("\n")]
    assert _parse_agrees_with_the_reference(words) > 100


def _count_calls(monkeypatch, name: str) -> list[tuple]:
    """Record the arguments of every later call of `Forest.<name>`."""
    calls: list[tuple] = []
    real = getattr(Forest, name)

    def counted(self, arg):
        calls.append(arg)
        return real(self, arg)

    monkeypatch.setattr(Forest, name, counted)
    return calls


def _out_of_order(tree: RootedTree) -> int:
    """Internal nodes of `tree`, counted per occurrence, whose children are not stored in canonical order."""
    codes = [canonical_code(c) for c in tree.children]
    unsorted = codes != sorted(codes, key=code_sort_key)
    return unsorted + sum(map(_out_of_order, tree.children))


def test_parse_interns_each_internal_node_at_most_once_and_no_leaf(monkeypatch):
    rng = random.Random(3)
    shuffled = [shuffle_tree(random_tree(rng), rng) for _ in range(200)]
    words = [_stored_code(t) for t in shuffled]
    forest = Forest()
    calls = _count_calls(monkeypatch, "node")
    ids = [forest.parse(w) for w in words]
    internal = sum(w.count("(") - w.count("()") for w in words)
    assert 0 < len(calls) <= internal
    assert all(calls)  # no call for a leaf, whose child tuple is empty
    # Once a node is interned, its canonical child tuple is found without a call.
    calls.clear()
    assert [forest.parse(forest.codes[t]) for t in ids] == ids
    assert calls == []
    # A child order seen before is not stored, so each node spelled out of order costs one call.
    assert [forest.parse(w) for w in words] == ids
    assert 0 < len(calls) == sum(map(_out_of_order, shuffled))


def test_forest_stores_one_interning_key_per_tree():
    rng = random.Random(5)
    shuffled = [shuffle_tree(random_tree(rng), rng) for _ in range(200)]
    graph = random_graph(random.Random(6), 30, 0.15)
    ball_words = [_stored_code(shuffle_tree(b, rng)) for b in neighborhood_collection(graph, 3)]

    def one_key_per_tree(forest: Forest) -> bool:
        return len(forest._ids) == len(forest.kids) and all(forest._ids[k] == t for t, k in enumerate(forest.kids))

    forest = Forest()
    for t in shuffled:
        forest.parse(_stored_code(t))
    assert one_key_per_tree(forest)
    # As `realize --verify` runs: the balls are unfolded into the Forest holding the parsed trees.
    forest = Forest()
    roots = [forest.parse(w) for w in ball_words]
    assert ball_ids(forest, graph, 3) == roots
    assert one_key_per_tree(forest)
    # As `verify --depth` runs: the trees are parsed into the Forest that the unfold filled.
    forest = Forest()
    balls = ball_ids(forest, graph, 3)
    assert [forest.parse(w) for w in ball_words] == balls
    assert one_key_per_tree(forest)
    forest = Forest()
    list(forest.intern(shuffled))
    assert one_key_per_tree(forest)


def test_iter_collection_parses_each_distinct_line_once(monkeypatch):
    calls = _count_calls(monkeypatch, "parse")
    lines = ["(())", "# note", "(()())", "  (())  ", "", "(())", "(()())"]
    got = list(iter_collection(lines, forest=Forest()))
    assert calls == ["(())", "(()())"]
    assert [lineno for lineno, _ in got] == [1, 3, 4, 6, 7]
    assert got[0][1] == got[2][1] == got[3][1] != got[1][1] == got[4][1]
    with pytest.raises(ParseError, match="^line 4: unexpected character 'x' at position 1$"):
        list(iter_collection(["(())", "()", "(())", "(x)", "(x)"], forest=Forest()))


def test_iter_collection_looks_up_every_code_the_forest_holds(monkeypatch):
    forest = Forest()
    balls = ball_ids(forest, random_graph(random.Random(4), 10, 0.3), 3)
    # A ball whose root children are not all alike, spelled with them in descending order.
    k = next(k for k, b in enumerate(balls) if len(set(forest.kids[b])) > 1)
    backwards = "(" + "".join(forest.codes[c] for c in reversed(forest.kids[balls[k]])) + ")"
    subtree = forest.kids[balls[k]][-1]
    calls = _count_calls(monkeypatch, "parse")
    lines = [forest.codes[b] for b in balls] + [forest.codes[subtree], backwards]
    got = [tid for _, tid in iter_collection(lines, forest=forest)]
    assert calls == [backwards]
    assert got == balls + [subtree, balls[k]]


def test_equality_and_hash_of_very_deep_trees():
    word = "(" * 3000 + ")" * 3000
    a, b = parse_tree(word), read_collection([word])[0]
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != parse_tree("(" * 3000 + "()" + ")" * 3000)
    assert len({a, b}) == 1


def test_repr_copy_and_pickle_of_very_deep_trees():
    word = "(" * 3000 + ")" * 3000
    tree = parse_tree(word)
    text = repr(tree)
    assert text == "RootedTree(children=(" * 2999 + "RootedTree(children=())" + ",))" * 2999
    for clone in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        twin = clone(tree)
        assert twin == tree and canonical_code(twin) == word


def test_repr_of_small_trees_spells_out_the_children():
    leaf = RootedTree()
    assert repr(leaf) == "RootedTree(children=())"
    assert repr(RootedTree((leaf,))) == "RootedTree(children=(RootedTree(children=()),))"
    assert repr(RootedTree((leaf, RootedTree((leaf,))))) == (
        "RootedTree(children=(RootedTree(children=()), RootedTree(children=(RootedTree(children=()),))))"
    )
    rng = random.Random(12)
    for _ in range(50):
        t = shuffle_tree(random_tree(rng, 12), rng)
        assert repr(t) == f"RootedTree(children={t.children!r})"


def test_pickle_keeps_the_stored_child_order_and_sharing():
    rng = random.Random(21)
    for _ in range(100):
        t = shuffle_tree(random_tree(rng, 15), rng)
        for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert twin == t and repr(twin) == repr(t)
    leaf = RootedTree()
    cherry = RootedTree((leaf, leaf))
    for twin in (pickle.loads(pickle.dumps(RootedTree((cherry, leaf)))), copy.deepcopy(RootedTree((cherry, leaf)))):
        assert twin != RootedTree((leaf, cherry))
        assert twin.children[0].children[0] is twin.children[0].children[1] is twin.children[1]


def test_children_are_stored_as_a_tuple_whatever_the_iterable():
    leaf = RootedTree()
    want = RootedTree((leaf, leaf))
    kids = [leaf, leaf]
    for tree in (RootedTree(kids), RootedTree(c for c in (leaf, leaf))):
        assert type(tree.children) is tuple
        assert tree == want and hash(tree) == hash(want)
        held = {tree}
        kids.append(leaf)
        assert tree in held and tree.children == (leaf, leaf)
    assert RootedTree(want.children).children is want.children


def test_equality_is_structural_and_order_sensitive():
    leaf = RootedTree()
    cherry = RootedTree((leaf, leaf))
    assert RootedTree((RootedTree(), RootedTree())) == cherry
    assert hash(RootedTree((RootedTree(), RootedTree()))) == hash(cherry)
    assert RootedTree((leaf, cherry)) != RootedTree((cherry, leaf))
    assert RootedTree((leaf,)) != cherry and cherry != "(()())"
    rng = random.Random(8)

    def same(a, b):  # the recursive definition, fine for these small trees
        return len(a.children) == len(b.children) and all(map(same, a.children, b.children))

    def fresh(t):  # a copy that shares no subtree object
        return RootedTree(tuple(map(fresh, t.children)))

    # Shared subtree objects, below the root and in part, change nothing; child order below the root does.
    shared = RootedTree((cherry, cherry, RootedTree((cherry, leaf))))
    for t in (shared, RootedTree((cherry, RootedTree((leaf, leaf)), RootedTree((cherry, RootedTree()))))):
        assert t == fresh(shared) and fresh(shared) == t and hash(t) == hash(fresh(shared))
    assert RootedTree((leaf, RootedTree((leaf, cherry)))) != RootedTree((leaf, RootedTree((cherry, leaf))))
    assert fresh(shared) != RootedTree((cherry, cherry, RootedTree((leaf, cherry))))

    for _ in range(300):
        t = random_tree(rng, 12)
        s = shuffle_tree(t, rng)
        assert (t == s) == same(t, s)
        if t == s:
            assert hash(t) == hash(s)
        assert parse_tree(canonical_code(t)) == parse_tree(canonical_code(s))
