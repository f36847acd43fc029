import copy
import pickle
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from zhegalkin import (
    And,
    Const,
    Not,
    Or,
    ParseError,
    Var,
    Xor,
    expr_to_anf,
    parse_anf,
    parse_expr,
    parse_form,
    parse_secant,
    parse_table,
)

from helpers import EXPR_CORPUS, eval_expr, random_expr, reference_parse_expr


def test_nodes_are_values():
    a, b = Var(1), Not(Var(2))
    assert And((a, b)) == And([Var(1), Not(Var(2))]) and And(operands=(a, b)) == And((a, b))
    assert And((a, b)) != Or((a, b)) and Or((a, b)) != Xor((a, b)) and Var(1) != Const(1)
    assert And((a, b)) != And((b, a)) and And((a, a, b)) != And((a, b))
    assert Var(1) != 1 and Const(0) != Var(0)
    assert hash(parse_expr("x1 & !x2 | 0")) == hash(Or((And((a, b)), Const(0))))
    assert len({Var(1), Var(1), Const(1)}) == 2
    tree = parse_expr("x1 & !x2 | 0")
    assert pickle.loads(pickle.dumps(tree)) == tree
    assert And((a, b)).operands == (a, b)
    assert repr(parse_expr("x1 & !x2 | 0 ^ x3")) == (
        "Or(operands=(And(operands=(Var(index=1), Not(child=Var(index=2)))),"
        " Xor(operands=(Const(value=0), Var(index=3)))))"
    )
    # a chain of any length is one tree level
    chain = parse_expr(" ^ ".join(["x1"] * 200))
    assert pickle.loads(pickle.dumps(chain)) == chain == copy.deepcopy(chain)
    assert hash(chain) == hash(parse_expr(" xor ".join(["x1"] * 200)))
    assert repr(chain) == "Xor(operands=(" + ", ".join(["Var(index=1)"] * 200) + "))"


def test_nodes_are_immutable_and_check_arguments():
    for node, field in ((Const(1), "value"), (Var(1), "index"), (Not(Var(1)), "child"),
                        (And((Var(1), Var(2))), "operands"), (Xor((Var(1), Var(2))), "operands")):
        with pytest.raises(AttributeError):
            setattr(node, field, Var(3))
        with pytest.raises(AttributeError):
            node.other = 1
    # a chain takes one iterable of two or more operands
    for make, args in ((Const, ()), (Var, (1, 2)), (Not, ()), (And, ((Var(1),),)),
                       (Or, ()), (Xor, ([],)), (And, (Var(1), Var(2)))):
        with pytest.raises(TypeError):
            make(*args)


def test_parse_single_operator():
    assert parse_expr("x1 & x2") == And((Var(1), Var(2)))


def test_parse_precedence():
    assert parse_expr("!x1 | x2 & x3") == Or((Not(Var(1)), And((Var(2), Var(3)))))
    assert parse_expr("x1 ^ x2 | x3") == Or((Xor((Var(1), Var(2))), Var(3)))
    assert parse_expr("x1 & x2 ^ x3") == Xor((And((Var(1), Var(2))), Var(3)))


def test_parse_grouping():
    assert parse_expr("x1 ^ (x2 | 1)") == Xor((Var(1), Or((Var(2), Const(1)))))
    assert parse_expr("((x1))") == Var(1)
    # a parenthesized chain stays a node of its own
    assert parse_expr("(x1 ^ x2) ^ x3") == Xor((Xor((Var(1), Var(2))), Var(3)))


def test_parse_chains_are_one_node():
    x1, x2, x3 = Var(1), Var(2), Var(3)
    assert parse_expr("x1 | x2 | x3") == Or((x1, x2, x3))
    assert parse_expr("x1 ^ x2 xor x3") == Xor((x1, x2, x3))
    assert parse_expr("x1 & x2 & x3") == And((x1, x2, x3))
    assert parse_expr("x1 & x2 | x3 & !x1 & x2") == Or((And((x1, x2)), And((x3, Not(x1), x2))))


def test_parse_word_aliases():
    assert parse_expr("x1 and x2") == parse_expr("x1 & x2")
    assert parse_expr("x1 or x2") == parse_expr("x1 | x2")
    assert parse_expr("x1 xor x2") == parse_expr("x1 ^ x2")
    assert parse_expr("not x1") == parse_expr("!x1")
    with pytest.raises(ParseError):
        parse_expr("notx1")  # alias must be its own word


def test_parse_double_negation():
    assert parse_expr("!!x1") == Not(Not(Var(1)))


@pytest.mark.parametrize(
    "src,where",
    [
        ("", 0),
        ("x1 &", 4),
        ("& x1", 0),
        ("x1 x2", 3),
        ("(x1", 3),
        ("x1)", 2),
        ("x0", 0),
        ("x", 1),
        ("2", 0),
        ("10", 0),
        ("x1 $ x2", 3),
        ("foo", 0),
        ("x1 AND x2", 3),
        ("x1*x2", 2),
        ("x0*x1", 0),
        ("x1 *x0", 3),
        ("x1*", 2),
        # lexical errors come first, wherever the parse fails
        ("& foo", 2),
        ("x1 x2 $", 6),
        ("(" * 200 + "$", 200),
        ("!" * 200 + "x0", 200),
    ],
)
def test_parse_errors_have_positions(src, where):
    with pytest.raises(ParseError) as info:
        parse_expr(src)
    assert info.value.position == where
    assert f"position {where}" in str(info.value)


def test_parser_rejects_deep_nesting_cleanly():
    with pytest.raises(ParseError):
        parse_expr("(" * 5000 + "x1" + ")" * 5000)
    with pytest.raises(ParseError):
        parse_expr("!" * 5000 + "x1")


def test_parser_totality_fuzz():
    # every parser returns a value or raises ParseError, whatever the text
    parsers = [
        parse_expr,
        lambda src: parse_anf(src, 3),
        lambda src: parse_form(src, 3),
        lambda src: parse_secant(src, 3),
        parse_table,
    ]
    long = "1" * 5000
    fixed = [
        long,
        "x" + long,
        "x1 + x" + long,
        "(1)*d{" + long + "}",
        "(1)*D" + long,
        long + ":0",
        "x\u00b2",
        "x\u0663",
        "(1)*d{\u00b2}",
        "\u00b2:1",
    ]
    rng = random.Random(107)
    alphabet = "x123456789&|^!()01 andorxnt\t\n\0\u00e9$%*+{},:dD\u00b2\u0663"
    randoms = [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))
        for _ in range(10_000)
    ]
    for src in fixed + randoms:
        for parse in parsers:
            try:
                parse(src)
            except ParseError:
                pass  # any other exception fails the test


# one lexer token each, so space-joined they read the same to both readers
_OPERAND_TOKENS = ["x1", "x2", "x3", "0", "1"]
_BINARY_TOKENS = ["&", "|", "^", "and", "or", "xor"]
_ANY_TOKENS = [*_OPERAND_TOKENS, *_BINARY_TOKENS, "!", "not", "(", ")",
               "x0", "x", "2", "foo", "$", "x1*x2"]


@st.composite
def expression_tokens(draw):
    """A token list from the grammar, mostly, with up to two tokens
    inserted, dropped or replaced, inside up to 45 "(" between two runs of
    up to 60 "!", so that both sides of the nesting bound are drawn."""

    def operand(d):
        kind = draw(st.sampled_from(["atom", "atom", "not", "group"] if d else ["atom"]))
        if kind == "atom":
            return [draw(st.sampled_from(_OPERAND_TOKENS))]
        if kind == "not":
            return [draw(st.sampled_from(["!", "not"])), *operand(d - 1)]
        return ["(", *chain(d - 1), ")"]

    def chain(d):
        tokens = operand(d)
        for _ in range(draw(st.integers(0, 3))):
            tokens += [draw(st.sampled_from(_BINARY_TOKENS)), *operand(d)]
        return tokens

    tokens = chain(3)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["insert", "drop", "replace"]))
        if edit == "insert" or at == len(tokens):
            tokens.insert(at, draw(st.sampled_from(_ANY_TOKENS)))
        elif edit == "drop":
            del tokens[at]
        else:
            tokens[at] = draw(st.sampled_from(_ANY_TOKENS))
    parens = draw(st.integers(0, 45))
    bangs, inner = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    return ["!"] * bangs + ["("] * parens + ["!"] * inner + tokens + [")"] * parens


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(expression_tokens())
def test_parse_expr_agrees_with_the_reference_reader(tokens):
    # parse_expr accepts exactly what the reference accepts, as an equal
    # tree; messages and positions are pinned by the parity corpus
    source = " ".join(tokens)
    want = reference_parse_expr(source)
    try:
        got = parse_expr(source)
    except ParseError:
        got = None
    assert got == want, source


def test_expr_to_anf_disjunction():
    assert str(expr_to_anf(parse_expr("x1 | x2"), 2)) == "x1 + x2 + x1*x2"


def test_expr_to_anf_negation():
    assert str(expr_to_anf(parse_expr("!x1"), 1)) == "1 + x1"


def test_expr_to_anf_xor_built_from_or_and_not():
    got = expr_to_anf(parse_expr("(x1 | x2) & !(x1 & x2)"), 2)
    assert str(got) == "x1 + x2"
    want = expr_to_anf(parse_expr("x1 ^ x2"), 2)
    assert got.to_truth_table() == want.to_truth_table()


def test_expr_to_anf_long_flat_chain():
    # a chain far longer than the interpreter's recursion limit
    for op, want in (("^", "0"), ("&", "x1"), ("|", "x1")):
        tree = parse_expr(f" {op} ".join(["x1"] * 5000))
        assert str(expr_to_anf(tree, 1)) == want


def test_expr_to_anf_xor_chain_is_one_sum():
    # an n-ary XOR folds its operands into one term set, not a copy per operand
    n = 8000
    tree = parse_expr(" ^ ".join(f"x{i}" for i in range(1, n + 1)))
    start = time.perf_counter()
    got = expr_to_anf(tree, n)
    assert time.perf_counter() - start < 1
    assert got.terms == {1 << i for i in range(n)}


def test_expr_to_anf_arity_check():
    with pytest.raises(ValueError):
        expr_to_anf(parse_expr("x1 & x9"), 2)
    with pytest.raises(ValueError):
        expr_to_anf(parse_expr("x1"), 0)


def test_corpus_translation_matches_tree_evaluation():
    n = 6
    for src in EXPR_CORPUS:
        tree = parse_expr(src)
        poly = expr_to_anf(tree, n)
        for v in range(1 << n):
            assert poly.evaluate(v) == eval_expr(tree, v), src


def test_random_trees_translation_matches_tree_evaluation():
    rng = random.Random(109)
    for _ in range(200):
        n = rng.randrange(1, 7)
        tree = random_expr(rng, n)
        poly = expr_to_anf(tree, n)
        for v in range(1 << n):
            assert poly.evaluate(v) == eval_expr(tree, v)


def test_random_chains_translation_matches_tree_evaluation():
    # chains of 2-5 operands mixed with negation and nesting
    rng = random.Random(113)
    for _ in range(300):
        n = rng.randrange(1, 7)
        tree = random_expr(rng, n, depth=rng.randrange(1, 5), max_operands=5)
        poly = expr_to_anf(tree, n)
        for v in range(1 << n):
            assert poly.evaluate(v) == eval_expr(tree, v), tree


def _at_stack_depth(frames, fn):
    """fn() called under `frames` more interpreter frames."""
    return fn() if frames == 0 else _at_stack_depth(frames - 1, fn)


def _assert_usable_value(src, n, frames=0):
    """Parse src and check ==, hash, repr, pickle, deepcopy and expr_to_anf
    on the tree, each under `frames` extra frames; the copies are new
    trees, so == compares them node by node."""
    tree = parse_expr(src)

    def run(fn):
        return _at_stack_depth(frames, fn)

    pickled = run(lambda: pickle.loads(pickle.dumps(tree)))
    copied = run(lambda: copy.deepcopy(tree))
    assert run(lambda: pickled == tree) and run(lambda: copied == tree)
    assert run(lambda: hash(pickled)) == hash(tree)
    assert run(lambda: repr(copied)) == repr(tree)
    return tree, run(lambda: expr_to_anf(tree, n))


# (prefix, suffix, deepest count): the prefix repeated opens one nesting
# level each time; a "(" counts 3 node levels and a "!" counts 1
NESTING_PATTERNS = [
    ("(", ")", 40),
    ("!", "", 120),
    ("!(", ")", 30),
    ("x1 ^ (", ")", 40),
    ("x1 & !(", ")", 30),
    ("x1 | x2 ^ x3 & (", ")", 40),
    ("x1 | x2 ^ x3 & !(", ")", 30),
    ("!(", ") & x1 ^ x2 | x3", 30),
]


@pytest.mark.parametrize("prefix,suffix,deepest", NESTING_PATTERNS)
def test_every_accepted_nesting_is_a_usable_value(prefix, suffix, deepest):
    src = prefix * deepest + "x1" + suffix * deepest
    # with 100 frames to spare beyond the test runner's own
    tree, poly = _assert_usable_value(src, 3, frames=100)
    for v in range(8):
        assert poly.evaluate(v) == eval_expr(tree, v)
    # one level more fails at the "!" or "(" that crosses the bound
    crossing = deepest * len(prefix) + min(i for i, c in enumerate(prefix) if c in "!(")
    with pytest.raises(ParseError) as info:
        parse_expr(prefix * (deepest + 1) + "x1" + suffix * (deepest + 1))
    assert str(info.value) == f"expression nested too deeply (at position {crossing})"


def test_deepest_tree_is_a_usable_value():
    # three free chain levels above 120 negations: the tallest accepted tree
    head = "x1 | x2 ^ x3 & "
    tree, poly = _assert_usable_value(head + "!" * 120 + "x1", 3, frames=100)
    assert poly == expr_to_anf(parse_expr("x1 | x2 ^ x3 & x1"), 3)
    with pytest.raises(ParseError, match=r"nested too deeply \(at position 135\)"):
        parse_expr(head + "!" * 121 + "x1")


@pytest.mark.parametrize("op,want", [("^", "x2 ^ x3"), ("&", "x1 & x2 & x3"), ("|", "x1 | x2 | x3")])
def test_long_chain_is_a_usable_value(op, want):
    size = 100_000
    src = f" {op} ".join(f"x{k % 3 + 1}" for k in range(size))
    tree, poly = _assert_usable_value(src, 3)
    assert len(tree.operands) == size and poly == expr_to_anf(parse_expr(want), 3)
