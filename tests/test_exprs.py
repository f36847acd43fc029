import random

import pytest

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

from helpers import EXPR_CORPUS, eval_expr, random_expr


def test_parse_single_operator():
    assert parse_expr("x1 & x2") == And(Var(1), Var(2))


def test_parse_precedence():
    assert parse_expr("!x1 | x2 & x3") == Or(Not(Var(1)), And(Var(2), Var(3)))
    assert parse_expr("x1 ^ x2 | x3") == Or(Xor(Var(1), Var(2)), Var(3))
    assert parse_expr("x1 & x2 ^ x3") == Xor(And(Var(1), Var(2)), Var(3))


def test_parse_grouping():
    assert parse_expr("x1 ^ (x2 | 1)") == Xor(Var(1), Or(Var(2), Const(1)))
    assert parse_expr("((x1))") == Var(1)


def test_parse_left_associative():
    assert parse_expr("x1 | x2 | x3") == Or(Or(Var(1), Var(2)), Var(3))
    assert parse_expr("x1 ^ x2 ^ x3") == Xor(Xor(Var(1), Var(2)), Var(3))
    assert parse_expr("x1 & x2 & x3") == And(And(Var(1), Var(2)), Var(3))


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
    # a left-deep chain far longer than the interpreter's recursion limit
    for op, want in (("^", "0"), ("&", "x1"), ("|", "x1")):
        tree = parse_expr(f" {op} ".join(["x1"] * 5000))
        assert str(expr_to_anf(tree, 1)) == want


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
