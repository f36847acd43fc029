import random
import re
import time

import pytest

from zhegalkin import (
    KForm,
    ParseError,
    SecantElement,
    TruthTable,
    ZhegalkinPoly,
    differential,
    parse_anf,
    parse_expr,
    parse_form,
    parse_secant,
    parse_table,
)

from helpers import random_form, random_poly, reference_parse_anf


def test_anf_roundtrip_examples():
    p = parse_anf("x1*x2 + 1", 2)
    assert p.terms == frozenset({0b11, 0})
    assert str(p) == "1 + x1*x2"
    assert parse_anf(str(p), 2) == p
    assert parse_anf("0", 3) == ZhegalkinPoly.zero(3)
    assert str(ZhegalkinPoly.zero(3)) == "0"


def test_anf_roundtrip_random():
    rng = random.Random(113)
    for _ in range(300):
        n = rng.randrange(1, 7)
        p = random_poly(rng, n)
        assert parse_anf(str(p), n) == p


def test_anf_accepts_any_term_order_and_whitespace():
    assert parse_anf("x3 + x1*x2", 3) == parse_anf("x1*x2 + x3", 3)
    assert parse_anf("  x1 *x2+ 1 ", 2) == parse_anf("1 + x1*x2", 2)


def test_whitespace_separates_tokens_but_never_splits_one():
    assert parse_form("( x1 ) * d { 1 , 2 }", 2) == parse_form("(x1)*d{1,2}", 2)
    assert parse_secant("(x1) * D 2", 2) == parse_secant("(x1)*D2", 2)
    assert parse_table(" 2 : 8 ") == parse_table("2:8")
    for bad in ("x 1", "x1*x 2", "x1 0"):
        with pytest.raises(ParseError):
            parse_anf(bad, 2)


def test_numbers_are_ascii_digits():
    for parse, src, where in (
        (lambda s: parse_anf(s, 3), "x\u00b2", 0),
        (lambda s: parse_anf(s, 3), "x\u0663", 0),
        (lambda s: parse_form(s, 2), "(1)*d{\u00b2}", 6),
        (lambda s: parse_secant(s, 2), "(1)*D" + "1" * 5000, 5),
        (parse_table, "\u00b2:1", 0),
        (parse_table, "1" * 5000 + ":0", 0),
        (parse_table, "  " + "1" * 5000 + ":0", 2),
    ):
        with pytest.raises(ParseError) as info:
            parse(src)
        assert info.value.position == where


def _outcome(parse, src, n):
    try:
        return parse(src, n)
    except ParseError as err:
        return (str(err), err.position)


def test_parse_anf_matches_reference_reader_fuzz():
    # same polynomial, or the same message at the same position, as a
    # reader that walks one token per factor
    rng = random.Random(137)
    alphabet = "x0123456789*+ 1()dD{},"

    def mutate(text):
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(chars) + 1)
            edit = rng.randrange(3)
            if edit == 0 or at == len(chars):
                chars.insert(at, rng.choice(alphabet))
            elif edit == 1:
                del chars[at]
            else:
                chars[at] = rng.choice(alphabet)
        return "".join(chars)

    cases = [
        ("".join(rng.choice(alphabet) for _ in range(rng.randrange(24))), rng.randrange(1, 7))
        for _ in range(4000)
    ]
    for _ in range(4000):
        n = rng.randrange(1, 7)
        if rng.random() < 0.75:
            cases.append((mutate(str(random_poly(rng, n))), n))
        else:
            cases.append((mutate(str(random_form(rng, n, rng.randrange(n + 1)))), n))
    for src, n in cases:
        assert _outcome(parse_anf, src, n) == _outcome(reference_parse_anf, src, n), src


def test_anf_parse_errors():
    with pytest.raises(ParseError):
        parse_anf("x2*x1", 2)  # indices must ascend
    with pytest.raises(ParseError):
        parse_anf("x1*x1", 2)  # duplicate factor
    with pytest.raises(ParseError):
        parse_anf("x1 + x1", 2)  # duplicate term
    with pytest.raises(ParseError):
        parse_anf("1*x1", 2)
    with pytest.raises(ParseError):
        parse_anf("x1 + 0", 2)
    with pytest.raises(ParseError):
        parse_anf("x3", 2)  # index out of range
    with pytest.raises(ParseError):
        parse_anf("", 2)
    with pytest.raises(ParseError):
        parse_anf("x1 +", 2)
    with pytest.raises(ParseError):
        parse_anf("x1 & x2", 2)  # expression syntax is a different language


def test_form_roundtrip_golden():
    w = parse_form("(x2)*d{1} + (x1)*d{2}", 2)
    assert w == differential(parse_anf("x1*x2", 2))
    assert str(w) == "(x2)*d{1} + (x1)*d{2}"
    assert parse_form(str(w), 2) == w


def test_form_roundtrip_random():
    rng = random.Random(127)
    for _ in range(300):
        n = rng.randrange(1, 5)
        k = rng.randrange(n + 1)
        w = random_form(rng, n, k)
        assert parse_form(str(w), n, degree=w.degree) == w


def test_form_zero_and_bare_anf():
    z = parse_form("0", 2)
    assert z.is_zero and z.degree == 0
    z1 = parse_form("0", 2, degree=1)
    assert z1.is_zero and z1.degree == 1
    w = parse_form("x1*x2 + 1", 2)
    assert w.degree == 0 and w.coefficient(0) == parse_anf("x1*x2 + 1", 2)


def test_form_parse_errors():
    with pytest.raises(ParseError):
        parse_form("(1)*d{1} + (1)*d{1,2}", 2)  # mixed degrees
    with pytest.raises(ParseError):
        parse_form("(1)*d{2,1}", 2)  # indices must ascend
    with pytest.raises(ParseError):
        parse_form("(1)*d{1,1}", 2)
    with pytest.raises(ParseError):
        parse_form("(1)*d{3}", 2)
    with pytest.raises(ParseError):
        parse_form("(1)*d{1} + (x1)*d{1}", 2)  # duplicate index set
    with pytest.raises(ParseError):
        parse_form("(1)*d{}", 2)
    with pytest.raises(ParseError):
        parse_form("(1)*e{1}", 2)
    with pytest.raises(ParseError):
        parse_form("", 2)


def test_form_expected_degree():
    with pytest.raises(ValueError):
        parse_form("(1)*d{1}", 2, degree=2)
    with pytest.raises(ValueError):
        parse_form("x1", 2, degree=1)  # nonzero 0-form cannot be coerced
    zero_coeff = parse_form("(0)*d{1}", 2, degree=1)
    assert zero_coeff.is_zero and zero_coeff.degree == 1


def test_form_degree_is_checked_once_for_parser_and_constructor():
    # the parser used to raise TypeError on "1" and accept 1.0 and True
    for bad in ("1", 1.0, True, -1, 3, 2.5):
        message = f"degree {bad!r} out of range 0..2"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_form("(1)*d{1}", 2, degree=bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            KForm(2, bad, {})
    assert parse_form("(1)*d{1}", 2, degree=1) == KForm.term(ZhegalkinPoly.one(2), [1])


def test_table_roundtrip():
    t = parse_table("2:8")
    assert t == TruthTable(2, 0b1000)
    assert str(t) == "2:8"
    assert parse_table("2:6") == TruthTable(2, 0b0110)
    assert parse_table("1:2") == TruthTable(1, 0b10)
    t3 = TruthTable(3, 0b11101000)
    assert parse_table(str(t3)) == t3
    assert parse_table("3:e8") == t3  # hex is case-insensitive on input


def test_table_parse_errors():
    with pytest.raises(ParseError):
        parse_table("2:123")  # wrong digit count
    with pytest.raises(ParseError):
        parse_table("2:g")
    with pytest.raises(ParseError):
        parse_table("1:8")  # bits beyond the two entries
    with pytest.raises(ParseError):
        parse_table("0:0")
    with pytest.raises(ParseError):
        parse_table("25:" + "0" * (1 << 23))
    with pytest.raises(ParseError):
        parse_table("2-8")
    with pytest.raises(ParseError):
        parse_table("8")


def test_secant_roundtrip():
    phi = SecantElement(
        2, [ZhegalkinPoly.variable(2, 2), ZhegalkinPoly.variable(2, 1)]
    )
    assert str(phi) == "(x2)*D1 + (x1)*D2"
    assert parse_secant(str(phi), 2) == phi
    assert parse_secant("0", 3) == SecantElement(3, [ZhegalkinPoly.zero(3)] * 3)
    sparse = parse_secant("(x1)*D2", 2)
    assert sparse.coeffs[0] == ZhegalkinPoly.zero(2)
    assert sparse.coeffs[1] == ZhegalkinPoly.variable(2, 1)


def test_secant_parse_errors():
    with pytest.raises(ParseError):
        parse_secant("(1)*D1 + (x1)*D1", 2)  # duplicate slot
    with pytest.raises(ParseError):
        parse_secant("(1)*D3", 2)
    with pytest.raises(ParseError):
        parse_secant("(1)*d1", 2)
    with pytest.raises(ParseError):
        parse_secant("", 2)


def test_format_is_deterministic():
    rng = random.Random(131)
    for _ in range(100):
        n = rng.randrange(1, 5)
        w = random_form(rng, n, rng.randrange(n + 1))
        assert str(w) == str(w)
        p = random_poly(rng, n)
        assert str(p) == str(p)


def test_parsers_reject_non_text():
    with pytest.raises(ParseError):
        parse_anf(None, 2)
    with pytest.raises(ParseError):
        parse_form(12, 2)
    with pytest.raises(ParseError):
        parse_table(b"2:8")


@pytest.mark.parametrize(
    "parse, src, want",
    [
        (lambda s: parse_anf(s, 2), "x01", "x1"),
        (lambda s: parse_anf(s, 3), "x1 * x3", "x1*x3"),
        (lambda s: parse_anf(s, 70), "x65*x70", "x65*x70"),
        (lambda s: parse_form(s, 2), "(x1)*d{01}", "(x1)*d{1}"),
        (lambda s: parse_anf(s, 3), "x1*x3*x2",
         ("variable indices must ascend within a term", 6)),
        (lambda s: parse_anf(s, 70), "x1*x70*x65",
         ("variable indices must ascend within a term", 7)),
        (lambda s: parse_anf(s, 3), "x0", ("variable index must be at least 1", 0)),
        (lambda s: parse_anf(s, 3), "x1*x" + "9" * 5000, ("number too long (5000 digits)", 3)),
        (lambda s: parse_anf(s, 3), "x1+x1*x2 + x1", ("duplicate term", 11)),
        (lambda s: parse_anf(s, 2), "x1\u00a0*x2", "x1*x2"),
        (lambda s: parse_anf(s, 2), "x1*\u3000x1", ("variable indices must ascend within a term", 4)),
        (parse_expr, "x1\u00a0*x2", ("unexpected character '*'", 3)),
    ],
)
def test_inputs_off_the_fast_factor_read(parse, src, want):
    # factors that the x1..x64 table does not read (leading zeros, a space
    # before "*", non-ASCII spaces, indices above 64, over-long digit runs)
    # and the errors it hands to the int() route
    if isinstance(want, str):
        assert str(parse(src)) == want
        return
    message, where = want
    with pytest.raises(ParseError) as info:
        parse(src)
    assert str(info.value) == f"{message} (at position {where})"
    assert info.value.position == where


def test_error_near_the_end_of_a_long_text():
    # positions are found by scanning the source only when an error is raised
    pairs = [f"x{i}*x{j}" for i in range(1, 151) for j in range(i + 1, 151)]
    text = " + ".join(pairs[:10_000])
    assert len(parse_anf(text, 150).terms) == 10_000
    with pytest.raises(ParseError) as info:
        parse_anf(text + " + x2*x1", 150)
    assert str(info.value) == (
        f"variable indices must ascend within a term (at position {len(text) + 6})"
    )
    with pytest.raises(ParseError) as info:
        parse_anf(text + " + " + pairs[9_998], 150)
    assert info.value.position == len(text) + 3
    assert str(info.value).startswith("duplicate term")


def _monomial(first: int, stop: int, sep: str = "*") -> str:
    return sep.join(f"x{i}" for i in range(first, stop))


def test_long_monomial_round_trip_in_linear_time():
    # each factor off the x1..x64 table is read on its own, at its offset
    n = 20_000
    p = ZhegalkinPoly(n, [(1 << n) - 1])
    start = time.perf_counter()
    assert parse_anf(str(p), n) == p
    assert time.perf_counter() - start < 1


def test_long_spaced_monomial_in_linear_time():
    # no factor followed by " *" is on the table
    n = 10_000
    text = _monomial(1, n + 1, " * ")
    start = time.perf_counter()
    p = parse_anf(text, n)
    assert time.perf_counter() - start < 1
    assert p.terms == {(1 << n) - 1}


@pytest.mark.parametrize(
    "src, n, message, where",
    [
        # outcomes recorded with the parser that searched the token for each
        # off-table factor's offset
        (_monomial(65, 5065) + "*x70", 6000,
         "variable indices must ascend within a term", 29030),
        (_monomial(1, 3001) + "*x0*x3002", 4000, "variable index must be at least 1", 16893),
        (_monomial(1, 2001) + "*x" + "9" * 5000, 3000, "number too long (5000 digits)", 10893),
        (_monomial(1, 4001, " * ") + " * x4001", 4000, "variable x4001 exceeds arity 4000", 30893),
        (_monomial(1, 3001) + " + y7", 4000, "expected 'x'", 16895),
    ],
    ids=["ascent", "x0", "digits", "spaced", "not-x"],
)
def test_error_positions_inside_long_monomials(src, n, message, where):
    with pytest.raises(ParseError) as info:
        parse_anf(src, n)
    assert str(info.value) == f"{message} (at position {where})"
    assert info.value.position == where
