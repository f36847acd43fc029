"""Parsers for the canonical text formats.

ANF text: terms joined by " + ", each "1" or "x<i>" factors joined by "*"
with ascending indices; the zero polynomial is "0".  Form text: terms
"(ANF)*d{i,j,...}" joined by " + " with ascending indices, degree-0 forms
print as bare ANF, the zero form prints "0".  Operator-field text is the
same with D<i> in place of d{...}.  Truth tables print as "n:HEX" with
entry k at bit k of the hex value.

Formatting is `str()` on the value.  Parsing reads the tokens of the lexer
in `exprs`, so whitespace between tokens is insignificant and numbers are
ASCII digits; otherwise it sticks to the canonical shapes (indices must
ascend, repeated terms or index sets are rejected rather than folded).
A monomial such as "x1 * x3" is one token, whose factors are read from
its digit runs in one loop, so ANF text costs one token per term.
"""

from __future__ import annotations

import re

from .anf import MAX_DENSE_ARITY, TruthTable, ZhegalkinPoly, _check_positive, _make_poly
from .exprs import ParseError, _expect, _lex, _number
from .forms import KForm, _check_degree
from .secant import SecantElement

__all__ = [
    "parse_anf",
    "parse_form",
    "parse_secant",
    "parse_table",
]

# the factor indices inside one monomial token
_DIGITS = re.compile("[0-9]+")

# "n:HEX"; the CLI takes any text this matches a prefix of for a table
_TABLE_TEXT = re.compile(r"\s*([0-9]+)\s*:\s*([0-9a-fA-F]*)\s*")


def _tokens(source: str) -> list[tuple[str, str, int]]:
    tokens = _lex(source)
    if len(tokens) == 1:
        raise ParseError("empty input", tokens[0][2])
    return tokens


def _factor_at(text: str, pos: int, k: int) -> int:
    """Source position of factor k of the monomial token `text` at `pos`."""
    at = -1
    for _ in range(k + 1):
        at = text.index("x", at + 1)
    return pos + at


def _read_term(tokens, i: int, arity: int) -> tuple[int, int]:
    """Monomial mask of the term at tokens[i], and the index after it."""
    kind, text, pos = tokens[i]
    if text == "1":
        return 0, i + 1
    if kind != "var":
        raise ParseError("expected 'x'", pos)
    mask = 0
    last = 0
    for k, digits in enumerate(_DIGITS.findall(text)):
        try:
            index = int(digits)
        except ValueError:  # beyond the interpreter's int/str digit limit
            index = _number(digits, _factor_at(text, pos, k))
        if last < index <= arity:
            mask |= 1 << (index - 1)
            last = index
            continue
        if index < 1:
            message = "variable index must be at least 1"
        elif index > arity:
            message = f"variable x{index} exceeds arity {arity}"
        else:
            message = "variable indices must ascend within a term"
        raise ParseError(message, _factor_at(text, pos, k))
    # the lexer folds every "*x<j>" into the token, so a "*" after it has
    # no factor behind it
    if tokens[i + 1][0] == "*":
        raise ParseError("expected 'x'", tokens[i + 2][2])
    return mask, i + 1


def _read_anf(tokens, i: int, arity: int, stop: str) -> tuple[ZhegalkinPoly, int]:
    """Polynomial at tokens[i] up to a `stop` or end token, and its index."""
    if tokens[i][1] == "0":
        kind, _, pos = tokens[i + 1]
        if kind != stop and kind != "end":
            raise ParseError('"0" must stand alone', pos)
        return ZhegalkinPoly.zero(arity), i + 1
    terms = set()
    while True:
        at = tokens[i][2]
        mask, i = _read_term(tokens, i, arity)
        if mask in terms:
            raise ParseError("duplicate term", at)
        terms.add(mask)
        kind = tokens[i][0]
        if kind == stop or kind == "end":
            # every mask was range-checked and none repeats: already canonical
            return _make_poly(arity, frozenset(terms)), i
        i = _expect(tokens, i, "+")


def parse_anf(source: str, arity: int) -> ZhegalkinPoly:
    """Parse canonical ANF text into a polynomial of the given arity."""
    _check_positive(arity)
    return _read_anf(_tokens(source), 0, arity, "end")[0]


def _read_index_set(tokens, i: int, arity: int, brace: bool) -> tuple[int, int]:
    # "{i,j,...}" after d, or one bare index after D
    if brace:
        i = _expect(tokens, i, "{")
    mask = 0
    last = 0
    while True:
        kind, text, pos = tokens[i]
        if kind != "num":
            raise ParseError("expected a number", pos)
        index = _number(text, pos)
        if index < 1 or index > arity:
            raise ParseError(f"index {index} out of range 1..{arity}", pos)
        if index <= last:
            raise ParseError("indices must ascend", pos)
        mask |= 1 << (index - 1)
        last = index
        i += 1
        if not brace:
            return mask, i
        if tokens[i][0] != ",":
            return mask, _expect(tokens, i, "}")
        i += 1


def _read_slots(tokens, arity: int, op: str) -> dict[int, ZhegalkinPoly]:
    """Terms "(ANF)*<op><indices>" joined by "+", as index mask -> coefficient.

    Every term's index set must have the same size.
    """
    coeffs = {}
    size = None
    i = 0
    while True:
        i = _expect(tokens, i, "(")
        poly, i = _read_anf(tokens, i, arity, ")")
        i = _expect(tokens, i, ")")
        i = _expect(tokens, i, "*")
        kind, text, at = tokens[i]
        if kind != "name" or text != op:
            raise ParseError(f"expected {op!r}", at)
        mask, i = _read_index_set(tokens, i + 1, arity, brace=op == "d")
        if mask in coeffs:
            raise ParseError("duplicate index set", at)
        if size is not None and mask.bit_count() != size:
            raise ParseError("mixed degrees in form", at)
        size = mask.bit_count()
        coeffs[mask] = poly
        if tokens[i][0] == "end":
            return coeffs
        i = _expect(tokens, i, "+")


def parse_form(source: str, arity: int, degree: int | None = None) -> KForm:
    """Parse form text; bare ANF reads as a 0-form.

    When `degree` is given, a nonzero form must match it and the
    degree-ambiguous texts ("0" and all-zero coefficients) are placed at
    that degree.
    """
    _check_positive(arity)
    if degree is not None:
        _check_degree(degree, arity)
    tokens = _tokens(source)
    if tokens[0][0] != "(":
        form = KForm.from_poly(_read_anf(tokens, 0, arity, "end")[0])
    else:
        coeffs = _read_slots(tokens, arity, "d")
        form = KForm(arity, next(iter(coeffs)).bit_count(), coeffs)
    if degree is not None and form.degree != degree:
        if form.is_zero:
            return KForm.zero(arity, degree)
        raise ValueError(f"form has degree {form.degree}, expected {degree}")
    return form


def parse_secant(source: str, arity: int) -> SecantElement:
    """Parse operator-field text "(ANF)*D<i> + ..."; missing slots are zero."""
    _check_positive(arity)
    tokens = _tokens(source)
    coeffs = [ZhegalkinPoly.zero(arity)] * arity
    if len(tokens) == 2 and tokens[0][1] == "0":
        return SecantElement(arity, coeffs)
    for mask, poly in _read_slots(tokens, arity, "D").items():
        coeffs[mask.bit_length() - 1] = poly
    return SecantElement(arity, coeffs)


def parse_table(source: str) -> TruthTable:
    """Parse "n:HEX" truth-table text (exactly ceil(2^n/4) hex digits)."""
    if not isinstance(source, str):
        raise ParseError("input must be text", 0)
    m = _TABLE_TEXT.match(source)
    if m is None:
        raise ParseError('expected "n:HEX"', 0)
    if m.end() != len(source):
        raise ParseError("unexpected trailing input", m.end())
    at = m.start(1)
    arity = _number(m[1], at)
    if arity < 1:
        raise ParseError("arity must be at least 1", at)
    if arity > MAX_DENSE_ARITY:
        raise ParseError(f"arity above dense limit {MAX_DENSE_ARITY}", at)
    digits = m[2]
    expected = ((1 << arity) + 3) // 4
    if len(digits) != expected:
        raise ParseError(
            f"expected {expected} hex digit(s) for arity {arity}, got {len(digits)}",
            m.start(2),
        )
    bits = int(digits, 16)
    if bits >> (1 << arity):
        raise ParseError(f"table has bits beyond its 2^{arity} entries", m.start(2))
    return TruthTable(arity, bits)
