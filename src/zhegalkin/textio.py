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
A monomial such as "x1 * x3" is one token, so ANF text costs one token
per term.  Its factors x1..x64, written canonically, are read by a table
lookup; any other (x01, x65, a space before "*") is read on its own by
int(), at an offset carried along the token, so no text makes the parser
read a factor twice.  Lexing is one regex scan, and a token's position is
found only when an error is raised.
"""

from __future__ import annotations

import re

from .anf import MAX_DENSE_ARITY, TruthTable, ZhegalkinPoly, _NAMES, _check_positive, _make_poly
from .exprs import ParseError, _at, _expect, _kind, _lex, _number
from .forms import KForm, _check_degree
from .secant import SecantElement

__all__ = [
    "parse_anf",
    "parse_form",
    "parse_secant",
    "parse_table",
]

# The bit of each factor x1..x64 as the canonical text writes it; other
# factors (x01, "x1 " before a "*", x65, ...) are read with int()
_BITS = {name: 1 << k for k, name in enumerate(_NAMES)}

# "n:HEX"; the CLI takes any text this matches a prefix of for a table
_TABLE_TEXT = re.compile(r"\s*([0-9]+)\s*:\s*([0-9a-fA-F]*)\s*")


def _tokens(source: str) -> list[str]:
    tokens = _lex(source)
    if len(tokens) == 1:
        raise ParseError("empty input", len(source))
    return tokens


def _factor_bit(source: str, factor: str, i: int, start: int, mask: int, arity: int) -> int:
    """The bit of `factor`, the text at offset `start` of token i after the
    factors in `mask`, read with int(); raises the factor's error."""
    if not start and _kind(factor) != "var":
        raise ParseError("expected 'x'", _at(source, i))
    at = start + factor.index("x")  # the factor's offset in the token
    index = _number(factor.strip()[1:], source, i, at)
    if index < 1:
        message = "variable index must be at least 1"
    elif index > arity:
        message = f"variable x{index} exceeds arity {arity}"
    elif 1 << (index - 1) <= mask:
        message = "variable indices must ascend within a term"
    else:
        return 1 << (index - 1)
    raise ParseError(message, _at(source, i, at))


def _read_anf(source: str, tokens, i: int, arity: int, stop: str) -> tuple[ZhegalkinPoly, int]:
    """Polynomial at tokens[i] up to a `stop` or end token, and its index."""
    if tokens[i] == "0":
        after = tokens[i + 1]
        if after != stop and after:
            raise ParseError('"0" must stand alone', _at(source, i + 1))
        return ZhegalkinPoly.zero(arity), i + 1
    terms = set()
    bit_of = _BITS.get
    while True:
        # one monomial token per term, then "+", `stop` or the end
        text = tokens[i]
        mask = 0
        if text != "1":
            # each bit must be a named factor's, above the factors before
            # it and within the arity; any other factor is read with int()
            start = 0  # the factor's offset in text
            for factor in text.split("*"):
                bit = bit_of(factor)
                if bit is None or bit <= mask or bit >> arity:
                    bit = _factor_bit(source, factor, i, start, mask, arity)
                mask |= bit
                start += len(factor) + 1
            # the lexer folds every "*x<j>" into the token, so a "*" after
            # it has no factor behind it
            if tokens[i + 1] == "*":
                raise ParseError("expected 'x'", _at(source, i + 2))
        if mask in terms:
            raise ParseError("duplicate term", _at(source, i))
        terms.add(mask)
        text = tokens[i + 1]
        if text == stop or not text:
            # every mask was range-checked and none repeats: already canonical
            return _make_poly(arity, frozenset(terms)), i + 1
        i = _expect(source, tokens, i + 1, "+")


def parse_anf(source: str, arity: int) -> ZhegalkinPoly:
    """Parse canonical ANF text into a polynomial of the given arity."""
    _check_positive(arity)
    return _read_anf(source, _tokens(source), 0, arity, "")[0]


def _read_index_set(source: str, tokens, i: int, arity: int, brace: bool) -> tuple[int, int]:
    # "{i,j,...}" after d, or one bare index after D
    if brace:
        i = _expect(source, tokens, i, "{")
    mask = 0
    last = 0
    while True:
        text = tokens[i]
        if _kind(text) != "num":
            raise ParseError("expected a number", _at(source, i))
        index = _number(text, source, i)
        if index < 1 or index > arity:
            raise ParseError(f"index {index} out of range 1..{arity}", _at(source, i))
        if index <= last:
            raise ParseError("indices must ascend", _at(source, i))
        mask |= 1 << (index - 1)
        last = index
        i += 1
        if not brace:
            return mask, i
        if tokens[i] != ",":
            return mask, _expect(source, tokens, i, "}")
        i += 1


def _read_slots(source: str, tokens, arity: int, op: str) -> dict[int, ZhegalkinPoly]:
    """Terms "(ANF)*<op><indices>" joined by "+", as index mask -> coefficient.

    Every term's index set must have the same size.
    """
    coeffs = {}
    size = None
    i = 0
    while True:
        i = _expect(source, tokens, i, "(")
        poly, i = _read_anf(source, tokens, i, arity, ")")
        i = _expect(source, tokens, i, ")")
        at = _expect(source, tokens, i, "*")
        if tokens[at] != op:
            raise ParseError(f"expected {op!r}", _at(source, at))
        mask, i = _read_index_set(source, tokens, at + 1, arity, brace=op == "d")
        if mask in coeffs:
            raise ParseError("duplicate index set", _at(source, at))
        if size is not None and mask.bit_count() != size:
            raise ParseError("mixed degrees in form", _at(source, at))
        size = mask.bit_count()
        coeffs[mask] = poly
        if not tokens[i]:
            return coeffs
        i = _expect(source, tokens, i, "+")


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
    if tokens[0] != "(":
        form = KForm.from_poly(_read_anf(source, tokens, 0, arity, "")[0])
    else:
        coeffs = _read_slots(source, tokens, arity, "d")
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
    if len(tokens) == 2 and tokens[0] == "0":
        return SecantElement(arity, coeffs)
    for mask, poly in _read_slots(source, tokens, arity, "D").items():
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
    try:
        arity = int(m[1])
    except ValueError:  # beyond the interpreter's int/str digit limit
        raise ParseError(f"number too long ({len(m[1])} digits)", at) from None
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
