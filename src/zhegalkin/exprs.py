"""Boolean expression parsing and translation into ANF.

Grammar, loosest first.  A run of one operator is one node, so
"x1 ^ x2 ^ x3" is Xor((x1, x2, x3)) and a chain of any length is one level:

    expr  := or
    or    := xor ("|" xor)*
    xor   := and ("^" and)*
    and   := unary ("&" unary)*
    unary := "!" unary | atom
    atom  := "0" | "1" | "x" DIGITS | "(" expr ")"

The words and/or/xor/not are aliases for &, |, ^, !.  Whitespace between
tokens is insignificant; DIGITS are ASCII.  The lexer here also reads the
canonical formats of `textio`, where a whole monomial such as "x1*x3" is
one token; in an expression its "*" is an unexpected character, as any
other.  Translation uses the Boolean-ring identities: a&b is a*b, a|b is
a+b+a*b, !a is 1+a, and ^ is ring addition.

The parser reads the lexer's tokens in place and checks each one as it
reads it.  Lexical errors (bad numbers, names, characters) come first,
the leftmost anywhere: when parsing fails, all tokens are checked again
before the syntax error is raised, so one after the failure still wins.

Cost model: lexing is one regex scan that yields token texts only, and a
token's source position is found, by scanning the source again, only when
an error is raised.  One reader reads an operand ("!", a group or an
atom), then each run of one operator after it that binds at least as
tightly as its caller allows, as one node: an operand costs one call.
"""

from __future__ import annotations

import re
from itertools import islice

from .anf import ZhegalkinPoly, _check_positive, _sum, _Value

__all__ = [
    "And",
    "Const",
    "Expr",
    "Not",
    "Or",
    "ParseError",
    "Var",
    "Xor",
    "expr_to_anf",
    "parse_expr",
]

# Bound on node levels, so every accepted tree is a usable value at the
# default recursion limit: a "!" adds 1 and a "(" adds len(_LEVELS), as
# its group can open an "|", a "^" and an "&" chain (120 "!", 40 "(").
_MAX_DEPTH = 120


class ParseError(ValueError):
    """Syntax error carrying the offending 0-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Expr(_Value):
    """Base of the expression nodes: values (see `anf._Value`) with one
    field each, named by `__match_args__` and by the repr."""

    __slots__ = ()

    def __repr__(self):
        (name,) = self.__match_args__
        return f"{self.__class__.__qualname__}({name}={getattr(self, name)!r})"


# Each __init__ writes through the slot descriptors (the _set_* functions
# below); node construction is on the parser's hot path.
class Const(Expr):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: int):
        _set_value(self, value)


class Var(Expr):
    __slots__ = __match_args__ = ("index",)

    def __init__(self, index: int):
        _set_index(self, index)


class Not(Expr):
    __slots__ = __match_args__ = ("child",)

    def __init__(self, child: Expr):
        _set_child(self, child)


class _Chain(Expr):
    __slots__ = __match_args__ = ("operands",)

    def __init__(self, operands):
        operands = tuple(operands)
        if len(operands) < 2:
            raise TypeError(f"{type(self).__name__} takes 2 or more operands, got {len(operands)}")
        _set_operands(self, operands)


class And(_Chain):
    __slots__ = ()


class Or(_Chain):
    __slots__ = ()


class Xor(_Chain):
    __slots__ = ()


_set_value = Const.value.__set__
_set_index = Var.index.__set__
_set_child = Not.child.__set__
_set_operands = _Chain.operands.__set__

_WORD_OPS = {"and": "&", "or": "|", "xor": "^", "not": "!"}
_OPERATORS = frozenset("&|^!()") | {""}  # "" is the end of input
# binary operator text -> (level, node), level 0 the loosest; words map onto them
_LEVELS = {"|": (0, Or), "^": (1, Xor), "&": (2, And)}

# The one lexer for every text format: monomials x<i>*x<j>*..., ASCII
# words, ASCII numbers, and any other non-space character on its own.
# One findall returns the token texts, skipping the whitespace between
# tokens; a token is never split by it.  A whole monomial is one token, so
# ANF text costs one token per term; whitespace around its "*" stays
# insignificant.
_TOKEN_RE = re.compile(r"x[0-9]+(?:\s*\*\s*x[0-9]+)*|[A-Za-z]+|[0-9]+|\S")


def _lex(source: str) -> list[str]:
    """The token texts of source, ending in "" for the end of input."""
    if not isinstance(source, str):
        raise ParseError("input must be text", 0)
    tokens = _TOKEN_RE.findall(source)
    tokens.append("")
    return tokens


def _kind(text: str) -> str:
    """A token's kind: var (one monomial: x<i> factors joined by "*"),
    name, num, or else the text itself (punctuation, "" at the end).  Only
    the first character decides: the lexer starts no other token with an
    ASCII letter or digit, and a monomial may hold non-ASCII spaces."""
    head = text[:1]
    if not head.isascii() or not head.isalnum():
        return text
    if head.isdigit():
        return "num"
    return "var" if head == "x" and text[1:2].isdigit() else "name"


def _at(source: str, i: int, offset: int = 0) -> int:
    """Source position of token i, `offset` characters into it.  The lexer
    keeps no positions, as only an error needs one: this scans the source
    again up to the token."""
    match = next(islice(_TOKEN_RE.finditer(source), i, None), None)
    return (len(source) if match is None else match.start()) + offset


def _number(digits: str, source: str, i: int, offset: int = 0) -> int:
    """The value of a run of ASCII digits in token i, as a ParseError if it
    is too long."""
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's int/str digit limit
        message = f"number too long ({len(digits)} digits)"
        raise ParseError(message, _at(source, i, offset)) from None


def _atom(source: str, text: str, i: int) -> Expr | None:
    """The Var or Const that token i, `text`, reads as, else None; raises
    its lexical error."""
    kind = _kind(text)
    if kind == "var":
        head = text.split("*", 1)[0].rstrip()
        index = _number(head[1:], source, i)
        if index < 1:
            raise ParseError("variable index must be at least 1", _at(source, i))
        if head != text:  # a monomial; expressions spell AND as "&"
            raise ParseError("unexpected character '*'", _at(source, i, text.index("*")))
        return Var(index)
    if kind == "num":
        if text not in ("0", "1"):
            raise ParseError(f"constants are 0 and 1, got {text!r}", _at(source, i))
        return Const(int(text))
    if kind == "name":
        if text == "x":
            raise ParseError("expected digits after 'x'", _at(source, i, 1))
        if text not in _WORD_OPS:
            raise ParseError(f"unknown name {text!r}", _at(source, i))
    elif kind not in _OPERATORS:
        raise ParseError(f"unexpected character {kind!r}", _at(source, i))
    return None


def _expect(source: str, tokens, i: int, text: str) -> int:
    if tokens[i] != text:
        raise ParseError(f"expected {text!r}", _at(source, i))
    return i + 1


def _read(source: str, tokens, i: int, level: int, depth: int) -> tuple[Expr, int]:
    """The expression at tokens[i] whose operators bind at `level` or
    tighter (len(_LEVELS): a lone operand), and the index after it."""
    text = tokens[i]
    op = _WORD_OPS.get(text, text)
    if op == "!" or op == "(":
        depth += 1 if op == "!" else len(_LEVELS)
        if depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", _at(source, i))
        if op == "!":
            child, i = _read(source, tokens, i + 1, len(_LEVELS), depth)
            expr = Not(child)
        else:
            expr, i = _read(source, tokens, i + 1, 0, depth)
            i = _expect(source, tokens, i, ")")
    else:
        expr = _atom(source, text, i)
        if expr is None:
            message = f"unexpected token {op!r}" if text else "unexpected end of input"
            raise ParseError(message, _at(source, i))
        i += 1
    while True:
        op = _WORD_OPS.get(tokens[i], tokens[i])
        at, node = _LEVELS.get(op, (-1, None))
        if at < level:
            return expr, i
        operands = [expr]
        while _WORD_OPS.get(tokens[i], tokens[i]) == op:
            operand, i = _read(source, tokens, i + 1, at + 1, depth)
            operands.append(operand)
        expr = node(operands)


def parse_expr(source: str) -> Expr:
    """Parse an expression; raises ParseError with a position on bad input."""
    tokens = _lex(source)
    try:
        expr, i = _read(source, tokens, 0, 0, 0)
        if tokens[i]:
            raise ParseError("unexpected trailing input", _at(source, i))
        return expr
    except (ParseError, RecursionError):
        # the tokens read so far passed; a lexical error after them wins
        for i, text in enumerate(tokens):
            _atom(source, text, i)
        raise


def expr_to_anf(expr: Expr, arity: int) -> ZhegalkinPoly:
    """Translate an expression tree into its canonical polynomial."""
    _check_positive(arity)
    return _translate(expr, arity)


def _translate(expr: Expr, n: int) -> ZhegalkinPoly:
    if isinstance(expr, Var):
        if expr.index > n:
            raise ValueError(f"variable x{expr.index} exceeds arity {n}")
        return ZhegalkinPoly.variable(n, expr.index)
    if isinstance(expr, Not):
        return ZhegalkinPoly.one(n) + _translate(expr.child, n)
    if isinstance(expr, Const):
        return ZhegalkinPoly.constant(n, expr.value)
    if not isinstance(expr, _Chain):
        raise TypeError(f"not an expression node: {expr!r}")
    if isinstance(expr, Xor):
        return _sum(n, (_translate(operand, n) for operand in expr.operands))
    acc = _translate(expr.operands[0], n)
    for operand in expr.operands[1:]:
        b = _translate(operand, n)
        acc = acc * b if isinstance(expr, And) else acc + b + acc * b
    return acc
