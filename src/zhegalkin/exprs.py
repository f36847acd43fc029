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
"""

from __future__ import annotations

import re

from .anf import ZhegalkinPoly, _check_positive, _Value

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
_OPERATORS = frozenset("&|^!()") | {"end"}
# the binary operators by text, loosest first; words map onto them
_LEVELS = (("|", Or), ("^", Xor), ("&", And))

# The one lexer for every text format: monomials x<i>*x<j>*..., ASCII
# words, ASCII numbers, and any other non-space character on its own.
# finditer skips the whitespace between tokens; a token is never split by
# it.  A whole monomial is one "var" token, so ANF text costs one token per
# term; whitespace around its "*" stays insignificant.
_TOKEN_RE = re.compile(
    r"(?P<var>x[0-9]+(?:\s*\*\s*x[0-9]+)*)|(?P<name>[A-Za-z]+)|(?P<num>[0-9]+)|\S"
)


def _lex(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, pos) tokens ending in ("end", "", len(source)).

    The kind is var (one monomial: x<i> factors joined by "*"), name or
    num, or the punctuation character itself.
    """
    if not isinstance(source, str):
        raise ParseError("input must be text", 0)
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in _TOKEN_RE.finditer(source)]
    tokens.append(("end", "", len(source)))
    return tokens


def _number(digits: str, pos: int) -> int:
    """The value of a run of ASCII digits, as a ParseError if it is too long."""
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's int/str digit limit
        raise ParseError(f"number too long ({len(digits)} digits)", pos) from None


def _check_token(kind: str, text: str, pos: int) -> int:
    """The value of a var or num token (else 0); raises its lexical error."""
    if kind == "var":
        head = text.split("*", 1)[0].rstrip()
        value = _number(head[1:], pos)
        if value < 1:
            raise ParseError("variable index must be at least 1", pos)
        if head != text:  # a monomial; expressions spell AND as "&"
            raise ParseError("unexpected character '*'", pos + text.index("*"))
        return value
    if kind == "num":
        if text not in ("0", "1"):
            raise ParseError(f"constants are 0 and 1, got {text!r}", pos)
        return _number(text, pos)
    if kind == "name":
        if text == "x":
            raise ParseError("expected digits after 'x'", pos + 1)
        if text not in _WORD_OPS:
            raise ParseError(f"unknown name {text!r}", pos)
    elif kind not in _OPERATORS:
        raise ParseError(f"unexpected character {kind!r}", pos)
    return 0


def _expect(tokens, i: int, kind: str) -> int:
    if tokens[i][0] != kind:
        raise ParseError(f"expected {kind!r}", tokens[i][2])
    return i + 1


def _read_binary(tokens, i: int, level: int, depth: int) -> tuple[Expr, int]:
    """The chain of _LEVELS[level] operators over the next level's chains
    at tokens[i] (a lone operand as itself), and the index after it."""
    if level == len(_LEVELS):
        return _read_unary(tokens, i, depth)
    op, node = _LEVELS[level]
    first, i = _read_binary(tokens, i, level + 1, depth)
    if _WORD_OPS.get(tokens[i][1], tokens[i][1]) != op:
        return first, i
    operands = [first]
    while _WORD_OPS.get(tokens[i][1], tokens[i][1]) == op:
        operand, i = _read_binary(tokens, i + 1, level + 1, depth)
        operands.append(operand)
    return node(operands), i


def _read_unary(tokens, i: int, depth: int) -> tuple[Expr, int]:
    kind, text, pos = tokens[i]
    op = _WORD_OPS.get(text, text)
    if op == "!" or op == "(":
        depth += 1 if op == "!" else len(_LEVELS)
        if depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", pos)
        if op == "!":
            child, i = _read_unary(tokens, i + 1, depth)
            return Not(child), i
        inner, i = _read_binary(tokens, i + 1, 0, depth)
        return inner, _expect(tokens, i, ")")
    value = _check_token(kind, text, pos)
    if kind == "var":
        return Var(value), i + 1
    if kind == "num":
        return Const(value), i + 1
    message = "unexpected end of input" if kind == "end" else f"unexpected token {op!r}"
    raise ParseError(message, pos)


def parse_expr(source: str) -> Expr:
    """Parse an expression; raises ParseError with a position on bad input."""
    tokens = _lex(source)
    try:
        expr, i = _read_binary(tokens, 0, 0, 0)
        if tokens[i][0] != "end":
            raise ParseError("unexpected trailing input", tokens[i][2])
        return expr
    except (ParseError, RecursionError):
        # the tokens read so far passed; a lexical error after them wins
        for token in tokens:
            _check_token(*token)
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
    acc = _translate(expr.operands[0], n)
    for operand in expr.operands[1:]:
        b = _translate(operand, n)
        if isinstance(expr, And):
            acc = acc * b
        elif isinstance(expr, Xor):
            acc = acc + b
        else:
            acc = acc + b + acc * b
    return acc
