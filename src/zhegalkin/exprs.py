"""Boolean expression parsing and translation into ANF.

Grammar (binary operators left-associative, loosest first):

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

# Nesting bound so pathological inputs fail cleanly.  Each "(" recurses
# through the whole precedence chain (5 frames), each "!" through one, so
# 120 levels stay well under the interpreter's stack limit.
_MAX_DEPTH = 120


class ParseError(ValueError):
    """Syntax error carrying the offending 0-based source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Expr(_Value):
    """Base of the expression nodes: values (see `anf._Value`) whose repr
    names each field.  `__match_args__` lists a node's fields."""

    __slots__ = ()

    def __repr__(self):
        # a list comprehension: joining a generator nests deeper per level
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"


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


class _Binary(Expr):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _set_left(self, left)
        _set_right(self, right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Xor(_Binary):
    __slots__ = ()


_set_value = Const.value.__set__
_set_index = Var.index.__set__
_set_child = Not.child.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__

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
    """The left-deep chain of _LEVELS[level] operators at tokens[i], whose
    operands are the next level's chains, and the index after it."""
    if level == len(_LEVELS):
        return _read_unary(tokens, i, depth)
    op, node = _LEVELS[level]
    left, i = _read_binary(tokens, i, level + 1, depth)
    while _WORD_OPS.get(tokens[i][1], tokens[i][1]) == op:
        right, i = _read_binary(tokens, i + 1, level + 1, depth)
        left = node(left, right)
    return left, i


def _read_unary(tokens, i: int, depth: int) -> tuple[Expr, int]:
    kind, text, pos = tokens[i]
    op = _WORD_OPS.get(text, text)
    if op == "!" or op == "(":
        if depth >= _MAX_DEPTH:
            raise ParseError("expression nested too deeply", pos)
        if op == "!":
            child, i = _read_unary(tokens, i + 1, depth + 1)
            return Not(child), i
        inner, i = _read_binary(tokens, i + 1, 0, depth + 1)
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
    if not isinstance(expr, _Binary):
        raise TypeError(f"not an expression node: {expr!r}")
    # Operator chains parse left-deep, so walk the left spine in a loop and
    # recurse only into right operands and negations, whose depth the
    # parser bounds.
    spine = [expr]
    left = expr.left
    while isinstance(left, _Binary):
        spine.append(left)
        left = left.left
    acc = _translate(left, n)
    while spine:
        node = spine.pop()
        b = _translate(node.right, n)
        if isinstance(node, And):
            acc = acc * b
        elif isinstance(node, Xor):
            acc = acc + b
        else:
            acc = acc + b + acc * b
    return acc
