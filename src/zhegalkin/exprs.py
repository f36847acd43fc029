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

# Nesting bound so pathological inputs fail cleanly; each level recurses
# through the whole precedence chain, so keep well under the interpreter's
# stack limit.
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


class _Parser:
    def __init__(self, source: str):
        # Lexical errors come first, left to right; tokens become
        # (kind, value, pos) with names mapped onto operators.
        self.tokens = []
        for kind, text, pos in _lex(source):
            value = 0
            if kind == "var":
                head = text.split("*", 1)[0].rstrip()
                value = _number(head[1:], pos)
                if value < 1:
                    raise ParseError("variable index must be at least 1", pos)
                if head != text:  # a monomial; expressions spell AND as "&"
                    raise ParseError("unexpected character '*'", pos + text.index("*"))
            elif kind == "num":
                if text not in ("0", "1"):
                    raise ParseError(f"constants are 0 and 1, got {text!r}", pos)
                value = _number(text, pos)
            elif kind == "name":
                if text == "x":
                    raise ParseError("expected digits after 'x'", pos + 1)
                if text not in _WORD_OPS:
                    raise ParseError(f"unknown name {text!r}", pos)
                kind = _WORD_OPS[text]
            elif kind not in _OPERATORS:
                raise ParseError(f"unexpected character {kind!r}", pos)
            self.tokens.append((kind, value, pos))
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def advance(self) -> tuple[str, int, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _enter(self, pos: int):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression nested too deeply", pos)

    def parse(self) -> Expr:
        expr = self.or_level()
        kind, _, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError("unexpected trailing input", pos)
        return expr

    def or_level(self) -> Expr:
        left = self.xor_level()
        while self.peek() == "|":
            self.i += 1
            left = Or(left, self.xor_level())
        return left

    def xor_level(self) -> Expr:
        left = self.and_level()
        while self.peek() == "^":
            self.i += 1
            left = Xor(left, self.and_level())
        return left

    def and_level(self) -> Expr:
        left = self.unary()
        while self.peek() == "&":
            self.i += 1
            left = And(left, self.unary())
        return left

    def unary(self) -> Expr:
        kind, _, pos = self.tokens[self.i]
        if kind == "!":
            self.i += 1
            self._enter(pos)
            child = self.unary()
            self.depth -= 1
            return Not(child)
        return self.atom()

    def atom(self) -> Expr:
        kind, value, pos = self.advance()
        if kind == "num":
            return Const(value)
        if kind == "var":
            return Var(value)
        if kind == "(":
            self._enter(pos)
            inner = self.or_level()
            self.depth -= 1
            kind, _, pos = self.advance()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return inner
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {kind!r}", pos)


def parse_expr(source: str) -> Expr:
    """Parse an expression; raises ParseError with a position on bad input."""
    return _Parser(source).parse()


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
