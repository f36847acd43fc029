"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to
check: truth tables are rebuilt by pointwise `evaluate` calls, products
by counting term pairs, face integrals by summing over the face's
vertices, exterior derivatives by cofactor sums, the reference transform
walks plain lists, ANF text is read by a reader with its own lexer, and
expressions are evaluated directly on the tree.
"""

import os
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import zhegalkin
from zhegalkin import And, Const, KForm, Not, Or, ParseError, Var, Xor, ZhegalkinPoly


def run_python(*argv):
    """Run the interpreter on argv with the package these tests import on
    its path, whether it is installed or only on the test run's import path."""
    src = str(Path(zhegalkin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_module(*argv):
    """Run `python -m zhegalkin *argv`."""
    return run_python("-m", "zhegalkin", *argv)


def all_polys(n):
    """Every polynomial of arity n (2^(2^n) of them), in a fixed order."""
    for bits in range(1 << (1 << n)):
        yield ZhegalkinPoly.from_coeff_bits(n, bits)


def random_poly(rng, n, max_terms=12):
    if n <= 5:
        return ZhegalkinPoly(n, {m for m in range(1 << n) if rng.random() < 0.5})
    return ZhegalkinPoly(n, rng.sample(range(1 << n), rng.randrange(max_terms + 1)))


def masks_of_size(n, k):
    for combo in combinations(range(n), k):
        yield sum(1 << i for i in combo)


def random_form(rng, n, k):
    coeffs = {}
    for mask in masks_of_size(n, k):
        if rng.random() < 0.75:
            poly = random_poly(rng, n)
            if poly:
                coeffs[mask] = poly
    return KForm(n, k, coeffs)


def face_sum(w, axis, level):
    """Integral of an (n-1)-form over the face x_axis = level, summed over
    the face's vertices: each term g*d{I} whose index set omits `axis`
    contributes [I subset of v]*g(v) at every vertex v of the face, the
    same weighted vertex sum as the whole-cube top integral; terms with
    `axis` in I vanish on the face."""
    n = w.arity
    bit = 1 << (axis - 1)
    face = [v for v in range(1 << n) if (v & bit) == level * bit]
    total = 0
    for key, g in w.coeffs.items():
        if key & bit:
            continue
        for v in face:
            if key & v == key:
                total ^= g.evaluate(v)
    return total


def d_by_cofactors(w):
    """Exterior derivative from the definition: for each key and each index
    i outside it, the partial restrict(i, 0) + restrict(i, 1) of the
    coefficient is added at key | {i} (no bit walk involved)."""
    n = w.arity
    out = {}
    for key, g in w.coeffs.items():
        for i in range(1, n + 1):
            bit = 1 << (i - 1)
            if key & bit:
                continue
            partial = g.restrict(i, 0) + g.restrict(i, 1)
            prev = out.get(key | bit)
            out[key | bit] = partial if prev is None else prev + partial
    return KForm(n, min(w.degree + 1, n), out)


# one token per x<i> factor and per "*", unlike the library's lexer
_FACTOR_TOKEN = re.compile(r"(?P<var>x[0-9]+)|(?P<name>[A-Za-z]+)|(?P<num>[0-9]+)|\S")


def reference_parse_anf(source, arity):
    """Canonical ANF text read one factor token at a time: the same
    polynomial as `parse_anf`, or a ParseError with the same message and
    position."""
    if not isinstance(source, str):
        raise ParseError("input must be text", 0)
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in _FACTOR_TOKEN.finditer(source)]
    tokens.append(("end", "", len(source)))
    if len(tokens) == 1:
        raise ParseError("empty input", len(source))

    def number(digits, pos):
        try:
            return int(digits)
        except ValueError:
            raise ParseError(f"number too long ({len(digits)} digits)", pos) from None

    if tokens[0][1] == "0":
        kind, _, pos = tokens[1]
        if kind != "end":
            raise ParseError('"0" must stand alone', pos)
        return ZhegalkinPoly.zero(arity)
    terms = set()
    i = 0
    while True:
        at = tokens[i][2]
        mask = 0
        if tokens[i][1] == "1":
            i += 1
        else:
            last = 0
            while True:
                kind, text, pos = tokens[i]
                if kind != "var":
                    raise ParseError("expected 'x'", pos)
                index = number(text[1:], pos)
                if index < 1:
                    raise ParseError("variable index must be at least 1", pos)
                if index > arity:
                    raise ParseError(f"variable x{index} exceeds arity {arity}", pos)
                if index <= last:
                    raise ParseError("variable indices must ascend within a term", pos)
                mask |= 1 << (index - 1)
                last = index
                i += 1
                if tokens[i][0] != "*":
                    break
                i += 1
        if mask in terms:
            raise ParseError("duplicate term", at)
        terms.add(mask)
        kind, _, pos = tokens[i]
        if kind == "end":
            return ZhegalkinPoly(arity, terms)
        if kind != "+":
            raise ParseError("expected '+'", pos)
        i += 1


def brute_table(poly):
    """Truth table by pointwise evaluation (no butterfly involved)."""
    return [poly.evaluate(v) for v in range(1 << poly.arity)]


def schoolbook_product(p, q):
    """Term set of p*q: OR every pair of monomials, keep those hit an odd
    number of times (no butterfly involved)."""
    hits = Counter(a | b for a in p.terms for b in q.terms)
    return frozenset(m for m, count in hits.items() if count % 2)


def slow_mobius(values):
    """Reference butterfly on a plain list of bits."""
    out = list(values)
    n = len(out).bit_length() - 1
    for i in range(n):
        bit = 1 << i
        for k in range(len(out)):
            if k & bit:
                out[k] ^= out[k ^ bit]
    return out


def eval_expr(expr, vertex):
    """Evaluate an expression tree directly at an int vertex mask."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return (vertex >> (expr.index - 1)) & 1
    if isinstance(expr, Not):
        return 1 - eval_expr(expr.child, vertex)
    if isinstance(expr, And):
        return eval_expr(expr.left, vertex) & eval_expr(expr.right, vertex)
    if isinstance(expr, Or):
        return eval_expr(expr.left, vertex) | eval_expr(expr.right, vertex)
    if isinstance(expr, Xor):
        return eval_expr(expr.left, vertex) ^ eval_expr(expr.right, vertex)
    raise TypeError(f"not an expression node: {expr!r}")


def random_expr(rng, n, depth=4):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return Const(rng.randrange(2))
        return Var(rng.randrange(1, n + 1))
    kind = rng.choice(("not", "and", "or", "xor"))
    if kind == "not":
        return Not(random_expr(rng, n, depth - 1))
    node = {"and": And, "or": Or, "xor": Xor}[kind]
    return node(random_expr(rng, n, depth - 1), random_expr(rng, n, depth - 1))


# Mixed-operator corpus used for translation soundness; max index 6.
EXPR_CORPUS = [
    "0",
    "1",
    "x1",
    "!x1",
    "!!x1",
    "x1 & x2",
    "x1 | x2",
    "x1 ^ x2",
    "x1 & x2 & x3",
    "x1 | x2 | x3",
    "x1 ^ x2 ^ x3",
    "!x1 | x2 & x3",
    "x1 ^ (x2 | 1)",
    "(x1 | x2) & !(x1 & x2)",
    "not x1",
    "x1 and x2",
    "x1 or x2",
    "x1 xor x2",
    "x1 and not x2 or x3",
    "!(x1 | x2) ^ (x3 & 1)",
    "x1 & (x2 | x3) & !x4",
    "(x1 ^ x2) | (x3 ^ x4)",
    "!(!x1 & !x2)",
    "x5 | x6 & x1",
    "1 & x1",
    "0 | x2",
    "1 ^ x3",
    "x1 & x1",
    "x1 | x1 & x2",
    "not (x1 and x2) or (x3 xor not x4)",
]
