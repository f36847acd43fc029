"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to
check: truth tables are rebuilt by pointwise `evaluate` calls, products
by counting term pairs, face integrals by summing over the face's
vertices, exterior derivatives by cofactor sums, the reference transform
walks plain lists, the butterfly's level masks are built from bytes, ANF
text is read by a reader with its own lexer, expressions are read by
splitting at their loosest operator, and they are evaluated directly on
the tree.
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


def run_python(*argv, **kwargs):
    """Run the interpreter on argv with the package these tests import on
    its path, whether it is installed or only on the test run's import path.
    Keyword arguments go to `subprocess.run`; stdout and stderr are captured
    unless given."""
    src = str(Path(zhegalkin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run(
        [sys.executable, *argv],
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def run_module(*argv, **kwargs):
    """Run `python -m zhegalkin *argv`."""
    return run_python("-m", "zhegalkin", *argv, **kwargs)


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


_REFERENCE_ALIASES = {"and": "&", "or": "|", "xor": "^", "not": "!"}
_REFERENCE_CHAINS = (("|", Or), ("^", Xor), ("&", And))  # loosest first
_REFERENCE_DEPTH = 120  # node levels: a "(" counts 3, a "!" counts 1 (README)


def reference_parse_expr(source):
    """The tree of an expression whose tokens are separated by spaces, or
    None where `parse_expr` raises.  It splits the tokens at every
    top-level occurrence of the loosest operator among them and reads each
    part, where the library reads an operand and then the operators after
    it."""
    tokens = [_REFERENCE_ALIASES.get(t, t) for t in source.split()]
    close, opened = {}, []  # the index of each "(" -> that of its ")"
    for k, t in enumerate(tokens):
        if t == "(":
            opened.append(k)
        elif t == ")":
            if not opened:
                return None
            close[opened.pop()] = k
    return None if opened else _reference_split(tokens, close, 0, len(tokens), 0)


def _reference_split(tokens, close, lo, hi, depth):
    # tokens[lo:hi] holds balanced groups; a scan steps over each group
    cuts = {op: [] for op, _ in _REFERENCE_CHAINS}
    k = lo
    while k < hi:
        if tokens[k] in cuts:
            cuts[tokens[k]].append(k)
        k = close[k] + 1 if tokens[k] == "(" else k + 1
    for op, node in _REFERENCE_CHAINS:
        if cuts[op]:
            bounds = [lo - 1, *cuts[op], hi]
            parts = [_reference_split(tokens, close, a + 1, b, depth)
                     for a, b in zip(bounds, bounds[1:])]
            return None if None in parts else node(parts)
    return _reference_operand(tokens, close, lo, hi, depth)


def _reference_operand(tokens, close, lo, hi, depth):
    # tokens[lo:hi] holds no operator outside its groups
    if lo == hi:
        return None
    head = tokens[lo]
    if head == "!":
        if depth + 1 > _REFERENCE_DEPTH:
            return None
        child = _reference_operand(tokens, close, lo + 1, hi, depth + 1)
        return None if child is None else Not(child)
    if head == "(":
        # the group must span the part: "(x1) (x2)" has no operator
        if close[lo] != hi - 1 or depth + 3 > _REFERENCE_DEPTH:
            return None
        return _reference_split(tokens, close, lo + 1, hi - 1, depth + 3)
    if hi - lo > 1:
        return None
    if head in ("0", "1"):
        return Const(int(head))
    digits = head[1:]
    if head[:1] == "x" and digits.isascii() and digits.isdigit() and int(digits) >= 1:
        return Var(int(digits))
    return None


def brute_table(poly):
    """Truth table by pointwise evaluation (no butterfly involved)."""
    return [poly.evaluate(v) for v in range(1 << poly.arity)]


def schoolbook_product(p, q):
    """Term set of p*q: OR every pair of monomials, keep those hit an odd
    number of times (no butterfly involved)."""
    hits = Counter(a | b for a in p.terms for b in q.terms)
    return frozenset(m for m, count in hits.items() if count % 2)


def bit_positions(bits, width):
    """Positions of the set bits among the low `width` bits, one shift
    per position (no string or byte conversion involved)."""
    return [i for i in range(width) if bits >> i & 1]


def pack_bits(entries):
    """The int whose bit k is entries[k], one shift per set entry (no
    string or byte conversion involved)."""
    bits = 0
    for k, b in enumerate(entries):
        if b:
            bits |= 1 << k
    return bits


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


def reference_level_mask(n, i):
    """The 2^n-bit int whose bit k is set iff bit i of k is clear, built
    from bytes: runs of 2^i ones and 2^i zeros, low entries first."""
    if i >= 3:
        pattern = b"\xff" * (1 << (i - 3)) + b"\x00" * (1 << (i - 3))
    else:
        pattern = bytes([sum(1 << k for k in range(8) if not k >> i & 1)])
    width = 1 << n
    data = pattern * (max(width // 8, 1) // len(pattern))
    return int.from_bytes(data, "little") & ((1 << width) - 1)


def eval_expr(expr, vertex):
    """Evaluate an expression tree directly at an int vertex mask, folding
    each chain's operands with the Boolean operator (no ring involved)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return (vertex >> (expr.index - 1)) & 1
    if isinstance(expr, Not):
        return 1 - eval_expr(expr.child, vertex)
    if isinstance(expr, (And, Or, Xor)):
        first, *rest = expr.operands
        value = eval_expr(first, vertex)
        for operand in rest:
            b = eval_expr(operand, vertex)
            if isinstance(expr, And):
                value &= b
            elif isinstance(expr, Or):
                value |= b
            else:
                value ^= b
        return value
    raise TypeError(f"not an expression node: {expr!r}")


def random_expr(rng, n, depth=4, max_operands=2):
    """A random tree of depth at most `depth` over x1..xn whose chains
    have 2..max_operands operands.  The default of 2 draws no width, so
    the seeded samples of the tests that use it do not depend on it."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.2:
            return Const(rng.randrange(2))
        return Var(rng.randrange(1, n + 1))
    kind = rng.choice(("not", "and", "or", "xor"))
    if kind == "not":
        return Not(random_expr(rng, n, depth - 1, max_operands))
    node = {"and": And, "or": Or, "xor": Xor}[kind]
    width = 2 if max_operands == 2 else rng.randrange(2, max_operands + 1)
    return node([random_expr(rng, n, depth - 1, max_operands) for _ in range(width)])


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
