"""Every parser's outcome on a seeded corpus of mutated texts, against a
recorded file.

The corpus is canonical ANF, form and operator-field texts and rendered
expressions, each edited at random (0-3 edits of inserted, deleted or
replaced characters, some of them non-ASCII letters or spaces, and now
and then a digit run too long for `int`), at arities 1-6, 20, 40 and
63-70, so the factor indices cross x64/x65.  Two exhaustive sections of
short expressions follow: every chain of 0-4 binary operators over three
operand shapes, and every run of 0-4 space-joined tokens from a small set
that holds each token kind and operator.
An outcome is the parsed value's repr or, on a ValueError (ParseError
included), its type, message and position.  `parse_parity.txt.gz` holds
one outcome per line, in corpus order, as gzipped text (`zcat` reads it);
the test regenerates the inputs from the seed and compares.  To record
the file again after a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_parse_parity.py
"""

import gzip
import itertools
import random
from pathlib import Path

from zhegalkin import parse_anf, parse_expr, parse_form, parse_secant

DATA = Path(__file__).with_name("parse_parity.txt.gz")
SEED = 2311
PER_PARSER = 2000
ARITIES = (1, 2, 3, 4, 5, 6, 20, 40, 63, 64, 65, 70)
TEXT_ALPHABET = "x0123456789*+ 1()dD{},\t\u00a0\u3000\u00b2\u00e9"
EXPR_ALPHABET = "x0123456789&|^!() andorxnt*+$\u00a0\u3000\u00b2\u00e9"
CHAIN_OPERATORS = ("&", "|", "^")
CHAIN_OPERANDS = ("x1", "!x2", "(x3)")
SHORT_TOKENS = ("x1", "x0", "0", "2", "&", "|", "^", "!", "(", ")", "and", "x1*x2", "$")


def anf_text(rng, n, max_terms=4):
    """Canonical ANF text of up to `max_terms` random terms over x1..xn."""
    terms = set()
    for _ in range(rng.randint(0, max_terms)):
        terms.add(frozenset(rng.randint(1, n) for _ in range(rng.randint(0, 3))))
    if not terms:
        return "0"
    ordered = sorted((sorted(t) for t in terms), key=lambda t: (len(t), t))
    return " + ".join("*".join(f"x{i}" for i in t) or "1" for t in ordered)


def form_text(rng, n, k):
    """Form text of degree k: bare ANF at k = 0, else "(ANF)*d{...}" terms."""
    if k == 0:
        return anf_text(rng, n)
    keys = {tuple(sorted(rng.sample(range(1, n + 1), k))) for _ in range(rng.randint(1, 3))}
    return " + ".join(
        f"({anf_text(rng, n)})*d{{{','.join(map(str, key))}}}" for key in sorted(keys)
    )


def secant_text(rng, n):
    slots = sorted(rng.sample(range(1, n + 1), rng.randint(1, min(n, 3))))
    return " + ".join(f"({anf_text(rng, n)})*D{i}" for i in slots)


def expr_text(rng, n, depth=3):
    """A random expression over x1..xn in either spelling of each operator."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("0", "1")) if rng.random() < 0.15 else f"x{rng.randint(1, n)}"
    op = rng.choice(("not", "and", "or", "xor"))
    if op == "not":
        return rng.choice(("!", "not ")) + expr_text(rng, n, depth - 1)
    symbol = {"and": "&", "or": "|", "xor": "^"}[op]
    spelled = symbol if rng.random() < 0.7 else f" {op} "
    operands = [expr_text(rng, n, depth - 1) for _ in range(rng.randint(2, 3))]
    return "(" + spelled.join(operands) + ")"


def mutate(rng, text, alphabet):
    chars = list(text)
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if rng.random() < 0.01:
            chars.insert(at, str(rng.randint(1, 9)) * rng.randint(4290, 4310))
        elif edit == 0 or at == len(chars):
            chars.insert(at, rng.choice(alphabet))
        elif edit == 1:
            del chars[at]
        else:
            chars[at] = rng.choice(alphabet)
    return "".join(chars)


def corpus():
    """(parser, args) pairs in a fixed order, regenerated from SEED."""
    rng = random.Random(SEED)
    cases = []
    for _ in range(PER_PARSER):
        n = rng.choice(ARITIES)
        cases.append((parse_anf, (mutate(rng, anf_text(rng, n), TEXT_ALPHABET), n)))
    for _ in range(PER_PARSER):
        n = rng.choice(ARITIES)
        k = rng.randint(0, min(n, 3))
        text = mutate(rng, form_text(rng, n, k), TEXT_ALPHABET)
        cases.append((parse_form, (text, n)))
        cases.append((parse_form, (text, n, rng.choice((k, rng.randint(0, min(n, 3)))))))
    for _ in range(PER_PARSER):
        n = rng.choice(ARITIES)
        cases.append((parse_secant, (mutate(rng, secant_text(rng, n), TEXT_ALPHABET), n)))
    for _ in range(PER_PARSER):
        n = rng.choice(ARITIES)
        cases.append((parse_expr, (mutate(rng, expr_text(rng, n), EXPR_ALPHABET),)))
    for length in range(5):
        for ops in itertools.product(CHAIN_OPERATORS, repeat=length):
            for operands in itertools.product(CHAIN_OPERANDS, repeat=length + 1):
                text = operands[0] + "".join(f" {op} {x}" for op, x in zip(ops, operands[1:]))
                cases.append((parse_expr, (text,)))
    for length in range(5):
        for run in itertools.product(SHORT_TOKENS, repeat=length):
            cases.append((parse_expr, (" ".join(run),)))
    return cases


def outcome(parse, args):
    try:
        return repr(parse(*args))
    except ValueError as error:
        return repr((type(error).__name__, str(error), getattr(error, "position", None)))


def outcomes(cases):
    return [f"{parse.__name__}\t{outcome(parse, args)}" for parse, args in cases]


def test_parsers_match_recorded_outcomes():
    recorded = gzip.decompress(DATA.read_bytes()).decode().splitlines()
    cases = corpus()
    got = outcomes(cases)
    assert len(got) == len(recorded)
    changed = [
        (k, repr(cases[k][1])[:200], recorded[k], got[k])
        for k in range(len(got))
        if got[k] != recorded[k]
    ]
    assert not changed, f"{len(changed)} outcomes changed; first (index, args, recorded, got): {changed[0]}"


if __name__ == "__main__":
    DATA.write_bytes(gzip.compress(("\n".join(outcomes(corpus())) + "\n").encode(), mtime=0))
