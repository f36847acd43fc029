"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import random
import re
import statistics
import time

from zhegalkin import (
    KForm,
    SecantElement,
    TruthTable,
    ZhegalkinPoly,
    differential,
    expr_to_anf,
    pair,
    parse_expr,
    run_transform_benchmark,
    stokes_sweep,
)

from helpers import (
    EXPR_CORPUS,
    all_polys,
    eval_expr,
    masks_of_size,
    random_expr,
    random_form,
    random_poly,
    run_module,
)


def _report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_boundary_identity():
    start = time.perf_counter()
    failures = 0
    s1 = stokes_sweep(1, exhaustive=True)
    failures += s1.failed + (s1.checked != 4)
    s2 = stokes_sweep(2, exhaustive=True)
    failures += s2.failed + (s2.checked != 256)
    for n, seed in ((3, 42), (4, 43), (5, 44)):
        s = stokes_sweep(n, count=10_000, seed=seed)
        failures += s.failed + (s.checked != 10_000)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "boundary identity (exhaustive n<=2, 3x10^4 random n=3..5)",
        failures == 0 and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_unique_representation():
    start = time.perf_counter()
    mismatches = 0
    for n in (1, 2, 3):
        term_sets = set()
        total = 1 << (1 << n)
        for bits in range(total):
            table = TruthTable(n, bits)
            poly = ZhegalkinPoly.from_truth_table(table)
            if poly.to_truth_table() != table:
                mismatches += 1
            term_sets.add(poly.terms)
        if len(term_sets) != total:  # distinct tables, distinct term sets
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        "truth tables round-trip bijectively for n<=3",
        mismatches == 0 and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_derivative_identity():
    mismatches = 0
    for n in (1, 2, 3):
        for f in all_polys(n):
            for i in range(1, n + 1):
                df = f.partial(i)
                if df != f.restrict(i, 0) + f.restrict(i, 1):
                    mismatches += 1
                # restrict(i, 1) is built from partial, so the identity above
                # holds by construction; the pointwise cofactor sum does not
                bit = 1 << (i - 1)
                for v in range(1 << n):
                    if df.evaluate(v) != f.evaluate(v & ~bit) ^ f.evaluate(v | bit):
                        mismatches += 1
    _report(3, "derivative equals cofactor sum (exhaustive n<=3)", mismatches == 0)


def test_criterion_4_calculus_laws():
    failures = 0
    rng = random.Random(4242)

    # d squared vanishes: 10^3 random forms per (n, k), n <= 4
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            for _ in range(1000):
                w = random_form(rng, n, k)
                if not w.d().d().is_zero:
                    failures += 1

    # partials commute and square to zero, exhaustively for n <= 3
    for n in (1, 2, 3):
        zero = ZhegalkinPoly.zero(n)
        for f in all_polys(n):
            for i in range(1, n + 1):
                if f.partial(i).partial(i) != zero:
                    failures += 1
                for j in range(1, n + 1):
                    if f.partial(i).partial(j) != f.partial(j).partial(i):
                        failures += 1

    # wedge laws over every basis index set, n <= 4
    for n in (1, 2, 3, 4):
        one = ZhegalkinPoly.one(n)
        basis = [
            KForm(n, mask.bit_count(), {mask: one})
            for k in range(n + 1)
            for mask in masks_of_size(n, k)
        ]
        for a in basis:
            for b in basis:
                if a.wedge(b) != b.wedge(a):
                    failures += 1
                for c in basis:
                    if a.wedge(b).wedge(c) != a.wedge(b.wedge(c)):
                        failures += 1
        for i in range(1, n + 1):
            di = KForm.term(one, [i])
            if not di.wedge(di).is_zero:
                failures += 1

    # duality: the differential paired with a field equals the field applied
    for n in (1, 2, 3, 4):
        for _ in range(1000):
            f = random_poly(rng, n)
            phi = SecantElement(n, [random_poly(rng, n) for _ in range(n)])
            if pair(differential(f), phi) != phi.apply(f):
                failures += 1

    _report(4, "calculus laws (d^2, partials, wedge, duality)", failures == 0)


def test_criterion_5_non_derivation_witnesses():
    ok = True

    # derivative of x1*x1 is 1 while the Leibniz expression cancels to 0
    x1 = ZhegalkinPoly.variable(1, 1)
    square_derivative = (x1 * x1).partial(1)
    leibniz = x1.partial(1) * x1 + x1 * x1.partial(1)
    ok &= square_derivative == ZhegalkinPoly.one(1)
    ok &= leibniz == ZhegalkinPoly.zero(1)
    ok &= square_derivative != leibniz

    # frozen counterexample to d(a^b) = da^b + a^db at n=2
    x2 = ZhegalkinPoly.variable(2, 2)
    omega = KForm.from_poly(x2)
    eta = KForm.term(x2, [1])
    lhs = omega.wedge(eta).d()
    rhs = omega.d().wedge(eta) + omega.wedge(eta.d())
    ok &= str(lhs) == "(1)*d{1,2}"
    ok &= str(rhs) == "0"
    ok &= lhs != rhs

    _report(5, "non-derivation witnesses reproduce exactly", ok)


def test_criterion_6_translation_soundness():
    mismatches = 0
    n = 6
    for src in EXPR_CORPUS:
        tree = parse_expr(src)
        poly = expr_to_anf(tree, n)
        for v in range(1 << n):
            if poly.evaluate(v) != eval_expr(tree, v):
                mismatches += 1
    rng = random.Random(4343)
    for _ in range(1000):
        arity = rng.randrange(1, 7)
        tree = random_expr(rng, arity)
        poly = expr_to_anf(tree, arity)
        for v in range(1 << arity):
            if poly.evaluate(v) != eval_expr(tree, v):
                mismatches += 1
    _report(
        6,
        f"translation soundness ({len(EXPR_CORPUS)}-expression corpus + 10^3 trees)",
        mismatches == 0,
    )


def test_criterion_7_transform_performance():
    report = run_transform_benchmark(20, reps=5, seed=7)
    ok = report.median_seconds < 0.1
    # the same numbers must be reachable through the CLI surface
    proc = run_module("bench", "--n", "20", "--reps", "3")
    ok &= proc.returncode == 0 and "round-trip=verified" in proc.stdout
    cli_median = re.search(r"median=([0-9.]+)ms", proc.stdout)
    ok &= cli_median is not None and float(cli_median.group(1)) < 100.0
    _report(
        7,
        "packed transform round trip at n=20 under 100 ms median",
        ok,
        f"median {report.median_seconds * 1e3:.2f} ms",
    )


def test_criterion_8_conversion_performance():
    rng = random.Random(8)
    times = []
    ok = True
    for _ in range(3):
        table = TruthTable(20, rng.getrandbits(1 << 20))
        start = time.perf_counter()
        back = ZhegalkinPoly.from_truth_table(table).to_truth_table()
        times.append(time.perf_counter() - start)
        ok &= back == table
    median = statistics.median(times)
    _report(
        8,
        "table -> polynomial -> table at n=20 under 1 s median",
        ok and median < 1.0,
        f"median {median * 1e3:.0f} ms",
    )


def test_criterion_9_dense_product_performance():
    rng = random.Random(9)
    times = []
    ok = True
    for _ in range(3):
        p = ZhegalkinPoly.from_coeff_bits(12, rng.getrandbits(1 << 12))
        q = ZhegalkinPoly.from_coeff_bits(12, rng.getrandbits(1 << 12))
        start = time.perf_counter()
        product = p * q
        times.append(time.perf_counter() - start)
        for _ in range(64):
            v = rng.getrandbits(12)
            ok &= product.evaluate(v) == p.evaluate(v) & q.evaluate(v)
    median = statistics.median(times)
    _report(
        9,
        "product of two uniform n=12 polynomials under 50 ms median",
        ok and median < 0.05,
        f"median {median * 1e3:.1f} ms",
    )
