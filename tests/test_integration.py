import random
import re
import sys
import threading
import time
import tracemalloc

import pytest

from zhegalkin import (
    KForm,
    StokesReport,
    SweepSummary,
    TruthTable,
    ZhegalkinPoly,
    integrate_boundary,
    integrate_face,
    integrate_top,
    stokes_check,
    stokes_sweep,
)
from zhegalkin.anf import _level_masks
from zhegalkin.integration import _slot_masks, _sweep_forms

from helpers import (all_polys, bit_positions, face_sum, masks_of_size, random_form,
                     random_poly)


def test_integrate_top_examples():
    assert integrate_top(KForm.term(ZhegalkinPoly.one(2), [1, 2])) == 1
    f = ZhegalkinPoly(2, [0b01, 0b10])  # x1 + x2
    assert integrate_top(KForm.term(f, [1, 2])) == 0
    g = ZhegalkinPoly(3, [0b011, 0b100])  # x1*x2 + x3
    assert integrate_top(KForm.term(g, [1, 2, 3])) == 0
    with pytest.raises(ValueError):
        integrate_top(KForm.term(f, [1]))


def test_integrate_top_equals_whole_cube_sum():
    # all-ones evaluation vs XOR over the cube of x_1..x_n * f: every f up
    # to n=3, random f at n=4
    rng = random.Random(101)
    cases = [(n, f) for n in (1, 2, 3) for f in all_polys(n)]
    cases += [(4, random_poly(rng, 4)) for _ in range(200)]
    for n, f in cases:
        top_monomial = ZhegalkinPoly(n, [(1 << n) - 1])
        total = 0
        for v in range(1 << n):
            total ^= (top_monomial * f).evaluate(v)
        assert integrate_top(KForm.term(f, range(1, n + 1))) == total


def test_integrate_face_examples():
    f = ZhegalkinPoly(3, [0b100, 0b001])  # x3 + x1
    w = KForm.term(f, [1, 2])  # missing axis 3
    assert integrate_face(w, (1, 1)) == 0
    assert integrate_face(w, (3, 0)) == 1  # f(1,1,0) = 0 + 1
    v = KForm.term(ZhegalkinPoly.variable(2, 2), [1])
    assert integrate_face(v, (2, 1)) == 1
    with pytest.raises(ValueError):
        integrate_face(KForm.term(f, [1, 2, 3]), (1, 0))
    with pytest.raises(ValueError):
        integrate_face(w, (4, 0))
    for bad in ((0, 0), (3, 0), (1, 2), (1, 1.0)):
        with pytest.raises(ValueError):
            integrate_face(v, bad)
    assert integrate_face(v, (2, True)) == 1


def test_face_and_boundary_integrals_match_face_sum():
    # every 1-form at n=2, then 300 random (n-1)-forms at each n=1..5
    rng = random.Random(107)
    forms = [KForm(2, 1, {0b01: f, 0b10: g}) for f in all_polys(2) for g in all_polys(2)]
    forms += [random_form(rng, n, n - 1) for n in range(1, 6) for _ in range(300)]
    for w in forms:
        boundary = 0
        for axis in range(1, w.arity + 1):
            for level in (0, 1):
                expected = face_sum(w, axis, level)
                assert integrate_face(w, (axis, level)) == expected
                boundary ^= expected
        assert integrate_boundary(w) == boundary


def test_boundary_matches_face_sums_on_dense_and_sparse_forms():
    rng = random.Random(131)
    for n in range(1, 13):
        full = (1 << n) - 1
        keys = [full ^ (1 << k) for k in range(n)]
        dense = [
            KForm(n, n - 1, {key: ZhegalkinPoly.from_coeff_bits(n, rng.getrandbits(1 << n))
                             for key in keys}),
            KForm(n, n - 1, {key: ZhegalkinPoly(n, rng.sample(range(1 << n), 1 << (n - 1)))
                             for key in keys}),
        ]
        sparse = KForm(n, n - 1, {rng.choice(keys): ZhegalkinPoly(n, [rng.randrange(1 << n)])})
        for w in dense + [sparse]:
            expected = 0
            for axis in range(1, n + 1):
                expected ^= face_sum(w, axis, 0) ^ face_sum(w, axis, 1)
            assert integrate_boundary(w) == expected
            assert stokes_check(w).passed


def test_boundary_of_one_term_at_the_dense_arity_costs_its_term():
    # the coefficient keeps a 2^24-bit vector; the integral reads one term
    n = 24
    w = KForm.term(ZhegalkinPoly.from_coeff_bits(n, 1 << 5), range(2, 25))  # (x1*x3)*d{2..24}
    start = time.perf_counter()
    assert integrate_boundary(w) == 1
    assert time.perf_counter() - start < 0.05


def _slot_form(n, vectors, held):
    # the (n-1)-form with these slot vectors, each coefficient built fresh,
    # holding only its vector or only its term set
    return KForm(n, n - 1, {
        slot: (ZhegalkinPoly.from_coeff_bits(n, bits) if held
               else ZhegalkinPoly(n, bit_positions(bits, 1 << n)))
        for slot, bits in vectors.items() if bits})


def test_integrals_agree_from_either_store():
    # every integral reads a coefficient's vector when it holds one and its
    # terms otherwise; both must give the same value, on random forms and on
    # the n * 2^n basis forms x^m d{I} (the integrals are F2-linear)
    rng = random.Random(29)
    for n in range(1, 7):
        full = (1 << n) - 1
        slots = [full ^ (1 << i) for i in range(n)]
        cases = [{slot: rng.getrandbits(1 << n) for slot in slots} for _ in range(40)]
        cases += [{slot: 1 << m} for slot in slots for m in range(1 << n)]
        for vectors in cases:
            values = {}
            for held in (True, False):
                got = [integrate_top(_slot_form(n, vectors, held).d()),
                       integrate_boundary(_slot_form(n, vectors, held))]
                got += [integrate_face(_slot_form(n, vectors, held), (axis, level))
                        for axis in range(1, n + 1) for level in (0, 1)]
                got += [integrate_top(KForm(n, n, {full: poly}))
                        for poly in _slot_form(n, vectors, held).coeffs.values()]
                values[held] = got
            assert values[True] == values[False]
            w = _slot_form(n, vectors, False)
            assert values[True][2:2 + 2 * n] == [face_sum(w, axis, level) for axis in range(1, n + 1)
                                                for level in (0, 1)]


def test_integrate_boundary_examples():
    w = KForm.term(ZhegalkinPoly.variable(2, 2), [1])
    assert integrate_boundary(w) == 1
    assert integrate_boundary(KForm.zero(2, 1)) == 0
    with pytest.raises(ValueError):
        integrate_boundary(KForm.zero(2, 2))


def test_boundary_reduces_to_missing_axis_faces():
    rng = random.Random(89)
    for _ in range(200):
        f = random_poly(rng, 3)
        w = KForm.term(f, [1, 2]) if f else KForm.zero(3, 2)
        expected = integrate_face(w, (3, 0)) ^ integrate_face(w, (3, 1))
        assert integrate_boundary(w) == expected
        # both equal the x3-derivative evaluated with the others at 1
        assert integrate_boundary(w) == f.partial(3).evaluate(0b011)


def test_face_integral_vanishes_off_support():
    rng = random.Random(97)
    for _ in range(200):
        n = rng.randrange(1, 5)
        f = random_poly(rng, n)
        if not f:
            continue
        key = rng.choice(list(masks_of_size(n, n - 1)))
        w = KForm(n, n - 1, {key: f})
        missing = (key ^ ((1 << n) - 1)).bit_length()
        for axis in range(1, n + 1):
            for level in (0, 1):
                value = integrate_face(w, (axis, level))
                if axis != missing:
                    assert value == 0


def test_integration_is_additive():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randrange(1, 5)
        a = random_form(rng, n, n - 1)
        b = random_form(rng, n, n - 1)
        assert integrate_boundary(a + b) == integrate_boundary(a) ^ integrate_boundary(b)
        # with the line above: both sides of stokes_check are linear in w
        assert stokes_check(a + b).lhs == stokes_check(a).lhs ^ stokes_check(b).lhs
        face = (rng.randrange(1, n + 1), rng.randrange(2))
        assert integrate_face(a + b, face) == integrate_face(a, face) ^ integrate_face(b, face)
        ta = random_form(rng, n, n)
        tb = random_form(rng, n, n)
        assert integrate_top(ta + tb) == integrate_top(ta) ^ integrate_top(tb)


@pytest.mark.parametrize("n", range(1, 11))
def test_stokes_holds_on_every_basis_form(n):
    # both sides are F2-linear in w (test_integration_is_additive), so
    # passing on the n * 2^n forms x^m d{[n] minus k} proves the identity
    # for every (n-1)-form; each side must read the raw bit "x_k divides x^m"
    full = (1 << n) - 1
    for k in range(1, n + 1):
        key = full ^ (1 << (k - 1))
        for m in range(1 << n):
            report = stokes_check(KForm(n, n - 1, {key: ZhegalkinPoly(n, [m])}))
            expected = (m >> (k - 1)) & 1
            assert (report.lhs, report.rhs, report.passed) == (expected, expected, True)


def test_stokes_check_example():
    w = KForm.term(ZhegalkinPoly.variable(2, 2), [1])
    report = stokes_check(w)
    assert (report.lhs, report.rhs, report.passed) == (1, 1, True)
    assert str(report) == "lhs=1 rhs=1 pass=true form=(x2)*d{1}"


def test_stokes_check_all_n1():
    # 0-forms at n=1: both sides equal f(0) XOR f(1)
    for f in all_polys(1):
        report = stokes_check(KForm.from_poly(f))
        assert report.passed
        assert report.lhs == f.evaluate(0) ^ f.evaluate(1)


def test_stokes_check_zero_form():
    report = stokes_check(KForm.zero(3, 2))
    assert report.passed and report.lhs == report.rhs == 0


def test_stokes_check_degree_validation():
    with pytest.raises(ValueError):
        stokes_check(KForm.zero(3, 1))


def test_stokes_sweep_exhaustive():
    s1 = stokes_sweep(1, exhaustive=True)
    assert (s1.checked, s1.failed) == (4, 0)
    s2 = stokes_sweep(2, exhaustive=True)
    assert (s2.checked, s2.failed) == (256, 0)
    assert str(s2) == "checked=256 failed=0"
    assert s2.counterexample is None


def test_stokes_sweep_random():
    s = stokes_sweep(4, count=500, seed=11)
    assert (s.checked, s.failed) == (500, 0)


def test_sweep_forms_equal_forms_from_the_public_constructors():
    # the sweep builds its forms unchecked; replay its draws through the
    # validating constructors and compare value, hash and text
    for n in range(1, 7):
        slots = _slot_masks(n)
        for seed in (0, 1, 29):
            rng = random.Random(seed)
            count = 0
            for form in _sweep_forms(n, slots, False, 20, seed):
                coeffs = {}
                for slot in slots:
                    bits = rng.getrandbits(1 << n)
                    if bits:
                        coeffs[slot] = ZhegalkinPoly.from_coeff_bits(n, bits)
                want = KForm(n, n - 1, coeffs)
                assert form == want and hash(form) == hash(want) and str(form) == str(want)
                # each coefficient keeps its drawn vector for d
                assert {slot: poly._packed for slot, poly in form.coeffs.items()} == {
                    slot: poly.coeff_bits() for slot, poly in coeffs.items()}
                count += 1
            assert count == 20
    for n, total in ((1, 4), (2, 256)):
        forms = list(_sweep_forms(n, _slot_masks(n), True, None, 0))
        assert len(forms) == total and len(set(forms)) == total
        assert all(form == KForm(n, n - 1, dict(form.coeffs)) for form in forms)


def test_exhaustive_sweep_order_is_a_counter_over_the_slots():
    # sample i gives slot s the vector in bits width*s .. width*(s+1) - 1
    # of i, so a counterexample index names its form
    for n in (1, 2):
        slots = _slot_masks(n)
        width = 1 << n
        forms = list(_sweep_forms(n, slots, True, None, 0))
        assert len(forms) == 1 << (width * len(slots))
        for index, form in enumerate(forms):
            for s, slot in enumerate(slots):
                want = (index >> (width * s)) & ((1 << width) - 1)
                assert form.coefficient(slot).coeff_bits() == want


def test_stokes_sweep_deterministic():
    a = stokes_sweep(3, count=300, seed=5)
    b = stokes_sweep(3, count=300, seed=5)
    assert str(a) == str(b) and (a.checked, a.failed) == (b.checked, b.failed)


def test_stokes_sweep_validation():
    with pytest.raises(ValueError):
        stokes_sweep(3, exhaustive=True)
    with pytest.raises(ValueError):
        stokes_sweep(2)
    with pytest.raises(ValueError):
        stokes_sweep(2, exhaustive=True, count=10)
    with pytest.raises(ValueError):
        stokes_sweep(2, count=0)
    for bad in (2.5, True):
        message = f"sample count must be a positive integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            stokes_sweep(2, count=bad)
    with pytest.raises(ValueError, match=re.escape("arity must be a positive integer, got 2.0")):
        stokes_sweep(2.0, count=1)


def test_stokes_sweep_rejects_oversized_arity_before_drawing():
    # a draw at n=25 would be a 2^25-bit vector per slot, ~125 MB in all
    message = "dense truth tables support arity <= 24, got 25"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            stokes_sweep(25, count=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sweep_summary_counterexample_line():
    report = StokesReport(lhs=1, rhs=0, passed=False, form=KForm.zero(2, 1))
    summary = SweepSummary(checked=5, failed=1, counterexample_index=3, counterexample=report)
    assert str(summary) == (
        "checked=5 failed=1\ncounterexample index=3: lhs=1 rhs=0 pass=false form=0"
    )
    assert summary.counterexample_index == 3 and summary.counterexample.lhs == 1
    assert str(SweepSummary(checked=7, failed=0)) == "checked=7 failed=0"
    assert not summary.passed and SweepSummary(checked=7, failed=0).passed
    report = StokesReport(lhs=0, rhs=0, passed=True, form=KForm.zero(2, 1))
    assert str(report) == "lhs=0 rhs=0 pass=true form=0"


def test_first_reads_of_a_term_set_are_safe_to_share_between_threads():
    # 8 threads read `.terms` of the same polynomials, which hold only their
    # packed vectors: the barrier's action builds fresh ones for each round,
    # so every round races on the first read, which must give the serial set
    rng = random.Random(23)
    vectors = [(n, rng.getrandbits(1 << n)) for n in range(1, 11) for _ in range(4)]
    serial = [frozenset(bit_positions(bits, 1 << n)) for n, bits in vectors]
    fresh = []

    def rebuild():
        fresh[:] = [ZhegalkinPoly.from_coeff_bits(n, bits) for n, bits in vectors]

    rounds = 20
    results = [[] for _ in range(8)]
    start = threading.Barrier(len(results), action=rebuild)

    def run(i):
        try:
            for _ in range(rounds):
                start.wait()
                results[i].append([p.terms for p in fresh])
        except BaseException:
            start.abort()
            raise

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[serial] * rounds] * len(results)


def test_values_are_safe_to_share_between_threads():
    # the README's claim: 8 threads, more than the cores of a small host,
    # share the same polynomials and forms with a short switch interval.
    # Each round starts together from a cold level-mask cache, and every
    # round of every thread must give the serial results
    rng = random.Random(21)
    polys = [ZhegalkinPoly.from_truth_table(TruthTable(n, rng.getrandbits(1 << n)))
             for n in range(4, 13) for _ in range(2)] + [random_poly(rng, 9), random_poly(rng, 9)]
    pairs = [(a, b) for a in polys for b in polys if a.arity == b.arity]
    forms = [KForm.from_poly(p) for p in polys[:8]] + [random_form(rng, n, n - 1) for n in (3, 5, 8)]

    def work():
        return ([a * b for a, b in pairs], [a + b for a, b in pairs],
                [hash(p) for p in polys], [p.to_truth_table() for p in polys],
                [w.d() for w in forms], stokes_sweep(5, count=300))

    serial = work()
    rounds = 8
    results = [[] for _ in range(8)]
    start = threading.Barrier(len(results), action=_level_masks.cache_clear)

    def run(i):
        # a failed thread releases the others; one that is done must not,
        # as a thread still leaving the last round's wait would then fail
        try:
            for _ in range(rounds):
                start.wait()
                results[i].append(work())
        except BaseException:
            start.abort()
            raise

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[serial] * rounds] * len(results)
