import math
import random
import time
import tracemalloc
from itertools import islice, product

import pytest

from zhegalkin import KForm, ZhegalkinPoly, differential
from zhegalkin.anf import _level_masks
from zhegalkin.forms import _d_packed, _d_terms, _dense

from helpers import (bit_positions, d_by_cofactors, masks_of_size, pack_bits, random_form,
                     random_poly)


def test_construction_validation():
    one = ZhegalkinPoly.one(2)
    with pytest.raises(ValueError):
        KForm(2, 3, {})
    with pytest.raises(ValueError):
        KForm(2, -1, {})
    with pytest.raises(ValueError):
        KForm(2, 1, {0b11: one})  # two indices on a degree-1 form
    with pytest.raises(ValueError):
        KForm(2, 1, {0b100: one})  # index outside arity
    with pytest.raises(ValueError):
        KForm(2, 1, {0b01: ZhegalkinPoly.one(3)})  # coefficient arity mismatch
    with pytest.raises(ValueError):
        KForm(2, True, {})  # bool degree
    with pytest.raises(ValueError):
        KForm(2, 1, {True: ZhegalkinPoly.variable(2, 2)})  # bool index-set key


def test_zero_coefficients_are_dropped():
    w = KForm(2, 1, {0b01: ZhegalkinPoly.zero(2), 0b10: ZhegalkinPoly.one(2)})
    assert list(w.coeffs) == [0b10]
    assert KForm(2, 1, {0b01: ZhegalkinPoly.zero(2)}).is_zero


def test_coefficient_slots_count_matches_binomial():
    for n in range(1, 5):
        for k in range(n + 1):
            assert sum(1 for _ in masks_of_size(n, k)) == math.comb(n, k)


def test_grade():
    assert KForm.term(ZhegalkinPoly.variable(2, 1), [2]).degree == 1
    assert KForm.from_poly(ZhegalkinPoly.one(2)).degree == 0
    assert KForm.term(ZhegalkinPoly.one(3), [1, 2, 3]).degree == 3
    # a repeated index annihilates, as in wedge: d{1}^d{1} = 0, capped at degree n
    f, one = ZhegalkinPoly.variable(2, 2), ZhegalkinPoly.one(2)
    assert KForm.term(f, [1, 1]) == KForm.zero(2, 2)
    assert KForm.term(f, [1]).wedge(KForm.term(one, [1])) == KForm.zero(2, 2)
    assert KForm.term(f, iter([2, 1, 2])) == KForm.zero(2, 2)
    assert KForm.term(ZhegalkinPoly.one(1), [1, 1]) == KForm.zero(1, 1)


def test_coefficient_accessor():
    w = KForm.term(ZhegalkinPoly.variable(2, 1), [2])
    assert w.coefficient([2]) == ZhegalkinPoly.variable(2, 1)
    assert w.coefficient([1]) == ZhegalkinPoly.zero(2)
    with pytest.raises(ValueError):
        w.coefficient([1, 2])  # wrong degree
    f = ZhegalkinPoly.variable(2, 2)
    assert KForm.from_poly(f).coefficient(0) == f
    v = KForm.term(ZhegalkinPoly.one(3), [1, 2])
    assert v.coefficient(iter([1, 2])) == ZhegalkinPoly.one(3)
    for key in ([1, 2, 2], [1, 1], True, False):  # a repeated index, a bool key
        with pytest.raises(ValueError, match="invalid index set"):
            v.coefficient(key)
    with pytest.raises(ValueError, match="invalid index set"):
        w.coefficient(True)


def test_add():
    one = ZhegalkinPoly.one(2)
    w = KForm.term(ZhegalkinPoly.variable(2, 1), [1])
    assert (w + w).is_zero
    two = KForm.term(ZhegalkinPoly.variable(2, 1), [1]) + KForm.term(
        ZhegalkinPoly.variable(2, 2), [2]
    )
    assert len(two.coeffs) == 2
    assert w + KForm.zero(2, 1) == w
    with pytest.raises(ValueError):
        w + KForm.term(one, [1, 2])  # mixed degrees
    with pytest.raises(ValueError):
        w + KForm.term(ZhegalkinPoly.one(3), [1])  # arity mismatch


def test_wedge_examples():
    one = ZhegalkinPoly.one(2)
    d1 = KForm.term(one, [1])
    assert d1.wedge(d1).is_zero
    a = KForm.term(ZhegalkinPoly.variable(2, 2), [1])
    b = KForm.term(ZhegalkinPoly.variable(2, 1), [2])
    assert str(a.wedge(b)) == "(x1*x2)*d{1,2}"
    with pytest.raises(ValueError):
        a.wedge(KForm.term(ZhegalkinPoly.one(3), [1]))


def test_wedge_basis_annihilation_exhaustive():
    # d_I ^ d_J vanishes exactly when the index sets overlap
    for n in (1, 2, 3, 4):
        one = ZhegalkinPoly.one(n)
        for ki in range(n + 1):
            for kj in range(n + 1):
                for mi in masks_of_size(n, ki):
                    for mj in masks_of_size(n, kj):
                        w = KForm(n, ki, {mi: one}).wedge(KForm(n, kj, {mj: one}))
                        if mi & mj:
                            assert w.is_zero
                        else:
                            assert list(w.coeffs) == [mi | mj]


def test_wedge_commutative_and_associative_basis_exhaustive():
    n = 4
    one = ZhegalkinPoly.one(n)
    basis = [
        KForm(n, mask.bit_count(), {mask: one})
        for k in range(n + 1)
        for mask in masks_of_size(n, k)
    ]
    for a, b in product(basis, repeat=2):
        assert a.wedge(b) == b.wedge(a)
    for a, b, c in product(basis, repeat=3):
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_wedge_commutative_random_coefficients():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(1, 4)
        a = random_form(rng, n, rng.randrange(n + 1))
        b = random_form(rng, n, rng.randrange(n + 1))
        assert a.wedge(b) == b.wedge(a)


def test_wedge_associative_random_coefficients():
    rng = random.Random(67)
    for _ in range(200):
        a = random_form(rng, 3, rng.randrange(2))
        b = random_form(rng, 3, rng.randrange(2))
        c = random_form(rng, 3, rng.randrange(2))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_wedge_degree_additive_when_nonzero():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randrange(1, 5)
        a = random_form(rng, n, rng.randrange(n + 1))
        b = random_form(rng, n, rng.randrange(n + 1))
        w = a.wedge(b)
        if not w.is_zero:
            assert w.degree == a.degree + b.degree


def test_wedge_past_top_degree_is_canonical_zero():
    one = ZhegalkinPoly.one(2)
    a = KForm.term(one, [1])
    b = KForm.term(one, [1, 2])
    w = a.wedge(b)
    assert w.is_zero and w.degree == 2


def test_wedge_pair_budgets():
    one = {n: ZhegalkinPoly.one(n) for n in (20, 30)}
    # more than 2^24 coefficient pairs, inside and above the dense arity
    for n, k in ((20, 5), (30, 4)):
        a = KForm(n, k, dict.fromkeys(islice(masks_of_size(n, k), 5000), one[n]))
        with pytest.raises(ValueError, match=r"5000 x 5000 coefficients exceeds the "
                                             r"coefficient-pair budget 2\^24 = 16777216"):
            a.wedge(a)
    # above the dense arity, more than 2^24 term pairs in all: 30 x 171 terms
    # a side, while each coefficient product stays inside the product's budget
    rng = random.Random(5)
    b = KForm(30, 1, {1 << i: ZhegalkinPoly(30, rng.sample(range(1 << 30), 171))
                      for i in range(30)})
    with pytest.raises(ValueError, match=r"5130 x 5130 terms exceeds the term-pair budget"):
        b.wedge(b)
    # inside both budgets the wedge runs
    c = KForm(30, 1, {key: poly for key, poly in b.coeffs.items() if key != 1})
    assert len(c.wedge(KForm.term(ZhegalkinPoly.one(30), [1])).coeffs) == 29


def test_exterior_derivative_examples():
    w = KForm.term(ZhegalkinPoly.variable(2, 2), [1])
    assert str(w.d()) == "(1)*d{1,2}"
    f = ZhegalkinPoly(2, [0b11])
    assert KForm.from_poly(f).d().d().is_zero
    top = KForm.term(ZhegalkinPoly.one(2), [1, 2])
    dtop = top.d()
    assert dtop.is_zero and dtop.degree == 2


def test_d_on_zero_form_matches_differential():
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randrange(1, 6)
        f = random_poly(rng, n)
        assert differential(f) == d_by_cofactors(KForm.from_poly(f))


def test_d_matches_cofactor_oracle_random():
    rng = random.Random(701)
    for n in range(1, 7):
        for k in range(n + 1):
            for _ in range(30):
                w = random_form(rng, n, k)
                assert w.d() == d_by_cofactors(w)


def test_d_matches_cofactor_oracle_sparse_high_arity():
    rng = random.Random(709)
    for n in (20, 40):
        for _ in range(40):
            keys = rng.sample(range(n), rng.randrange(1, 6))
            w = KForm(n, 1, {1 << i: random_poly(rng, n, max_terms=8) for i in keys})
            assert w.d() == d_by_cofactors(w)


def test_d_matches_cofactor_oracle_on_every_basis_form():
    # both sides are F2-linear (see the additivity test), so agreeing on
    # every x^m d{I} means agreeing on every form
    for n in range(1, 6):
        for k in range(n + 1):
            for key in masks_of_size(n, k):
                for m in range(1 << n):
                    w = KForm(n, k, {key: ZhegalkinPoly(n, [m])})
                    assert w.d() == d_by_cofactors(w)


def test_d_routes_agree_on_every_basis_monomial():
    # both routes are F2-linear in the coefficient map (the term route XORs
    # term sets, the packed route XORs vectors), so agreeing on every
    # x^m d{I} proves they agree on every form up to n = 8
    for n in range(1, 9):
        monomials = [ZhegalkinPoly.from_coeff_bits(n, 1 << m) for m in range(1 << n)]
        for key in range(1 << n):
            for poly in monomials:
                w = KForm(n, key.bit_count(), {key: poly})
                a, b = _d_packed(w), _d_terms(w)
                assert a.degree == b.degree
                assert {k: p.terms for k, p in a.coeffs.items()} == {
                    k: p.terms for k, p in b.coeffs.items()}


def _dense_form(rng, n, k, kept):
    # every index set gets a uniform random coefficient
    coeffs = {}
    for key in masks_of_size(n, k):
        bits = rng.getrandbits(1 << n)
        coeffs[key] = (ZhegalkinPoly.from_coeff_bits(n, bits) if kept
                       else ZhegalkinPoly(n, bit_positions(bits, 1 << n)))
    return KForm(n, k, coeffs)


def test_d_matches_cofactor_oracle_on_both_routes():
    rng = random.Random(727)
    for n in range(2, 13):
        # the oracle costs C(n, k) * (n - k) cofactor pairs per 2^n terms
        for k in sorted({0, 1, n - 2, n - 1} if n <= 10 else {0, n - 1}):
            for kept in (True, False):
                w = _dense_form(rng, n, k, kept)
                # the term route would derive every held vector, so kept
                # forms take the packed route; an unkept coefficient weighs
                # n - k partials of about 2^(n-1) terms against one packing
                # of 2^n entries, so unkept forms take it from n - k = 3
                # (n - k = 2 is the tie, where the draw decides)
                if kept or n - k != 2:
                    assert _dense(w) == (kept or n - k > 2)
                dw = w.d()
                assert dw == d_by_cofactors(w)
                if n <= 8:
                    assert str(dw) == str(_d_terms(w))
                for poly in dw.coeffs.values():
                    assert poly.coeff_bits() == pack_bits(m in poly.terms for m in range(1 << n))
            keys = list(masks_of_size(n, k))
            sparse = KForm(n, k, {key: ZhegalkinPoly(n, [rng.randrange(1 << n)])
                                  for key in rng.sample(keys, min(2, len(keys)))})
            assert not _dense(sparse)
            assert sparse.d() == d_by_cofactors(sparse)


def test_d_packs_no_coefficient_for_the_packed_route():
    # an (n-1)-form at n = 5, 7 terms per coefficient: with kept vectors
    # 5 * 7 partial terms outweigh the one 2^5-entry output crossing, but
    # packing the 5 coefficients first would cost 5 crossings more
    n = 5
    full = (1 << n) - 1
    rng = random.Random(17)
    vectors = {full ^ (1 << i): pack_bits(m in terms for m in range(1 << n))
               for i, terms in enumerate(set(rng.sample(range(1 << n), 7)) for _ in range(n))}
    kept = KForm(n, n - 1, {key: ZhegalkinPoly.from_coeff_bits(n, bits)
                            for key, bits in vectors.items()})
    unkept = KForm(n, n - 1, {key: ZhegalkinPoly(n, bit_positions(bits, 1 << n))
                              for key, bits in vectors.items()})
    assert kept == unkept
    assert _dense(kept) and not _dense(unkept)
    assert kept.d() == unkept.d() == _d_terms(unkept)
    # full coefficients too: n * 2^n partial terms never outweigh n + 1 crossings
    ones = ZhegalkinPoly(n, range(1 << n))
    assert not _dense(KForm(n, n - 1, dict.fromkeys(vectors, ones)))


def test_d_route_at_the_rule_tie():
    # at the tie (n-k) * terms + kept * 2^n == unkept * 2^n, d takes the
    # term route, and one term more takes the packed route; the route shows
    # in the result, whose outputs hold a packed vector only from that route
    rng = random.Random(16)
    # an unkept 1-form at n = 5: 4 * 32 terms against 4 packings of 32;
    # a 3-form at n = 4 holding one vector: 32 + 16 against 3 * 16
    for n, k, holds in ((5, 1, [False] * 4), (4, 3, [True, False, False, False])):
        tie = [8, 8, 8, 8]
        for sizes, packed in ((tie, False), ([9, 8, 8, 8], True)):
            coeffs = {}
            for key, size, vector in zip(masks_of_size(n, k), sizes, holds):
                terms = rng.sample(range(1 << n), size)
                coeffs[key] = (ZhegalkinPoly.from_coeff_bits(n, sum(1 << m for m in terms))
                               if vector else ZhegalkinPoly(n, terms))
            w = KForm(n, k, coeffs)
            dw = w.d()
            assert dw == d_by_cofactors(w)
            assert dw.coeffs and all((p._packed is not None) is packed for p in dw.coeffs.values())


def test_d_of_one_term_at_the_dense_arity_takes_the_packed_route():
    # the coefficient holds the vector of a 2^24-entry table, but its one
    # term lies in the vector's low 6 bits: the packed route reads the
    # level masks of that width (arity 3), never the 2^24-bit masks
    n = 24
    poly = ZhegalkinPoly.from_coeff_bits(n, 1 << 5)  # x1*x3
    for w in (KForm.from_poly(poly), KForm.term(poly, range(2, 25))):
        assert _dense(w)
        _level_masks.cache_clear()  # masks it reads are built inside the bounds
        start = time.perf_counter()
        dw = w.d()
        assert time.perf_counter() - start < 0.05
        assert dw == _d_terms(w)
        _level_masks.cache_clear()
        tracemalloc.start()
        try:
            w.d()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # arity 24's masks would take 48 MiB


def test_d_is_additive():
    rng = random.Random(719)
    for n in range(1, 7):
        for _ in range(40):
            k = rng.randrange(n + 1)
            a, b = random_form(rng, n, k), random_form(rng, n, k)
            assert (a + b).d() == a.d() + b.d()
            assert d_by_cofactors(a + b) == d_by_cofactors(a) + d_by_cofactors(b)


def test_d_cost_follows_terms_not_arity():
    n = 10**7
    start = time.perf_counter()
    w = KForm.term(ZhegalkinPoly(n, [0b101]), [2])  # (x1*x3)*d{2}
    dw = w.d()
    df = differential(ZhegalkinPoly(n, [0b11, 1 << 6]))  # x1*x2 + x7
    elapsed = time.perf_counter() - start
    assert str(dw) == "(x3)*d{1,2} + (x1)*d{2,3}"
    assert str(df) == "(x2)*d{1} + (x1)*d{2} + (1)*d{7}"
    assert elapsed < 1.0


def test_d_squared_is_zero_random():
    rng = random.Random(79)
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            for _ in range(100):
                w = random_form(rng, n, k)
                assert w.d().d().is_zero


def test_d_squared_is_zero_on_every_basis_form():
    # d is F2-linear, so d(d(w)) = 0 on the 4^n forms x^m d{I} proves it for
    # every form at that arity; two keys of dw meet again at each key of ddw
    for n in range(1, 7):
        for key in range(1 << n):
            for m in range(1 << n):
                w = KForm(n, key.bit_count(), {key: ZhegalkinPoly(n, [m])})
                assert w.d().d().is_zero


def test_d_squared_is_zero_exhaustive_n2_oneforms():
    for b1 in range(16):
        for b2 in range(16):
            coeffs = {}
            if b1:
                coeffs[0b01] = ZhegalkinPoly.from_coeff_bits(2, b1)
            if b2:
                coeffs[0b10] = ZhegalkinPoly.from_coeff_bits(2, b2)
            w = KForm(2, 1, coeffs)
            assert w.d().d().is_zero


def test_no_leibniz_rule_for_d_over_wedge():
    # pinned counterexample at n=2: a 0-form against a 1-form
    x2 = ZhegalkinPoly.variable(2, 2)
    omega = KForm.from_poly(x2)
    eta = KForm.term(x2, [1])
    lhs = omega.wedge(eta).d()
    rhs = omega.d().wedge(eta) + omega.wedge(eta.d())
    assert str(lhs) == "(1)*d{1,2}"
    assert str(rhs) == "0"
    assert lhs != rhs


def test_leibniz_failures_found_by_search():
    # exhaustive over (0-form, 1-form) pairs at n=2; the pinned pair is one
    # of many failures
    failures = []
    for fb in range(16):
        f = ZhegalkinPoly.from_coeff_bits(2, fb)
        omega = KForm.from_poly(f)
        for b1 in range(16):
            for b2 in range(16):
                coeffs = {}
                if b1:
                    coeffs[0b01] = ZhegalkinPoly.from_coeff_bits(2, b1)
                if b2:
                    coeffs[0b10] = ZhegalkinPoly.from_coeff_bits(2, b2)
                eta = KForm(2, 1, coeffs)
                lhs = omega.wedge(eta).d()
                rhs = omega.d().wedge(eta) + omega.wedge(eta.d())
                if lhs != rhs:
                    failures.append((f, eta))
    assert failures
    x2 = ZhegalkinPoly.variable(2, 2)
    assert any(f == x2 and eta.coefficient([1]) == x2 for f, eta in failures)


def test_leibniz_holds_trivially_for_one_form_pairs():
    # at n=2 both sides involve forms past the top degree, so every
    # 1-form/1-form pair satisfies the rule with zero on both sides
    rng = random.Random(83)
    for _ in range(300):
        a = random_form(rng, 2, 1)
        b = random_form(rng, 2, 1)
        lhs = a.wedge(b).d()
        rhs = a.d().wedge(b) + a.wedge(b.d())
        assert lhs.is_zero and rhs.is_zero


def test_str_cost_follows_index_count_not_arity():
    # index sets are walked one byte per 8 indices of width, so d{1000000}
    # costs 125 kB of bytes, not a table per index
    w = KForm.term(ZhegalkinPoly.variable(10**6, 1), [10**6])
    tracemalloc.start()
    try:
        text = str(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "(x1)*d{1000000}"
    assert peak < 1 << 20


def test_str_formats():
    assert str(KForm.zero(3, 2)) == "0"
    f = ZhegalkinPoly(2, [0b01, 0])
    assert str(KForm.from_poly(f)) == "1 + x1"
    w = KForm(2, 1, {0b10: ZhegalkinPoly.variable(2, 1), 0b01: f})
    assert str(w) == "(1 + x1)*d{1} + (x1)*d{2}"


def test_form_equality_ignores_insertion_order():
    one = ZhegalkinPoly.one(2)
    x1 = ZhegalkinPoly.variable(2, 1)
    a = KForm(2, 1, {0b01: one, 0b10: x1})
    b = KForm(2, 1, {0b10: x1, 0b01: one})
    assert a == b and str(a) == str(b)


def test_forms_are_immutable_and_hashable():
    one = ZhegalkinPoly.one(2)
    x1 = ZhegalkinPoly.variable(2, 1)
    a = KForm(2, 1, {0b01: one, 0b10: x1})
    b = KForm(2, 1, {0b10: x1}) + KForm(2, 1, {0b01: one})
    for w in (a, b, a.d(), a.wedge(b)):
        with pytest.raises(TypeError):
            w.coeffs[0b01] = x1
    assert a == b and hash(a) == hash(b)
    assert len({a, b, KForm.zero(2, 1)}) == 2


def test_all_one_forms_at_n2_count():
    # the degree-1 coefficient space at n=2 has (2^4)^2 = 256 elements
    seen = set()
    for b1 in range(16):
        for b2 in range(16):
            coeffs = {}
            if b1:
                coeffs[0b01] = ZhegalkinPoly.from_coeff_bits(2, b1)
            if b2:
                coeffs[0b10] = ZhegalkinPoly.from_coeff_bits(2, b2)
            seen.add(str(KForm(2, 1, coeffs)))
    assert len(seen) == 256
