import copy
import pickle
import random
import re
import time
import tracemalloc
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from zhegalkin import (
    MAX_DENSE_ARITY,
    KForm,
    SecantElement,
    TruthTable,
    ZhegalkinPoly,
    expr_to_anf,
    indices_from_mask,
    mask_from_indices,
    mobius_transform,
    parse_expr,
)
from zhegalkin import anf
from zhegalkin.anf import _DENSE_PRODUCT_OVERHEAD, _level_masks

from helpers import (
    all_polys,
    bit_positions,
    brute_table,
    pack_bits,
    random_poly,
    reference_level_mask,
    schoolbook_product,
    slow_mobius,
)


@st.composite
def same_arity_polys(draw, count=2, max_arity=12):
    n = draw(st.integers(min_value=1, max_value=max_arity))
    masks = st.frozensets(st.integers(0, (1 << n) - 1), max_size=10)
    polys = masks.map(lambda ms: ZhegalkinPoly(n, ms))
    if n <= 10:  # dense draws reach the butterfly route of `*`
        bits = st.integers(0, (1 << (1 << n)) - 1)
        polys |= bits.map(lambda b: ZhegalkinPoly.from_coeff_bits(n, b))
    return tuple(draw(polys) for _ in range(count))


def test_constant():
    assert str(ZhegalkinPoly.constant(2, 0)) == "0"
    assert str(ZhegalkinPoly.constant(2, 1)) == "1"
    five = ZhegalkinPoly.constant(5, 1)
    assert str(five) == "1" and five.arity == 5
    with pytest.raises(ValueError):
        ZhegalkinPoly.constant(0, 1)
    for bad in (2, 1.0, -1):
        with pytest.raises(ValueError):
            ZhegalkinPoly.constant(2, bad)
    assert ZhegalkinPoly.constant(2, True) == ZhegalkinPoly.one(2)  # a bool is a bit


def test_variable():
    assert str(ZhegalkinPoly.variable(3, 1)) == "x1"
    assert str(ZhegalkinPoly.variable(3, 3)) == "x3"
    with pytest.raises(ValueError):
        ZhegalkinPoly.variable(1, 2)
    with pytest.raises(ValueError):
        ZhegalkinPoly.variable(3, 0)


def test_constructor_folds_duplicates():
    assert ZhegalkinPoly(2, [3, 3]) == ZhegalkinPoly.zero(2)
    assert ZhegalkinPoly(2, [1, 2, 1]) == ZhegalkinPoly.variable(2, 2)
    with pytest.raises(ValueError):
        ZhegalkinPoly(2, [4])  # mask outside two variables


@pytest.mark.parametrize("terms", [[4, 4], [1, True], [1, 1.0], [3, 3, 4], [2, 2, -1]])
def test_constructor_checks_each_mask_before_it_can_cancel(terms):
    # each bad mask would cancel, or survive, in a fold that ran first
    with pytest.raises(ValueError, match="monomial mask .* does not fit in 2 variables"):
        ZhegalkinPoly(2, terms)


def test_add():
    x1 = ZhegalkinPoly.variable(2, 1)
    x2 = ZhegalkinPoly.variable(2, 2)
    one = ZhegalkinPoly.one(2)
    assert x1 + x1 == ZhegalkinPoly.zero(2)
    assert (x1 + x2) + (x2 + one) == x1 + one
    with pytest.raises(ValueError):
        x1 + ZhegalkinPoly.variable(3, 1)


def test_add_identity_random():
    rng = random.Random(7)
    for n in (1, 3, 6):
        zero = ZhegalkinPoly.zero(n)
        for _ in range(50):
            p = random_poly(rng, n)
            assert zero + p == p and p + zero == p


def test_mul():
    x1 = ZhegalkinPoly.variable(2, 1)
    x2 = ZhegalkinPoly.variable(2, 2)
    one = ZhegalkinPoly.one(2)
    assert x1 * x1 == x1
    assert x1 * (one + x1) == ZhegalkinPoly.zero(2)
    assert (x1 + x2) * (x1 + x2) == x1 + x2
    with pytest.raises(ValueError):
        x1 * ZhegalkinPoly.variable(3, 1)


def _threshold_factors(n):
    """a <= b with a*b equal to the term-pair threshold of the dense route."""
    threshold = (1 << n) + _DENSE_PRODUCT_OVERHEAD
    a = max(d for d in range(1, isqrt(threshold) + 1) if threshold % d == 0)
    return a, threshold // a


@pytest.mark.parametrize("n", range(5, 13))
def test_product_routes_match_schoolbook(n):
    rng = random.Random(1000 + n)
    width = 1 << n

    def terms(count):
        return ZhegalkinPoly(n, rng.sample(range(width), count))

    def dense():
        return ZhegalkinPoly.from_coeff_bits(n, rng.getrandbits(width))

    a, b = _threshold_factors(n)
    assert b + 1 <= width
    cases = [(terms(a), terms(b + delta)) for delta in (-1, 0, 1) for _ in range(3)]
    zero, one, full = (
        ZhegalkinPoly.zero(n),
        ZhegalkinPoly.one(n),
        ZhegalkinPoly(n, range(width)),
    )
    p = dense()
    cases.append((p, dense()))
    if n <= 10:  # keeps the oracle's 2^(2n) pairs cheap
        cases += [(full, p), (full, full)]
    cases += [(zero, p), (p, zero), (one, p), (p, one), (one, one)]
    for p, q in cases:
        product = p * q
        assert product.terms == schoolbook_product(p, q)
        for _ in range(16):
            v = rng.getrandbits(n)
            assert product.evaluate(v) == p.evaluate(v) & q.evaluate(v)


def test_product_route_at_its_tie():
    # at n = 5 the rule's tie is 2^5 + 256 = 288 term pairs; the route shows
    # in the product, which holds a packed vector only from the tables
    n = 5
    rng = random.Random(288)
    for a, b, tables in ((16, 18, False), (18, 16, False), (17, 17, True)):
        p = ZhegalkinPoly(n, rng.sample(range(1 << n), a))
        q = ZhegalkinPoly(n, rng.sample(range(1 << n), b))
        product = p * q
        assert product.terms == schoolbook_product(p, q)
        assert (product._packed is not None) is tables


def test_product_term_pair_budget_above_the_dense_arity():
    # without tables, `*` refuses more than 2^MAX_DENSE_ARITY term pairs
    # before folding; with tables it has no budget
    n = MAX_DENSE_ARITY + 1
    # both inside x1..x13, so even an unbudgeted fold stays small
    low, high = ZhegalkinPoly(n, range(4097)), ZhegalkinPoly(n, range(4096))
    for p, q in ((low, high), (high, low)):
        message = f"{len(p.terms)} x {len(q.terms)} terms exceeds the term-pair budget 2^24 = {1 << 24}"
        with pytest.raises(ValueError, match=re.escape(message)):
            p * q
    x1, xn = ZhegalkinPoly.variable(n, 1), ZhegalkinPoly.variable(n, n)
    assert (x1 * xn).terms == {1 | 1 << (n - 1)}
    full = ZhegalkinPoly(13, range(1 << 13))  # 2^26 term pairs
    assert full * full == full


@pytest.mark.parametrize("n", range(5, 11))
def test_every_construction_path_packs_its_terms(n):
    # the builders from a packed vector hold it, the rest hold none;
    # held or packed anew, it is the packing of the terms
    rng = random.Random(60 + n)
    w = 1 << n
    p = ZhegalkinPoly.from_coeff_bits(n, rng.getrandbits(w) | 1)
    full = ZhegalkinPoly.from_coeff_bits(n, (1 << w) - 1)
    top = (1 << n) - 1
    dense = KForm(n, n - 1, {top ^ (1 << i): ZhegalkinPoly.from_coeff_bits(n, rng.getrandbits(w))
                             for i in range(n)})
    built = [
        (dense.d().coeffs[top], True),  # the packed route of d
        (KForm.from_poly(p).d().coeffs[1], True),  # p's vector: the packed route
        (KForm.from_poly(ZhegalkinPoly(n, [3])).d().coeffs[1], False),  # the term route
        (p, True),
        (ZhegalkinPoly.from_truth_table(TruthTable(n, rng.getrandbits(w))), True),
        (full * p, True),  # |full| * |p| > 2^n + 256: the table route
        (ZhegalkinPoly(n, range(w)) * ZhegalkinPoly(n, p.terms), True),
        (ZhegalkinPoly.variable(n, 1) * p, False),  # the term-pair fold
        (p + full, True),  # both operands hold vectors: their XOR
        (p + ZhegalkinPoly(n, full.terms), False),
        (p.partial(1), False),
        (p.restrict(2, 1), False),
        (ZhegalkinPoly(n, p.terms), False),
    ]
    for q, keeps in built:
        assert len(q) == len(q.terms)
        entries = [int(m in q.terms) for m in range(w)]
        assert q.coeff_bits() == pack_bits(entries)
        assert q.to_truth_table().bits == pack_bits(slow_mobius(entries))
        assert (q._packed is not None) is keeps  # reading stored nothing


def test_vector_builders_derive_the_term_set_on_first_read():
    # a polynomial built from a packed vector holds no term set until
    # `.terms` is read; the first read stores it, and later reads return
    # that same set.  `len` and truth read the vector and store nothing
    n = 6
    rng = random.Random(66)
    w = 1 << n
    full = (1 << w) - 1
    top = (1 << n) - 1
    builders = [
        lambda: ZhegalkinPoly.from_coeff_bits(n, rng.getrandbits(w) | 1),
        lambda: ZhegalkinPoly.from_truth_table(TruthTable(n, rng.getrandbits(w) | 1)),
        lambda: ZhegalkinPoly.from_coeff_bits(n, full) * ZhegalkinPoly.from_coeff_bits(n, full),
        lambda: ZhegalkinPoly.from_coeff_bits(n, 3) + ZhegalkinPoly.from_coeff_bits(n, 5),
        lambda: ZhegalkinPoly.from_coeff_bits(n, 3) + ZhegalkinPoly.from_coeff_bits(n, 3),
        lambda: KForm(n, n - 1, {top ^ 1: ZhegalkinPoly.from_coeff_bits(n, full)}).d().coeffs[top],
    ]
    for build in builders:
        p = build()
        bits = p._packed
        assert bits is not None
        assert len(p) == bits.bit_count() and bool(p) is (bits != 0)
        assert p._terms is None  # the store holds no term set yet
        terms = p.terms
        assert terms == frozenset(bit_positions(bits, w)) and len(p) == len(terms)
        assert p.terms is terms and p._terms is terms
        assert p == ZhegalkinPoly(n, terms) and p._packed == bits
    with pytest.raises(AttributeError, match="has no attribute 'other'"):
        ZhegalkinPoly.from_coeff_bits(n, 1).other


def test_evaluate():
    p = ZhegalkinPoly(2, [0b11])
    assert p.evaluate(0b11) == 1
    assert p.evaluate(0b01) == 0
    disj = ZhegalkinPoly(2, [0b01, 0b10, 0b11])  # x1 + x2 + x1*x2
    assert disj.evaluate(0b01) == 1
    one = ZhegalkinPoly.one(3)
    for v in range(8):
        assert one.evaluate(v) == 1


def test_evaluate_vertex_validation():
    # a vertex is an int mask of n bits; anything else is a ValueError
    p = ZhegalkinPoly.variable(2, 1)
    for bad in ((1,), (1, 2), 4, 1 << 64, -1, True, 1.0, None, (1.0, 0), (True, 2), [1, 0]):
        message = f"vertex {bad!r} is not a mask of 2 bits"
        with pytest.raises(ValueError, match=re.escape(message)):
            p.evaluate(bad)


@pytest.mark.parametrize("n", range(1, 17))
def test_packed_crossings_match_bit_reference(n):
    # every crossing between a packed int and positions, on the empty,
    # full, first-entry-only and last-entry-only tables and a random one
    w = 1 << n
    for bits in (0, (1 << w) - 1, 1, 1 << (w - 1), random.Random(n).getrandbits(w)):
        positions = bit_positions(bits, w)
        entries = [0] * w
        for k in positions:
            entries[k] = 1
        transformed = slow_mobius(entries)
        poly = ZhegalkinPoly.from_coeff_bits(n, bits)
        assert sorted(poly.terms) == positions
        assert ZhegalkinPoly(n, positions).coeff_bits() == bits
        assert poly.to_truth_table().bits == pack_bits(transformed)
        table = TruthTable(n, bits)
        assert (table.arity, table.bits) == (n, bits)
        coeffs = ZhegalkinPoly.from_truth_table(table).terms
        assert coeffs == {k for k, b in enumerate(transformed) if b}


@pytest.mark.parametrize("arity", [1, 3, 5, 9, 12, 17, 4096])
def test_vertex_and_index_masks_match_bit_reference(arity):
    top = 1 << (arity - 1)
    for mask in (0, (1 << arity) - 1, 1, top, random.Random(arity).getrandbits(arity)):
        positions = bit_positions(mask, arity)
        coords = [0] * arity
        for k in positions:
            coords[k] = 1
        # vertex bit j-1 is the value of x_j
        values = [ZhegalkinPoly.variable(arity, j).evaluate(mask) for j in range(1, arity + 1)]
        assert values == coords
        assert indices_from_mask(mask) == [k + 1 for k in positions]


def test_restrict_examples():
    p = ZhegalkinPoly(3, [0b011, 0b100])  # x1*x2 + x3
    assert str(p.restrict(1, 0)) == "x3"
    assert str(p.restrict(1, 1)) == "x2 + x3"
    again = p.restrict(1, 1).restrict(1, 1)
    assert again == p.restrict(1, 1)
    with pytest.raises(ValueError):
        p.restrict(4, 0)
    for bad in (2, 1.0):
        with pytest.raises(ValueError):
            p.restrict(1, bad)
    assert p.restrict(1, True) == p.restrict(1, 1)


def test_restrict_at_a_wide_arity():
    x70, x1x70, x1x99 = 1 << 69, 1 | 1 << 69, 1 | 1 << 98
    f = ZhegalkinPoly(100, [x70, x1x70, x1x99])
    assert f.restrict(1, 1) == ZhegalkinPoly.variable(100, 99)
    assert f.restrict(1, 0) == ZhegalkinPoly.variable(100, 70)


def test_restrict_against_pointwise_oracle():
    # f restricted at x_i=b must evaluate like f with coordinate i forced,
    # and must not mention x_i anymore.
    for n in (1, 2, 3):
        for p in all_polys(n):
            for i in range(1, n + 1):
                bit = 1 << (i - 1)
                for b in (0, 1):
                    r = p.restrict(i, b)
                    assert all(not m & bit for m in r.terms)
                    for v in range(1 << n):
                        forced = (v & ~bit) | (bit if b else 0)
                        assert r.evaluate(v) == p.evaluate(forced)


@pytest.mark.parametrize(
    "values,expected",
    [
        ((0, 0, 0, 1), "x1*x2"),
        ((0, 1, 1, 0), "x1 + x2"),
        ((0, 0, 0, 1, 0, 1, 1, 1), "x1*x2 + x1*x3 + x2*x3"),
    ],
)
def test_from_truth_table_examples(values, expected):
    table = TruthTable(len(values).bit_length() - 1, pack_bits(values))
    poly = ZhegalkinPoly.from_truth_table(table)
    assert str(poly) == expected
    # pointwise oracle: the polynomial realizes exactly this table
    assert brute_table(poly) == list(values)


def test_to_truth_table():
    assert ZhegalkinPoly(2, [0b11]).to_truth_table() == TruthTable(2, 0b1000)
    assert ZhegalkinPoly.zero(3).to_truth_table() == TruthTable(3, 0)


def test_table_roundtrip_exhaustive_small():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            t = TruthTable(n, bits)
            assert ZhegalkinPoly.from_truth_table(t).to_truth_table() == t


def test_to_truth_table_matches_pointwise():
    rng = random.Random(11)
    for n in (1, 2, 3, 4, 6):
        for _ in range(30):
            p = random_poly(rng, n)
            assert p.to_truth_table().bits == pack_bits(brute_table(p))


def test_canonical_representation_random():
    rng = random.Random(5)
    for n in (4, 6, 8):
        for _ in range(50):
            p = random_poly(rng, n)
            q = ZhegalkinPoly.from_truth_table(p.to_truth_table())
            assert q.terms == p.terms


def test_ring_laws_exhaustive_small():
    for n in (1, 2):
        polys = list(all_polys(n))
        zero = ZhegalkinPoly.zero(n)
        for p in polys:
            assert p + p == zero
            assert p * p == p
        for p, q in product(polys, repeat=2):
            assert p + q == q + p
            assert p * q == q * p
        for p, q, r in product(polys, repeat=3):
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r


def test_ring_laws_random_n3():
    rng = random.Random(13)
    zero = ZhegalkinPoly.zero(3)
    for _ in range(10_000):
        p, q, r = (random_poly(rng, 3) for _ in range(3))
        assert p + p == zero
        assert p * p == p
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


@given(same_arity_polys(count=3))
def test_ring_laws_property(polys):
    p, q, r = polys
    assert p * p == p
    assert p + p == ZhegalkinPoly.zero(p.arity)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_evaluation_is_ring_morphism_exhaustive_small():
    for n in (1, 2):
        polys = list(all_polys(n))
        for p, q in product(polys, repeat=2):
            for v in range(1 << n):
                assert (p + q).evaluate(v) == p.evaluate(v) ^ q.evaluate(v)
                assert (p * q).evaluate(v) == p.evaluate(v) & q.evaluate(v)


def test_evaluation_is_ring_morphism_random():
    rng = random.Random(17)
    for _ in range(4000):
        p, q = random_poly(rng, 3), random_poly(rng, 3)
        for v in range(8):
            assert (p + q).evaluate(v) == p.evaluate(v) ^ q.evaluate(v)
            assert (p * q).evaluate(v) == p.evaluate(v) & q.evaluate(v)
    for n in (6, 12):
        for _ in range(200):
            p, q = random_poly(rng, n), random_poly(rng, n)
            for _ in range(50):
                v = rng.getrandbits(n)
                assert (p + q).evaluate(v) == p.evaluate(v) ^ q.evaluate(v)
                assert (p * q).evaluate(v) == p.evaluate(v) & q.evaluate(v)


def test_mobius_matches_list_reference():
    rng = random.Random(19)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(40):
            bits = rng.getrandbits(1 << n)
            values = [(bits >> k) & 1 for k in range(1 << n)]
            expected = slow_mobius(values)
            got = mobius_transform(bits, n)
            assert [(got >> k) & 1 for k in range(1 << n)] == expected


def test_mobius_involution_exhaustive_small():
    for n in (1, 2, 3):
        for bits in range(1 << (1 << n)):
            assert mobius_transform(mobius_transform(bits, n), n) == bits


def test_butterfly_is_an_involution_at_every_dense_arity():
    # The butterfly is M = L_{n-1} o ... o L_0 with the F2-linear level maps
    # L_i(x) = x ^ ((x & m_i) << 2^i).  L_i o L_i = I iff
    # (m_i << 2^i) & m_i == 0, and L_i, L_j commute iff
    # m_j & (m_i >> 2^j) == m_i & (m_j >> 2^i).  Pairwise commuting
    # involutions compose to an involution, so these checks prove M o M = I
    # on every 2^n-entry table; the level loop itself is checked against
    # slow_mobius up to n = 16.
    for n in range(1, MAX_DENSE_ARITY + 1):
        width = 1 << n
        masks = _level_masks(n)
        assert masks == tuple(reference_level_mask(n, i) for i in range(n))
        for i, mi in enumerate(masks):
            if n <= 10:
                assert mi == sum(1 << k for k in range(width) if not k >> i & 1)
            shifted = mi << (1 << i)
            assert shifted >> width == 0 and shifted & mi == 0
            for j, mj in enumerate(masks[:i]):
                assert mj & (mi >> (1 << j)) == mi & (mj >> (1 << i))


def test_packed_partial_reads_the_masks_of_the_narrowest_table(monkeypatch):
    # the partial of a packed vector is the partial of its term set, in every
    # variable up to two past its table, and it reads only the level masks of
    # the narrowest table that holds the vector: a vector whose highest entry
    # lies in the top half of a 2^n table, the last entry (x1*...*xn)
    # included, reads the masks of arity n
    arities = []
    level_masks = anf._level_masks
    monkeypatch.setattr(anf, "_level_masks",
                        lambda arity: arities.append(arity) or level_masks(arity))
    rng = random.Random(32)
    for n in range(1, 8):
        top = 1 << ((1 << n) - 1)
        for bits in (top, 1 << (1 << (n - 1)), top | rng.getrandbits(1 << n), (top << 1) - 1):
            arities.clear()
            terms = bit_positions(bits, 1 << n)
            for i in range(n + 2):
                bit = 1 << i
                want = sum(1 << (m ^ bit) for m in terms if m & bit)
                assert anf._packed_partial(bits, bit) == want
            assert set(arities) == {n}


@pytest.mark.parametrize("n", [10, 16, 20])
def test_mobius_involution_random_large(n):
    # at n = 20 a sample takes ~3 ms, and the proof above covers every n
    rng = random.Random(100 + n)
    width = 1 << n
    for _ in range(10_000 if n < 20 else 200):
        bits = rng.getrandbits(width)
        assert mobius_transform(mobius_transform(bits, n), n) == bits


def test_mobius_validation():
    with pytest.raises(ValueError):
        mobius_transform(0, 0)
    with pytest.raises(ValueError):
        mobius_transform(0, 25)
    with pytest.raises(ValueError):
        mobius_transform(1 << 4, 2)


def test_packed_values_reject_bools():
    with pytest.raises(ValueError):
        mobius_transform(True, 1)
    with pytest.raises(ValueError):
        ZhegalkinPoly.from_coeff_bits(1, True)
    with pytest.raises(ValueError):
        TruthTable(1, True)


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(0, 0)
    with pytest.raises(ValueError):
        TruthTable(25, 0)
    with pytest.raises(ValueError):
        TruthTable(1, 4)
    for bad in (True, -1, 1.0, None, "1"):
        message = "packed table must be a nonnegative int, not a bool"
        with pytest.raises(ValueError, match=re.escape(message)):
            TruthTable(1, bad)
    assert str(TruthTable(2, 0b1000)) == "2:8"
    assert str(TruthTable(3, 0xE8)) == "3:E8"
    assert str(TruthTable(1, 0)) == "1:0"


def test_mask_helpers():
    assert mask_from_indices([1, 3], 3) == 0b101
    assert indices_from_mask(0b101) == [1, 3]
    assert indices_from_mask(0) == []
    for bad in (-6, -1, True, 1.0):
        with pytest.raises(ValueError):
            indices_from_mask(bad)
    with pytest.raises(ValueError):
        mask_from_indices([4], 3)
    with pytest.raises(ValueError):
        mask_from_indices([0], 3)


def test_indices_from_mask_is_linear_in_the_width():
    width = 10**5
    full = (1 << width) - 1
    masks = [full, full // 3, full // 3 * 2, random.Random(3).getrandbits(width),
             1 << (width - 1), (1 << (width - 1)) | 1]
    for mask in masks:
        # reference: the binary digits, lowest first
        expected = [i + 1 for i, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1"]
        assert indices_from_mask(mask) == expected
    start = time.perf_counter()
    assert len(indices_from_mask(full)) == width
    assert time.perf_counter() - start < 0.1


def test_str_canonical_order():
    p = ZhegalkinPoly(3, [0b100, 0b011, 0])  # 1, x3, x1*x2
    assert str(p) == "1 + x3 + x1*x2"
    assert str(ZhegalkinPoly.zero(4)) == "0"
    # x64 is the last name looked up, x65 the first formatted on demand
    p = ZhegalkinPoly(70, [1 << 64, 1 << 63, (1 << 63) | (1 << 64) | 1, 1 << 69])
    assert str(p) == "x64 + x65 + x70 + x1*x64*x65"


def test_str_cost_follows_highest_variable_not_arity():
    n = 10**6
    for p, expected in [
        (ZhegalkinPoly.variable(n, 1), "x1"),
        (ZhegalkinPoly.variable(n, 1) + ZhegalkinPoly.variable(n, n), "x1 + x1000000"),
    ]:
        tracemalloc.start()
        try:
            text = str(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == expected
        assert peak < 1 << 20


# one sample of each value type, with its fields; each call builds a new value
VALUE_SAMPLES = {
    "poly": (lambda: ZhegalkinPoly(3, [0b101, 0]), ("arity", "terms")),
    # a vector-built polynomial whose term set has not been read
    "vector_poly": (lambda: ZhegalkinPoly.from_coeff_bits(3, 0b10010110), ("arity", "terms")),
    "table": (lambda: TruthTable(2, 0x6), ("arity", "bits")),
    "form": (
        lambda: KForm(2, 1, {0b01: ZhegalkinPoly.one(2), 0b10: ZhegalkinPoly.variable(2, 1)}),
        ("arity", "degree", "coeffs"),
    ),
    "field": (
        lambda: SecantElement(2, [ZhegalkinPoly.variable(2, 2), ZhegalkinPoly.one(2)]),
        ("arity", "coeffs"),
    ),
    "expr": (lambda: parse_expr("x1 & !x2 | 0"), ("operands",)),
}


@pytest.mark.parametrize("kind", sorted(VALUE_SAMPLES))
def test_values_keep_the_value_contract(kind):
    make, fields = VALUE_SAMPLES[kind]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    for other_kind, (make_other, _) in VALUE_SAMPLES.items():
        if other_kind != kind:
            assert a != make_other() and make_other() != a
    # a subclass instance with the same fields is a value of another class
    twin = type("Twin", (type(a),), {"__slots__": ()})(*a.__reduce__()[1])
    assert twin != a and a != twin
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and repr(a) == repr(b)
    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        c = round_trip(a)
        assert type(c) is type(a) and c == a and hash(c) == hash(a) and repr(c) == repr(a)
    # a value never changes, so a copy of it is the value itself
    assert copy.copy(a) is a and copy.deepcopy(a) is a


# an operation handed a value of another type: `+` and `*` return
# NotImplemented, so Python raises its own TypeError
FOREIGN_OPERANDS = {
    "poly_add": (lambda: ZhegalkinPoly.one(2) + 1, "unsupported operand"),
    "poly_mul": (lambda: ZhegalkinPoly.one(2) * 1, "unsupported operand"),
    "form_add": (lambda: KForm.zero(2, 1) + 1, "unsupported operand"),
    "field_add": (lambda: VALUE_SAMPLES["field"][0]() + 1, "unsupported operand"),
    "from_truth_table": (lambda: ZhegalkinPoly.from_truth_table(0x6),
                         "from_truth_table expects a TruthTable"),
    "wedge": (lambda: KForm.zero(2, 1).wedge(ZhegalkinPoly.one(2)), "wedge expects a KForm"),
    "expr_to_anf": (lambda: expr_to_anf(ZhegalkinPoly.one(2), 2), "not an expression node"),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_OPERANDS))
def test_operations_refuse_a_foreign_operand(case):
    call, message = FOREIGN_OPERANDS[case]
    with pytest.raises(TypeError, match=message):
        call()


def test_poly_hash_and_equality():
    a = ZhegalkinPoly(2, [1, 2])
    b = ZhegalkinPoly(2, [2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != ZhegalkinPoly(3, [1, 2])
    assert len({a, b}) == 1
    # the packed vector a polynomial keeps is not part of its value
    kept = ZhegalkinPoly.from_truth_table(TruthTable(3, 0x5A))
    plain = ZhegalkinPoly(3, kept.terms)
    assert kept == plain and hash(kept) == hash(plain) and repr(kept) == repr(plain)
    c = pickle.loads(pickle.dumps(kept))
    assert c == plain and hash(c) == hash(plain) and repr(c) == repr(plain)
    assert c._packed is None
    # a copy is the value itself, so it keeps the vector
    assert copy.copy(kept) is kept and copy.deepcopy(kept) is kept
    for p in (kept, plain):
        with pytest.raises(AttributeError):
            p._packed = 0
    assert kept.coeff_bits() == plain.coeff_bits()
