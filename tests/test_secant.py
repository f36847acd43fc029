import random
import time
from itertools import product

import pytest

from zhegalkin import KForm, SecantElement, ZhegalkinPoly, differential, pair

from helpers import all_polys, random_poly


def test_partial_examples():
    p = ZhegalkinPoly(3, [0b011, 0b100])  # x1*x2 + x3
    assert str(p.partial(1)) == "x2"
    assert str(ZhegalkinPoly(2, [0b01, 0]).partial(2)) == "0"
    with pytest.raises(ValueError):
        p.partial(4)


def test_partial_is_not_a_derivation():
    # With x1*x1 = x1 the derivative of the square is 1, while the
    # Leibniz expression x1*1 + 1*x1 cancels to 0.
    x1 = ZhegalkinPoly.variable(1, 1)
    square = x1 * x1
    assert square == x1
    assert square.partial(1) == ZhegalkinPoly.one(1)
    leibniz = x1.partial(1) * x1 + x1 * x1.partial(1)
    assert leibniz == ZhegalkinPoly.zero(1)
    assert square.partial(1) != leibniz


def test_partial_equals_cofactor_sum_exhaustive():
    # strip-and-cancel vs the restriction formula, over every function
    for n in (1, 2, 3):
        for p in all_polys(n):
            for i in range(1, n + 1):
                assert p.partial(i) == p.restrict(i, 0) + p.restrict(i, 1)


def test_partial_removes_variable():
    rng = random.Random(23)
    for n in (2, 4, 8):
        for _ in range(50):
            p = random_poly(rng, n)
            for i in range(1, n + 1):
                bit = 1 << (i - 1)
                assert all(not m & bit for m in p.partial(i).terms)


def test_partials_commute_and_square_to_zero_exhaustive():
    for n in (1, 2, 3):
        zero = ZhegalkinPoly.zero(n)
        for p in all_polys(n):
            for i in range(1, n + 1):
                assert p.partial(i).partial(i) == zero
                for j in range(1, n + 1):
                    assert p.partial(i).partial(j) == p.partial(j).partial(i)


def test_partials_commute_random_n10():
    rng = random.Random(29)
    for _ in range(200):
        p = random_poly(rng, 10)
        i, j = rng.randrange(1, 11), rng.randrange(1, 11)
        assert p.partial(i).partial(j) == p.partial(j).partial(i)
        assert p.partial(i).partial(i) == ZhegalkinPoly.zero(10)


def test_partial_is_linear():
    rng = random.Random(31)
    for n in (2, 3, 6):
        for _ in range(100):
            p, q = random_poly(rng, n), random_poly(rng, n)
            i = rng.randrange(1, n + 1)
            assert (p + q).partial(i) == p.partial(i) + q.partial(i)


def test_product_rule_exhaustive_small():
    # the corrected chain rule for the Boolean product:
    # d_i(pq) = p|0 * d_i(q) + d_i(p) * q|0 + d_i(p) * d_i(q)
    for n in (1, 2):
        polys = list(all_polys(n))
        for p, q in product(polys, repeat=2):
            for i in range(1, n + 1):
                lhs = (p * q).partial(i)
                rhs = (
                    p.restrict(i, 0) * q.partial(i)
                    + p.partial(i) * q.restrict(i, 0)
                    + p.partial(i) * q.partial(i)
                )
                assert lhs == rhs


def test_product_rule_random_n3():
    rng = random.Random(37)
    for _ in range(10_000):
        p, q = random_poly(rng, 3), random_poly(rng, 3)
        i = rng.randrange(1, 4)
        lhs = (p * q).partial(i)
        rhs = (
            p.restrict(i, 0) * q.partial(i)
            + p.partial(i) * q.restrict(i, 0)
            + p.partial(i) * q.partial(i)
        )
        assert lhs == rhs


def test_secant_element_validation():
    with pytest.raises(ValueError):
        SecantElement(2, [ZhegalkinPoly.zero(2)])
    with pytest.raises(ValueError):
        SecantElement(2, [ZhegalkinPoly.zero(2), ZhegalkinPoly.zero(3)])
    with pytest.raises(ValueError):
        SecantElement.basis(2, 3)


def test_secant_apply():
    g = ZhegalkinPoly(2, [0b11])  # x1*x2
    assert str(SecantElement.basis(2, 1).apply(g)) == "x2"
    phi = SecantElement(2, [ZhegalkinPoly.variable(2, 2), ZhegalkinPoly.variable(2, 1)])
    assert str(phi.apply(g)) == "x1 + x2"
    assert SecantElement(2, [ZhegalkinPoly.zero(2)] * 2).apply(g) == ZhegalkinPoly.zero(2)
    with pytest.raises(ValueError):
        phi.apply(ZhegalkinPoly.zero(3))


def test_secant_apply_expands_by_definition():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(1, 5)
        coeffs = [random_poly(rng, n) for _ in range(n)]
        phi = SecantElement(n, coeffs)
        g = random_poly(rng, n)
        expected = ZhegalkinPoly.zero(n)
        for i, f in enumerate(coeffs, start=1):
            expected = expected + f * g.partial(i)
        assert phi.apply(g) == expected


def test_secant_additivity():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randrange(1, 5)
        phi = SecantElement(n, [random_poly(rng, n) for _ in range(n)])
        psi = SecantElement(n, [random_poly(rng, n) for _ in range(n)])
        f, g = random_poly(rng, n), random_poly(rng, n)
        assert (phi + psi).apply(f) == phi.apply(f) + psi.apply(f)
        assert phi.apply(f + g) == phi.apply(f) + phi.apply(g)


def test_differential_examples():
    d = differential(ZhegalkinPoly(2, [0b11]))
    assert str(d) == "(x2)*d{1} + (x1)*d{2}"
    assert differential(ZhegalkinPoly.one(2)).is_zero
    disj = ZhegalkinPoly(2, [0b01, 0b10, 0b11])
    assert str(differential(disj)) == "(1 + x2)*d{1} + (1 + x1)*d{2}"


def test_differential_coefficients_are_partials():
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randrange(1, 6)
        f = random_poly(rng, n)
        w = differential(f)
        assert w.degree == 1
        for i in range(1, n + 1):
            assert w.coefficient([i]) == f.partial(i)


def test_pair_dual_basis():
    for n in (1, 2, 3, 4):
        one = ZhegalkinPoly.one(n)
        zero = ZhegalkinPoly.zero(n)
        for i in range(1, n + 1):
            di = KForm.term(one, [i])
            for j in range(1, n + 1):
                got = pair(di, SecantElement.basis(n, j))
                assert got == (one if i == j else zero)


def test_pair_matches_apply():
    rng = random.Random(53)
    for _ in range(500):
        n = rng.randrange(1, 4)
        f = random_poly(rng, n)
        phi = SecantElement(n, [random_poly(rng, n) for _ in range(n)])
        assert pair(differential(f), phi) == phi.apply(f)


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_matches_apply_on_every_basis_pair(n):
    # Both sides of pair(differential(f), phi) == phi.apply(f) are additive
    # in f and in phi, and scaling phi by a polynomial scales both
    # (test_pair_additivity).  Every phi is sum_i f_i*D_i, so the identity
    # on the n * 2^n pairs (x^m, D_i) proves it for every f and phi.  Each
    # side must read the raw partial: x^m without x_i if x_i divides it.
    for i in range(1, n + 1):
        unit = SecantElement.basis(n, i)
        bit = 1 << (i - 1)
        for m in range(1 << n):
            f = ZhegalkinPoly(n, [m])
            expected = ZhegalkinPoly(n, [m ^ bit] if m & bit else [])
            assert pair(differential(f), unit) == expected
            assert unit.apply(f) == expected


def test_pair_with_thousands_of_slots_is_one_sum():
    # sum_i 1 * x_i over 4000 slots, folded into one term set
    n = 4000
    omega = differential(ZhegalkinPoly(n, [1 << i for i in range(n)]))
    phi = SecantElement(n, [ZhegalkinPoly.variable(n, i) for i in range(1, n + 1)])
    start = time.perf_counter()
    got = pair(omega, phi)
    assert time.perf_counter() - start < 1
    assert got.terms == {1 << i for i in range(n)}


def test_pair_zero_form():
    phi = SecantElement.basis(3, 2)
    assert pair(KForm.zero(3, 1), phi) == ZhegalkinPoly.zero(3)


def test_pair_validation():
    phi = SecantElement.basis(2, 1)
    with pytest.raises(ValueError):
        pair(KForm.zero(2, 2), phi)
    with pytest.raises(ValueError):
        pair(KForm.zero(3, 1), phi)


def test_pair_additivity():
    # both sides of pair(differential(f), phi) == phi.apply(f) are additive
    # in f and in phi, and scaling phi by h scales both by h
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randrange(1, 5)
        f, g = random_poly(rng, n), random_poly(rng, n)
        w1 = differential(f)
        w2 = differential(g)
        phi = SecantElement(n, [random_poly(rng, n) for _ in range(n)])
        psi = SecantElement(n, [random_poly(rng, n) for _ in range(n)])
        assert pair(w1 + w2, phi) == pair(w1, phi) + pair(w2, phi)
        assert pair(differential(f + g), phi) == pair(w1, phi) + pair(w2, phi)
        assert pair(w1, phi + psi) == pair(w1, phi) + pair(w1, psi)
        assert phi.apply(f + g) == phi.apply(f) + phi.apply(g)
        assert (phi + psi).apply(f) == phi.apply(f) + psi.apply(f)
        h = random_poly(rng, n)
        scaled = SecantElement(n, [h * c for c in phi.coeffs])
        assert pair(w1, scaled) == h * pair(w1, phi)
        assert scaled.apply(f) == h * phi.apply(f)


def test_secant_str():
    phi = SecantElement(2, [ZhegalkinPoly.variable(2, 2), ZhegalkinPoly.variable(2, 1)])
    assert str(phi) == "(x2)*D1 + (x1)*D2"
    assert str(SecantElement(3, [ZhegalkinPoly.zero(3)] * 3)) == "0"
    assert str(SecantElement.basis(2, 2)) == "(1)*D2"
