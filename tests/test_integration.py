import random

import pytest

from zhegalkin import (
    Face,
    KForm,
    StokesReport,
    SweepSummary,
    ZhegalkinPoly,
    integrate_boundary,
    integrate_face,
    integrate_top,
    stokes_check,
    stokes_sweep,
)

from helpers import all_polys, face_sum, masks_of_size, random_form, random_poly


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
    assert integrate_face(w, Face(1, 1)) == 0
    assert integrate_face(w, Face(3, 0)) == 1  # f(1,1,0) = 0 + 1
    v = KForm.term(ZhegalkinPoly.variable(2, 2), [1])
    assert integrate_face(v, Face(2, 1)) == 1
    with pytest.raises(ValueError):
        integrate_face(KForm.term(f, [1, 2, 3]), Face(1, 0))
    with pytest.raises(ValueError):
        integrate_face(w, Face(4, 0))
    for bad in (Face(0, 0), Face(3, 0), Face(1, 2)):
        with pytest.raises(ValueError):
            integrate_face(v, bad)


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
                assert integrate_face(w, Face(axis, level)) == expected
                boundary ^= expected
        assert integrate_boundary(w) == boundary


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
        expected = integrate_face(w, Face(3, 0)) ^ integrate_face(w, Face(3, 1))
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
                value = integrate_face(w, Face(axis, level))
                if axis != missing:
                    assert value == 0


def test_integration_is_additive():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randrange(1, 5)
        a = random_form(rng, n, n - 1)
        b = random_form(rng, n, n - 1)
        assert integrate_boundary(a + b) == integrate_boundary(a) ^ integrate_boundary(b)
        face = Face(rng.randrange(1, n + 1), rng.randrange(2))
        assert integrate_face(a + b, face) == integrate_face(a, face) ^ integrate_face(b, face)
        ta = random_form(rng, n, n)
        tb = random_form(rng, n, n)
        assert integrate_top(ta + tb) == integrate_top(ta) ^ integrate_top(tb)


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


def test_sweep_summary_counterexample_line():
    report = StokesReport(lhs=1, rhs=0, passed=False, form=KForm.zero(2, 1))
    summary = SweepSummary(checked=5, failed=1, counterexample_index=3, counterexample=report)
    assert str(summary) == (
        "checked=5 failed=1\ncounterexample index=3: lhs=1 rhs=0 pass=false form=0"
    )
    assert summary.counterexample_index == 3 and summary.counterexample.lhs == 1
    assert str(SweepSummary(checked=7, failed=0)) == "checked=7 failed=0"
    report = StokesReport(lhs=0, rhs=0, passed=True, form=KForm.zero(2, 1))
    assert str(report) == "lhs=0 rhs=0 pass=true form=0"
