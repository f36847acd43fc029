"""Integration of forms over the Hamming cube and its boundary faces.

The n-dimensional Hamming cube is the set of vertex masks 0..2^n-1; the
face (i, j) is the half with coordinate i pinned to j, and the boundary
is the disjoint union of all 2n faces.  Integrals land in F2: summation
is XOR.

Conventions, fixed here and relied on by the checker:

* A top-degree form f*d{1..n} integrates over the whole cube to f at the
  all-ones vertex (equivalently, the XOR over all vertices of x_1..x_n*f).
* An (n-1)-form has at most one coefficient per axis k, the g at the
  index-set mask I = all-ones ^ bit k, and only that term reaches the two
  faces of axis k.  On face (k, 1) it integrates to g(all-ones); on face
  (k, 0) to g at the vertex with every coordinate 1 but the k-th, which
  is the mask I itself.  So the boundary integral is the XOR over the
  terms of g(all-ones) ^ g(I).  At n=1 the term is a bare polynomial at
  I = 0 and each face is a single vertex: plain evaluation.

Every monomial is 1 at the all-ones vertex, so g(all-ones) is the parity
of g's term count, `len(g)`.  A monomial is 1 at I iff it lacks x_k, so
g(I) is the parity of `len(g)` less the number of terms holding x_k,
`anf._holding(g, bit k)`, and g(all-ones) ^ g(I) is the parity of that
number alone.  The integrals read only these two counts, and each reads
either store of g, a packed vector without deriving its term set.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import product

from .anf import (_check_bit, _check_dense_arity, _check_index, _check_positive, _holding,
                  _make_poly)
from .forms import KForm, _make_form

__all__ = [
    "StokesReport",
    "SweepSummary",
    "integrate_boundary",
    "integrate_face",
    "integrate_top",
    "stokes_check",
    "stokes_sweep",
]


def integrate_top(w: KForm) -> int:
    """Integral of an n-form over the whole cube: its coefficient at the
    all-ones vertex."""
    n = w.arity
    _check_form_degree(w, n, "top integral")
    poly = w.coeffs.get((1 << n) - 1)
    return 0 if poly is None else len(poly) & 1


def integrate_face(w: KForm, face) -> int:
    """Integral of an (n-1)-form over one face: the pair (axis, level),
    the half of the cube with coordinate `axis` (1-based) equal to `level`."""
    n = w.arity
    _check_form_degree(w, n - 1, "face integral")
    axis, level = face
    _check_index(axis, n)
    _check_bit(level, "face level")
    bit = 1 << (axis - 1)
    poly = w.coeffs.get(((1 << n) - 1) ^ bit)
    if poly is None:
        return 0
    count = len(poly)
    if not level:  # the terms without x_axis
        count -= _holding(poly, bit)
    return count & 1


def integrate_boundary(w: KForm) -> int:
    """Integral of an (n-1)-form over the boundary: XOR over all 2n faces."""
    n = w.arity
    _check_form_degree(w, n - 1, "boundary integral")
    full = (1 << n) - 1
    return sum([_holding(poly, full ^ key) for key, poly in w.coeffs.items()]) & 1


def _check_form_degree(w: KForm, degree: int, what: str):
    if w.degree != degree:
        raise ValueError(f"{what} needs degree {degree}, got {w.degree}")


class StokesReport(namedtuple("StokesReport", "lhs rhs passed form")):
    """Both sides of the boundary identity for one (n-1)-form: ints lhs and
    rhs, bool passed, and the KForm checked."""

    __slots__ = ()

    def __str__(self):
        flag = "true" if self.passed else "false"
        return f"lhs={self.lhs} rhs={self.rhs} pass={flag} form={self.form}"


def stokes_check(w: KForm) -> StokesReport:
    """Compare the cube integral of dw with the boundary integral of w."""
    _check_form_degree(w, w.arity - 1, "the check")
    lhs = integrate_top(w.d())
    rhs = integrate_boundary(w)
    return StokesReport(lhs=lhs, rhs=rhs, passed=lhs == rhs, form=w)


class SweepSummary(namedtuple("SweepSummary", "checked failed counterexample_index counterexample",
                              defaults=(None, None))):
    """How many forms a sweep checked and failed, with the first failure:
    its sample index and its StokesReport, or None for both."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.failed == 0

    def __str__(self):
        line = f"checked={self.checked} failed={self.failed}"
        if self.counterexample is not None:
            line += (
                f"\ncounterexample index={self.counterexample_index}:"
                f" {self.counterexample}"
            )
        return line


def _slot_masks(arity: int) -> list[int]:
    full = (1 << arity) - 1
    return sorted(full ^ (1 << i) for i in range(arity))


def stokes_sweep(
    arity: int, *, exhaustive: bool = False, count: int | None = None, seed: int = 0
) -> SweepSummary:
    """Run `stokes_check` over many (n-1)-forms.

    Either `exhaustive=True` (arity <= 2 only: the form space has
    2^(n*2^n) elements) or `count` random forms drawn from `seed`.  For a
    fixed seed the sample sequence is deterministic and the reported
    counterexample, if any, is the one with the lowest sample index.
    """
    _check_positive(arity)
    if exhaustive == (count is not None):
        raise ValueError("choose exactly one of exhaustive or count")
    if exhaustive and arity > 2:
        raise ValueError(f"exhaustive sweep supports arity <= 2, got {arity}")
    if count is not None:
        _check_positive(count, "sample count")
        # each draw is a 2^n-bit vector per slot: refuse before drawing
        _check_dense_arity(arity)

    checked = failed = 0
    first = ()  # the first failure's index and report
    for index, form in enumerate(_sweep_forms(arity, _slot_masks(arity), exhaustive, count, seed)):
        report = stokes_check(form)
        checked += 1
        if not report.passed:
            failed += 1
            first = first or (index, report)
    return SweepSummary(checked, failed, *first)


def _sweep_forms(arity, slots, exhaustive, count, seed):
    # one fitting coefficient vector per slot, so forms are built unchecked
    # and each coefficient keeps its vector for d;
    # the exhaustive sweep counts with the first slot's vector fastest
    width = 1 << arity
    if exhaustive:
        draws = (t[::-1] for t in product(range(1 << width), repeat=len(slots)))
    else:
        rng = random.Random(seed)
        draws = ([rng.getrandbits(width) for _ in slots] for _ in range(count))
    for slot_bits in draws:
        yield _make_form(arity, arity - 1, {
            slot: _make_poly(arity, None, bits)
            for slot, bits in zip(slots, slot_bits) if bits
        })
