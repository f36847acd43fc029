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
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

from .anf import ZhegalkinPoly, _check_arity, _check_index
from .forms import KForm

__all__ = [
    "Face",
    "StokesReport",
    "SweepSummary",
    "integrate_boundary",
    "integrate_face",
    "integrate_top",
    "stokes_check",
    "stokes_sweep",
]


class Face(NamedTuple):
    """The face of the cube with coordinate `axis` (1-based) equal to `level`."""

    axis: int
    level: int


def _check_face(arity: int, face) -> Face:
    face = Face(*face)
    _check_index(face.axis, arity)
    if face.level not in (0, 1):
        raise ValueError(f"face level must be 0 or 1, got {face.level!r}")
    return face


def integrate_top(w: KForm) -> int:
    """Integral of an n-form over the whole cube: its coefficient at the
    all-ones vertex."""
    n = w.arity
    if w.degree != n:
        raise ValueError(f"top integral needs degree {n}, got {w.degree}")
    full = (1 << n) - 1
    poly = w.coeffs.get(full)
    return 0 if poly is None else poly.evaluate(full)


def integrate_face(w: KForm, face) -> int:
    """Integral of an (n-1)-form over one face."""
    n = w.arity
    if w.degree != n - 1:
        raise ValueError(f"face integral needs degree {n - 1}, got {w.degree}")
    face = _check_face(n, face)
    full = (1 << n) - 1
    key = full ^ (1 << (face.axis - 1))
    poly = w.coeffs.get(key)
    return 0 if poly is None else poly.evaluate(full if face.level else key)


def integrate_boundary(w: KForm) -> int:
    """Integral of an (n-1)-form over the boundary: XOR over all 2n faces."""
    n = w.arity
    if w.degree != n - 1:
        raise ValueError(f"boundary integral needs degree {n - 1}, got {w.degree}")
    full = (1 << n) - 1
    total = 0
    for key, poly in w.coeffs.items():
        total ^= poly.evaluate(full) ^ poly.evaluate(key)
    return total


class StokesReport(NamedTuple):
    """Both sides of the boundary identity for one (n-1)-form."""

    lhs: int
    rhs: int
    passed: bool
    form: KForm

    def __str__(self):
        flag = "true" if self.passed else "false"
        return f"lhs={self.lhs} rhs={self.rhs} pass={flag} form={self.form}"


def stokes_check(w: KForm) -> StokesReport:
    """Compare the cube integral of dw with the boundary integral of w."""
    n = w.arity
    if w.degree != n - 1:
        raise ValueError(f"the check needs a degree-{n - 1} form, got {w.degree}")
    lhs = integrate_top(w.d())
    rhs = integrate_boundary(w)
    return StokesReport(lhs=lhs, rhs=rhs, passed=lhs == rhs, form=w)


class SweepSummary(NamedTuple):
    """How many forms a sweep checked and failed, with the first failure."""

    checked: int
    failed: int
    counterexample_index: Optional[int] = None
    counterexample: Optional[StokesReport] = None

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
    arity: int, *, exhaustive: bool = False, count: Optional[int] = None, seed: int = 0
) -> SweepSummary:
    """Run `stokes_check` over many (n-1)-forms.

    Either `exhaustive=True` (arity <= 2 only: the form space has
    2^(n*2^n) elements) or `count` random forms drawn from `seed`.  For a
    fixed seed the sample sequence is deterministic and the reported
    counterexample, if any, is the one with the lowest sample index.
    """
    _check_arity(arity)
    if exhaustive == (count is not None):
        raise ValueError("choose exactly one of exhaustive or count")
    if exhaustive and arity > 2:
        raise ValueError(f"exhaustive sweep supports arity <= 2, got {arity}")
    if count is not None and count < 1:
        raise ValueError(f"sample count must be positive, got {count}")

    slots = _slot_masks(arity)
    checked = 0
    failed = 0
    first_index = None
    first_report = None
    for index, form in enumerate(_sweep_forms(arity, slots, exhaustive, count, seed)):
        report = stokes_check(form)
        checked += 1
        if not report.passed:
            failed += 1
            if first_report is None:
                first_index = index
                first_report = report
    return SweepSummary(
        checked=checked,
        failed=failed,
        counterexample_index=first_index,
        counterexample=first_report,
    )


def _sweep_forms(arity, slots, exhaustive, count, seed):
    # one packed coefficient vector per slot: the exhaustive sweep cuts each
    # counter value into slot-wide fields, lowest field first
    width = 1 << arity
    if exhaustive:
        ones = (1 << width) - 1
        draws = (
            [(packed >> (width * s)) & ones for s in range(len(slots))]
            for packed in range(1 << (width * len(slots)))
        )
    else:
        rng = random.Random(seed)
        draws = ([rng.getrandbits(width) for _ in slots] for _ in range(count))
    for slot_bits in draws:
        coeffs = {
            slot: ZhegalkinPoly.from_coeff_bits(arity, bits)
            for slot, bits in zip(slots, slot_bits)
            if bits
        }
        yield KForm(arity, arity - 1, coeffs)
