"""Differential forms with Zhegalkin-polynomial coefficients.

A k-form is a map from k-element subsets of {1..n} (stored as bitmask
keys) to coefficient polynomials; absent keys are zero and zero
coefficients are dropped, so equal forms have equal coefficient maps.
Over F2 there are no signs: the wedge product is commutative, a repeated
basis index annihilates, and the exterior derivative adjoins one index at
a time via the Boolean partial derivative.
"""

from __future__ import annotations

from types import MappingProxyType

from .anf import (ZhegalkinPoly, _check_positive, _check_same_arity, _make_poly, _new,
                  _Value, indices_from_mask, mask_from_indices)

__all__ = ["KForm"]


class KForm(_Value):
    """A homogeneous degree-k form over the n-variable ANF ring.

    Degree-0 forms carry a single coefficient at the empty index set.
    The coefficient map is a read-only view.
    """

    __slots__ = __match_args__ = ("arity", "degree", "coeffs")

    def __init__(self, arity: int, degree: int, coeffs=None):
        _check_positive(arity)
        if not isinstance(degree, int) or isinstance(degree, bool) or not 0 <= degree <= arity:
            raise ValueError(f"degree {degree!r} out of range 0..{arity}")
        clean = {}
        for key, poly in (coeffs or {}).items():
            if not isinstance(key, int) or isinstance(key, bool) or key < 0 or key >> arity:
                raise ValueError(f"index-set mask {key!r} does not fit {arity} bits")
            if key.bit_count() != degree:
                raise ValueError(
                    f"index set {set(indices_from_mask(key))} has size "
                    f"{key.bit_count()}, expected degree {degree}"
                )
            if not isinstance(poly, ZhegalkinPoly) or poly.arity != arity:
                raise ValueError(f"coefficient at {key:#b} must have arity {arity}")
            if poly.terms:
                clean[key] = poly
        _set_arity(self, arity)
        _set_degree(self, degree)
        _set_coeffs(self, MappingProxyType(clean))

    @classmethod
    def zero(cls, arity: int, degree: int) -> "KForm":
        return cls(arity, degree, {})

    @classmethod
    def from_poly(cls, poly: ZhegalkinPoly) -> "KForm":
        """Wrap a polynomial as the corresponding 0-form."""
        return cls(poly.arity, 0, {0: poly})

    @classmethod
    def term(cls, poly: ZhegalkinPoly, indices) -> "KForm":
        """Single-term form: poly times the basis element for `indices`."""
        mask = mask_from_indices(indices, poly.arity)
        return cls(poly.arity, mask.bit_count(), {mask: poly})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, key) -> ZhegalkinPoly:
        """Coefficient at an index set (mask or iterable of 1-based indices)."""
        if not isinstance(key, int) or isinstance(key, bool):
            key = mask_from_indices(key, self.arity)
        if key < 0 or key >> self.arity or key.bit_count() != self.degree:
            raise ValueError(f"invalid index set for a degree-{self.degree} form")
        got = self.coeffs.get(key)
        return got if got is not None else ZhegalkinPoly.zero(self.arity)

    def __add__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        _check_same_arity(self, other)
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree} "
                "(mixed-degree sums are not supported)"
            )
        acc = dict(self.coeffs)
        for key, poly in other.coeffs.items():
            _accumulate(acc, key, poly)
        return _make_form(self.arity, self.degree, acc)

    def wedge(self, other: "KForm") -> "KForm":
        """Wedge product; overlapping index sets annihilate, no signs over F2.

        If the degrees sum past the arity every index pair overlaps, so the
        result is the canonical zero form capped at degree n.
        """
        if not isinstance(other, KForm):
            raise TypeError("wedge expects a KForm")
        _check_same_arity(self, other)
        out_degree = min(self.degree + other.degree, self.arity)
        acc = {}
        for ka, fa in self.coeffs.items():
            for kb, fb in other.coeffs.items():
                if ka & kb:
                    continue
                _accumulate(acc, ka | kb, fa * fb)
        return _make_form(self.arity, out_degree, acc)

    def d(self) -> "KForm":
        """Exterior derivative: adjoin each absent index with the matching
        Boolean partial of the coefficient.  A top-degree form maps to the
        canonical zero form (degree stays capped at n).

        Costs per term, not per arity: each term m of the coefficient at
        `key` sends m ^ bit to `key | bit` for every set bit of m & ~key,
        so only the variables a term holds are visited.  Within one
        coefficient m -> m ^ bit is injective, so nothing cancels there.
        Coefficients of different keys meet in one mutable term set per
        output key, by symmetric difference, and each set is frozen into
        a polynomial once at the end.
        """
        n = self.arity
        out_degree = min(self.degree + 1, n)
        acc = {}
        for key, poly in self.coeffs.items():
            partials = {}
            outside = ~key
            for m in poly.terms:
                free = m & outside
                while free:
                    bit = free & -free
                    free ^= bit
                    if bit in partials:
                        partials[bit].append(m ^ bit)
                    else:
                        partials[bit] = [m ^ bit]
            for bit, terms in partials.items():
                out = key | bit
                if out in acc:
                    acc[out].symmetric_difference_update(terms)
                else:
                    acc[out] = set(terms)
        return _make_form(n, out_degree, {
            out: _make_poly(n, frozenset(terms)) for out, terms in acc.items() if terms
        })

    # a mappingproxy neither hashes nor pickles
    def __hash__(self):
        return hash((self.arity, self.degree, frozenset(self.coeffs.items())))

    def __reduce__(self):
        return KForm, (self.arity, self.degree, dict(self.coeffs))

    def __repr__(self):
        return f"<KForm n={self.arity} k={self.degree}: {self}>"

    def __str__(self):
        if not self.coeffs:
            return "0"
        if self.degree == 0:
            return str(self.coeffs[0])
        parts = []
        for key in sorted(self.coeffs):
            idx = ",".join(str(i) for i in indices_from_mask(key))
            parts.append(f"({self.coeffs[key]})*d{{{idx}}}")
        return " + ".join(parts)


def _make_form(arity: int, degree: int, coeffs: dict) -> KForm:
    # internal fast path: coeffs must already be canonical (no zero entries)
    w = _new(KForm)
    _set_arity(w, arity)
    _set_degree(w, degree)
    _set_coeffs(w, MappingProxyType(coeffs))
    return w


_set_arity = KForm.arity.__set__
_set_degree = KForm.degree.__set__
_set_coeffs = KForm.coeffs.__set__


def _accumulate(acc: dict, key: int, poly: ZhegalkinPoly):
    prev = acc.get(key)
    merged = poly if prev is None else prev + poly
    if merged.terms:
        acc[key] = merged
    else:
        acc.pop(key, None)
