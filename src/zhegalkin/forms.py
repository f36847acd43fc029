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

from .anf import (MAX_DENSE_ARITY, ZhegalkinPoly, _check_pair_budget, _check_positive,
                  _check_same_arity, _coeffs, _make_poly, _new, _packed_partial,
                  _unkept, _Value, indices_from_mask, mask_from_indices)

__all__ = ["KForm"]


class KForm(_Value):
    """A homogeneous degree-k form over the n-variable ANF ring.

    Degree-0 forms carry a single coefficient at the empty index set.
    The coefficient map is a read-only view.
    """

    __slots__ = __match_args__ = ("arity", "degree", "coeffs")

    def __init__(self, arity: int, degree: int, coeffs=None):
        _check_positive(arity)
        _check_degree(degree, arity)
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
            if poly:
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
        """Single-term form: poly times the basis element for `indices`; a
        repeated index annihilates, as in `wedge` (degree min(len(indices), n))."""
        indices = list(indices)
        mask = mask_from_indices(indices, poly.arity)
        size = len(indices)
        return cls(poly.arity, min(size, poly.arity),
                   {mask: poly} if mask.bit_count() == size else {})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, key) -> ZhegalkinPoly:
        """Coefficient at an index set: a mask (not a bool) or distinct 1-based indices."""
        if not isinstance(key, int):
            indices = list(key)
            key = mask_from_indices(indices, self.arity)
            if key.bit_count() != len(indices):  # a repeated index names no set
                key = -1
        if isinstance(key, bool) or key < 0 or key >> self.arity or key.bit_count() != self.degree:
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

        The work is bounded before it starts: more than 2^MAX_DENSE_ARITY
        coefficient pairs, or above MAX_DENSE_ARITY more than that many
        term pairs in all, raise ValueError.
        """
        if not isinstance(other, KForm):
            raise TypeError("wedge expects a KForm")
        _check_same_arity(self, other)
        _check_pair_budget("wedge", len(self.coeffs), len(other.coeffs), "coefficient")
        if self.arity > MAX_DENSE_ARITY:
            # each coefficient product is a term-pair fold here
            _check_pair_budget("wedge", _term_count(self), _term_count(other), "term")
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

        Sparse forms cost per term, not per arity: each term m of the
        coefficient at `key` sends m ^ bit to `key | bit` for every set
        bit of m & ~key, so only the variables a term holds are visited.
        Dense forms at n <= MAX_DENSE_ARITY take the packed route: each
        partial is one shift and one mask of the coefficient's packed
        vector, the partials XOR per output index set, and each output
        holds only its vector, its terms derived if they are read.  The
        size rule `_dense` picks the route; both give the same form.
        """
        return _d_packed(self) if _dense(self) else _d_terms(self)

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


def _dense(w: KForm) -> bool:
    """Whether d of w takes the packed route (the size rule of `KForm.d`).

    On a k-form with T terms in all, the term route makes at most (n-k)*T
    partial terms, and derives the term set of each coefficient that holds
    a vector.  The packed route makes one word-wide partial (a shift and
    a mask, `anf._packed_partial`) per coefficient and free index, packs
    each coefficient that holds only terms, and makes no output crossing:
    each output holds only its vector.  A crossing costs at most about 2^n
    term operations, with no overhead, so the packed route is taken when
    (n-k)*T + vectors * 2^n > unkept * 2^n, unkept counted by `anf._unkept`.
    A coefficient whose terms were read already is still charged a
    derivation: the packed route reads its vector without crossing either way.

    On (n-1)-forms with n coefficients of t terms each, the packed route
    measured faster from the t below: from t = 1 when the coefficients
    hold their vectors (the rule takes it from t = 1), and from the
    second row when they hold only terms and are packed first (best of 3
    timings of >= 10 ms each over fresh forms, Python 3.11, shared 2-core
    x86-64 host):

        n       2  3  4  5   6   7   8   9  10  11  12   13   14   15    16
        vectors 1  1  1  1   1   1   1   1   1   1   1    1    1    1     1
        terms   -  -  8  8  10  11  14  17  29  48  91  181  346  638  1345

    (- : the term route won even at t = 2^n.)  On terms alone the rule
    counts n packings, more than n*t ever outweighs, so it keeps the term
    route and leaves the packed route's lead past the second row unused.
    """
    n, k = w.arity, w.degree
    if n > MAX_DENSE_ARITY:  # no packed vectors
        return False
    polys = w.coeffs.values()
    unkept = _unkept(polys)
    return (n - k) * _term_count(w) + ((len(polys) - unkept) << n) > unkept << n


def _term_count(w: KForm) -> int:
    return sum(map(len, w.coeffs.values()))


def _d_terms(w: KForm) -> KForm:
    # each partial term m ^ bit toggles in the mutable term set of its
    # output key, and each set is frozen into a polynomial once at the end
    n = w.arity
    acc = {}
    for key, poly in w.coeffs.items():
        outside = ~key
        for m in poly.terms:
            free = m & outside
            while free:
                bit = free & -free
                free ^= bit
                out, term = key | bit, m ^ bit
                terms = acc.get(out)
                if terms is None:
                    acc[out] = {term}
                elif term in terms:
                    terms.remove(term)
                else:
                    terms.add(term)
    return _make_form(n, min(w.degree + 1, n), {
        out: _make_poly(n, frozenset(terms)) for out, terms in acc.items() if terms
    })


def _d_packed(w: KForm) -> KForm:
    # w.arity <= MAX_DENSE_ARITY.  Each coefficient's packed partials
    # (`anf._packed_partial`) XOR into one int per output key.
    n = w.arity
    full = (1 << n) - 1
    acc = {}
    for key, poly in w.coeffs.items():
        bits = _coeffs(poly)
        free = full ^ key
        while free:
            bit = free & -free
            free ^= bit
            out = key | bit
            acc[out] = acc.get(out, 0) ^ _packed_partial(bits, bit)
    return _make_form(n, min(w.degree + 1, n), {
        out: _make_poly(n, None, bits) for out, bits in acc.items() if bits
    })


def _check_degree(degree, arity: int):
    """A form's degree is an int in 0..arity, not a bool."""
    if not isinstance(degree, int) or isinstance(degree, bool) or not 0 <= degree <= arity:
        raise ValueError(f"degree {degree!r} out of range 0..{arity}")


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
    if merged:
        acc[key] = merged
    else:
        acc.pop(key, None)
