"""Zhegalkin polynomials: Boolean functions in algebraic normal form.

A Boolean function f : F2^n -> F2 is stored as the set of monomials of its
unique XOR-of-ANDs normal form.  A monomial is an n-bit mask: bit i-1 set
means x_i is a factor, mask 0 is the constant monomial 1.  Since x*x = x,
monomials are square-free by construction and the monomial product is a
plain mask union.

Truth tables use the same bit convention on the vertex side: bit j-1 of
the vertex index k holds the value of x_j, so entry k of the table is
f(v_k).

Representation rule: the term set (a frozenset of monomial masks) is the
value of a polynomial: it alone is compared, hashed and pickled.  A
vertex is an int mask (bit j-1 = x_j), and a packed int (entry k = bit k)
is the one format for truth tables and coefficient vectors; on it the
table<->ANF conversion is a handful of word-wide shift/xor passes
(`mobius_transform`).  Every crossing between the two is validated once,
at the public edge: a packed value from a caller by `_check_packed` (a
`TruthTable` by its constructor), a term set by its arity; past that edge
the butterfly runs unchecked.  Exactly two functions cross, each linear
in the table size: `_positions` (packed int to ascending positions) and
`_pack` (positions to packed int).  A polynomial built by
`from_coeff_bits`, `from_truth_table`, the table route of `*`, `+` of two
vectors or the packed route of `KForm.d` stores only its arity and that
vector, its canonical store; its term set is derived whole on the first
read of `.terms` and stored once.  Any other polynomial stores its term
set and `_packed = None`.  Only this module reads the store, apart from
`d`'s size rule in `forms`.  `coeff_bits`, `to_truth_table`, `*`, `+`
and `d`'s packed route read the vector without crossing, the last through
`_packed_partial`, the Boolean partial of a vector.  Two readers give
every count from either store: `len(p)`, the term count (so a truth test
is a zero test), and `_holding(p, bit)`, the number of terms that hold
one variable, a partial's count on a vector.  Packed tables are walked
per entry.  `str` peels a monomial one set bit at a time (`m & -m`), and
each peel is an int operation as wide as the mask, so a term costs its
factors times its width; `indices_from_mask` walks a mask's bytes once.

Routes: `*` and `KForm.d` each have a route over term sets and one over
packed vectors, and each picks by its own size rule, written where it is
used: each route's work and the crossings it makes.  Above
MAX_DENSE_ARITY there are no packed vectors, and both take the term
route.  `d`'s rule is documented beside it, in `forms`.

Products: `*` is the OR-convolution of the two term sets, which the
butterfly turns into a pointwise AND of truth tables.  Folding term pairs
costs |a|*|b| set operations; the route through packed tables ends in a
vector that crosses only if its terms are read, and its butterflies and
operand crossings add an overhead of 256.  So `*` goes through the tables,
inside the one call, when |a|*|b| > 2^n + 256 and n <= MAX_DENSE_ARITY,
and folds term pairs otherwise.  Just over that threshold the table route
measured 1.7-4.7x faster for n = 5..16.  Above MAX_DENSE_ARITY there are
no tables, and `*` refuses more than 2^MAX_DENSE_ARITY term pairs before
folding.  An n-ary sum (`_sum`) XORs every operand's term set into one
set and freezes it once.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import compress

__all__ = [
    "MAX_DENSE_ARITY",
    "TruthTable",
    "ZhegalkinPoly",
    "indices_from_mask",
    "mask_from_indices",
    "mobius_transform",
]

# Dense (bit-packed) truth tables are capped here; 2^24 entries = 2 MiB.  The
# cached level masks at the cap are 24 such tables, held for the process.
MAX_DENSE_ARITY = 24

# Fixed cost of a product through the tables, in term pairs: two operand
# packings, three butterflies and an output crossing took 8-12 us at
# n <= 6, about 100-200 set operations of the term-pair fold; without it
# the table route lost 2-8x at |a|*|b| = 2^n.  The output now holds only
# its vector, and an operand holding one is not packed: an upper bound.
_DENSE_PRODUCT_OVERHEAD = 256

# Variable names that `str` looks up; a factor above them is formatted on
# demand.  The table saves formatting only: each peel costs the mask's width.
_NAMED = 64
_NAMES = tuple(f"x{i}" for i in range(1, _NAMED + 1))


def _check_positive(value, what: str = "arity") -> int:
    """An arity, count or repetition number is an int >= 1, not a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def _check_same_arity(a, b):
    if a.arity != b.arity:
        raise ValueError(f"arity mismatch: {a.arity} vs {b.arity}")


def _check_dense_arity(arity) -> int:
    _check_positive(arity)
    if arity > MAX_DENSE_ARITY:
        raise ValueError(
            f"dense truth tables support arity <= {MAX_DENSE_ARITY}, got {arity}"
        )
    return arity


def _check_bit(value, what: str) -> int:
    """A bit is the int 0 or 1; a bool counts, a float such as 1.0 does not."""
    if not isinstance(value, int) or value not in (0, 1):
        raise ValueError(f"{what} must be 0 or 1, got {value!r}")
    return value


def _check_index(index, arity) -> int:
    if not isinstance(index, int) or isinstance(index, bool) or not 1 <= index <= arity:
        raise ValueError(f"variable index {index!r} out of range 1..{arity}")
    return index


# `_positions` and `_pack` go through flag bytes, one byte (0 or 1) per
# table entry, entry k at index k.  Both ways between flags and a packed
# int are C-level string operations (binary format, `bytes.translate`,
# `int(..., 2)`), and flags become positions through `itertools.compress`;
# only `_pack` loops, one store per position.  The flags and their digit
# copy cost two bytes per entry while a crossing runs: under tracemalloc
# `coeff_bits` peaks at 34 MiB at n=24.
_FLAG_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")
_DIGIT_OF_FLAG = bytes.maketrans(b"\0\1", b"01")


def _positions(bits: int):
    """Ascending positions of the set bits of a packed int."""
    flags = bin(bits)[:1:-1].encode().translate(_FLAG_OF_DIGIT)
    return compress(range(len(flags)), flags)


def _pack(positions, width: int) -> int:
    """The int with exactly the given bit positions (each < width) set."""
    flags = bytearray(width)
    for p in positions:
        flags[p] = 1
    digits = flags.translate(_DIGIT_OF_FLAG)
    digits.reverse()  # in place: one copy of the flags, not two
    return int(digits or b"0", 2)


def _check_pair_budget(operation: str, a: int, b: int, unit: str):
    """Refuse a loop over a x b pairs of terms or coefficients before it
    starts when there are more pairs than entries in the largest table."""
    if a * b > 1 << MAX_DENSE_ARITY:
        raise ValueError(
            f"{operation} of {a} x {b} {unit}s exceeds the {unit}-pair budget "
            f"2^{MAX_DENSE_ARITY} = {1 << MAX_DENSE_ARITY}"
        )


def _check_packed(bits, arity) -> int:
    """Validate a packed 2^arity-entry table or coefficient vector."""
    _check_dense_arity(arity)
    if not isinstance(bits, int) or isinstance(bits, bool) or bits < 0:
        raise ValueError("packed table must be a nonnegative int, not a bool")
    if bits >> (1 << arity):
        raise ValueError(f"packed table has bits beyond its 2^{arity} entries")
    return bits


def _sum(arity: int, polys) -> ZhegalkinPoly:
    """The sum of polynomials of this arity: one set, frozen once."""
    terms = set()
    for p in polys:
        terms ^= p.terms
    return _make_poly(arity, frozenset(terms))


def mask_from_indices(indices, arity: int) -> int:
    """Pack 1-based variable indices into a monomial/index-set mask."""
    mask = 0
    for i in indices:
        _check_index(i, arity)
        mask |= 1 << (i - 1)
    return mask


def indices_from_mask(mask: int) -> list[int]:
    """Unpack a mask into ascending 1-based variable indices."""
    if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0:
        raise ValueError("mask must be a nonnegative int, not a bool")
    # one pass over the mask's bytes; each nonzero byte's indices come
    # from a table, so a mask costs its width, never width * set bits
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    indices = []
    for byte in _NONZERO_BYTE.finditer(data):
        at = byte.start()
        base = at << 3
        indices.extend([base + i for i in _BYTE_INDICES[data[at]]])
    return indices


# the 1-based indices of each byte value's set bits, lowest first: the
# values with bit i-1 set are those below 2^(i-1), each extended by i
_BYTE_INDICES = reduce(lambda table, i: table + [t + (i,) for t in table], range(1, 9), [()])
_NONZERO_BYTE = re.compile(rb"[^\0]")


@lru_cache(maxsize=None)
def _level_masks(arity: int) -> tuple[int, ...]:
    # masks[i] selects the table positions whose index has bit i clear:
    # a repeating pattern of 2^i ones then 2^i zeros, 2^arity bits total.
    total = 1 << arity
    masks = []
    for i in range(arity):
        m = (1 << (1 << i)) - 1
        span = 1 << (i + 1)
        while span < total:
            m |= m << span
            span <<= 1
        masks.append(m)
    return tuple(masks)


def mobius_transform(bits: int, arity: int) -> int:
    """Binary Mobius transform of a packed 2^arity-entry bit table.

    Runs the in-place butterfly: for each variable and each index k with
    that variable's bit set, entry k is XORed with the entry at k with the
    bit cleared.  Maps packed ANF coefficients to the packed truth table
    and, being self-inverse over F2, back again.
    """
    return _butterfly(_check_packed(bits, arity), arity)


def _butterfly(bits: int, arity: int) -> int:
    # unchecked: callers pass a value already validated at the public edge
    for i, mask in enumerate(_level_masks(arity)):
        bits ^= (bits & mask) << (1 << i)
    return bits


class _Value:
    """Base of the package's values: polynomials, truth tables, forms,
    operator fields and expression nodes.

    A value's fields are its `__match_args__`.  It equals only a value of
    the same class with equal fields, and hashes its field tuple.
    Assigning or deleting a field raises AttributeError, so a value never
    changes once built and is safe to share between threads; every
    operation returns a new value.  Pickling and copying rebuild the value
    through its public constructor.  Constructors write the fields through
    the slot descriptors (`ZhegalkinPoly.terms.__set__` and so on), which
    bypass the frozen `__setattr__`.
    """

    __slots__ = ()
    __match_args__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class ZhegalkinPoly(_Value):
    """An n-variable Boolean function as its canonical set of monomials.

    Two polynomials of equal arity represent the same function iff their
    term sets are equal.  Construction checks each given mask before it
    XOR-folds it in, so a repeated mask cancels but never hides a bad one.
    """

    # `_packed` is the vector a polynomial was built from, or None, and is
    # not a field; with a vector, `terms` is unset until read (`__getattr__`)
    __match_args__ = ("arity", "terms")
    __slots__ = (*__match_args__, "_packed")

    def __init__(self, arity: int, terms=()):
        _check_positive(arity)
        folded = set()
        for m in terms:
            if not isinstance(m, int) or isinstance(m, bool) or m < 0 or m >> arity:
                raise ValueError(f"monomial mask {m!r} does not fit in {arity} variables")
            if m in folded:
                folded.remove(m)
            else:
                folded.add(m)
        _set_poly_arity(self, arity)
        _set_terms(self, frozenset(folded))
        _set_packed(self, None)

    @classmethod
    def zero(cls, arity: int) -> "ZhegalkinPoly":
        return cls.constant(arity, 0)

    @classmethod
    def one(cls, arity: int) -> "ZhegalkinPoly":
        return cls.constant(arity, 1)

    @classmethod
    def constant(cls, arity: int, value: int) -> "ZhegalkinPoly":
        """The constant function `value` at the given arity."""
        _check_positive(arity)
        _check_bit(value, "constant")
        return _make_poly(arity, frozenset({0}) if value else frozenset())

    @classmethod
    def variable(cls, arity: int, index: int) -> "ZhegalkinPoly":
        """The projection x_index (1-based)."""
        _check_positive(arity)
        _check_index(index, arity)
        return _make_poly(arity, frozenset({1 << (index - 1)}))

    @classmethod
    def from_coeff_bits(cls, arity: int, bits: int) -> "ZhegalkinPoly":
        """Build from a packed coefficient vector (bit m set = monomial m)."""
        return _poly_from_packed(arity, _check_packed(bits, arity))

    @classmethod
    def from_truth_table(cls, table: "TruthTable") -> "ZhegalkinPoly":
        """The unique polynomial realizing the given truth table."""
        if not isinstance(table, TruthTable):
            raise TypeError("from_truth_table expects a TruthTable")
        return _poly_from_packed(table.arity, _butterfly(table.bits, table.arity))

    def coeff_bits(self) -> int:
        """The term set as a packed coefficient vector (bit m = monomial m)."""
        _check_dense_arity(self.arity)
        return _coeffs(self)

    def to_truth_table(self) -> "TruthTable":
        """Evaluate at every vertex via the packed butterfly."""
        return _make_table(self.arity, _butterfly(self.coeff_bits(), self.arity))

    def evaluate(self, vertex: int) -> int:
        """Value at a vertex, an int mask (bit j-1 = x_j): XOR over the
        terms contained in the vertex's support."""
        if (not isinstance(vertex, int) or isinstance(vertex, bool)
                or vertex < 0 or vertex >> self.arity):
            raise ValueError(f"vertex {vertex!r} is not a mask of {self.arity} bits")
        value = 0
        for m in self.terms:
            if m & vertex == m:
                value ^= 1
        return value

    def restrict(self, index: int, value: int) -> "ZhegalkinPoly":
        """Cofactor with x_index fixed to value; same arity, x_index eliminated.

        f|x_i=0 is the terms without x_i, and by the paper's identity
        partial_i f = f|x_i=0 + f|x_i=1, f|x_i=1 is f|x_i=0 + partial_i f."""
        _check_index(index, self.arity)
        _check_bit(value, "restriction value")
        bit = 1 << (index - 1)
        kept = frozenset(m for m in self.terms if not m & bit)
        return _make_poly(self.arity, kept ^ self.partial(index).terms if value else kept)

    def partial(self, index: int) -> "ZhegalkinPoly":
        """Boolean derivative in x_index: terms containing it, with it removed.

        Stripping x_index is injective on the terms that contain it, so no
        cancellation can occur here.
        """
        _check_index(index, self.arity)
        bit = 1 << (index - 1)
        return _make_poly(self.arity, frozenset(m ^ bit for m in self.terms if m & bit))

    def __add__(self, other):
        if not isinstance(other, ZhegalkinPoly):
            return NotImplemented
        _check_same_arity(self, other)
        bits = self._packed
        if bits is not None and other._packed is not None:
            return _poly_from_packed(self.arity, bits ^ other._packed)
        return _make_poly(self.arity, self.terms ^ other.terms)

    def __mul__(self, other):
        if not isinstance(other, ZhegalkinPoly):
            return NotImplemented
        _check_same_arity(self, other)
        n = self.arity
        if n > MAX_DENSE_ARITY:
            # no tables: the fold's work and result are bounded by the
            # largest dense table
            _check_pair_budget("product", len(self), len(other), "term")
        elif len(self) * len(other) > (1 << n) + _DENSE_PRODUCT_OVERHEAD:
            # the product is the pointwise AND of the two truth tables
            bits = _butterfly(_coeffs(self), n) & _butterfly(_coeffs(other), n)
            return _poly_from_packed(n, _butterfly(bits, n))
        # folded inline: on sparse_symbolic's own f * g operands (120 seed-1
        # inputs, median 42 x 42 terms) a fold function fed by a generator
        # ran about 1.14x slower; `factors` saves an attribute read per term
        acc = set()
        factors = other.terms
        for a in self.terms:
            for b in factors:
                m = a | b
                if m in acc:
                    acc.remove(m)
                else:
                    acc.add(m)
        return _make_poly(n, frozenset(acc))

    def __len__(self):
        # the term count of either store: a vector's set is not derived
        bits = self._packed
        return len(self.terms) if bits is None else bits.bit_count()

    def __getattr__(self, name):
        # runs only for an unset slot: a vector's term set, derived whole on
        # its first read and only then stored, so no thread sees part of it
        if name != "terms":
            return object.__getattribute__(self, name)  # raises as it would unhooked
        terms = frozenset(_positions(self._packed))
        _set_terms(self, terms)
        return terms

    def __repr__(self):
        return f"ZhegalkinPoly({self.arity}, {sorted(self.terms)})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        # by degree, then by mask; a term peels its lowest set bit (m & -m)
        # per factor, and each peel costs the mask's width: factors x width
        for m in sorted(sorted(self.terms), key=int.bit_count):
            factors = []
            while m:
                low = m & -m
                i = low.bit_length()
                factors.append(_NAMES[i - 1] if i <= _NAMED else f"x{i}")
                m ^= low
            parts.append("*".join(factors) or "1")
        return " + ".join(parts)


# The internal fast path: terms must already be a canonical frozenset.  As a
# module-level function it costs less per call than as a class/staticmethod.
def _make_poly(arity: int, terms: frozenset) -> ZhegalkinPoly:
    p = _new(ZhegalkinPoly)
    _set_poly_arity(p, arity)
    _set_terms(p, terms)
    _set_packed(p, None)
    return p


def _poly_from_packed(arity: int, bits: int) -> ZhegalkinPoly:
    # bits must already fit the 2^arity entries; the term set waits for
    # its first read (`ZhegalkinPoly.__getattr__`)
    p = _new(ZhegalkinPoly)
    _set_poly_arity(p, arity)
    _set_packed(p, bits)
    return p


def _coeffs(p: ZhegalkinPoly) -> int:
    # p.arity <= MAX_DENSE_ARITY: the packed vector it was built from, or a new one
    bits = p._packed
    return _pack(p.terms, 1 << p.arity) if bits is None else bits


def _holding(p: ZhegalkinPoly, bit: int) -> int:
    # how many of p's terms hold the variable with mask `bit`: the terms of
    # its partial in that variable, or one term-set pass
    bits = p._packed
    return (len([m for m in p.terms if m & bit]) if bits is None
            else _packed_partial(bits, bit).bit_count())


def _packed_partial(bits: int, bit: int) -> int:
    # the Boolean partial of a packed coefficient vector in the variable with
    # mask `bit` (= 1 << i): monomial m holding the bit moves down `bit`
    # places to m ^ bit, and level mask i keeps exactly those.  The masks are
    # those of the narrowest table that holds the vector, so a narrow vector
    # at a wide arity costs its width; a variable past that table has none.
    width = (bits.bit_length() - 1).bit_length()
    if bit >> width:
        return 0
    return (bits >> bit) & _level_masks(width)[bit.bit_length() - 1]


_new = object.__new__
_set_poly_arity = ZhegalkinPoly.arity.__set__
_set_terms = ZhegalkinPoly.terms.__set__
_set_packed = ZhegalkinPoly._packed.__set__


class TruthTable(_Value):
    """A bit-packed 2^arity-entry value table (entry k = bit k of `bits`)."""

    __slots__ = __match_args__ = ("arity", "bits")

    def __init__(self, arity: int, bits: int):
        _set_bits(self, _check_packed(bits, arity))
        _set_table_arity(self, arity)

    def __repr__(self):
        return f"TruthTable({self.arity}, {self.bits:#x})"

    def __str__(self):
        nibbles = ((1 << self.arity) + 3) // 4
        return f"{self.arity}:{self.bits:0{nibbles}X}"


def _make_table(arity: int, bits: int) -> TruthTable:
    # internal fast path: bits must already fit the 2^arity entries
    t = _new(TruthTable)
    _set_table_arity(t, arity)
    _set_bits(t, bits)
    return t


_set_table_arity = TruthTable.arity.__set__
_set_bits = TruthTable.bits.__set__
