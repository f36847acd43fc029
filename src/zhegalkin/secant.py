"""Formal difference-operator fields and the differential of a function.

The Boolean partial derivative (`ZhegalkinPoly.partial`) is not a ring
derivation, but the operators D_1..D_n it defines still span a rank-n
module over the polynomial ring.  A `SecantElement` is one such
combination sum_i f_i*D_i; 1-forms pair with these elements through the
dual basis, where d_i(D_j) is 1 exactly when i = j.
"""

from __future__ import annotations

from .anf import ZhegalkinPoly, _check_index, _check_positive, _check_same_arity, _sum, _Value
from .forms import KForm

__all__ = ["SecantElement", "differential", "pair"]


class SecantElement(_Value):
    """A combination sum_i f_i*D_i of the n difference operators."""

    __slots__ = __match_args__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs):
        _check_positive(arity)
        coeffs = tuple(coeffs)
        if len(coeffs) != arity:
            raise ValueError(f"expected {arity} coefficients, got {len(coeffs)}")
        for f in coeffs:
            if not isinstance(f, ZhegalkinPoly) or f.arity != arity:
                raise ValueError(f"coefficients must be polynomials of arity {arity}")
        _set_arity(self, arity)
        _set_coeffs(self, coeffs)

    @classmethod
    def basis(cls, arity: int, index: int) -> "SecantElement":
        """The unit element D_index."""
        _check_positive(arity)
        _check_index(index, arity)
        coeffs = [ZhegalkinPoly.zero(arity)] * arity
        coeffs[index - 1] = ZhegalkinPoly.one(arity)
        return cls(arity, coeffs)

    def apply(self, g: ZhegalkinPoly) -> ZhegalkinPoly:
        """Act on a polynomial: sum_i f_i * (partial of g in x_i)."""
        _check_same_arity(self, g)
        slots = enumerate(self.coeffs, start=1)
        return _sum(self.arity, (f * g.partial(i) for i, f in slots if f))

    def __add__(self, other):
        if not isinstance(other, SecantElement):
            return NotImplemented
        _check_same_arity(self, other)
        return SecantElement(
            self.arity, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __repr__(self):
        return f"<SecantElement n={self.arity}: {self}>"

    def __str__(self):
        parts = [f"({f})*D{i}" for i, f in enumerate(self.coeffs, start=1) if f]
        return " + ".join(parts) if parts else "0"


_set_arity = SecantElement.arity.__set__
_set_coeffs = SecantElement.coeffs.__set__


def differential(f: ZhegalkinPoly) -> KForm:
    """The 1-form whose coefficient at {i} is the partial of f in x_i."""
    return KForm.from_poly(f).d()


def pair(omega: KForm, phi: SecantElement) -> ZhegalkinPoly:
    """Dual pairing of a 1-form against an operator field.

    With omega = sum_i g_i*d{i} and phi = sum_i f_i*D_i this is
    sum_i g_i*f_i, so differential(f) paired with phi equals phi.apply(f).
    """
    if omega.degree != 1:
        raise ValueError(f"pairing requires a 1-form, got degree {omega.degree}")
    _check_same_arity(omega, phi)
    slots = ((omega.coeffs.get(1 << (i - 1)), f) for i, f in enumerate(phi.coeffs, start=1))
    return _sum(omega.arity, (g * f for g, f in slots if g is not None and f))
