"""A polynomial holds either a term set or a packed coefficient vector, and
no result may tell which: every operation gives the same value from a
polynomial built by `ZhegalkinPoly(n, terms)` as from one built by
`from_coeff_bits(n, bits)` with the same terms, and the same from forms
and operator fields whose coefficients come from either store."""

import copy
import pickle

from hypothesis import given, settings, strategies as st

from zhegalkin import (KForm, SecantElement, ZhegalkinPoly, integrate_boundary, integrate_face,
                       integrate_top, pair)

from helpers import bit_positions, masks_of_size


@st.composite
def vectors(draw):
    """An arity n in 1..8 and 2n + 2 packed coefficient vectors of that
    arity, each a few terms or a dense random vector."""
    n = draw(st.integers(1, 8))
    sparse = st.lists(st.integers(0, (1 << n) - 1), max_size=6).map(
        lambda terms: sum({1 << m for m in terms}))
    vector = st.one_of(sparse, st.integers(0, (1 << (1 << n)) - 1))
    return n, draw(st.lists(vector, min_size=2 * n + 2, max_size=2 * n + 2))


def _indices(p):
    return range(1, p.arity + 1)


# each operation of a polynomial p (and q), as plain values
POLY_OPS = {
    "add": lambda p, q: p + q,
    "mul": lambda p, q: p * q,
    "partial": lambda p, q: [p.partial(i) for i in _indices(p)],
    "restrict": lambda p, q: [p.restrict(i, value) for i in _indices(p) for value in (0, 1)],
    "evaluate": lambda p, q: [p.evaluate(v) for v in range(1 << p.arity)],
    "len": lambda p, q: len(p),
    "str": lambda p, q: str(p),
    "repr": lambda p, q: repr(p),
    "hash": lambda p, q: hash(p),
    "eq": lambda p, q: (p == q, p == ZhegalkinPoly(p.arity, p.terms), p != q),
    "pickle": lambda p, q: pickle.loads(pickle.dumps(p)),
    "copy": lambda p, q: copy.copy(p),
    "coeff_bits": lambda p, q: p.coeff_bits(),
    "to_truth_table": lambda p, q: p.to_truth_table(),
}


def _form(ps):
    # a k-form whose degree varies with the draw
    n = ps[0].arity
    k = len(ps[0]) % (n + 1)
    return KForm(n, k, dict(zip(masks_of_size(n, k), ps[1:])))


def _slots(ps):
    # an (n-1)-form with a coefficient on every slot
    n = ps[0].arity
    return KForm(n, n - 1, {((1 << n) - 1) ^ (1 << i): p for i, p in enumerate(ps[:n])})


def _top(ps):
    n = ps[0].arity
    return KForm(n, n, {(1 << n) - 1: ps[-1]})


def _one_form(ps):
    n = ps[0].arity
    return KForm(n, 1, {1 << i: p for i, p in enumerate(ps[n:2 * n])})


def _field(ps):
    return SecantElement(ps[0].arity, ps[:ps[0].arity])


# each form and field operation, on forms and fields built from the polynomials
FORM_OPS = {
    "d": lambda ps: (_form(ps).d(), _slots(ps).d(), _one_form(ps).d()),
    "wedge": lambda ps: _form(ps).wedge(_one_form(ps)),
    "integrate_top": lambda ps: (integrate_top(_top(ps)), integrate_top(_slots(ps).d())),
    "integrate_face": lambda ps: [integrate_face(_slots(ps), (axis, level))
                                  for axis in _indices(ps[0]) for level in (0, 1)],
    "integrate_boundary": lambda ps: integrate_boundary(_slots(ps)),
    "apply": lambda ps: _field(ps).apply(ps[-1]),
    "pair": lambda ps: pair(_one_form(ps), _field(ps)),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(vectors())
def test_results_do_not_depend_on_the_store(drawn):
    # every operation runs on freshly built polynomials, so no input has had
    # its term set derived by an earlier one; the mixed assignments give a
    # binary operation one operand of each store and a form both stores
    n, bits = drawn
    assignments = [[False] * len(bits), [True] * len(bits),
                   [i % 2 == 0 for i in range(len(bits))], [i % 2 == 1 for i in range(len(bits))]]

    def fresh(stores):
        return [ZhegalkinPoly.from_coeff_bits(n, b) if vector
                else ZhegalkinPoly(n, bit_positions(b, 1 << n))
                for b, vector in zip(bits, stores)]

    results = [
        ({name: op(*fresh(stores)[:2]) for name, op in POLY_OPS.items()},
         {name: op(fresh(stores)) for name, op in FORM_OPS.items()})
        for stores in assignments
    ]
    for got in results[1:]:
        assert got == results[0]
