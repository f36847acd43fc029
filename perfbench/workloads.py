"""The four benchmark workloads: seeded inputs, operations, and oracles.

Each workload is a closed loop with one caller.  It turns a seeded
`random.Random` into plain-data inputs (`make_input`), runs one operation
through the library's public API (`run`), and verifies the result
(`check`).  Every library call in an operation goes through
`call(name, fn, *args)`, so the traced run can put a span around it; the
names are `<module>.<function>`.  `run` also adds exact work counts to
`counts`.

The oracles share no code with what they check: expression trees are
evaluated by `_tree_value`, polynomials by `_anf_value` on their term
sets, dense tables are built by `_mobius` from known coefficients, and
the boundary identity is recomputed from the raw coefficient bits.  A
check raises `CheckFailed`.

Each workload cycles through a fixed schedule of operation kinds, so the
mix in a run never depends on the seed.  The schedule shares are chosen
so that no set of kinds makes up exactly half of a cycle: the median
latency then falls inside one kind, not on the edge between two.
"""

from __future__ import annotations

import contextlib
import io
import operator

from zhegalkin import (
    KForm,
    TruthTable,
    ZhegalkinPoly,
    differential,
    expr_to_anf,
    integrate_boundary,
    integrate_face,
    integrate_top,
    mobius_transform,
    pair,
    parse_anf,
    parse_expr,
    parse_form,
    parse_secant,
    parse_table,
    stokes_check,
    stokes_sweep,
)
from zhegalkin import cli


class CheckFailed(Exception):
    """An operation's output disagreed with its oracle."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- oracles


def _anf_value(terms, vertex):
    """Value of the polynomial with these monomial masks at a vertex mask."""
    value = 0
    for m in terms:
        if m & vertex == m:
            value ^= 1
    return value


def _tree_value(tree, vertex):
    """Value of a generated expression tree at a vertex mask."""
    op = tree[0]
    if op == "var":
        return (vertex >> (tree[1] - 1)) & 1
    if op == "not":
        return 1 ^ _tree_value(tree[1], vertex)
    a = _tree_value(tree[1], vertex)
    b = _tree_value(tree[2], vertex)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    return a ^ b


def _tree_partial(tree, index, vertex):
    bit = 1 << (index - 1)
    return _tree_value(tree, vertex & ~bit) ^ _tree_value(tree, vertex | bit)


def _coeff_value(poly, vertex):
    return 0 if poly is None else _anf_value(poly.terms, vertex)


# ------------------------------------------------------ input generators

_SPELLING = {
    "and": ("&", " and "),
    "or": ("|", " or "),
    "xor": ("^", " xor "),
}


def _random_literal(rng, n):
    var = ("var", rng.randint(1, n))
    return ("not", var) if rng.random() < 0.3 else var


def _random_expr(rng, n, blocks, clauses):
    """XOR of `blocks` ANDs of `clauses` two-literal ORs/XORs.

    Each AND of c clauses expands to at most 3^c terms, which keeps the
    polynomials at tens to hundreds of terms at any arity.
    """
    expr = None
    for _ in range(blocks):
        block = None
        for _ in range(clauses):
            op = "or" if rng.random() < 0.7 else "xor"
            clause = (op, _random_literal(rng, n), _random_literal(rng, n))
            block = clause if block is None else ("and", block, clause)
        expr = block if expr is None else ("xor", expr, block)
    return expr


def _render(tree, rng):
    op = tree[0]
    if op == "var":
        return f"x{tree[1]}"
    if op == "not":
        return ("!" if rng.random() < 0.5 else "not ") + _render(tree[1], rng)
    symbol, word = _SPELLING[op]
    spelled = symbol if rng.random() < 0.8 else word
    return f"({_render(tree[1], rng)}{spelled}{_render(tree[2], rng)})"


def _random_terms(rng, n, count, max_vars):
    terms = set()
    while len(terms) < count:
        mask = 0
        for _ in range(rng.randint(1, max_vars)):
            mask |= 1 << (rng.randint(1, n) - 1)
        terms.add(mask)
    return frozenset(terms)


def _anf_text(terms):
    """Canonical ANF text, written here rather than by the library."""
    if not terms:
        return "0"
    parts = []
    for m in sorted(terms, key=lambda m: (m.bit_count(), m)):
        names = [f"x{i + 1}" for i in range(m.bit_length()) if m >> i & 1]
        parts.append("*".join(names) if names else "1")
    return " + ".join(parts)


def _index_text(mask):
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _form_text(spec):
    return " + ".join(f"({_anf_text(t)})*d{{{_index_text(k)}}}" for k, t in sorted(spec.items()))


def _random_bitset(rng, size):
    """A bit set over `size` positions with a uniformly random member
    count in 0..size.  A spread of densities spreads the op costs, so the
    median latency moves smoothly with the machine's speed instead of
    jumping between its fast and slow states."""
    count = rng.randint(0, size)
    buf = bytearray((size + 7) // 8)
    for p in rng.sample(range(size), count):
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _positions(bits):
    """The set of bit positions that are 1."""
    return {i for i, c in enumerate(reversed(bin(bits)[2:])) if c == "1"}


def _mobius(bits, n):
    """Binary Mobius transform of a packed 2^n-entry table, written here
    rather than taken from the library.  The mask for variable i repeats
    2^i ones then 2^i zeros; multiplying by sum_k 2^(k*period) tiles it."""
    size = 1 << n
    for i in range(n):
        run = 1 << i
        period = 2 * run
        tile = ((1 << size) - 1) // ((1 << period) - 1)
        bits ^= (bits & ((1 << run) - 1) * tile) << run
    return bits


def _random_one_form(rng, n, slots):
    """A 1-form spec {index mask: term set} with small nonzero coefficients."""
    indices = rng.sample(range(1, n + 1), slots)
    return {1 << (i - 1): _random_terms(rng, n, rng.randint(1, 3), 2) for i in indices}


# ------------------------------------------------------------ workloads


class Workload:
    """Defaults for the optional parts of a workload.

    Each workload also defines `name`, `cycle`, `make_input`, `arity`
    (the input's variable count, for the report), `run` and `check`.
    """

    cycle = ()
    # statements run after `import zhegalkin` in the set-up timing: the
    # library's own first-call warm-up for this workload
    setup_code = ""
    # (name, interpreter arguments) of child processes the traced run
    # times after each traced cycle
    child_probes = ()

    def self_check(self, seed):
        """Checks run once per benchmark run, before timing."""


class DenseTables(Workload):
    """Truth-table round trips at n = 12, 14, 16 and dense n=10 products."""

    name = "dense_tables"
    # Four n=12, three n=14, two n=16 round trips and three products per
    # cycle: one op in four is a product.  n=20 is left out because one
    # seed op there takes about a minute; the boundary cost shows at 16.
    cycle = (12, 14, "product", 16, 12, 14, "product", 12, 16, 14, "product", 12)
    product_arity = 10
    spot_checks = 4
    setup_code = "for n in (10, 12, 14, 16): zhegalkin.mobius_transform(0, n)"

    def make_input(self, rng, kind):
        # Uniform coefficients give a uniform random table, with half of
        # the 2^n monomials present.  The spread of op costs stays narrow
        # here: with a few hundred ops per run, a wide spread would make
        # the median move with the sample.
        if kind == "product":
            width = 1 << self.product_arity
            return ("product", rng.getrandbits(width), rng.getrandbits(width))
        coeffs = rng.getrandbits(1 << kind)
        verts = tuple(rng.getrandbits(kind) for _ in range(self.spot_checks))
        return ("table", kind, _mobius(coeffs, kind), coeffs, verts)

    def arity(self, inp):
        return self.product_arity if inp[0] == "product" else inp[1]

    def run(self, inp, call, counts):
        if inp[0] == "product":
            _, fbits, gbits = inp
            n = self.product_arity
            f = call("anf.from_coeff_bits", ZhegalkinPoly.from_coeff_bits, n, fbits)
            g = call("anf.from_coeff_bits", ZhegalkinPoly.from_coeff_bits, n, gbits)
            h = call("anf.mul", operator.mul, f, g)
            s = call("anf.add", operator.add, f, g)
            counts["anf.mul.term_pairs"] += len(f.terms) * len(g.terms)
            counts["anf.terms_out"] += len(h.terms) + len(s.terms)
            return f, g, h, s
        _, n, bits, _, _ = inp
        # the butterfly alone on the same table, for anf.boundary
        spectrum = call("anf.mobius_transform", mobius_transform, bits, n)
        table = call("anf.TruthTable", TruthTable, n, bits)
        poly = call("anf.from_truth_table", ZhegalkinPoly.from_truth_table, table)
        back = call("anf.to_truth_table", poly.to_truth_table)
        return spectrum, poly, back

    def check(self, inp, out, probe):
        if inp[0] == "product":
            f, g, h, s = out
            expect(f.terms == _positions(inp[1]) and g.terms == _positions(inp[2]), "coefficients")
            tf = f.to_truth_table().bits
            tg = g.to_truth_table().bits
            expect(h.to_truth_table().bits == tf & tg, "table(f*g) != table(f) & table(g)")
            expect(s.to_truth_table().bits == tf ^ tg, "table(f+g) != table(f) ^ table(g)")
            return
        _, n, bits, coeffs, verts = inp
        spectrum, poly, back = out
        expect(back.arity == n and back.bits == bits, "round trip changed the table")
        expect(spectrum == coeffs, "mobius_transform gave the wrong coefficients")
        expect(poly.terms == _positions(coeffs), "from_truth_table gave the wrong terms")
        for v in verts:
            expect(poly.evaluate(v) == (bits >> v) & 1, f"evaluate at vertex {v}")


class StokesSweep(Workload):
    """`stokes_check` on random (n-1)-forms at n = 3, 4, 5, 6."""

    name = "stokes_sweep"
    # shares 2:3:2:1 put the median inside the n=4 forms
    cycle = (3, 4, 5, 4, 3, 6, 4, 5)

    def __init__(self):
        # per arity: for each axis k, the monomials that omit x_k, as a
        # bit set over monomial masks; the oracle needs nothing else
        self._omit = {}
        for n in set(self.cycle):
            masks = {}
            for k in range(1, n + 1):
                bit = 1 << (k - 1)
                masks[k] = sum(1 << m for m in range(1 << n) if not m & bit)
            self._omit[n] = masks

    def make_input(self, rng, n):
        full = (1 << n) - 1
        slots = tuple((full ^ (1 << (k - 1)), _random_bitset(rng, 1 << n)) for k in range(1, n + 1))
        return n, slots

    def arity(self, inp):
        return inp[0]

    def run(self, inp, call, counts):
        n, slots = inp
        coeffs = {}
        for slot, bits in slots:
            if bits:
                coeffs[slot] = call("anf.from_coeff_bits", ZhegalkinPoly.from_coeff_bits, n, bits)
        w = call("forms.KForm", KForm, n, n - 1, coeffs)
        dw = call("forms.d", w.d)
        lhs = call("integration.integrate_top", integrate_top, dw)
        rhs = call("integration.integrate_boundary", integrate_boundary, w)
        report = call("integration.stokes_check", stokes_check, w)
        counts["integration.forms_checked"] += 1
        return lhs, rhs, report

    def expected(self, inp):
        """Both sides from the raw bits: for the slot missing axis k with
        coefficient g_k, each side is the XOR over k of g_k at the
        all-ones vertex and at the all-ones vertex with x_k cleared."""
        n, slots = inp
        full = (1 << n) - 1
        total = 0
        for slot, bits in slots:
            k = (slot ^ full).bit_length()
            total ^= (bits.bit_count() ^ (bits & self._omit[n][k]).bit_count()) & 1
        return total

    def check(self, inp, out, probe):
        lhs, rhs, report = out
        want = self.expected(inp)
        expect(lhs == want and rhs == want, f"integrals {lhs}, {rhs}; oracle {want}")
        expect(report.lhs == want and report.rhs == want and report.passed, f"stokes_check: {report}")

    def self_check(self, seed):
        """The sweep's own forms-checked count, on a few forms per arity."""
        for n in sorted(set(self.cycle)):
            summary = stokes_sweep(n, count=8, seed=seed)
            expect(summary.checked == 8 and summary.failed == 0, f"stokes_sweep n={n}: {summary}")


class SparseSymbolic(Workload):
    """Symbolic pipeline on bounded random expressions at arity 20 and 40."""

    name = "sparse_symbolic"
    # one op in four at arity 40, which is past the dense-table limit
    cycle = (20, 20, 40, 20)
    vertices = 4

    def make_input(self, rng, n):
        f_tree = _random_expr(rng, n, rng.randint(2, 3), rng.randint(3, 4))
        g_tree = _random_expr(rng, n, 2, rng.randint(3, 4))
        w_spec = _random_one_form(rng, n, 3)
        phi_spec = {i: _random_terms(rng, n, rng.randint(1, 2), 2) for i in rng.sample(range(1, n + 1), 3)}
        phi_text = " + ".join(f"({_anf_text(t)})*D{i}" for i, t in sorted(phi_spec.items()))
        return {
            "n": n,
            "f_tree": f_tree,
            "f_text": _render(f_tree, rng),
            "g_tree": g_tree,
            "g_text": _render(g_tree, rng),
            "w_spec": w_spec,
            "w_text": _form_text(w_spec),
            "phi_spec": phi_spec,
            "phi_text": phi_text,
            "i": rng.randint(1, n),
            "j": rng.randint(1, n),
            "b": rng.randint(0, 1),
            "verts": tuple(rng.getrandbits(n) for _ in range(self.vertices)),
        }

    def arity(self, inp):
        return inp["n"]

    def run(self, inp, call, counts):
        n = inp["n"]
        f = call("exprs.expr_to_anf", expr_to_anf, call("exprs.parse_expr", parse_expr, inp["f_text"]), n)
        g = call("exprs.expr_to_anf", expr_to_anf, call("exprs.parse_expr", parse_expr, inp["g_text"]), n)
        h = call("anf.mul", operator.mul, f, g)
        s = call("anf.add", operator.add, f, g)
        values = [
            (
                call("anf.evaluate", f.evaluate, v),
                call("anf.evaluate", h.evaluate, v),
                call("anf.evaluate", s.evaluate, v),
            )
            for v in inp["verts"]
        ]
        fp = call("anf.partial", f.partial, inp["i"])
        fr = call("anf.restrict", f.restrict, inp["j"], inp["b"])
        df = call("secant.differential", differential, f)
        dg = call("secant.differential", differential, g)
        dsum = call("forms.add", operator.add, df, dg)
        ddf = call("forms.d", df.d)
        w = call("textio.parse_form", parse_form, inp["w_text"], n)
        dw = call("forms.d", w.d)
        ddw = call("forms.d", dw.d)
        wedge = call("forms.wedge", df.wedge, w)
        phi = call("textio.parse_secant", parse_secant, inp["phi_text"], n)
        applied = call("secant.apply", phi.apply, f)
        paired = call("secant.pair", pair, df, phi)
        f_text = call("textio.format", str, f)
        df_text = call("textio.format", str, df)
        f_back = call("textio.parse_anf", parse_anf, f_text, n)
        df_back = call("textio.parse_form", parse_form, df_text, n, 1)

        counts["anf.mul.term_pairs"] += len(f.terms) * len(g.terms)
        counts["anf.terms_out"] += len(h.terms) + len(s.terms)
        counts["forms.wedge.coeff_pairs"] += len(df.coeffs) * len(w.coeffs)
        counts["textio.chars"] += (
            len(inp["f_text"]) + len(inp["g_text"]) + len(inp["w_text"]) + len(inp["phi_text"])
            + 2 * len(f_text) + 2 * len(df_text)
        )
        return {
            "f": f, "values": values, "fp": fp, "fr": fr, "dsum": dsum, "ddf": ddf,
            "w": w, "ddw": ddw, "wedge": wedge, "applied": applied, "paired": paired,
            "df": df, "f_back": f_back, "df_back": df_back,
        }

    def check(self, inp, out, probe):
        n = inp["n"]
        ft, gt = inp["f_tree"], inp["g_tree"]
        ibit = 1 << (inp["i"] - 1)
        jbit = 1 << (inp["j"] - 1)
        expect(not any(m & ibit for m in out["fp"].terms), "partial keeps x_i")
        for v, (fv, hv, sv) in zip(inp["verts"], out["values"]):
            a, b = _tree_value(ft, v), _tree_value(gt, v)
            expect((fv, hv, sv) == (a, a & b, a ^ b), f"f, f*g, f+g at vertex {v}")
            expect(_anf_value(out["fp"].terms, v) == _tree_partial(ft, inp["i"], v), "partial")
            pinned = v | jbit if inp["b"] else v & ~jbit
            expect(_anf_value(out["fr"].terms, v) == _tree_value(ft, pinned), "restrict")
        expect(out["ddf"].is_zero and out["ddw"].is_zero, "d(d(w)) is not zero")
        expect(
            {k: p.terms for k, p in out["w"].coeffs.items()} == inp["w_spec"], "parse_form misread the form"
        )

        v = inp["verts"][0]
        dF = {i: _tree_partial(ft, i, v) for i in range(1, n + 1)}
        dsum = out["dsum"]
        expect(dsum.degree == 1 and all(k.bit_count() == 1 for k in dsum.coeffs), "df + dg shape")
        for i in range(1, n + 1):
            got = _coeff_value(dsum.coeffs.get(1 << (i - 1)), v)
            expect(got == dF[i] ^ _tree_partial(gt, i, v), f"(df + dg) at d{{{i}}}")

        want = {}
        for i in range(1, n + 1):
            bit = 1 << (i - 1)
            for key, terms in inp["w_spec"].items():
                if not key & bit:
                    want[key | bit] = want.get(key | bit, 0) ^ (dF[i] & _anf_value(terms, v))
        wedge = out["wedge"]
        expect(wedge.degree == 2 and set(wedge.coeffs) <= set(want), "wedge index sets")
        for key, value in want.items():
            expect(_coeff_value(wedge.coeffs.get(key), v) == value, "wedge coefficient")

        applied_want = 0
        for i, terms in inp["phi_spec"].items():
            applied_want ^= _anf_value(terms, v) & dF[i]
        expect(out["applied"] == out["paired"], "pair(differential(f), phi) != phi.apply(f)")
        expect(_anf_value(out["applied"].terms, v) == applied_want, "phi.apply(f) value")
        expect(out["f_back"] == out["f"] and out["df_back"] == out["df"], "parse(str(x)) != x")


# README examples with their documented outputs: fixed goldens
_GOLDENS = (
    (("anf", "--n", "2", "x1 | x2"), "x1 + x2 + x1*x2"),
    (("anf", "2:8"), "x1*x2"),
    (("table", "--n", "2", "x1 ^ x2"), "2:6"),
    (("derive", "--n", "3", "--var", "1", "x1*x2 + x3"), "x2"),
    (("d", "--n", "2", "x1*x2"), "(x2)*d{1} + (x1)*d{2}"),
    (("wedge", "--n", "2", "(x2)*d{1}", "(x1)*d{2}"), "(x1*x2)*d{1,2}"),
    (("integrate", "--n", "2", "--top", "(1)*d{1,2}"), "1"),
    (("stokes", "--n", "2", "(x2)*d{1}"), "lhs=1 rhs=1 pass=true form=(x2)*d{1}"),
    (("stokes", "--n", "2", "--exhaustive"), "checked=256 failed=0"),
)


class CliProcess(Workload):
    """One `python -m zhegalkin ...` child process per op, one at a time."""

    name = "cli_process"
    cycle = ("anf", "anf_table", "table", "derive", "d", "wedge", "integrate", "stokes", "sweep", "golden")
    setup_code = "import zhegalkin.cli"
    child_probes = (("cli.python_startup", ("-c", "pass")), ("cli.import", ("-c", "import zhegalkin.cli")))

    def __init__(self, spawn):
        # spawn(args, check) runs the interpreter on args with the library
        # on its path and returns the completed process
        self.spawn = spawn

    def make_input(self, rng, kind):
        n = rng.randint(3, 5)
        if kind == "golden":
            argv, want = rng.choice(_GOLDENS)
            return kind, n, argv, want
        if kind == "anf":
            argv = ("anf", "--n", str(n), _render(_random_expr(rng, n, 2, 2), rng))
        elif kind == "anf_table":
            argv = ("anf", f"{n}:{rng.getrandbits(1 << n):0{(1 << n) // 4}X}")
        elif kind == "table":
            argv = ("table", "--n", str(n), _anf_text(_random_terms(rng, n, 4, 3)))
        elif kind == "derive":
            argv = ("derive", "--n", str(n), "--var", str(rng.randint(1, n)), _anf_text(_random_terms(rng, n, 5, 3)))
        elif kind == "d":
            argv = ("d", "--n", str(n), _form_text(_random_one_form(rng, n, 2)))
        elif kind == "wedge":
            argv = ("wedge", "--n", str(n), _form_text(_random_one_form(rng, n, 2)), _form_text(_random_one_form(rng, n, 2)))
        elif kind in ("integrate", "stokes"):
            full = (1 << n) - 1
            spec = {full ^ (1 << (k - 1)): _random_terms(rng, n, 2, 2) for k in rng.sample(range(1, n + 1), 2)}
            text = _form_text(spec)
            if kind == "stokes":
                argv = ("stokes", "--n", str(n), text)
            else:
                mode = rng.choice((("--boundary",), ("--face", f"{rng.randint(1, n)},{rng.randint(0, 1)}")))
                argv = ("integrate", "--n", str(n), *mode, text)
        else:
            argv = ("stokes", "--n", str(n), "--random", "20", "--seed", str(rng.getrandbits(16)))
        return kind, n, argv, None

    def arity(self, inp):
        return inp[1]

    def run(self, inp, call, counts):
        argv = inp[2]
        done = call("cli.process", self._child, argv)
        counts["textio.chars"] += sum(map(len, argv)) + len(done.stdout)
        return done

    def _child(self, argv):
        return self.spawn(["-m", "zhegalkin", *argv], check=False)

    def expected(self, inp):
        """(stdout line, exit code) from the in-process library."""
        kind, n, argv, golden = inp
        if golden is not None:
            return golden, 0
        text = argv[-1]
        if kind == "anf":
            return str(expr_to_anf(parse_expr(text), n)), 0
        if kind == "anf_table":
            return str(ZhegalkinPoly.from_truth_table(parse_table(text))), 0
        if kind == "table":
            return str(parse_anf(text, n).to_truth_table()), 0
        if kind == "derive":
            return str(parse_anf(text, n).partial(int(argv[4]))), 0
        if kind == "d":
            return str(parse_form(text, n).d()), 0
        if kind == "wedge":
            return str(parse_form(argv[3], n).wedge(parse_form(argv[4], n))), 0
        if kind == "integrate":
            form = parse_form(text, n, degree=n - 1)
            if argv[3] == "--boundary":
                return str(integrate_boundary(form)), 0
            axis, level = argv[4].split(",")
            return str(integrate_face(form, (int(axis), int(level)))), 0
        if kind == "stokes":
            report = stokes_check(parse_form(text, n, degree=n - 1))
            return str(report), 0 if report.passed else 1
        summary = stokes_sweep(n, count=int(argv[4]), seed=int(argv[6]))
        return str(summary), 0 if summary.failed == 0 else 1

    def check(self, inp, out, probe):
        want, code = self.expected(inp)
        expect(out.returncode == code, f"exit {out.returncode}, expected {code}: {out.stderr.strip()}")
        expect(out.stdout == want + "\n", f"stdout {out.stdout!r}, expected {want!r}")
        in_process = probe("cli.main", _main_captured, inp[2])
        expect(in_process == (out.returncode, out.stdout), f"cli.main gave {in_process}")

    def self_check(self, seed):
        """Every README example once as a child process."""
        for argv, want in _GOLDENS:
            done = self._child(argv)
            expect(done.returncode == 0 and done.stdout == want + "\n", f"README example {argv}: {done.stdout!r}")


def _main_captured(argv):
    """`cli.main` on argv with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def make(name, spawn):
    if name == CliProcess.name:
        return CliProcess(spawn)
    return {w.name: w for w in (DenseTables, StokesSweep, SparseSymbolic)}[name]()


NAMES = (DenseTables.name, StokesSweep.name, SparseSymbolic.name, CliProcess.name)
