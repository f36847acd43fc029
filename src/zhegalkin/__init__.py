"""Boolean functions as Zhegalkin (ANF) polynomials, with a differential
and integral calculus over the Hamming cube."""

from .anf import (
    MAX_DENSE_ARITY,
    TruthTable,
    ZhegalkinPoly,
    indices_from_mask,
    mask_from_indices,
    mobius_transform,
    vertex_mask,
)
from .bench import TransformBenchReport, run_transform_benchmark
from .exprs import And, Const, Expr, Not, Or, ParseError, Var, Xor, expr_to_anf, parse_expr
from .forms import KForm
from .integration import (
    Face,
    StokesReport,
    SweepSummary,
    integrate_boundary,
    integrate_face,
    integrate_top,
    stokes_check,
    stokes_sweep,
)
from .secant import SecantElement, differential, pair
from .textio import parse_anf, parse_form, parse_secant, parse_table

__version__ = "0.1.0"

__all__ = [
    "And",
    "Const",
    "Expr",
    "Face",
    "KForm",
    "MAX_DENSE_ARITY",
    "Not",
    "Or",
    "ParseError",
    "SecantElement",
    "StokesReport",
    "SweepSummary",
    "TransformBenchReport",
    "TruthTable",
    "Var",
    "Xor",
    "ZhegalkinPoly",
    "differential",
    "expr_to_anf",
    "indices_from_mask",
    "integrate_boundary",
    "integrate_face",
    "integrate_top",
    "mask_from_indices",
    "mobius_transform",
    "pair",
    "parse_anf",
    "parse_expr",
    "parse_form",
    "parse_secant",
    "parse_table",
    "run_transform_benchmark",
    "stokes_check",
    "stokes_sweep",
    "vertex_mask",
]
