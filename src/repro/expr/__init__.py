"""Decomposition expressions: factored forms of polynomials.

A :class:`~repro.poly.polynomial.Polynomial` is a *flat* sum of products.
Every optimization in this repository (Horner forms, kernel CSE, the
paper's CCE / cube extraction / algebraic division) produces a *factored
form* instead — nested sums, products, powers, and references to shared
building blocks.  This subpackage defines that form:

* :mod:`repro.expr.ast` — the immutable expression nodes and smart
  constructors,
* :mod:`repro.expr.cost` — MULT/ADD operator counting, the paper's cost
  estimate (Algorithm 7, line 7), for built trees and, in closed form,
  for a polynomial's direct sum-of-products form,
* :mod:`repro.expr.decomposition` — a system-level decomposition: named
  building blocks plus one expression per output polynomial, with
  validation that expansion reproduces the original system.
"""

from .ast import (
    Add,
    BlockRef,
    Const,
    Expr,
    Mul,
    Pow,
    Var,
    evaluate_expr,
    expr_from_polynomial,
    expr_to_polynomial,
    make_add,
    make_mul,
    make_pow,
)
from .balance import expr_depth, tree_height_reduction_gain
from .cost import OpCount, expr_op_count, sop_op_count
from .decomposition import Decomposition

__all__ = [
    "Add",
    "BlockRef",
    "Const",
    "Decomposition",
    "Expr",
    "Mul",
    "OpCount",
    "Pow",
    "Var",
    "evaluate_expr",
    "expr_depth",
    "expr_from_polynomial",
    "expr_op_count",
    "tree_height_reduction_gain",
    "expr_to_polynomial",
    "make_add",
    "make_mul",
    "make_pow",
    "sop_op_count",
]
