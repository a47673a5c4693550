"""MULT/ADD operator counting for factored expressions.

This is the cost estimate Algorithm 7 uses to rank candidate
decompositions ("we estimate the cost using the number of adders and
multipliers required to implement the polynomial").  The counting rules
reproduce the paper's arithmetic in Table 14.1 / Table 14.2:

* an N-ary sum costs ``N - 1`` additions (subtraction is an adder too);
* an N-ary product costs ``N_effective - 1`` multiplications, where a
  constant factor of ``+-1`` is free (sign inversion is not a multiplier)
  and any other constant factor occupies one multiplier input;
* ``b^k`` costs ``k - 1`` multiplications (the naive chain — the paper
  counts ``x^2`` as one multiplier, ``x^3`` as two);
* a :class:`~repro.expr.ast.BlockRef` costs nothing at the point of use —
  the referenced block is implemented once and its cost is accounted for
  by :class:`~repro.expr.decomposition.Decomposition`.

:func:`expr_op_count` counts a built tree (decompositions are real
trees).  :func:`sop_op_count` prices a polynomial's direct sum-of-products
form straight from its terms, without building that tree: it is what
the synthesis flow uses to rank representations, and it always equals
``expr_op_count(expr_from_polynomial(poly))``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.poly import Polynomial

from .ast import Add, BlockRef, Const, Expr, Mul, Pow, Var

#: The in-flow price list Algorithm 7 ranks with, sized for 16-bit
#: datapaths: an array multiplier is about twenty ripple adders, a CSD
#: constant multiplier about two.  Exact area comes from
#: :mod:`repro.cost`; these weights are the fast surrogate.
MUL_WEIGHT = 20   # variable x variable multiply (array multiplier)
CMUL_WEIGHT = 2   # multiply by a compile-time constant (CSD shift-add)
ADD_WEIGHT = 1


@dataclass(frozen=True)
class OpCount:
    """A multiplier/adder tally, the paper's cost unit.

    ``mul`` is the paper's MULT count, which includes multiplications by
    numeric coefficients; ``const_mul`` records how many of those ``mul``
    are by compile-time constants (implementable as cheap shift-add
    networks) so the weighted objective can price them realistically.
    """

    mul: int = 0
    add: int = 0
    const_mul: int = 0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            self.mul + other.mul,
            self.add + other.add,
            self.const_mul + other.const_mul,
        )

    @property
    def variable_mul(self) -> int:
        """Multiplications with two non-constant operands."""
        return self.mul - self.const_mul

    def total(self) -> int:
        """Plain operator total (used only for quick comparisons)."""
        return self.mul + self.add

    def weighted(self) -> int:
        """Weighted cost approximating relative hardware area (the
        :data:`MUL_WEIGHT`/:data:`CMUL_WEIGHT`/:data:`ADD_WEIGHT` list)."""
        return (
            self.variable_mul * MUL_WEIGHT
            + self.const_mul * CMUL_WEIGHT
            + self.add * ADD_WEIGHT
        )

    def __str__(self) -> str:
        return f"{self.mul} MULT, {self.add} ADD"


ZERO_COUNT = OpCount(0, 0, 0)


def expr_op_count(expr: Expr) -> OpCount:
    """Count the multipliers and adders needed by one expression tree."""
    if isinstance(expr, (Const, Var, BlockRef)):
        return ZERO_COUNT
    if isinstance(expr, Add):
        count = OpCount(0, len(expr.operands) - 1)
        for op in expr.operands:
            count = count + expr_op_count(op)
        return count
    if isinstance(expr, Mul):
        effective = 0
        has_const = False
        count = ZERO_COUNT
        for op in expr.operands:
            if isinstance(op, Const):
                if op.value in (1, -1):
                    continue
                has_const = True
            effective += 1
            count = count + expr_op_count(op)
        mults = max(effective - 1, 0)
        return count + OpCount(mults, 0, 1 if (has_const and mults) else 0)
    if isinstance(expr, Pow):
        return expr_op_count(expr.base) + OpCount(expr.exponent - 1, 0)
    raise TypeError(f"unknown expression node {expr!r}")


def sop_op_count(poly: Polynomial) -> OpCount:
    """Operator count of a polynomial's direct sum-of-products form.

    Closed form of ``expr_op_count(expr_from_polynomial(poly))``: a
    non-constant term ``c * x1^e1 * ... * xk^ek`` costs
    ``(k - 1) + sum(ei - 1)`` multiplications, i.e. its total degree
    minus one, plus one constant multiplication when ``c`` is not
    ``+-1``; a constant term costs nothing.  The sum over the products
    and the constant term (if any) costs one adder fewer than it has
    operands.
    """
    mul = const_mul = products = constant = 0
    for exps, coeff in poly.terms.items():
        degree = sum(exps)
        if not degree:
            constant = 1
            continue
        products += 1
        mul += degree - 1
        if coeff != 1 and coeff != -1:
            mul += 1
            const_mul += 1
    return OpCount(mul, max(products + constant - 1, 0), const_mul)
