"""Horner-form decompositions (one of the paper's baselines).

Two flavours, matching how the literature uses "Horner form" for
multivariate datapaths:

* :func:`horner_univariate` — nest with respect to a single main variable;
  the polynomial coefficients of each power are implemented directly.
  This is the conservative scheme the paper's Table 14.1 "Horner form"
  column corresponds to (15 MULT / 4 ADD on the motivating system with
  main variable ``x``).
* :func:`horner_greedy` — fully recursive multivariate Horner: repeatedly
  pull out the most frequent variable and recurse into both the quotient
  and the coefficients.  Usually strictly better than the univariate
  scheme, still far from the paper's integrated method.
"""

from __future__ import annotations

from typing import Sequence

from repro.expr import Decomposition, Expr, make_add, make_mul, make_pow
from repro.expr.ast import Var, expr_from_polynomial
from repro.poly import Polynomial


def horner_univariate(poly: Polynomial, var: str | None = None) -> Expr:
    """Nested form in one main variable: ``c0 + x*(c1 + x*(c2 + ...))``.

    Consecutive missing powers are bridged with ``x^k`` factors.  The
    coefficient polynomials are emitted in expanded form.  When ``var`` is
    omitted the first used variable is taken (the paper's convention of a
    fixed main variable).
    """
    if var is None:
        used = poly.used_vars()
        if not used:
            return expr_from_polynomial(poly)
        var = used[0]
    if poly.degree(var) < 1:
        return expr_from_polynomial(poly)
    coeffs = poly.as_univariate(var)
    powers = sorted(coeffs, reverse=True)
    # Build from the highest power inward.
    acc: Expr | None = None
    previous_power = 0
    for power in powers:
        coeff_expr = expr_from_polynomial(coeffs[power])
        if acc is None:
            acc = coeff_expr
        else:
            gap = previous_power - power
            acc = make_add(make_mul(make_pow(Var(var), gap), acc), coeff_expr)
        previous_power = power
    if previous_power > 0:
        acc = make_mul(make_pow(Var(var), previous_power), acc)
    assert acc is not None
    return acc


def _most_frequent_variable(poly: Polynomial) -> str | None:
    """Variable occurring in the most terms (ties: earliest declared)."""
    best_var: str | None = None
    best_count = 0
    for index, var in enumerate(poly.vars):
        count = sum(1 for exps in poly.terms if exps[index])
        if count > best_count:
            best_count = count
            best_var = var
    return best_var if best_count >= 1 else None


def horner_greedy(poly: Polynomial) -> Expr:
    """Fully recursive multivariate Horner decomposition."""
    if poly.is_constant or len(poly) == 1:
        return expr_from_polynomial(poly)
    var = _most_frequent_variable(poly)
    if var is None:
        return expr_from_polynomial(poly)
    index = poly.vars.index(var)
    with_var = {e: c for e, c in poly.terms.items() if e[index]}
    without_var = {e: c for e, c in poly.terms.items() if not e[index]}
    if not with_var or len(with_var) == len(poly) == 1:
        return expr_from_polynomial(poly)
    shift = min(e[index] for e in with_var)
    quotient = Polynomial._raw(
        poly.vars,
        {e[:index] + (e[index] - shift,) + e[index + 1:]: c for e, c in with_var.items()},
    )
    rest = Polynomial._raw(poly.vars, without_var)
    quotient_expr = (
        horner_greedy(quotient) if len(quotient) > 1 else expr_from_polynomial(quotient)
    )
    nested = make_mul(make_pow(Var(var), shift), quotient_expr)
    if rest.is_zero:
        return nested
    return make_add(nested, horner_greedy(rest))


def horner_decomposition(
    system: Sequence[Polynomial], mode: str = "greedy", var: str | None = None
) -> Decomposition:
    """Horner-form decomposition of a whole system (no shared blocks).

    ``mode`` is ``"greedy"`` (recursive multivariate) or ``"univariate"``
    (single main variable, the paper's baseline flavour).
    """
    decomposition = Decomposition(method=f"horner-{mode}")
    for poly in system:
        if mode == "greedy":
            decomposition.outputs.append(horner_greedy(poly))
        elif mode == "univariate":
            decomposition.outputs.append(horner_univariate(poly, var))
        else:
            raise ValueError(f"unknown Horner mode {mode!r}")
    decomposition.validate(list(system))
    return decomposition
