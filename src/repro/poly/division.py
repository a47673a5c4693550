"""Polynomial division algorithms over the integers.

Three flavours are provided, each serving a different consumer:

* :func:`divmod_poly` — the multivariate division algorithm with respect to
  a term order.  Over ``Z`` a term is moved to the quotient only when both
  the leading monomial *and* the leading coefficient divide; the invariant
  ``a == q*b + r`` always holds exactly.  This is the engine behind the
  paper's *algebraic division* step (Section 14.4.3).
* :func:`exact_divide` — division that must leave no remainder (returns
  ``None`` otherwise); used by factor verification and GCD cofactors.
* :func:`pseudo_divmod` — univariate pseudo-division with polynomial
  coefficients (``lc(b)^k * a == q*b + r``), the primitive used by the
  subresultant PRS multivariate GCD in :mod:`repro.poly.gcd`.
"""

from __future__ import annotations

import heapq
from typing import Tuple

from .monomial import mono_div, mono_divides, mono_mul
from .orderings import OrderKey, grevlex_key, order_key
from .packed import PackedContext, packed_form
from .polynomial import Polynomial


def divmod_poly(
    dividend: Polynomial,
    divisor: Polynomial,
    order: str | OrderKey = "grevlex",
) -> Tuple[Polynomial, Polynomial]:
    """Divide ``dividend`` by ``divisor`` under a term order.

    Returns ``(quotient, remainder)`` with the exact integer identity
    ``dividend == quotient * divisor + remainder``, and no term of the
    remainder divisible (monomial- and coefficient-wise) by the leading
    term of the divisor.
    """
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if order == "grevlex" or order is grevlex_key:
        return _divmod_grevlex(dividend, divisor)
    key = order_key(order) if isinstance(order, str) else order
    dividend, divisor = Polynomial.unify(dividend, divisor)
    return _divmod_generic(dividend, divisor, key)


def _divmod_generic(
    dividend: Polynomial, divisor: Polynomial, key
) -> Tuple[Polynomial, Polynomial]:
    """Reference division loop on exponent tuples (any term order).

    Builds the quotient and remainder dicts in strictly order-descending
    insertion sequence; the packed grevlex loop reproduces that sequence
    exactly.
    """
    lead_exps, lead_coeff = divisor.leading_term(key)
    divisor_terms = divisor.terms

    # Work on plain dicts: constructing a Polynomial per reduction step is
    # the dominant cost of the synthesis flow's division phase.
    work = dict(dividend.terms)
    quotient: dict = {}
    remainder: dict = {}

    while work:
        w_exps = max(work, key=key)
        w_coeff = work[w_exps]
        if mono_divides(lead_exps, w_exps) and w_coeff % lead_coeff == 0:
            q_exps = mono_div(w_exps, lead_exps)
            q_coeff = w_coeff // lead_coeff
            quotient[q_exps] = quotient.get(q_exps, 0) + q_coeff
            for d_exps, d_coeff in divisor_terms.items():
                target = mono_mul(q_exps, d_exps)
                value = work.get(target, 0) - q_coeff * d_coeff
                if value:
                    work[target] = value
                else:
                    work.pop(target, None)
        else:
            remainder[w_exps] = w_coeff
            del work[w_exps]
    return (
        Polynomial._raw(dividend.vars, {e: c for e, c in quotient.items() if c}),
        Polynomial._raw(dividend.vars, remainder),
    )


def _packed_divmod_core(
    work: dict[int, int],
    lead: int,
    lead_coeff: int,
    rest: list[tuple[int, int]],
    ctx: PackedContext,
) -> Tuple[dict[int, int], dict[int, int]]:
    """Grevlex division on packed-integer monomials with a lazy max-heap.

    Mathematically identical to :func:`_divmod_generic`, but every
    monomial is one integer (see :mod:`repro.poly.packed`): the next
    leading term comes off a heap instead of a full ``max()`` scan, the
    divisibility test is two int ops, and the inner cancellation loop is
    integer addition instead of tuple zipping.  ``work`` is consumed.
    Returns packed ``(quotient, remainder)`` dicts whose insertion order
    is the reduction order — the same sequence the generic loop produces.
    """
    heap = list(work)
    heapq.heapify(heap)
    # ctx.divides(lead, w), inlined: this test runs once per popped term.
    guards = ctx.guards
    lowmask = ctx.lowmask
    lead_low = lead & lowmask
    capshift = ctx.capshift
    quotient: dict[int, int] = {}
    remainder: dict[int, int] = {}

    while work:
        w = heap[0]
        if w not in work:
            heapq.heappop(heap)
            continue
        w_coeff = work.pop(w)
        heapq.heappop(heap)
        if (((w & lowmask) | guards) - lead_low) & guards == guards and (
            w_coeff % lead_coeff == 0
        ):
            q = w - lead + capshift
            q_coeff = w_coeff // lead_coeff
            quotient[q] = quotient.get(q, 0) + q_coeff
            for d, d_coeff in rest:
                target = q + d - capshift
                old = work.get(target)
                if old is None:
                    work[target] = -q_coeff * d_coeff
                    heapq.heappush(heap, target)
                else:
                    value = old - q_coeff * d_coeff
                    if value:
                        work[target] = value
                    else:
                        del work[target]
        else:
            remainder[w] = w_coeff
    return quotient, remainder


def _packed_lead_rest(
    divisor: Polynomial, ctx: PackedContext
) -> tuple[int, int, list[tuple[int, int]]]:
    """(packed leading monomial, leading coeff, non-leading packed terms).

    The leading term cancels exactly by construction in every reduction
    step; only the rest of the divisor needs the explicit subtraction
    loop.  Both the packed form and this split of it are memoized on the
    divisor instance.
    """
    return packed_form(divisor, ctx).lead_rest()


def _divmod_grevlex(
    dividend: Polynomial, divisor: Polynomial
) -> Tuple[Polynomial, Polynomial]:
    """Grevlex division on packed monomials."""
    dividend, divisor = Polynomial.unify(dividend, divisor)
    if not dividend.terms:
        zero = Polynomial.zero(dividend.vars)
        return zero, zero
    # Division only shrinks monomials, so the operands' degree bound
    # covers every intermediate target.
    ctx = PackedContext.for_degrees(
        len(dividend.vars), max(dividend.total_degree(), divisor.total_degree())
    )
    lead, lead_coeff, rest = _packed_lead_rest(divisor, ctx)
    pmap = packed_form(dividend, ctx).term_map()
    # Zero-quotient early-out: the first reduction step always fires on an
    # *original* term (reduction-created terms only exist after one), so if
    # no input term is divisible by the divisor's leading term the whole
    # dividend is remainder.  The candidate-division phases probe many
    # divisors that fail exactly this way.
    divides = ctx.divides
    for p, c in pmap.items():
        if c % lead_coeff == 0 and divides(lead, p):
            break
    else:
        # The generic loop emits remainder terms grevlex-descending
        # (ascending packed value); match it so term order stays
        # byte-identical with the reference.
        unpack = ctx.unpack
        return Polynomial.zero(dividend.vars), Polynomial._raw(
            dividend.vars, {unpack(p): pmap[p] for p in sorted(pmap)}
        )
    quotient, remainder = _packed_divmod_core(
        dict(pmap), lead, lead_coeff, rest, ctx
    )
    unpack = ctx.unpack
    return (
        Polynomial._raw(
            dividend.vars, {unpack(p): c for p, c in quotient.items() if c}
        ),
        Polynomial._raw(dividend.vars, {unpack(p): c for p, c in remainder.items()}),
    )


def exact_divide(dividend: Polynomial, divisor: Polynomial) -> Polynomial | None:
    """Return ``dividend / divisor`` when exact, else ``None``.

    Uses grevlex order, under which exact divisibility over ``Z`` is
    decided correctly by the division algorithm (any admissible order
    works for exactness; the quotient is unique either way).
    """
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if dividend.is_zero:
        return Polynomial.zero(dividend.vars)
    # Cheap rejections before running the full division.
    if divisor.total_degree() > dividend.total_degree():
        return None
    quotient, remainder = divmod_poly(dividend, divisor, "grevlex")
    if remainder.is_zero:
        return quotient
    return None


def divides(divisor: Polynomial, dividend: Polynomial) -> bool:
    """True when ``divisor`` divides ``dividend`` exactly over ``Z``."""
    return exact_divide(dividend, divisor) is not None


def pseudo_divmod(
    dividend: Polynomial, divisor: Polynomial, var: str
) -> Tuple[Polynomial, Polynomial, int]:
    """Pseudo-division viewing both operands as univariate in ``var``.

    Returns ``(quotient, remainder, power)`` such that::

        lc(divisor)^power * dividend == quotient * divisor + remainder

    where ``lc`` is the leading coefficient polynomial in ``var`` and
    ``deg_var(remainder) < deg_var(divisor)``.  This never requires
    coefficient divisibility, which is what the subresultant PRS needs.
    """
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial pseudo-division by zero")
    dividend, divisor = Polynomial.unify(dividend, divisor)
    deg_b = divisor.degree(var)
    if deg_b <= -1:
        raise ZeroDivisionError("polynomial pseudo-division by zero")
    b_coeffs = divisor.as_univariate(var)
    lead_b = b_coeffs[deg_b]
    x = Polynomial.variable(var, dividend.vars)

    remainder = dividend
    quotient = Polynomial.zero(dividend.vars)
    power = 0
    deg_r = remainder.degree(var)
    while not remainder.is_zero and deg_r >= deg_b:
        r_coeffs = remainder.as_univariate(var)
        lead_r = r_coeffs[deg_r].with_vars(dividend.vars)
        shift = x ** (deg_r - deg_b)
        quotient = quotient * lead_b.with_vars(dividend.vars) + lead_r * shift
        remainder = (
            remainder * lead_b.with_vars(dividend.vars) - lead_r * shift * divisor
        )
        power += 1
        new_deg = remainder.degree(var)
        if new_deg >= deg_r and not remainder.is_zero:
            raise RuntimeError("pseudo-division failed to reduce degree (internal error)")
        deg_r = new_deg
    return quotient, remainder, power


def divide_out_all(
    dividend: Polynomial, divisor: Polynomial
) -> Tuple[Polynomial, int]:
    """Divide by ``divisor`` as many times as exactly possible.

    Returns ``(reduced, multiplicity)`` with
    ``dividend == reduced * divisor^multiplicity`` and ``divisor`` not
    dividing ``reduced``.  Used to discover powers of building blocks,
    e.g. ``x^2+6xy+9y^2 == (x+3y)^2`` in the motivating example.
    """
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if divisor.is_constant and abs(divisor.constant_term) == 1:
        raise ValueError("dividing out a unit never terminates")
    if dividend.is_zero:
        return dividend, 0
    divisor_degree = divisor.total_degree()
    if divisor_degree > dividend.total_degree():
        return dividend, 0
    unified, divisor_u = Polynomial.unify(dividend, divisor)
    ctx = PackedContext.for_degrees(len(unified.vars), unified.total_degree())
    # Packed multiplicity loop: the running quotient stays packed between
    # rounds instead of being unpacked and re-packed per round.
    lead, lead_coeff, rest = _packed_lead_rest(divisor_u, ctx)
    divides = ctx.divides
    current_map = packed_form(unified, ctx).term_map()
    count = 0
    while current_map:
        if count and ctx.degree_of(min(current_map)) < divisor_degree:
            break
        for p, c in current_map.items():
            if c % lead_coeff == 0 and divides(lead, p):
                break
        else:
            break
        quotient, remainder = _packed_divmod_core(
            dict(current_map), lead, lead_coeff, rest, ctx
        )
        if remainder:
            break
        current_map = quotient
        count += 1
    if count == 0:
        return dividend, 0
    unpack = ctx.unpack
    reduced = Polynomial._raw(
        unified.vars, {unpack(p): c for p, c in current_map.items() if c}
    )
    return reduced, count
