"""Univariate factorization over the integers.

The deeper factorization step behind the paper's Example 14.3, where the
square-free factors ``(x^2 - 1)`` and ``(x^2 - 4)`` are still reducible.
The paper calls MATLAB's ``factor``; we implement the *big-prime
Zassenhaus* method:

1. bound the factor coefficients with the Mignotte bound,
2. choose a prime ``p`` larger than twice the bound (Python integers make
   a several-hundred-bit prime as cheap as a machine word, so no Hensel
   lifting is needed),
3. factor mod ``p`` with distinct-degree + Cantor-Zassenhaus splitting
   (:mod:`repro.factor.zp`),
4. recombine modular factors into true integer factors by subset search
   with symmetric lifting and trial division.

The input must be square-free: no prime keeps a square square-free, so
a non-square-free input raises ``ValueError`` rather than searching for
a prime forever.  The subset search ticks the ambient budget (site
``factor/recombine``).
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt

from repro.poly import Polynomial, poly_gcd

from .zp import (
    next_prime,
    zp_is_square_free,
    zp_factor_squarefree,
    zp_monic,
    zp_mul,
    zp_trim,
)


def mignotte_bound(coeffs: list[int]) -> int:
    """An integer upper bound on the coefficients of any factor.

    Uses ``|g|_inf <= 2^n * sqrt(n+1) * |f|_inf`` (a standard relaxation of
    the Mignotte bound), rounded up.
    """
    n = len(coeffs) - 1
    height = max(abs(c) for c in coeffs)
    root = isqrt(n + 1)
    if root * root < n + 1:
        root += 1
    return (1 << n) * root * height


def _symmetric(value: int, p: int) -> int:
    """Map a residue to the symmetric range ``(-p/2, p/2]``."""
    r = value % p
    if r > p // 2:
        r -= p
    return r


def _dense_primitive(coeffs: list[int]) -> list[int]:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return list(coeffs)
    if g == 0:
        return list(coeffs)
    if coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _dense_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]] | None:
    """Exact-friendly division over Z; None when a coefficient fails to divide."""
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    remainder = list(f)
    if len(remainder) < len(g):
        return None if any(remainder) else ([], remainder)
    quotient = [0] * (len(remainder) - len(g) + 1)
    for shift in range(len(remainder) - len(g), -1, -1):
        lead = remainder[shift + len(g) - 1]
        if lead % g[-1]:
            return None
        coeff = lead // g[-1]
        quotient[shift] = coeff
        if coeff:
            for i, b in enumerate(g):
                remainder[shift + i] -= coeff * b
    while remainder and remainder[-1] == 0:
        remainder.pop()
    return quotient, remainder


def _dense_exact_divide(f: list[int], g: list[int]) -> list[int] | None:
    result = _dense_divmod(f, g)
    if result is None:
        return None
    quotient, remainder = result
    return quotient if not remainder else None


def factor_squarefree_univariate(poly: Polynomial, var: str) -> list[Polynomial]:
    """Irreducible factors of a primitive square-free univariate polynomial.

    The product of the returned factors equals ``poly`` up to sign of the
    leading coefficient (inputs are expected primitive with a positive
    leading coefficient, as produced by square-free factorization).
    Raises ``ValueError`` when ``poly`` is not square-free.
    """
    coeffs = poly.to_dense(var)
    factors = _factor_squarefree_dense(coeffs)
    return [Polynomial.from_dense(f, var) for f in factors]


def _factor_squarefree_dense(coeffs: list[int]) -> list[list[int]]:
    degree = len(coeffs) - 1
    if degree <= 0:
        return [list(coeffs)] if any(coeffs) and abs(coeffs[0]) != 1 else []
    if degree == 1:
        return [list(coeffs)]

    lead = coeffs[-1]
    bound = mignotte_bound(coeffs)
    p = next_prime(2 * abs(lead) * bound + 1)
    # The prime must keep f square-free mod p.  Only finitely many fail
    # for a square-free f, but every prime fails for any other f, so
    # square-freeness over Z is checked once, at the first failure.
    checked = False
    while lead % p == 0 or not zp_is_square_free(zp_trim(coeffs, p), p):
        if not checked:
            f = Polynomial.from_dense(coeffs, "x")
            if not poly_gcd(f, f.derivative("x")).is_constant:
                raise ValueError(f"not square-free: {f}")
            checked = True
        p = next_prime(p)

    monic_mod = zp_monic(zp_trim(coeffs, p), p)
    modular = zp_factor_squarefree(monic_mod, p)
    if len(modular) == 1:
        return [list(coeffs)]

    return _recombine(coeffs, modular, p)


def _recombine(
    coeffs: list[int], modular: list[list[int]], p: int
) -> list[list[int]]:
    """Subset-search recombination of modular factors into integer factors.

    The search is exponential in the number of modular factors, so it
    ticks the ambient budget (one step per subset, amortized).
    """
    from repro.core.budget import current_deadline

    meter = current_deadline().meter("factor/recombine")
    work = list(coeffs)
    remaining = list(modular)
    found: list[list[int]] = []
    subset_size = 1
    while 2 * subset_size <= len(remaining):
        progressed = False
        for subset in combinations(range(len(remaining)), subset_size):
            meter.step()
            lead = work[-1]
            candidate = [lead]
            for index in subset:
                candidate = zp_mul(candidate, remaining[index], p)
            candidate = [_symmetric(c, p) for c in candidate]
            candidate = _dense_primitive(candidate)
            if len(candidate) <= 1:
                continue
            quotient = _dense_exact_divide(work, candidate)
            if quotient is not None:
                found.append(candidate)
                work = quotient
                chosen = set(subset)
                remaining = [f for i, f in enumerate(remaining) if i not in chosen]
                progressed = True
                break
        if not progressed:
            subset_size += 1
    meter.flush()
    if len(work) > 1 or (len(work) == 1 and abs(work[0]) != 1):
        found.append(work)
    return found


def is_irreducible_univariate(poly: Polynomial, var: str) -> bool:
    """True when a primitive square-free univariate polynomial is irreducible."""
    if poly.degree(var) <= 0:
        return False
    return len(factor_squarefree_univariate(poly, var)) == 1
