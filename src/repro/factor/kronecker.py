"""Multivariate factorization via Kronecker substitution.

For the small, low-degree polynomials that arise in datapath synthesis,
the classical Kronecker trick is a perfectly good multivariate factorizer:
substitute ``x_i -> t^(D^i)`` with ``D`` larger than every per-variable
degree, factor the resulting univariate polynomial over Z, and recombine
subsets of its irreducible factors, inverting the substitution digit by
digit.  Candidates are verified by exact multivariate division, so the
result is always sound; on pathologically many modular factors the search
gives up and returns the input unfactored (best-effort, never wrong).

Before building the image, :func:`~repro.factor.certificate.certify_irreducible`
tries to prove the input irreducible from one specialization ``f(x, a)``;
when it can, the input is returned as is, which is what the full search
returns for an irreducible input.  The subset search ticks the ambient
budget (site ``factor/kronecker``), amortized like the GF(p) loops.
"""

from __future__ import annotations

import math
from itertools import combinations

from repro.poly import Polynomial, exact_divide

from .certificate import certify_irreducible
from .univariate import factor_squarefree_univariate

_SUBSET_BUDGET = 4096
_KRONECKER_VAR = "_t"


def _factor_univariate_full(poly: Polynomial, var: str) -> list[Polynomial]:
    """Irreducible factors *with repetition* of any univariate polynomial.

    The Kronecker image of a square-free multivariate polynomial need not
    be square-free (e.g. ``x^2 - y^2 -> t^2 - t^6``), so the image must go
    through square-free factorization before the mod-p machinery.
    """
    from .squarefree import square_free_factorization

    flat: list[Polynomial] = []
    square_free = square_free_factorization(poly)
    for base, multiplicity in square_free.factors:
        for irreducible in factor_squarefree_univariate(base, var):
            flat.extend([irreducible] * multiplicity)
    return flat


def _encode(poly: Polynomial, base: int) -> Polynomial:
    """Apply the Kronecker substitution ``x_i -> t^(base^i)``."""
    terms: dict[tuple[int, ...], int] = {}
    for exps, coeff in poly.terms.items():
        code = 0
        weight = 1
        for e in exps:
            code += e * weight
            weight *= base
        key = (code,)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial((_KRONECKER_VAR,), terms)


def _decode(poly: Polynomial, base: int, variables: tuple[str, ...]) -> Polynomial | None:
    """Invert the substitution; None when a digit overflows the base.

    Overflow means the candidate is not the image of a polynomial with
    per-variable degree below ``base``, so it cannot be a factor.
    """
    nvars = len(variables)
    terms: dict[tuple[int, ...], int] = {}
    for (code,), coeff in poly.terms.items():
        digits = []
        rest = code
        for _ in range(nvars):
            digits.append(rest % base)
            rest //= base
        if rest:
            return None
        key = tuple(digits)
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(variables, terms)


def factor_squarefree_kronecker(poly: Polynomial) -> list[Polynomial]:
    """Irreducible factors of a primitive square-free multivariate polynomial.

    Falls back to ``[poly]`` when the subset search exceeds its budget.
    """
    work = poly.trim()
    used = work.used_vars()
    if len(used) <= 1:
        if not used:
            return [poly]
        return [
            f.with_vars(poly.vars) if set(f.used_vars()) <= set(poly.vars) else f
            for f in factor_squarefree_univariate(work, used[0])
        ]

    if certify_irreducible(work):
        return [poly]
    base = max(work.degree(v) for v in used) + 1
    image = _encode(work, base)
    univariate_factors = _factor_univariate_full(image, _KRONECKER_VAR)
    if len(univariate_factors) == 1:
        return [poly]

    from repro.core.budget import current_deadline

    meter = current_deadline().meter("factor/kronecker")
    factors: list[Polynomial] = []
    remaining = list(univariate_factors)
    current = work
    subset_size = 1
    while 2 * subset_size <= len(remaining):
        if math.comb(len(remaining), subset_size) > _SUBSET_BUDGET:
            break
        progressed = False
        for subset in combinations(range(len(remaining)), subset_size):
            meter.step()
            candidate_image = Polynomial.constant(1)
            for index in subset:
                candidate_image = candidate_image * remaining[index]
            candidate = _decode(candidate_image, base, used)
            if candidate is None:
                continue
            candidate = candidate.primitive_part()
            if candidate.is_constant:
                continue
            quotient = exact_divide(current, candidate)
            if quotient is not None:
                factors.append(candidate)
                current = quotient
                chosen = set(subset)
                remaining = [f for i, f in enumerate(remaining) if i not in chosen]
                progressed = True
                break
        if not progressed:
            subset_size += 1
    meter.flush()
    if not current.is_constant:
        factors.append(current)
    elif current.constant_term not in (1, -1) or not factors:
        # Leftover integer content (should not happen for primitive input,
        # but never drop it silently) or the degenerate constant input.
        factors.append(current)
    return [f.with_vars(poly.vars) for f in factors] if factors else [poly]
