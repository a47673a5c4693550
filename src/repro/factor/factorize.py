"""Complete factorization driver over Z.

Combines the pieces the way a computer-algebra system does: integer
content, square-free factorization (Yun), then full splitting of each
square-free base — univariate bases through big-prime Zassenhaus,
multivariate bases through Kronecker substitution.  This is the repo's
substitute for MATLAB's ``factor`` / Maple's ``factor`` in the paper's
flow.

Most inputs the flow factors are square-free and irreducible, so both
stages first try a specialization certificate
(:mod:`repro.factor.certificate`): one univariate image ``f(x, a)`` at a
fixed integer point that proves the outcome, which skips Yun's GCDs and
the Kronecker image.  A certificate only ever returns what the full
algorithm would, so the factorizations are the same with or without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.poly import Polynomial

from .kronecker import factor_squarefree_kronecker
from .squarefree import square_free_factorization


@dataclass(frozen=True)
class Factorization:
    """``content * prod(base^multiplicity)`` with irreducible bases."""

    content: int
    factors: tuple[tuple[Polynomial, int], ...]

    def expand(self) -> Polynomial:
        """Multiply the factorization back out."""
        result = Polynomial.constant(self.content)
        for base, multiplicity in self.factors:
            result = result * base ** multiplicity
        return result

    def __str__(self) -> str:
        parts = [] if self.content == 1 else [str(self.content)]
        for base, multiplicity in self.factors:
            text = f"({base})"
            if multiplicity > 1:
                text += f"^{multiplicity}"
            parts.append(text)
        return " * ".join(parts) if parts else "1"


#: Per-process memo of :func:`factor_polynomial`.  The flow factors the
#: same inputs again and again — refine factors block grounds such as
#: ``x^2``, ``x*y`` and ``x^2 + 2*x*y + y^2`` system after system.
#: Keyed by the exact variable tuple and *ordered* terms, so a hit
#: returns the bases a cold call would, in the same term order.
#: Factorizations are immutable, so sharing is safe.  Bounded by
#: wholesale clearing; a call that raises (a budget overrun) stores
#: nothing.
_FACTOR_CACHE: dict[tuple, Factorization] = {}
_FACTOR_CACHE_MAX = 1024


def clear_factor_cache() -> None:
    """Drop the factorization memo."""
    _FACTOR_CACHE.clear()


def factor_cache_size() -> int:
    """Entries currently held by the factorization memo."""
    return len(_FACTOR_CACHE)


def factor_polynomial(poly: Polynomial) -> Factorization:
    """Factor a polynomial into content and irreducible factors over Z.

    Sound by construction (every candidate is verified by exact division);
    complete for univariate input, and for multivariate input within the
    Kronecker subset budget — beyond it, an unfactored square-free base is
    returned intact rather than wrong.  Memoized per process (see
    ``_FACTOR_CACHE``); a hit does no work and ticks no budget.
    """
    key = (poly.vars, tuple(poly.terms.items()))
    hit = _FACTOR_CACHE.get(key)
    if hit is not None:
        return hit
    result = _factor(poly)
    if len(_FACTOR_CACHE) >= _FACTOR_CACHE_MAX:
        _FACTOR_CACHE.clear()
    _FACTOR_CACHE[key] = result
    return result


def _factor(poly: Polynomial) -> Factorization:
    if poly.is_zero:
        return Factorization(0, ())
    square_free = square_free_factorization(poly)
    collected: list[tuple[Polynomial, int]] = []
    for base, multiplicity in square_free.factors:
        for irreducible in factor_squarefree_kronecker(base):
            collected.append((irreducible.trim(), multiplicity))
    merged: dict[Polynomial, int] = {}
    order: list[Polynomial] = []
    for base, multiplicity in collected:
        if base in merged:
            merged[base] += multiplicity
        else:
            merged[base] = multiplicity
            order.append(base)
    return Factorization(square_free.content, tuple((b, merged[b]) for b in order))
