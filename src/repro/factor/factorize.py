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


def factor_polynomial(poly: Polynomial) -> Factorization:
    """Factor a polynomial into content and irreducible factors over Z.

    Sound by construction (every candidate is verified by exact division);
    complete for univariate input, and for multivariate input within the
    Kronecker subset budget — beyond it, an unfactored square-free base is
    returned intact rather than wrong.
    """
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
