"""Square-free factorization (paper Section 14.3.2).

Implements Yun's algorithm over the integers and its multivariate
extension.  The output is the paper's Definition 14.3 form::

    u = c * s_1 * s_2^2 * ... * s_m^m

with integer content ``c`` and pairwise-coprime square-free ``s_i``.  The
square-free split is what turns ``x^2 + 2xy + y^2`` into ``(x + y)^2`` —
the transformation kernel/co-kernel factoring cannot find (Section 14.2.1,
"Symbolic Methods" limitation).

Each primitive part first tries a specialization certificate
(:func:`~repro.factor.certificate.certify_square_free`): when its first
used variable ``x`` has an integer-constant coefficient and ``f(x, a)``
is square-free modulo a fixed prime at a fixed point, ``f`` is
square-free and primitive in ``x``, so the answer is ``[(f, 1)]``
without ``content_wrt`` or Yun's ``poly_gcd`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.poly import Polynomial, exact_divide, poly_gcd
from repro.poly.gcd import content_wrt, primitive_wrt

from .certificate import certify_square_free


@dataclass(frozen=True)
class SquareFreeFactorization:
    """``content * prod(base^multiplicity)`` with square-free coprime bases."""

    content: int
    factors: tuple[tuple[Polynomial, int], ...]

    def expand(self) -> Polynomial:
        """Multiply the factorization back out."""
        result = Polynomial.constant(self.content)
        for base, multiplicity in self.factors:
            result = result * base ** multiplicity
        return result

    def is_trivial(self) -> bool:
        """True when no repeated structure was found (single multiplicity-1 factor)."""
        return all(m == 1 for _, m in self.factors)

    def __str__(self) -> str:
        parts = [] if self.content == 1 else [str(self.content)]
        for base, multiplicity in self.factors:
            text = f"({base})"
            if multiplicity > 1:
                text += f"^{multiplicity}"
            parts.append(text)
        return " * ".join(parts) if parts else "1"


def _exact(a: Polynomial, b: Polynomial) -> Polynomial:
    quotient = exact_divide(a, b)
    if quotient is None:
        raise RuntimeError("square-free factorization internal division failed")
    return quotient


def _yun(poly: Polynomial, var: str) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm on a polynomial that is primitive with respect to ``var``.

    Returns ``[(s_i, i)]`` with non-constant square-free coprime ``s_i``.
    Works over Z because the characteristic is zero; all divisions below
    are exact by construction.
    """
    derivative = poly.derivative(var)
    if derivative.is_zero:
        # Constant in var (degree 0): nothing to split here.
        return [(poly, 1)] if not poly.is_constant else []
    g = poly_gcd(poly, derivative)
    if g.is_constant:
        return [(poly, 1)]
    w = _exact(poly, g)
    y = _exact(derivative, g)
    z = y - w.derivative(var)
    factors: list[tuple[Polynomial, int]] = []
    multiplicity = 1
    while True:
        if z.is_zero:
            if not w.is_constant:
                factors.append((w, multiplicity))
            break
        s = poly_gcd(w, z)
        if not s.is_constant:
            factors.append((s, multiplicity))
        w = _exact(w, s) if not s.is_constant else w
        y = _exact(z, s) if not s.is_constant else z
        z = y - w.derivative(var)
        multiplicity += 1
        if w.is_constant:
            break
    return factors


def square_free_factorization(poly: Polynomial) -> SquareFreeFactorization:
    """Full multivariate square-free factorization over Z.

    Strategy: split off the integer content, then recurse variable by
    variable — Yun's algorithm on the part that is primitive in the chosen
    variable, then a recursive call on the content (which involves only
    the remaining variables).
    """
    if poly.is_zero:
        return SquareFreeFactorization(0, ())
    content = poly.content()
    primitive = poly.primitive_part()
    factors = _square_free_primitive(primitive)
    merged = _merge_factors(factors)
    return SquareFreeFactorization(content, tuple(merged))


def _square_free_primitive(poly: Polynomial) -> list[tuple[Polynomial, int]]:
    if poly.is_constant:
        return []
    used = poly.used_vars()
    var = used[0]
    if certify_square_free(poly, var):
        return [(poly, 1)]
    if len(used) == 1:
        return _yun(poly, var)
    cont = content_wrt(poly, var)
    prim = primitive_wrt(poly, var)
    factors = _yun(prim, var)
    factors.extend(_square_free_primitive(cont.primitive_part()))
    return factors


def _merge_factors(
    factors: list[tuple[Polynomial, int]]
) -> list[tuple[Polynomial, int]]:
    """Combine equal bases (can occur when content and primitive share one)."""
    merged: dict[Polynomial, int] = {}
    order: list[Polynomial] = []
    for base, multiplicity in factors:
        base = base.trim()
        if base in merged:
            merged[base] += multiplicity
        else:
            merged[base] = multiplicity
            order.append(base)
    return [(base, merged[base]) for base in order]


def is_square_free(poly: Polynomial) -> bool:
    """True when no non-constant square divides the polynomial.

    Definition 14.2 of the paper.  Multivariate criterion: with respect to
    a chosen main variable, the primitive part must satisfy
    ``gcd(p, dp/dx) = 1`` (all its factors involve ``x``), and the content
    (whose factors do not involve ``x``) must be square-free recursively.
    Naively testing ``gcd(p, dp/dx_i)`` for every variable is wrong:
    ``x^2 y + x = x(xy + 1)`` is square-free, yet its ``y``-derivative
    ``x^2`` shares the factor ``x``.
    """
    if poly.is_zero:
        return False
    primitive = poly.primitive_part()
    if primitive.is_constant:
        return True
    var = primitive.used_vars()[0]
    cont = content_wrt(primitive, var)
    prim = primitive_wrt(primitive, var)
    g = poly_gcd(prim, prim.derivative(var))
    if not g.is_constant:
        return False
    return is_square_free(cont)


def square_free_part(poly: Polynomial) -> Polynomial:
    """The product of the distinct irreducible factors (radical), primitive."""
    factorization = square_free_factorization(poly)
    result = Polynomial.constant(1)
    for base, _ in factorization.factors:
        result = result * base
    return result.primitive_part()
