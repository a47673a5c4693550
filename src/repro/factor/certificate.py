"""Specialization certificates: prove a factoring property at one point.

Most polynomials the synthesis flow factors are irreducible and
square-free, and the full algorithms spend most of their time proving
exactly that: Yun's algorithm runs multivariate GCDs, and Kronecker
substitution factors a high-degree image and exhausts a subset search,
only to hand the input back unchanged.  A certificate proves the same
outcome from one univariate specialization ``f(x, a)``, where ``a`` fixes
every variable but a *main variable* ``x``.

Each certificate is a proof under three checks: ``f`` has integer
content 1; some coefficient of ``f`` in ``x`` is an integer constant, so
``cont_x(f) = 1``; and ``lc_x(f)(a)`` does not vanish (modulo the fixed
prime as well).  Then:

* a factor of ``f`` of ``x``-degree 0 divides ``cont_x(f) = 1``, so every
  non-unit factor has positive ``x``-degree, and
* because ``lc_x(f)(a) != 0``, every factor keeps its ``x``-degree under
  ``x``-preserving specialization.

So a split ``f = g h`` (or a square ``g^2 | f``) maps to a split (or a
square) of ``f(x, a)``.  Hence ``f(x, a)`` square-free modulo a prime
proves ``f`` square-free, and ``f(x, a)`` irreducible over Z proves
``f`` irreducible.  A certificate that cannot be made (no integer-constant
coefficient, a vanishing leading coefficient, a specialization that
splits) declines, and the caller runs its full algorithm unchanged.

The points are fixed: values from a fixed-seed generator in sorted-name
order, so they depend only on the variable names.  A second point is
tried only when the leading coefficient vanishes at the first.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.poly import Polynomial

from .univariate import _dense_primitive, _factor_squarefree_dense
from .zp import zp_is_square_free, zp_trim

#: The fixed 61-bit prime (2^61 - 1) specializations are reduced modulo.
PRIME = (1 << 61) - 1

_POINT_SEED = 0x5EC1A1
_POINTS = 2
#: Point values lie in ``[2, 2^_POINT_BITS)``.  Small values keep the
#: coefficients of ``f(x, a)``, and with them the big prime of the
#: univariate factorizer, small; 0 and 1 are left out because they make
#: accidental splits and vanishing leading coefficients likelier.
_POINT_BITS = 8


def certificate_points(names: tuple[str, ...]) -> list[dict[str, int]]:
    """The fixed evaluation points, one value per variable each.

    Values are drawn from a fixed-seed generator in sorted-name order, so
    the points depend only on the variable names.
    """
    rng = random.Random(_POINT_SEED)
    ordered = sorted(names)
    return [
        {v: rng.randrange(2, 1 << _POINT_BITS) for v in ordered} for _ in range(_POINTS)
    ]


def _main_coefficients(
    poly: Polynomial, candidates: tuple[str, ...]
) -> dict[int, Polynomial] | None:
    """``poly``'s coefficients in the candidate of least degree that qualifies.

    A candidate qualifies as the main variable when one of its
    coefficients is an integer constant.  None when ``poly`` has integer
    content other than 1 or no candidate qualifies.
    """
    if abs(poly.content()) != 1:
        return None
    best: dict[int, Polynomial] | None = None
    for var in candidates:
        coeffs = poly.as_univariate(var)
        if (best is None or max(coeffs) < max(best)) and any(
            c.is_constant for c in coeffs.values()
        ):
            best = coeffs
    return best


def _specializations(
    poly: Polynomial, coeffs: dict[int, Polynomial]
) -> Iterator[list[int]]:
    """Dense ``f(x, a)`` over Z at each fixed point whose ``lc_x`` survives mod PRIME.

    A point where the leading coefficient vanishes (over Z or modulo
    :data:`PRIME`) is skipped, and the next point is tried.
    """
    for point in certificate_points(poly.used_vars()):
        dense = [0] * (max(coeffs) + 1)
        for power, coeff in coeffs.items():
            dense[power] = coeff.evaluate(point)
        if dense[-1] % PRIME:
            yield dense


def _square_free_mod_prime(dense: list[int]) -> bool:
    return zp_is_square_free(zp_trim(dense, PRIME), PRIME)


def certify_square_free(poly: Polynomial, var: str) -> bool:
    """Proof that ``poly`` is square-free and primitive in ``var``.

    True only when ``var`` has an integer-constant coefficient and
    ``poly(var, a)`` is square-free modulo :data:`PRIME` at a fixed point.
    Then ``gcd(poly, d poly / d var)`` is constant and ``cont_var(poly) =
    1``, so Yun's algorithm would return ``[(poly, 1)]``.
    """
    coeffs = _main_coefficients(poly, (var,))
    if coeffs is None:
        return False
    for dense in _specializations(poly, coeffs):
        return _square_free_mod_prime(dense)
    return False


def certify_irreducible(poly: Polynomial) -> bool:
    """Proof that ``poly`` is irreducible over Z.

    The main variable ``x`` is the used variable of least degree (the
    first on a tie) with an integer-constant coefficient; low degree makes
    the univariate factoring cheap.  Degree 1 in ``x`` needs no point: a
    factor of ``x``-degree 0 would divide ``cont_x(poly) = 1``.  Otherwise
    True only when the primitive part of ``poly(x, a)`` at a fixed point,
    shown square-free modulo :data:`PRIME`, is returned whole by the
    univariate factorizer.
    """
    coeffs = _main_coefficients(poly, poly.used_vars())
    if coeffs is None:
        return False
    if max(coeffs) == 1:
        return True
    for dense in _specializations(poly, coeffs):
        if not _square_free_mod_prime(dense):
            return False
        primitive = _dense_primitive(dense)
        if primitive[-1] < 0:
            primitive = [-c for c in primitive]
        return len(_factor_squarefree_dense(primitive)) == 1
    return False
