"""Greatest common divisors of multivariate integer polynomials.

Two cooperating algorithms:

* :func:`poly_gcd` — the public entry point.  It first tries the heuristic
  integer-evaluation GCD (GCDHEU of Char, Geddes & Gonnet — the same fast
  path Maple uses), whose candidate answers are *verified* by exact
  division, then falls back to the always-correct primitive PRS recursion.
* :func:`_gcd_prs` — primitive polynomial remainder sequence on a chosen
  main variable with pseudo-division, recursing on the coefficients.

GCDs are normalized to a positive leading coefficient (grevlex), so
``poly_gcd(p, q)`` is deterministic and ``poly_gcd(p, p) == +-p``'s
positive associate.
"""

from __future__ import annotations

from math import gcd as int_gcd
from typing import Iterable

from .division import exact_divide, pseudo_divmod
from .polynomial import Polynomial

_HEURISTIC_ATTEMPTS = 6
_HEURISTIC_XI_CAP = 1 << 2000  # bail out long before bignums get absurd


def _normalize_sign(p: Polynomial) -> Polynomial:
    """Flip the sign so the leading grevlex coefficient is positive."""
    if not p.is_zero and p.leading_coeff("grevlex") < 0:
        return -p
    return p


def content_wrt(p: Polynomial, var: str) -> Polynomial:
    """Polynomial content of ``p`` viewed as univariate in ``var``.

    The GCD of the polynomial coefficients of the powers of ``var``.
    """
    coeffs = list(p.as_univariate(var).values())
    return poly_gcd_many(coeffs)


def primitive_wrt(p: Polynomial, var: str) -> Polynomial:
    """Primitive part of ``p`` with respect to ``var`` (``p / content_wrt``)."""
    cont = content_wrt(p, var)
    if cont.is_one:
        return p
    quotient = exact_divide(p, cont.with_vars(p.vars) if cont.vars != p.vars else cont)
    if quotient is None:
        raise RuntimeError("content does not divide its polynomial (internal error)")
    return quotient


def _gcd_prs(a: Polynomial, b: Polynomial, var: str) -> Polynomial:
    """Primitive PRS GCD of two polynomials, both actually involving ``var``."""
    cont_a = content_wrt(a, var)
    cont_b = content_wrt(b, var)
    cont_gcd = poly_gcd(cont_a, cont_b)
    f = primitive_wrt(a, var)
    g = primitive_wrt(b, var)
    if f.degree(var) < g.degree(var):
        f, g = g, f
    while not g.is_zero and g.degree(var) >= 1:
        _, remainder, _ = pseudo_divmod(f, g, var)
        f, g = g, remainder if remainder.is_zero else primitive_wrt(remainder, var)
    if g.is_zero:
        prim = f
    else:
        # Remainder dropped below degree 1 in var but is non-zero: the
        # primitive GCD in var is trivial.
        prim = Polynomial.constant(1, f.vars)
    return _normalize_sign(cont_gcd * prim)


def _eval_var(p: Polynomial, var: str, value: int) -> Polynomial:
    """Substitute an integer for one variable."""
    return p.subs({var: value})


def _reconstruct(gamma: Polynomial, xi: int, var: str) -> Polynomial:
    """Rebuild a polynomial in ``var`` from its balanced ``xi``-adic image."""
    digits: list[Polynomial] = []
    current = gamma
    while not current.is_zero:
        digit = current.map_coeffs(lambda c: _smod(c, xi))
        digits.append(digit)
        current = (current - digit).map_coeffs(lambda c: c // xi)
    x = Polynomial.variable(var)
    result = Polynomial.zero((var,))
    for power, digit in enumerate(digits):
        result = result + digit * x ** power
    return result


def _smod(value: int, modulus: int) -> int:
    """Symmetric (balanced) remainder in ``(-modulus/2, modulus/2]``."""
    r = value % modulus
    if r > modulus // 2:
        r -= modulus
    return r


def _gcd_heuristic(a: Polynomial, b: Polynomial) -> Polynomial | None:
    """GCDHEU: evaluate, take GCD of images, lift, verify.  None on failure."""
    used = tuple(v for v in a.vars if v in set(a.used_vars()) | set(b.used_vars()))
    if not used:
        return Polynomial.constant(int_gcd(a.constant_term, b.constant_term))
    var = used[0]
    bound = max(a.max_coeff_magnitude(), b.max_coeff_magnitude())
    xi = 2 * bound + 29
    for _ in range(_HEURISTIC_ATTEMPTS):
        if xi > _HEURISTIC_XI_CAP:
            return None
        image_a = _eval_var(a, var, xi)
        image_b = _eval_var(b, var, xi)
        if image_a.is_zero or image_b.is_zero:
            xi = xi * 73 // 32 + 1
            continue
        gamma = _gcd_heuristic(image_a, image_b)
        if gamma is not None:
            # Do NOT strip integer content here: in recursive calls the
            # content of the inner GCD carries the xi-adic digits of the
            # outer variable's coefficients.
            candidate = _reconstruct(gamma, xi, var)
            if not candidate.is_zero:
                if exact_divide(a, candidate) is not None and exact_divide(b, candidate) is not None:
                    return candidate
        xi = xi * 73 // 32 + 1
    return None


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """GCD of two integer polynomials (positive leading coefficient)."""
    # Lazy import: core depends on poly.  Square-free factorization
    # recurses through thousands of GCDs, so each one is a budget step.
    from repro.core.budget import current_deadline

    current_deadline().tick(site="poly/gcd")
    a, b = Polynomial.unify(a, b)
    if a.is_zero:
        return _normalize_sign(b)
    if b.is_zero:
        return _normalize_sign(a)

    content_a = abs(a.content())
    content_b = abs(b.content())
    common_content = int_gcd(content_a, content_b)
    pa = a.primitive_part()
    pb = b.primitive_part()

    if pa.is_constant or pb.is_constant:
        return Polynomial.constant(common_content, a.vars)

    used_a = set(pa.used_vars())
    used_b = set(pb.used_vars())
    shared = [v for v in a.vars if v in (used_a & used_b)]
    if not shared:
        return Polynomial.constant(common_content, a.vars)

    scaled_gcd: Polynomial | None = None
    # Fast path: heuristic GCD with verified answers.
    heuristic = _gcd_heuristic(pa, pb)
    if heuristic is not None:
        scaled_gcd = _normalize_sign(heuristic.with_vars(a.vars))
    if scaled_gcd is None:
        scaled_gcd = _gcd_prs(pa, pb, shared[0]).with_vars(a.vars)
    return _normalize_sign(scaled_gcd.scale(common_content))


def poly_gcd_many(polys: Iterable[Polynomial]) -> Polynomial:
    """GCD of a collection of polynomials (zero for an empty collection)."""
    acc: Polynomial | None = None
    for p in polys:
        acc = p if acc is None else poly_gcd(acc, p)
        if acc.is_one:
            return acc
    if acc is None:
        return Polynomial.zero()
    return _normalize_sign(acc)


def poly_lcm(a: Polynomial, b: Polynomial) -> Polynomial:
    """Least common multiple: ``a*b / gcd(a, b)`` (zero when either is zero)."""
    if a.is_zero or b.is_zero:
        return Polynomial.zero(a.vars)
    g = poly_gcd(a, b)
    quotient = exact_divide(a * b, g)
    if quotient is None:
        raise RuntimeError("gcd does not divide product (internal error)")
    return _normalize_sign(quotient)


def coprime(a: Polynomial, b: Polynomial) -> bool:
    """True when ``gcd(a, b)`` is a non-zero constant."""
    g = poly_gcd(a, b)
    return g.is_constant and not g.is_zero
