"""Classical Zassenhaus factorization with quadratic Hensel lifting: the
oracle for the library's big-prime univariate factoring.

:mod:`repro.factor.univariate` factors over Z with one *big* prime —
simple and fast in Python.  This module implements the textbook
alternative: factor mod a *small* prime, then lift the factorization
``f = g * h (mod p^k)`` quadratically (von zur Gathen & Gerhard,
Algorithm 15.10) up a balanced factor tree until the modulus exceeds
twice the Mignotte bound, and recombine.

It is the historically faithful algorithm (it is what Maple and MATLAB
run), and the synthesis flow does not use it: it lives with the tests
as an independent implementation for differential testing.
``tests/factor/test_hensel.py`` checks both paths produce the same
irreducible factors.

Non-monic inputs are handled by the standard monicization transform
``F(y) = lc^(n-1) * f(y / lc)``, which is monic with integer
coefficients; factors map back via ``y -> lc * x`` followed by taking
primitive parts.
"""

from __future__ import annotations

from math import gcd

from repro.poly import Polynomial
from repro.factor.univariate import _dense_exact_divide, _dense_primitive, mignotte_bound
from repro.factor.zp import (
    next_prime,
    zp_add,
    zp_divmod,
    zp_factor_squarefree,
    zp_is_square_free,
    zp_monic,
    zp_mul,
    zp_sub,
    zp_trim,
)


def _poly_mul_mod(f: list[int], g: list[int], m: int) -> list[int]:
    return zp_trim(zp_mul([c % m for c in f], [c % m for c in g], m), m)


def _bezout(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """``s, t`` with ``s g + t h = 1 (mod p)`` for coprime ``g, h`` mod p."""
    # extended Euclid over GF(p) on dense lists
    r0, r1 = zp_trim(g, p), zp_trim(h, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = zp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, zp_sub(s0, zp_mul(q, s1, p), p)
        t0, t1 = t1, zp_sub(t0, zp_mul(q, t1, p), p)
    if len(r0) != 1:
        raise ValueError("factors are not coprime mod p")
    inv = pow(r0[0], p - 2, p)
    return zp_trim([c * inv for c in s0], p), zp_trim([c * inv for c in t0], p)


def _hensel_step(
    f: list[int],
    g: list[int],
    h: list[int],
    s: list[int],
    t: list[int],
    m: int,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """One quadratic lift: ``f = g h`` and ``s g + t h = 1`` from mod m to mod m^2.

    ``h`` must be monic; the lifted ``h*`` stays monic.
    """
    m2 = m * m
    e = zp_trim(zp_sub(f, _poly_mul_mod(g, h, m2), m2), m2)
    se = _poly_mul_mod(s, e, m2)
    q, r = zp_divmod(se, zp_trim(h, m2), m2) if _is_unit_lead(h, m2) else (None, None)
    if q is None:
        raise RuntimeError("Hensel step requires monic h")
    g_star = zp_trim(
        zp_add(zp_add(g, _poly_mul_mod(t, e, m2), m2), _poly_mul_mod(q, g, m2), m2),
        m2,
    )
    h_star = zp_trim(zp_add(h, r, m2), m2)

    b = zp_trim(
        zp_sub(
            zp_add(_poly_mul_mod(s, g_star, m2), _poly_mul_mod(t, h_star, m2), m2),
            [1],
            m2,
        ),
        m2,
    )
    sb = _poly_mul_mod(s, b, m2)
    c, d = zp_divmod(sb, h_star, m2)
    s_star = zp_trim(zp_sub(s, d, m2), m2)
    t_star = zp_trim(
        zp_sub(zp_sub(t, _poly_mul_mod(t, b, m2), m2), _poly_mul_mod(c, g_star, m2), m2),
        m2,
    )
    return g_star, h_star, s_star, t_star


def _is_unit_lead(h: list[int], m: int) -> bool:
    return bool(h) and gcd(h[-1], m) == 1


def _lift_tree_mod(
    f: list[int], factors: list[list[int]], p: int, modulus: int
) -> list[list[int]]:
    """Recurse: lift the sub-product's own factorization to ``modulus``."""
    if len(factors) == 1:
        return [zp_trim(f, modulus)]
    mid = len(factors) // 2
    left = factors[:mid]
    right = factors[mid:]
    g = [1]
    for factor in left:
        g = zp_mul(g, factor, p)
    h = [1]
    for factor in right:
        h = zp_mul(h, factor, p)
    s, t = _bezout(g, h, p)
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    g = zp_trim(g, m)
    h = zp_trim(h, m)
    return _lift_tree_mod(g, left, p, m) + _lift_tree_mod(h, right, p, m)


def _symmetric(value: int, modulus: int) -> int:
    r = value % modulus
    if r > modulus // 2:
        r -= modulus
    return r


def _recombine_mod(
    coeffs: list[int], lifted: list[list[int]], modulus: int
) -> list[list[int]]:
    """Subset-search recombination at an arbitrary lifted modulus."""
    from itertools import combinations

    work = list(coeffs)
    remaining = list(lifted)
    found: list[list[int]] = []
    subset_size = 1
    while 2 * subset_size <= len(remaining):
        progressed = False
        for subset in combinations(range(len(remaining)), subset_size):
            lead = work[-1]
            candidate = [lead % modulus]
            for index in subset:
                candidate = _poly_mul_mod(candidate, remaining[index], modulus)
            candidate = [_symmetric(c, modulus) for c in candidate]
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
    if len(work) > 1 or (len(work) == 1 and abs(work[0]) != 1):
        found.append(work)
    return found


def _monicize(coeffs: list[int]) -> tuple[list[int], int]:
    """``F(y) = lc^(n-1) f(y / lc)``: monic integer polynomial, plus lc."""
    lead = coeffs[-1]
    n = len(coeffs) - 1
    out = []
    for i, c in enumerate(coeffs):
        # coefficient of y^i picks up lc^(n-1-i)
        out.append(c * lead ** (n - 1 - i) if i < n else 1)
    return out, lead


def _demonicize(coeffs: list[int], lead: int) -> list[int]:
    """Map a factor of F back through ``y -> lc * x`` and take the primitive part."""
    out = [c * lead ** i for i, c in enumerate(coeffs)]
    return _dense_primitive(out)


def zassenhaus_factor(poly: Polynomial, var: str) -> list[Polynomial]:
    """Irreducible factors of a primitive square-free univariate polynomial.

    The small-prime + Hensel-lifting pipeline; functionally identical to
    :func:`repro.factor.univariate.factor_squarefree_univariate`.
    """
    coeffs = poly.to_dense(var)
    degree = len(coeffs) - 1
    if degree <= 1:
        return [poly]

    monic, lead = _monicize(coeffs)

    # Choose a small odd prime keeping the monic image square-free.
    p = 3
    while not zp_is_square_free(zp_trim(monic, p), p):
        p = next_prime(p)
    modular = zp_factor_squarefree(zp_monic(zp_trim(monic, p), p), p)
    if len(modular) == 1:
        return [poly]

    bound = 2 * mignotte_bound(monic) + 1
    modulus = p
    while modulus < bound:
        modulus *= modulus
    lifted = _lift_tree_mod(
        zp_trim(monic, modulus), modular, p, modulus
    )

    monic_factors = _recombine_mod(monic, lifted, modulus)
    factors = [_demonicize(f, lead) for f in monic_factors]

    # Verification: the product must reproduce the input (up to sign).
    product = [1]
    for factor in factors:
        product = _dense_mul(product, factor)
    product = _dense_primitive(product)
    reference = _dense_primitive(list(coeffs))
    if product != reference:
        negated = [-c for c in product]
        if negated != reference:
            raise RuntimeError("Hensel factorization failed verification")
    return [Polynomial.from_dense(f, var) for f in factors]


def _dense_mul(f: list[int], g: list[int]) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out
