"""Dense univariate polynomial arithmetic over the prime fields GF(p).

The modular engine behind :mod:`repro.factor.univariate`: polynomials are
coefficient lists ``[c0, c1, ...]`` with entries in ``[0, p)`` and no
trailing zeros.  Includes the finite-field algorithms needed for
factorization — monic Euclidean division, GCD, modular exponentiation by
repeated squaring, distinct-degree factorization, and Cantor–Zassenhaus
equal-degree splitting — plus Miller–Rabin primality for choosing the
working prime.

Factoring a Kronecker image can mean divisions of degree in the
thousands, so the division loop, modular exponentiation and both
factorization stages step a meter of the ambient budget deadline
(:meth:`repro.core.budget.Deadline.meter`, which batches the steps
into amortized ticks), and a job budget can stop a factorization
midway.  The budget module is imported at call time: ``repro.core``
depends on this package, so a module-level import would make the
import graph cyclic.
"""

from __future__ import annotations

import random
from typing import Iterable, List

ZpPoly = List[int]

#: Quotient length from which :func:`zp_divmod` meters the budget.
_LONG_DIVISION = 64


def _meter(site: str):
    """A meter of the ambient deadline (imported late: see the module doc)."""
    from repro.core.budget import current_deadline

    return current_deadline().meter(site)


def zp_trim(coeffs: Iterable[int], p: int) -> ZpPoly:
    """Normalize to canonical form: reduce mod p, strip trailing zeros."""
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def zp_degree(f: ZpPoly) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(f) - 1


def zp_is_zero(f: ZpPoly) -> bool:
    return not f


def zp_add(f: ZpPoly, g: ZpPoly, p: int) -> ZpPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def zp_sub(f: ZpPoly, g: ZpPoly, p: int) -> ZpPoly:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def zp_mul(f: ZpPoly, g: ZpPoly, p: int) -> ZpPoly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def zp_scale(f: ZpPoly, k: int, p: int) -> ZpPoly:
    k %= p
    if k == 0:
        return []
    return zp_trim((c * k for c in f), p)


def zp_divmod(f: ZpPoly, g: ZpPoly, p: int) -> tuple[ZpPoly, ZpPoly]:
    """Euclidean division; ``g`` must be non-zero."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial over GF(p)")
    if zp_degree(f) < zp_degree(g):
        return [], list(f)
    inv_lead = pow(g[-1], p - 2, p)
    remainder = list(f)
    quotient = [0] * (len(f) - len(g) + 1)
    # Only a long division looks up the deadline.  Most calls are the
    # short reductions of zp_pow_mod, which meters once per step itself;
    # for those the lookup would cost more than the steps it counts.
    meter = _meter("factor/zp") if len(quotient) >= _LONG_DIVISION else None
    for shift in range(len(f) - len(g), -1, -1):
        if meter is not None:
            meter.step()
        coeff = (remainder[shift + len(g) - 1] * inv_lead) % p
        if coeff:
            quotient[shift] = coeff
            for i, b in enumerate(g):
                remainder[shift + i] = (remainder[shift + i] - coeff * b) % p
    if meter is not None:
        meter.flush()
    while remainder and remainder[-1] == 0:
        remainder.pop()
    while quotient and quotient[-1] == 0:
        quotient.pop()
    return quotient, remainder


def zp_mod(f: ZpPoly, g: ZpPoly, p: int) -> ZpPoly:
    return zp_divmod(f, g, p)[1]


def zp_monic(f: ZpPoly, p: int) -> ZpPoly:
    """Scale to leading coefficient 1 (zero stays zero)."""
    if not f:
        return []
    return zp_scale(f, pow(f[-1], p - 2, p), p)


def zp_gcd(f: ZpPoly, g: ZpPoly, p: int) -> ZpPoly:
    """Monic GCD via the Euclidean algorithm."""
    a, b = list(f), list(g)
    while b:
        a, b = b, zp_mod(a, b, p)
    return zp_monic(a, p)


def zp_derivative(f: ZpPoly, p: int) -> ZpPoly:
    return zp_trim((i * c for i, c in enumerate(f) if i), p) if len(f) > 1 else []


def zp_pow_mod(base: ZpPoly, exponent: int, modulus: ZpPoly, p: int) -> ZpPoly:
    """``base^exponent mod modulus`` by square-and-multiply."""
    result: ZpPoly = [1]
    acc = zp_mod(base, modulus, p)
    meter = _meter("factor/zp")
    e = exponent
    while e:
        meter.step()
        if e & 1:
            result = zp_mod(zp_mul(result, acc, p), modulus, p)
        e >>= 1
        if e:
            acc = zp_mod(zp_mul(acc, acc, p), modulus, p)
    meter.flush()
    return result


def zp_eval(f: ZpPoly, x: int, p: int) -> int:
    """Horner evaluation of ``f`` at ``x`` over GF(p)."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def zp_is_square_free(f: ZpPoly, p: int) -> bool:
    """True when ``gcd(f, f') == 1`` over GF(p)."""
    d = zp_derivative(f, p)
    if not d:
        return zp_degree(f) <= 0
    return zp_degree(zp_gcd(f, d, p)) == 0


# ----------------------------------------------------------------------
# Factorization over GF(p): distinct-degree + Cantor-Zassenhaus
# ----------------------------------------------------------------------


def distinct_degree_factorization(
    f: ZpPoly, p: int
) -> list[tuple[ZpPoly, int]]:
    """Split a monic square-free ``f`` into products of equal-degree factors.

    Returns ``[(g_d, d)]`` where ``g_d`` is the product of all monic
    irreducible factors of degree exactly ``d``.
    """
    result: list[tuple[ZpPoly, int]] = []
    work = list(f)
    x_power = [0, 1]  # x
    meter = _meter("factor/ddf")
    degree = 0
    while zp_degree(work) > 0:
        meter.step()
        degree += 1
        if 2 * degree > zp_degree(work):
            # What remains is irreducible.
            result.append((work, zp_degree(work)))
            break
        x_power = zp_pow_mod(x_power, p, work, p)
        # gcd(work, x^(p^degree) - x)
        candidate = zp_gcd(work, zp_sub(x_power, [0, 1], p), p)
        if zp_degree(candidate) > 0:
            result.append((candidate, degree))
            work, remainder = zp_divmod(work, candidate, p)
            if remainder:
                raise RuntimeError("DDF division not exact (internal error)")
            x_power = zp_mod(x_power, work, p)
    meter.flush()
    return result


def equal_degree_factorization(
    f: ZpPoly, degree: int, p: int, rng: random.Random
) -> list[ZpPoly]:
    """Cantor-Zassenhaus splitting of a monic product of degree-``d`` irreducibles.

    Requires ``p`` odd (the factorization driver never chooses p = 2).
    """
    n = zp_degree(f)
    if n == degree:
        return [f]
    if n % degree:
        raise ValueError(f"degree {n} is not a multiple of {degree}")
    exponent = (p ** degree - 1) // 2
    meter = _meter("factor/edf")
    while True:
        meter.step()
        candidate = [rng.randrange(p) for _ in range(n)]
        candidate = zp_trim(candidate, p)
        if zp_degree(candidate) < 1:
            continue
        g = zp_gcd(f, candidate, p)
        if 0 < zp_degree(g) < n:
            split = g
        else:
            power = zp_pow_mod(candidate, exponent, f, p)
            split = zp_gcd(f, zp_sub(power, [1], p), p)
            if not (0 < zp_degree(split) < n):
                continue
        meter.flush()
        quotient, remainder = zp_divmod(f, split, p)
        if remainder:
            raise RuntimeError("EDF division not exact (internal error)")
        left = equal_degree_factorization(zp_monic(split, p), degree, p, rng)
        right = equal_degree_factorization(zp_monic(quotient, p), degree, p, rng)
        return left + right


def zp_factor_squarefree(f: ZpPoly, p: int, seed: int = 0) -> list[ZpPoly]:
    """All monic irreducible factors of a monic square-free ``f`` over GF(p)."""
    rng = random.Random(seed or 0xC0FFEE)
    factors: list[ZpPoly] = []
    for product, degree in distinct_degree_factorization(f, p):
        factors.extend(equal_degree_factorization(product, degree, p, rng))
    factors.sort()
    return factors


# ----------------------------------------------------------------------
# Primality (for choosing the working prime of the big-prime Zassenhaus)
# ----------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases (deterministic below 3.3 * 10^24)."""
    if n < 2:
        return False
    for base in _MR_BASES:
        if n % base == 0:
            return n == base
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest (probable) prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate
