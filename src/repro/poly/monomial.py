"""Operations on monomials represented as exponent tuples.

Throughout :mod:`repro.poly`, a monomial in variables ``(x_1, ..., x_d)`` is
an exponent tuple ``(e_1, ..., e_d)`` of non-negative integers denoting
``x_1^e_1 * ... * x_d^e_d``.  Keeping monomials as plain tuples (rather than
a class) keeps polynomial arithmetic allocation-light; this module gathers
the handful of operations the rest of the package needs.

In the terminology of the paper (Section 14.2.1, after Hosangadi et al.), a
*cube* is a monomial together with a coefficient; cube-level manipulation
for kernel extraction lives in :mod:`repro.cse`.
"""

from __future__ import annotations

from typing import Iterable, Tuple

Exponents = Tuple[int, ...]


def mono_one(nvars: int) -> Exponents:
    """The unit monomial (all exponents zero) over ``nvars`` variables."""
    return (0,) * nvars


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    """Product of two monomials (exponent-wise sum)."""
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True if monomial ``a`` divides monomial ``b`` (exponent-wise <=)."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    """Quotient ``a / b``; requires ``b`` to divide ``a``.

    Raises ``ValueError`` when the division is not exact, because a silent
    negative exponent would corrupt every downstream structure.
    """
    if not mono_divides(b, a):
        raise ValueError(f"monomial {b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b))


def mono_gcd(a: Exponents, b: Exponents) -> Exponents:
    """Greatest common divisor (exponent-wise minimum)."""
    return tuple(map(min, a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    """Least common multiple (exponent-wise maximum)."""
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a: Exponents) -> int:
    """Total degree (sum of exponents)."""
    return sum(a)


def mono_pow(a: Exponents, k: int) -> Exponents:
    """``k``-th power of a monomial; ``k`` must be non-negative."""
    if k < 0:
        raise ValueError(f"negative monomial power {k}")
    return tuple(e * k for e in a)


def mono_is_one(a: Exponents) -> bool:
    """True for the unit monomial."""
    return not any(a)


def mono_gcd_many(monomials: Iterable[Exponents]) -> Exponents:
    """GCD of a non-empty collection of monomials.

    This is the largest cube dividing every term of a polynomial — the
    co-kernel cube candidate used when making an expression *cube-free*.
    """
    it = iter(monomials)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("mono_gcd_many() requires at least one monomial") from None
    for m in it:
        acc = mono_gcd(acc, m)
        if mono_is_one(acc):
            break
    return acc


def mono_support(a: Exponents) -> tuple[int, ...]:
    """Indices of the variables that actually appear in the monomial."""
    return tuple(i for i, e in enumerate(a) if e)


def mono_literal_count(a: Exponents) -> int:
    """Number of literals when the monomial is written as a product.

    ``x^2*y`` has three literals (``x``, ``x``, ``y``).  This is the cost
    notion used by kernel-extraction heuristics: implementing the cube as a
    product tree needs ``literal_count - 1`` multiplications.
    """
    return sum(a)
