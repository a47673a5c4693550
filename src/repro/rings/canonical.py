"""Chen's canonical form for polynomial functions over Z_2^m (Sec. 14.3.1).

A datapath with input bit-vectors ``x_i`` of widths ``n_i`` and an output
of width ``m`` computes a *function* ``Z_2^n1 x ... x Z_2^nd -> Z_2^m``.
Distinct integer polynomials can compute the same function (vanishing
polynomials exist); Chen's theorem gives every such function a unique
representative::

    F = sum_k  c_k * Y_k1(x_1) * ... * Y_kd(x_d)

with ``k_i < mu_i = min(2^n_i, lambda)`` and
``0 <= c_k < 2^m / gcd(2^m, prod k_i!)``.

Besides being canonical (two polynomials implement the same function iff
their forms are identical — the equivalence test used by tests and by the
synthesis flow), the form often *exposes sharing*: the paper's Section
14.3.1 example turns ``F`` and ``G`` into combinations of the same
``Y_2(x), Y_2(y), Y_2(z)`` building blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from repro.expr import Expr, make_add, make_mul
from repro.poly import Polynomial

from .falling import (
    falling_factorial_expr,
    falling_factorial_poly,
    stirling_second,
)
from .modular import coefficient_modulus, degree_bound


@dataclass(frozen=True)
class BitVectorSignature:
    """Input widths per variable and the output width of a datapath."""

    input_widths: tuple[tuple[str, int], ...]
    output_width: int

    @classmethod
    def uniform(cls, variables: tuple[str, ...], width: int, output_width: int | None = None):
        """All inputs share one width (the common case in the benchmarks)."""
        return cls(
            tuple((v, width) for v in variables),
            output_width if output_width is not None else width,
        )

    def width_of(self, var: str) -> int:
        for name, width in self.input_widths:
            if name == var:
                return width
        raise KeyError(f"no width declared for variable {var!r}")

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.input_widths)

    @property
    def modulus(self) -> int:
        return 1 << self.output_width


@dataclass(frozen=True)
class CanonicalForm:
    """The unique falling-factorial representation of a polynomial function."""

    signature: BitVectorSignature
    coefficients: tuple[tuple[tuple[int, ...], int], ...]  # sorted ((k...), c_k)

    def to_polynomial(self) -> Polynomial:
        """Expand back to an integer polynomial in the power basis."""
        variables = self.signature.variables
        total = Polynomial.zero(variables)
        for k_tuple, coeff in self.coefficients:
            term = Polynomial.constant(coeff, variables)
            for var, k in zip(variables, k_tuple):
                if k:
                    term = term * falling_factorial_poly(var, k)
            total = total + term
        return total

    def to_expr(self) -> Expr:
        """The implementation-shaped expression: sums of Y_k products.

        This is the "canonical form" candidate representation Algorithm 7
        weighs against the original and square-free forms (e.g. Table 14.2
        rewrites ``P3`` as ``5x(x-1)(x-2)y(y-1) + 3z^2``).
        """
        variables = self.signature.variables
        terms = []
        for k_tuple, coeff in self.coefficients:
            factors: list = [] if coeff == 1 and any(k_tuple) else [coeff]
            for var, k in zip(variables, k_tuple):
                if k:
                    factors.append(falling_factorial_expr(var, k))
            terms.append(make_mul(*factors))
        return make_add(*terms)

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for k_tuple, coeff in self.coefficients:
            factors = [str(coeff)]
            for (var, _), k in zip(self.signature.input_widths, k_tuple):
                if k:
                    factors.append(f"Y{k}({var})")
            parts.append("*".join(factors))
        return " + ".join(parts)


def to_canonical(poly: Polynomial, signature: BitVectorSignature) -> CanonicalForm:
    """Compute the canonical form of ``poly`` under a bit-vector signature.

    Every variable used by ``poly`` must have a declared width.  The
    conversion is exact integer arithmetic: per-term products of Stirling
    numbers of the second kind, followed by the modulus reduction of
    Chen's theorem.
    """
    # Lazy import: rings is a dependency of core, so the budget module is
    # reached at call time to keep the import graph acyclic.
    from repro.core.budget import current_deadline

    meter = current_deadline().meter("canonical/expand")
    variables = signature.variables
    missing = set(poly.used_vars()) - set(variables)
    if missing:
        raise KeyError(f"no widths declared for variables {sorted(missing)}")
    aligned = poly.with_vars(variables) if poly.vars != variables else poly

    bounds = [
        degree_bound(signature.width_of(var), signature.output_width)
        for var in variables
    ]
    accumulator: dict[tuple[int, ...], int] = {}
    for exps, coeff in aligned.terms.items():
        # x^e_i expands over Y_0..Y_e_i; take the cartesian product across
        # variables of the per-variable Stirling expansions.  This product
        # is the flow's combinatorial worst case (exponential in wide
        # signatures), hence the cooperative budget check per combination.
        per_var: list[list[tuple[int, int]]] = []
        for e in exps:
            entries = [(k, stirling_second(e, k)) for k in range(e + 1)]
            per_var.append([(k, s) for k, s in entries if s])
        for combo in product(*per_var):
            meter.step()
            k_tuple = tuple(k for k, _ in combo)
            weight = coeff
            for _, s in combo:
                weight *= s
            accumulator[k_tuple] = accumulator.get(k_tuple, 0) + weight

    meter.flush()
    reduced: dict[tuple[int, ...], int] = {}
    for k_tuple, coeff in accumulator.items():
        if any(k >= bound for k, bound in zip(k_tuple, bounds)):
            continue  # the falling-factorial product vanishes identically
        modulus = coefficient_modulus(signature.output_width, k_tuple)
        value = coeff % modulus
        if value:
            reduced[k_tuple] = value
    ordered = tuple(sorted(reduced.items()))
    return CanonicalForm(signature, ordered)


def canonical_reduce(poly: Polynomial, signature: BitVectorSignature) -> Polynomial:
    """The least-degree power-basis polynomial computing the same function."""
    return to_canonical(poly, signature).to_polynomial()


def functions_equal(
    left: Polynomial, right: Polynomial, signature: BitVectorSignature
) -> bool:
    """Do two polynomials compute the same function over the signature?"""
    return to_canonical(left, signature) == to_canonical(right, signature)


def exhaustive_functions_equal(
    left: Polynomial, right: Polynomial, signature: BitVectorSignature
) -> bool:
    """Brute-force functional equality (only viable for tiny widths).

    Used in tests to validate the canonical form: it must agree with this
    on every pair of polynomials.
    """
    variables = signature.variables
    ranges = [range(1 << signature.width_of(v)) for v in variables]
    modulus = signature.modulus
    for point in product(*ranges):
        env: Mapping[str, int] = dict(zip(variables, point))
        if left.evaluate_mod(env, modulus) != right.evaluate_mod(env, modulus):
            return False
    return True
