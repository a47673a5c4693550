"""Common Coefficient Extraction — Algorithm 6 of the paper.

Kernel/co-kernel factoring treats numeric coefficients as opaque literals,
so it can never see ``8x + 16y + 24z = 8(x + 2y + 3z)``.  CCE fixes that
with integer GCDs:

1. collect the coefficients involved in multiplications (the standalone
   additive constant is ignored — implementing ``+11`` directly is free),
2. compute all pairwise GCDs, keeping only those equal to one of the two
   coefficients (a GCD strictly smaller than both, like ``gcd(24,30)=6``,
   would *add* multipliers: ``6(4z+5b)`` is worse than ``24z+30b``),
3. walk the surviving GCDs in decreasing order, extracting each group of
   still-unconsumed terms it divides,
4. register the extracted groups as building blocks — the linear ones
   feed algebraic division later.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from repro.obs import current_tracer
from repro.poly import Polynomial
from repro.poly.monomial import mono_literal_count

from .blocks import BlockRegistry
from .budget import current_deadline


@dataclass(frozen=True)
class CceResult:
    """Rewritten polynomial plus the blocks the extraction created."""

    poly: Polynomial           # over the original variables + block variables
    extracted: tuple[str, ...]  # block names, in extraction order


def candidate_gcds(coefficients: list[int]) -> list[int]:
    """The filtered, descending GCD list of Algorithm 6 (lines 3-10)."""
    deadline = current_deadline()
    magnitudes = [abs(c) for c in coefficients if abs(c) > 1]
    kept: set[int] = set()
    for i in range(len(magnitudes)):
        deadline.tick(len(magnitudes) - i - 1, site="cce/candidate_gcds")
        for j in range(i + 1, len(magnitudes)):
            g = gcd(magnitudes[i], magnitudes[j])
            if g == 1:
                continue
            if g < magnitudes[i] and g < magnitudes[j]:
                continue
            kept.add(g)
    return sorted(kept, reverse=True)


def common_coefficient_extraction(
    poly: Polynomial, registry: BlockRegistry
) -> CceResult | None:
    """Apply Algorithm 6 to one polynomial.

    Returns ``None`` when no extraction applies.  The rewritten polynomial
    is expressed over the original variables plus one fresh block variable
    per extracted group; substituting the definitions back reproduces the
    input exactly (an integer identity — CCE never needs modular
    reasoning).
    """
    eligible = {
        exps: coeff
        for exps, coeff in poly.terms.items()
        if mono_literal_count(exps) >= 1 and abs(coeff) > 1
    }
    if len(eligible) < 2:
        return None
    with current_tracer().span("cce/gcd_pass") as span:
        gcd_list = candidate_gcds(list(eligible.values()))
        span.count(eligible=len(eligible), gcds=len(gcd_list))
        if not gcd_list:
            return None

        deadline = current_deadline()
        consumed: set = set()
        groups: list[tuple[int, dict]] = []
        for g in gcd_list:
            deadline.tick(len(eligible), site="cce/group")
            group = {
                exps: coeff
                for exps, coeff in eligible.items()
                if exps not in consumed and coeff % g == 0
            }
            if len(group) < 2:
                continue
            consumed.update(group)
            groups.append(
                (g, {exps: coeff // g for exps, coeff in group.items()})
            )
        span.count(groups=len(groups))
    if not groups:
        return None

    leftover = {
        exps: coeff for exps, coeff in poly.terms.items() if exps not in consumed
    }
    new_vars = poly.vars
    rebuilt = Polynomial._raw(new_vars, leftover)
    names: list[str] = []
    for g, block_terms in groups:
        block_poly = Polynomial._raw(poly.vars, block_terms)
        name, sign = registry.register(block_poly)
        names.append(name)
        if name not in new_vars:
            new_vars = new_vars + (name,)
        rebuilt = rebuilt.with_vars(new_vars) if rebuilt.vars != new_vars else rebuilt
        block_var = Polynomial.variable(name, new_vars)
        rebuilt = rebuilt + block_var.scale(g * sign)
    return CceResult(rebuilt, tuple(names))
