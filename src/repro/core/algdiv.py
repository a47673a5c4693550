"""Algebraic division by linear building blocks (paper Section 14.4.3).

Given the divisor pool exposed by CCE and Cube_Ex, every polynomial (and
every non-trivial block definition) is divided by every linear block::

    P = l * q + r,   then recursively  q = l * q' + r'  (powers of l)

A successful chain turns ``x^2 + 6xy + 9y^2`` into ``d^2`` with
``d = x + 3y`` — "possible only through algebraic division; none of the
other expression manipulation techniques can identify this
transformation".  Divisions are kept as *candidate representations*; the
combination search of Algorithm 7 decides which ones win.

Both sweeps over the divisor pool avoid work that cannot change their
result:

* :func:`refine_block_definitions` evaluates every ground polynomial at
  two fixed integer points and skips a (ground, divisor) pair whose
  values do not divide.  The skip is exact: ``l | g`` in ``Z[x]``
  implies ``l(a) | g(a)``.  Only the pairs that pass are divided.
* :func:`division_candidates` sizes one packed context per dividend —
  every divisor is linear, so the dividend's degree bounds every pair —
  and packs each divisor straight into the dividend's variable frame
  (:func:`_pack_linear`), so no divisor is re-aligned or re-packed.
"""

from __future__ import annotations

import random

from repro.obs import current_tracer
from repro.poly import Polynomial, divide_out_all
from repro.poly.division import _packed_divmod_core
from repro.poly.packed import PackedContext, packed_form

from .blocks import BlockRegistry
from .budget import current_deadline

#: Seed of the refinement screen's evaluation points.  Fixed, so which
#: pairs reach exact division never depends on the run or the hash seed.
_SCREEN_SEED = 0x5C4EE1

#: A packed divisor: ``(leading monomial, leading coeff, other terms)``.
PackedDivisor = tuple[int, int, list[tuple[int, int]]]

#: Packed ``(quotient, remainder)`` of each reduction level of a chain.
Levels = list[tuple[dict[int, int], dict[int, int]]]


def divide_by_block(
    poly: Polynomial,
    divisor_ground: Polynomial,
    block_name: str,
    max_depth: int = 8,
) -> Polynomial | None:
    """Express ``poly`` as nested multiples of one linear block.

    Returns a polynomial over ``poly.vars + (block_name,)`` (the block
    variable carries the divisor), or ``None`` when the divisor yields no
    quotient at all.  The identity ``result[block := divisor] == poly``
    holds exactly.
    """
    if divisor_ground.vars != poly.vars:
        # Align the operands once up front: the recursion below divides
        # the quotient (already over these variables) by the same divisor
        # repeatedly, and per-level re-unification was a dominant cost of
        # the division phase.
        if set(divisor_ground.used_vars()) <= set(poly.vars):
            divisor_ground = divisor_ground.with_vars(poly.vars)
        else:
            poly, divisor_ground = Polynomial.unify(poly, divisor_ground)
    ctx = PackedContext.for_degrees(
        len(poly.vars), max(poly.total_degree(), divisor_ground.total_degree())
    )
    levels = _packed_division_levels(
        packed_form(poly, ctx).term_map(),
        packed_form(divisor_ground, ctx).lead_rest(),
        max_depth,
        ctx,
    )
    if levels is None:
        return None
    return _assemble_packed_levels(poly, levels, block_name, ctx)


def _pack_linear(
    divisor: Polynomial, unit_of: dict[str | None, int]
) -> PackedDivisor:
    """A linear divisor packed into a dividend's variable frame.

    ``unit_of`` maps each dividend variable to its packed monomial
    (``ctx.unit(position)``) and ``None`` to the packed constant
    monomial (``ctx.capshift``).  A linear term is a constant or one
    variable, so the divisor never needs aligning to the dividend
    first.
    """
    names = divisor.vars
    packed: dict[int, int] = {}
    for exps, coeff in divisor.terms.items():
        packed[unit_of[names[exps.index(1)] if 1 in exps else None]] = coeff
    lead = min(packed)
    return lead, packed[lead], [(p, c) for p, c in packed.items() if p != lead]


def _packed_division_levels(
    work_map: dict[int, int],
    divisor: PackedDivisor,
    max_depth: int,
    ctx: PackedContext,
) -> Levels | None:
    """The packed quotient/remainder chain of a block division.

    Reduces ``P = l*(l*(...*q + r_m...) + r_1) + r_0`` entirely in
    packed space, starting from the packed dividend ``work_map`` (read,
    never mutated); level ``k`` holds the ``(quotient, remainder)``
    dicts of the ``k``-th reduction.  Returns ``None`` when the divisor
    yields no quotient at all.  Kept separate from the polynomial
    assembly so the candidate loop can rank chains by term count and
    only materialize the winners.
    """
    lead, lead_coeff, rest = divisor
    divisor_degree = ctx.degree_of(lead)
    divides = ctx.divides
    degree_of = ctx.degree_of
    levels: Levels = []
    depth = max_depth
    while True:
        # Zero-quotient early-out (same probe as divmod_poly): no term
        # divisible by the divisor's lead means no quotient at all.
        for p, c in work_map.items():
            if c % lead_coeff == 0 and divides(lead, p):
                break
        else:
            break
        quotient, remainder = _packed_divmod_core(
            dict(work_map), lead, lead_coeff, rest, ctx
        )
        if not quotient:
            break
        levels.append((quotient, remainder))
        depth -= 1
        if depth < 1 or degree_of(min(quotient)) < divisor_degree:
            break
        work_map = quotient
    return levels or None


def _level_term_count(levels: Levels) -> int:
    """``len()`` of the polynomial the levels assemble to, without building it.

    Every level gets a distinct block power, so no two emitted terms can
    collide and the counts simply add.
    """
    return len(levels[-1][0]) + sum(len(rem) for _, rem in levels)


def _assemble_packed_levels(
    poly: Polynomial,
    levels: Levels,
    block_name: str,
    ctx: PackedContext,
) -> Polynomial:
    """Materialize a division chain as ``block^(m+1)*q_m + sum block^k*r_k``.

    Term order of the result is that of the nested polynomial
    construction ``block * inner + remainder``: the deepest quotient's
    terms first (highest block power), then each level's remainder in
    descending block power, every group in its reduction order.  The
    variable tuple is the sorted union that construction's unify would
    produce.
    """
    union = tuple(sorted(set(poly.vars) | {block_name}))
    block_at = union.index(block_name)
    position = [union.index(v) for v in poly.vars]
    nunion = len(union)
    unpack = ctx.unpack
    terms: dict[tuple, int] = {}

    def emit(packed_terms: dict[int, int], block_power: int) -> None:
        for p, coeff in packed_terms.items():
            exps = unpack(p)
            out = [0] * nunion
            for src, dst in enumerate(position):
                out[dst] = exps[src]
            out[block_at] = block_power
            terms[tuple(out)] = coeff

    deepest = len(levels) - 1
    emit(levels[deepest][0], deepest + 1)
    for level in range(deepest, -1, -1):
        emit(levels[level][1], level)
    return Polynomial._raw(union, terms)


def division_candidates(
    ground_poly: Polynomial,
    registry: BlockRegistry,
    max_candidates: int = 6,
) -> list[Polynomial]:
    """Candidate representations of one polynomial via the divisor pool.

    Tries every registered linear block; candidates are ranked by how much
    structure the division removed (fewer remaining ground terms first)
    and capped at ``max_candidates``.  The dividend is packed once,
    every divisor is packed into its variable frame, and losing chains
    are never materialized: the ranking key (the assembled
    term count) is read off the packed level dicts, and only the
    ``max_candidates`` survivors are built into polynomials after the
    sort.  A candidate always carries a positive power of its block
    variable, which the dividend does not use, so no candidate can be
    the dividend itself.
    """
    candidates: list[tuple[int, Levels, str]] = []
    poly_vars = set(ground_poly.used_vars())
    # A divisor's degree is at most 1 and an admitted divisor's variables
    # all occur in the dividend, so this is the context every (dividend,
    # divisor) pair would size on its own.
    ctx = PackedContext.for_degrees(len(ground_poly.vars), ground_poly.total_degree())
    work_map = packed_form(ground_poly, ctx).term_map()
    unit_of: dict[str | None, int] = {
        v: ctx.unit(i) for i, v in enumerate(ground_poly.vars)
    }
    unit_of[None] = ctx.capshift
    meter = current_deadline().meter("algdiv/divide")
    with current_tracer().span("algdiv/divide") as span:
        divisors = 0
        for name, divisor in registry.linear_blocks():
            meter.step()
            if name in poly_vars:
                # The block's own variable appears (with positive degree)
                # in the polynomial — dividing would be self-referential.
                continue
            if not poly_vars.issuperset(divisor.used_vars()):
                continue  # the divisor mentions variables the polynomial lacks
            divisors += 1
            levels = _packed_division_levels(
                work_map, _pack_linear(divisor, unit_of), 8, ctx
            )
            if levels is not None:
                # Rank: strongly prefer representations with fewer terms
                # (more of the polynomial folded into the block structure).
                candidates.append((_level_term_count(levels), levels, name))
        meter.flush()
        span.count(divisors=divisors, candidates=len(candidates))
    candidates.sort(key=lambda item: item[0])
    return [
        _assemble_packed_levels(ground_poly, levels, name, ctx)
        for _, levels, name in candidates[:max_candidates]
    ]


def refine_block_definitions(registry: BlockRegistry) -> int:
    """Rewrite block definitions through other blocks when exact.

    For every block whose ground polynomial is exactly divisible by some
    *other* linear block (possibly repeatedly), replace its definition by
    the factored form — e.g. the CCE block ``x^2 + 2xy + y^2`` becomes
    ``d1^2`` once ``d1 = x + y`` exists.  Returns how many definitions
    were rewritten.
    """
    with current_tracer().span("algdiv/refine") as span:
        rewritten = _refine_block_definitions(registry)
        span.count(rewritten=rewritten)
    return rewritten


def _screen_points(names: set[str]) -> tuple[dict[str, int], dict[str, int]]:
    """The two evaluation points of the refinement screen.

    Every variable gets an odd 61-bit value drawn from a fixed-seed
    generator in sorted-name order, so the points depend only on the
    variable names.
    """
    rng = random.Random(_SCREEN_SEED)
    ordered = sorted(names)
    first = {v: rng.getrandbits(61) | 1 for v in ordered}
    second = {v: rng.getrandbits(61) | 1 for v in ordered}
    return first, second


def _refine_block_definitions(registry: BlockRegistry) -> int:
    meter = current_deadline().meter("algdiv/refine")
    rewritten = 0
    names: set[str] = set()
    for ground in registry.ground.values():
        names.update(ground.used_vars())
    first, second = _screen_points(names)
    divisors = [
        (
            divisor_name,
            divisor,
            set(divisor.used_vars()),
            divisor.evaluate(first),
            divisor.evaluate(second),
        )
        for divisor_name, divisor in registry.linear_blocks()
    ]
    for name in list(registry.defs):
        ground = registry.ground[name]
        if ground.is_linear:
            continue
        best: Polynomial | None = None
        ground_used = set(ground.used_vars())
        at_first = ground.evaluate(first)
        at_second = ground.evaluate(second)
        for divisor_name, divisor, divisor_used, l_first, l_second in divisors:
            meter.step()
            if divisor_name == name:
                continue
            # Exact divisibility over Z needs every divisor variable to
            # appear in the dividend (a product cannot erase a variable).
            if not divisor_used <= ground_used:
                continue
            # ``l | g`` implies ``l(a) | g(a)``: a point where the values
            # do not divide proves the division would fail.
            if (l_first and at_first % l_first) or (
                l_second and at_second % l_second
            ):
                continue
            reduced, multiplicity = divide_out_all(ground, divisor)
            if multiplicity == 0:
                continue
            new_vars = tuple(dict.fromkeys(reduced.vars + (divisor_name,)))
            block_var = Polynomial.variable(divisor_name, new_vars)
            candidate = reduced.with_vars(new_vars) * block_var ** multiplicity
            if best is None or len(candidate) < len(best):
                best = candidate
        if best is not None and len(best) < len(registry.defs[name]):
            registry.rewrite_definition(name, best)
            rewritten += 1
    meter.flush()
    return rewritten
