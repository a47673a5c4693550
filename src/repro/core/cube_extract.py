"""Cube_Ex — common cube / kernel exposure (paper Section 14.4.2).

The paper employs kernel/co-kernel extraction "for extracting cubes
composed only of variables" (coefficients are CCE's job) and records both
the co-kernel cubes and the kernels as potential building blocks.  What
the integrated flow actually consumes downstream is the set of **linear
kernels** — they become the divisor pool of algebraic division
(Section 14.4.3: "we consider only the exposed linear expressions as
algebraic divisors"), e.g. ``{(x+6y), (6x+9y), (x+3y)}`` for the
motivating system.

The factored *representations* (``P1 = (xy)(x+z)``) do not need to be
materialized here: the final CSE pass re-derives any profitable kernel
factoring from the flat form, and the cost model scores it identically.
"""

from __future__ import annotations

from repro.cse import all_kernels
from repro.obs import current_tracer
from repro.poly import Polynomial

from .blocks import BlockRegistry
from .budget import current_deadline


def exposed_linear_kernels(poly: Polynomial) -> list[Polynomial]:
    """All linear kernels of a polynomial (ground form, unregistered)."""
    out: list[Polynomial] = []
    seen: set[Polynomial] = set()
    for entry in all_kernels(poly):
        kernel = entry.kernel.trim()
        if kernel.is_linear and len(kernel) >= 2 and kernel not in seen:
            seen.add(kernel)
            out.append(kernel)
    return out


def cube_extraction(
    polys: list[Polynomial],
    registry: BlockRegistry,
    modular: list[bool] | None = None,
) -> list[str]:
    """Expose linear kernels of every polynomial (and block definition).

    Registers each as a block and returns the names.  Polynomials may
    reference block variables; kernels are computed on the expressions as
    given *and* on their ground expansions, so structure hidden behind a
    CCE block (``4(xy^2+3y^3)`` hiding the kernel ``x+3y``) is still
    found.

    ``modular`` flags, per polynomial, whether it is a canonical
    (mod ``2^m``) form (default: all).  Only those are expanded: an exact
    representation expands to its system polynomial, which — as the
    ``original`` representation — comes earlier in ``polys``, so its
    kernels are already seen and harvesting the expansion again would
    register nothing.
    """
    meter = current_deadline().meter("cube_extract/harvest")
    names: list[str] = []
    seen: set[Polynomial] = set()
    tracer = current_tracer()
    emitting = tracer.emitting  # hoisted: harvest runs inside the search loop

    defs = registry.defs

    def harvest(poly: Polynomial) -> None:
        for kernel in exposed_linear_kernels(poly):
            meter.step()
            if any(name in defs for name in kernel.used_vars()):
                ground = registry.expand(kernel).trim()
            else:
                # Block-variable-free kernels expand to themselves (the
                # substitution machinery reduces to a trim) — and they are
                # already trimmed by exposed_linear_kernels.
                ground = kernel
            if not ground.is_linear or ground.is_constant or ground.is_zero:
                continue
            if ground in seen:
                continue
            seen.add(ground)
            name, _ = registry.register(kernel, ground)
            if name not in names:
                names.append(name)
                if emitting:
                    tracer.emit(
                        "block_registered",
                        name=name,
                        source="cube_extract",
                        definition=str(ground),
                    )

    with tracer.span("cube_extract/kernels") as span:
        if modular is None:
            modular = [True] * len(polys)
        for poly, canonical in zip(polys, modular):
            harvest(poly)
            # Without block variables the expansion could only re-trim the
            # polynomial, whose (trimmed) kernels harvest already saw.
            if canonical and any(name in defs for name in poly.used_vars()):
                expanded = registry.expand(poly)
                if expanded != poly:
                    harvest(expanded)
        for block_name in list(registry.defs):
            harvest(registry.ground[block_name])
        meter.flush()
        span.count(kernels=len(names))
    return names


def homogeneous_part(poly: Polynomial) -> Polynomial:
    """The top-total-degree homogeneous part of a polynomial."""
    degree = poly.total_degree()
    if degree < 0:
        return poly
    return Polynomial(
        poly.vars,
        {e: c for e, c in poly.terms.items() if sum(e) == degree},
    )


def expose_homogeneous_factors(
    polys: list[Polynomial], registry: BlockRegistry
) -> list[str]:
    """Factor each polynomial's top homogeneous form; register linear factors.

    The top-degree form is invariant under input shifts and immune to the
    additive tails that defeat whole-polynomial factoring, so this is
    where hidden linear structure (``72x^2+96xy+32y^2 = 8(3x+2y)^2``)
    surfaces even when the polynomial itself is irreducible.  CCE's GCD
    filter can never split such a group (the content 8 is smaller than
    every coefficient — Algorithm 6 line 6), so this exposure step is what
    hands algebraic division its divisor.
    """
    from repro.factor import factor_polynomial

    names: list[str] = []
    seen: set[Polynomial] = set()
    tracer = current_tracer()
    emitting = tracer.emitting
    with tracer.span("cube_extract/homogeneous") as span:
        for poly in polys:
            ground = registry.expand(poly)
            top = homogeneous_part(ground).primitive_part()
            if top.is_constant or top.total_degree() < 2 or len(top) < 2:
                continue
            key = top.trim()
            if key in seen:
                continue
            seen.add(key)
            factorization = factor_polynomial(top)
            for base, _ in factorization.factors:
                if base.is_linear and len(base) >= 2:
                    name, _ = registry.register(base)
                    if name not in names:
                        names.append(name)
                        if emitting:
                            tracer.emit(
                                "block_registered",
                                name=name,
                                source="homogeneous",
                                definition=str(base),
                            )
        span.count(forms=len(seen), factors=len(names))
    return names
