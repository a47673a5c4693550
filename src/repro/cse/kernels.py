"""Kernel / co-kernel extraction (paper Section 14.2.1, after [13]).

For a polynomial ``P`` and a cube ``c``, ``P/c`` is a *kernel* when it is
cube-free and has at least two terms; ``c`` is its *co-kernel*.  Kernels
are where multiple-term common sub-expressions hide: two polynomials share
a multi-term factor iff the factor appears within intersecting kernels
(Brayton's theorem, carried over to polynomials by Hosangadi et al.).

The generator below is the classical recursive enumeration adapted to
integer exponents: literals are variables (coefficients are *never*
divided here — the paper routes coefficient sharing through CCE instead),
and dividing by a literal removes one power of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.poly import Polynomial
from repro.poly.monomial import Exponents, mono_gcd_many, mono_is_one, mono_mul


@dataclass(frozen=True)
class KernelEntry:
    """One (co-kernel cube, kernel polynomial) pair."""

    cokernel: Exponents
    kernel: Polynomial


def _divide_by_literal(poly: Polynomial, index: int) -> Polynomial:
    """Divide the sub-polynomial of terms containing variable ``index``."""
    terms = {
        e[:index] + (e[index] - 1,) + e[index + 1:]: c
        for e, c in poly.terms.items()
        if e[index]
    }
    return Polynomial._raw(poly.vars, terms)


def _common_cube(poly: Polynomial) -> Exponents:
    return mono_gcd_many(poly.terms.keys()) if len(poly) else (0,) * len(poly.vars)


def _divide_by_cube(poly: Polynomial, cube: Exponents) -> Polynomial:
    if mono_is_one(cube):
        return poly
    return Polynomial._raw(
        poly.vars,
        {tuple(x - y for x, y in zip(e, cube)): c for e, c in poly.terms.items()},
    )


def _first_visit(
    seen: set[tuple[Exponents, frozenset]], cokernel: Exponents, kernel: Polynomial
) -> bool:
    """True the first time a (co-kernel, kernel) pair is reached."""
    key = (cokernel, frozenset(kernel.terms.items()))
    if key in seen:
        return False
    seen.add(key)
    return True


def _kernels_below(
    current: Polynomial,
    cokernel: Exponents,
    min_index: int,
    seen: set[tuple[Exponents, frozenset]],
) -> Iterator[KernelEntry]:
    """The kernels reached from ``current`` by dividing literals ``>= min_index``."""
    nvars = len(current.vars)
    for j in range(min_index, nvars):
        count = sum(1 for e in current.terms if e[j])
        if count < 2:
            continue
        divided = _divide_by_literal(current, j)
        cube = _common_cube(divided)
        if any(cube[k] for k in range(j)):
            # A smaller literal divides the quotient: this kernel will
            # be found (or was) through that literal instead.
            continue
        kernel = _divide_by_cube(divided, cube)
        if len(kernel) < 2:
            continue
        step = mono_mul(
            cokernel, mono_mul(cube, tuple(1 if k == j else 0 for k in range(nvars)))
        )
        if _first_visit(seen, step, kernel):
            yield KernelEntry(step, kernel)
        yield from _kernels_below(kernel, step, j, seen)


def iter_kernels(poly: Polynomial) -> Iterator[KernelEntry]:
    """Enumerate all (co-kernel, kernel) pairs of a polynomial.

    Includes the polynomial itself (with co-kernel 1) when it is cube-free
    with at least two terms, per the standard definition.  Duplicate paths
    are pruned with the classical "no smaller literal in the extracted
    cube" test.
    """
    if len(poly) < 2:
        return
    seen: set[tuple[Exponents, frozenset]] = set()
    top_cube = _common_cube(poly)
    top = _divide_by_cube(poly, top_cube)
    if len(top) >= 2 and _first_visit(seen, top_cube, top):
        yield KernelEntry(top_cube, top)
    yield from _kernels_below(top, top_cube, 0, seen)


#: Content-keyed memo of kernel enumerations.  Keys are the *trimmed*
#: polynomial's (variable names, term set), so the same mathematical
#: polynomial hits regardless of how many unused block variables pad its
#: tuple — the CSE extractor pads its polynomials with reserved block
#: columns, and the combination search re-runs CSE over largely identical
#: rows, so hit rates are high.  Bounded by wholesale clearing (the
#: entries are cheap to rebuild and an LRU would put bookkeeping on the
#: hot path).
_KERNEL_CACHE: dict[tuple, tuple[KernelEntry, ...]] = {}
_KERNEL_CACHE_MAX = 8192

#: Second-level memo of already-rehydrated results, keyed by the *exact*
#: (variable tuple, term set) pair, so repeat calls on the same aligned
#: polynomial skip both trimming and rehydration entirely.
_ALIGNED_CACHE: dict[tuple, list[KernelEntry]] = {}


def clear_kernel_cache() -> None:
    """Drop the kernel memo (tests use this to measure cold runs)."""
    _KERNEL_CACHE.clear()
    _ALIGNED_CACHE.clear()


def kernel_cache_size() -> int:
    """Entries currently held by the content-keyed kernel memo."""
    return len(_KERNEL_CACHE)


def trimmed_kernels(
    poly: Polynomial,
) -> tuple[tuple[str, ...], tuple[KernelEntry, ...]]:
    """Every kernel/co-kernel pair over the polynomial's *used* variables.

    Returns ``(used variables, entries)``; the entries' exponent tuples
    range over the used variables only.  Memoized by content, so the
    same polynomial hits however many unused variables pad its tuple.
    """
    trimmed = poly.trim()
    key = (trimmed.vars, frozenset(trimmed.terms.items()))
    cached = _KERNEL_CACHE.get(key)
    if cached is None:
        if len(_KERNEL_CACHE) >= _KERNEL_CACHE_MAX:
            _KERNEL_CACHE.clear()
        cached = tuple(iter_kernels(trimmed))
        _KERNEL_CACHE[key] = cached
    return trimmed.vars, cached


def all_kernels(poly: Polynomial) -> list[KernelEntry]:
    """List of every kernel/co-kernel pair (see :func:`iter_kernels`).

    Memoized by polynomial content: enumeration is the combination
    search's hottest sub-step, and the search re-visits the same
    representation polynomials (modulo variable padding) across many
    scored combinations.  Cached entries are rehydrated onto the
    caller's variable tuple; the kernels themselves are immutable.
    """
    aligned_key = (poly.vars, frozenset(poly.terms.items()))
    hit = _ALIGNED_CACHE.get(aligned_key)
    if hit is not None:
        return hit
    used, cached = trimmed_kernels(poly)
    if used == poly.vars:
        out = list(cached)
    else:
        # Re-express the trimmed enumeration over the caller's variables.
        index_of = {v: i for i, v in enumerate(poly.vars)}
        positions = [index_of[v] for v in used]
        nvars = len(poly.vars)
        out = []
        for entry in cached:
            cokernel = [0] * nvars
            for pos, e in zip(positions, entry.cokernel):
                cokernel[pos] = e
            terms = {}
            for exps, coeff in entry.kernel.terms.items():
                full = [0] * nvars
                for pos, e in zip(positions, exps):
                    full[pos] = e
                terms[tuple(full)] = coeff
            out.append(
                KernelEntry(tuple(cokernel), Polynomial._raw(poly.vars, terms))
            )
    if len(_ALIGNED_CACHE) >= _KERNEL_CACHE_MAX:
        _ALIGNED_CACHE.clear()
    _ALIGNED_CACHE[aligned_key] = out
    return out


def is_cube_free(poly: Polynomial) -> bool:
    """True when no non-unit cube divides every term."""
    if poly.is_zero:
        return False
    return mono_is_one(_common_cube(poly))
