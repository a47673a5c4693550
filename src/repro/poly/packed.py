"""Packed-monomial fast path: one machine integer per monomial.

The division algorithm's inner loop is dominated by tuple traffic —
``mono_mul`` allocates a fresh exponent tuple per divisor term per
reduction step, and picking the next leading term re-derives a grevlex
key over the whole work set.  Packing a monomial into a single integer
turns all three hot operations into plain int arithmetic:

* **multiply** — integer addition (exponent fields add independently),
* **divisibility** — the classic guard-bit trick: with a spare high bit
  per field, ``((a | G) - b) & G == G`` iff every field of ``b`` is at
  most the corresponding field of ``a`` (a too-large field borrows its
  guard bit away, and the guard bits stop borrows from rippling across
  fields),
* **grevlex comparison** — the fields are laid out so that the packed
  integers themselves order *inversely* to grevlex, which is exactly
  what a ``heapq`` min-heap wants for popping the leading term.

Layout (most significant first)::

    [ cap - total_degree | e_{n-1} | e_{n-2} | ... | e_0 ]

each field ``width`` bits wide.  Comparing two packed values compares
``(cap - deg, e_{n-1}, ..., e_0)`` lexicographically; the *smaller*
packed value is the grevlex-*larger* monomial (higher degree first,
then smaller trailing exponents — the grevlex tie-break).  Because the
degree field participates, packing is injective and packed values are
valid dict keys.

The encoding is only valid while every exponent (and the total degree)
stays below ``2**(width - 1)``.  Division only ever shrinks monomials,
so sizing a context from the operands' total degrees suffices there;
CSE *multiplies* monomials (co-kernel times body term), so its contexts
must be sized from the **product** degree bound — see
:meth:`PackedContext.for_degrees`, which also applies the overflow
guard.  Whenever a context cannot be built (or ``REPRO_PACKED=0`` turns
the fast path off), every consumer falls back to the reference
exponent-tuple implementation; the two paths produce byte-identical
results and the differential tests in ``tests/poly`` pin that.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Iterable, Tuple

from .monomial import Exponents

#: Hard ceiling on the packed-integer width.  Beyond this the "one
#: machine integer" premise is gone (CPython big-int limbs dominate) and
#: the tuple path is no slower — ``for_degrees`` refuses and callers
#: fall back.
_MAX_PACKED_BITS = 1024

#: ``REPRO_PACKED`` values that disable the fast path (same falsy
#: grammar as the observability toggles); unset or anything else keeps
#: it on.
_FALSY = {"0", "false", "off", "no", "none", "disabled"}

#: The environment's decision, read once at import: ``REPRO_PACKED``
#: must be set before the process starts.
_ENV_ENABLED = os.environ.get("REPRO_PACKED", "").strip().lower() not in _FALSY

#: Programmatic override (tests / harnesses): ``True``/``False`` force
#: the decision, ``None`` defers to the environment.
_FORCED: bool | None = None


def packed_enabled() -> bool:
    """Is the packed-monomial fast path enabled?

    ``REPRO_PACKED=0`` (or any falsy spelling) forces every consumer
    onto the reference tuple implementation — the escape hatch CI's
    fault-smoke job exercises.  The variable is read once, when this
    module is imported; :func:`set_packed_enabled` is the runtime
    override.
    """
    if _FORCED is not None:
        return _FORCED
    return _ENV_ENABLED


def set_packed_enabled(value: bool | None) -> None:
    """Force the fast path on/off (``None`` restores the env decision)."""
    global _FORCED
    _FORCED = value


class PackedContext:
    """Packing parameters for a fixed variable count and degree bound."""

    __slots__ = (
        "nvars", "width", "cap", "guards", "lowmask", "capshift", "degshift"
    )

    #: Interned contexts, most-recently-used last.  Guarded by
    #: ``_cache_lock``: the synthesis service probes this from worker
    #: and heartbeat threads concurrently, and eviction is bounded-LRU
    #: (hot shapes about to be reused survive; only the coldest entry
    #: is dropped).
    _cache: "OrderedDict[tuple[int, int], PackedContext]" = OrderedDict()
    _cache_lock = threading.Lock()
    _CACHE_MAX = 512

    #: ``for_degrees`` result memo, keyed ``(nvars, summed degree bound)``.
    #: Division and the CSE kernels size a context per operation — tens
    #: of thousands of calls that hit a handful of shapes, so the sizing
    #: arithmetic and the LRU probe are skipped on repeats.  Values may
    #: be ``None`` (doesn't fit).  Reads are lock-free (CPython dict
    #: reads are atomic); writes share ``_cache_lock``.
    #: Derived data only — wholesale clearing just re-derives a few keys.
    _sized: "dict[tuple[int, int], PackedContext | None]" = {}
    _SIZED_MAX = 4096

    @classmethod
    def get(cls, nvars: int, max_degree: int) -> "PackedContext":
        """Shared context for ``(nvars, max_degree)``.

        Division calls cluster heavily on a few shapes (same system, same
        divisor pool), and building the guard mask is linear in the
        variable count — worth a dict probe.  Contexts are immutable in
        practice, so sharing is safe.
        """
        key = (nvars, max_degree)
        cache = cls._cache
        with cls._cache_lock:
            ctx = cache.get(key)
            if ctx is not None:
                cache.move_to_end(key)
                return ctx
        ctx = cls(nvars, max_degree)
        with cls._cache_lock:
            existing = cache.get(key)
            if existing is not None:
                cache.move_to_end(key)
                return existing
            cache[key] = ctx
            while len(cache) > cls._CACHE_MAX:
                cache.popitem(last=False)
        return ctx

    @classmethod
    def for_degrees(cls, nvars: int, *degrees: int) -> "PackedContext | None":
        """Context sized for *products* of monomials with these degree bounds.

        Division only ever shrinks monomials, so one operand bound is
        enough there; CSE multiplies a co-kernel by a body term, and an
        undersized context would silently alias distinct monomials (the
        degree field underflows into a valid key).  Summing the bounds
        makes every reachable product packable.  The cap is rounded up
        to a power of two so nearby shapes share one interned context
        (and the per-polynomial pack memos stay hot); returns ``None``
        when the packed integer would exceed the overflow guard, which
        tells the caller to use the tuple fallback.
        """
        total = 0
        for d in degrees:
            if d > 0:
                total += d
        key = (nvars, total)
        hit = cls._sized.get(key, False)
        if hit is not False:
            return hit
        cap = 1 << max(total.bit_length(), 1)
        width = cap.bit_length() + 1
        if (nvars + 1) * width > _MAX_PACKED_BITS:
            ctx = None
        else:
            ctx = cls.get(nvars, cap)
        with cls._cache_lock:
            if len(cls._sized) >= cls._SIZED_MAX:
                cls._sized.clear()
            cls._sized[key] = ctx
        return ctx

    def __init__(self, nvars: int, max_degree: int) -> None:
        if max_degree < 1:
            max_degree = 1
        self.nvars = nvars
        # One spare (guard) bit of headroom per field: values < 2**(width-1).
        self.width = max_degree.bit_length() + 1
        self.cap = max_degree
        width = self.width
        guard_bit = 1 << (width - 1)
        guards = 0
        for i in range(nvars):
            guards |= guard_bit << (i * width)
        self.guards = guards
        self.lowmask = (1 << (nvars * width)) - 1
        # Degree field sits above the exponent fields; multiplying two
        # packed monomials adds their ``cap - deg`` fields, so one extra
        # ``cap`` must be subtracted back out (see :meth:`mul`).
        self.degshift = nvars * width
        self.capshift = self.cap << self.degshift

    # -- conversions -----------------------------------------------------

    def pack(self, exps: Exponents) -> int:
        """Pack an exponent tuple (grevlex-inverse ordered integer)."""
        width = self.width
        total = 0
        acc = self.cap
        for e in reversed(exps):
            total += e
            acc = (acc << width) | e
        # Wait until all exponents are shifted in, then fix the top field.
        return acc - (total << (self.nvars * width))

    def unpack(self, packed: int) -> Exponents:
        """Inverse of :meth:`pack`."""
        width = self.width
        mask = (1 << width) - 1
        return tuple(
            (packed >> (i * width)) & mask for i in range(self.nvars)
        )

    def pack_terms(self, terms: Iterable[Tuple[Exponents, int]]) -> dict[int, int]:
        """Pack a term mapping's keys (coefficients pass through)."""
        return {self.pack(exps): coeff for exps, coeff in terms}

    # -- arithmetic ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Packed product ``a * b`` (fields add; degree field re-based)."""
        return a + b - self.capshift

    def div(self, a: int, b: int) -> int:
        """Packed quotient ``a / b``; only valid when ``b`` divides ``a``."""
        return a - b + self.capshift

    def divides(self, b: int, a: int) -> bool:
        """True when monomial ``b`` divides monomial ``a`` field-wise."""
        guards = self.guards
        return (
            ((a & self.lowmask) | guards) - (b & self.lowmask)
        ) & guards == guards

    def degree_of(self, packed: int) -> int:
        """Total degree of a packed monomial (read off the top field)."""
        return self.cap - (packed >> self.degshift)

    def exponent_of(self, packed: int, index: int) -> int:
        """One variable's exponent (field extraction)."""
        return (packed >> (index * self.width)) & ((1 << self.width) - 1)

    def unit(self, index: int) -> int:
        """The packed monomial ``x_index`` (degree one, one field set)."""
        return ((self.cap - 1) << self.degshift) | (1 << (index * self.width))

    def exps_gcd(self, a: int, b: int) -> int:
        """Field-wise minimum of two *exponent-only* values (no degree field).

        The guard-bit comparison marks every field where ``a >= b``;
        expanding each mark to a full value mask selects ``b`` there and
        ``a`` elsewhere.  Inputs and output carry only the low
        ``nvars * width`` bits — re-attach the degree field with
        :meth:`with_degree_field` before mixing with packed monomials.
        """
        guards = self.guards
        d = ((a | guards) - b) & guards
        m = d - (d >> (self.width - 1))
        return (b & m) | (a & ~m & self.lowmask)

    def with_degree_field(self, exps_bits: int) -> int:
        """Promote exponent-only bits to a full packed monomial."""
        width = self.width
        mask = (1 << width) - 1
        total = 0
        for i in range(self.nvars):
            total += (exps_bits >> (i * width)) & mask
        return ((self.cap - total) << self.degshift) | exps_bits

    def fits(self, *degrees: int) -> bool:
        """Can monomials of these total degrees be packed losslessly?"""
        return all(d <= self.cap for d in degrees)


def packed_context_cache_size() -> int:
    """Interned :class:`PackedContext` entries currently cached."""
    with PackedContext._cache_lock:
        return len(PackedContext._cache)


def clear_packed_context_cache() -> None:
    """Drop every interned context (cold-run benchmarks start here)."""
    with PackedContext._cache_lock:
        PackedContext._cache.clear()
        PackedContext._sized.clear()


class PackedPoly:
    """Array-backed packed term store: parallel key/coefficient lists.

    The boundary representation of the packed fast path: ``keys[i]`` is
    the packed monomial of the ``i``-th term (source order preserved —
    insertion order leaks into greedy tie-breaks downstream, so order
    fidelity is part of the contract), ``coeffs[i]`` its integer
    coefficient.  Immutable by convention; the memoized instances
    returned by :func:`packed_form` are shared across callers.
    """

    __slots__ = ("ctx", "keys", "coeffs", "_map", "_lr")

    def __init__(self, ctx: PackedContext, keys: list[int], coeffs: list[int]):
        self.ctx = ctx
        self.keys = keys
        self.coeffs = coeffs
        self._map: dict[int, int] | None = None
        self._lr: tuple[int, int, list[tuple[int, int]]] | None = None

    @classmethod
    def from_terms(
        cls, ctx: PackedContext, terms: Iterable[Tuple[Exponents, int]]
    ) -> "PackedPoly":
        """Pack ``(exponents, coeff)`` pairs, preserving their order."""
        pack = ctx.pack
        keys: list[int] = []
        coeffs: list[int] = []
        for exps, coeff in terms:
            keys.append(pack(exps))
            coeffs.append(coeff)
        return cls(ctx, keys, coeffs)

    @classmethod
    def from_polynomial(cls, poly, ctx: PackedContext) -> "PackedPoly":
        """Pack a :class:`~repro.poly.polynomial.Polynomial`'s terms."""
        return cls.from_terms(ctx, poly.terms.items())

    def to_terms(self) -> list[Tuple[Exponents, int]]:
        """Tuple round-trip: ``(exponents, coeff)`` pairs in stored order."""
        unpack = self.ctx.unpack
        return [(unpack(k), c) for k, c in zip(self.keys, self.coeffs)]

    def to_term_dict(self) -> dict[Exponents, int]:
        """Tuple round-trip as a term mapping (stored order preserved)."""
        unpack = self.ctx.unpack
        return {unpack(k): c for k, c in zip(self.keys, self.coeffs)}

    def term_map(self) -> dict[int, int]:
        """Packed-key -> coefficient dict (built lazily, then shared).

        Callers must treat the result as read-only; consumers that
        reduce in place (the division core) copy it first.
        """
        mapping = self._map
        if mapping is None:
            mapping = self._map = dict(zip(self.keys, self.coeffs))
        return mapping

    def __len__(self) -> int:
        return len(self.keys)

    def leading(self) -> Tuple[int, int]:
        """Grevlex-leading ``(packed key, coeff)`` (min packed value)."""
        if not self.keys:
            raise ValueError("zero polynomial has no leading term")
        lead = min(self.keys)
        return lead, self.term_map()[lead]

    def lead_rest(self) -> tuple[int, int, list[tuple[int, int]]]:
        """(lead key, lead coeff, non-leading items) — the division view.

        Memoized: a multiplicity loop reduces by the same divisor
        repeatedly, and this instance is itself shared through the
        :func:`packed_form` memo.
        """
        lr = self._lr
        if lr is None:
            dmap = self.term_map()
            lead = min(dmap)
            lr = self._lr = (
                lead,
                dmap[lead],
                [(p, c) for p, c in dmap.items() if p != lead],
            )
        return lr

    def total_degree(self) -> int:
        """Maximum total degree over the stored terms; -1 when empty."""
        if not self.keys:
            return -1
        return self.ctx.degree_of(min(self.keys))


def packed_form(poly, ctx: PackedContext) -> PackedPoly:
    """Memoized :class:`PackedPoly` of a polynomial under a context.

    The division and CSE hot paths meet the same polynomial instances
    repeatedly; the packing is cached on the polynomial instance, keyed
    by the context's shape.  ``poly.vars``
    must align with ``ctx.nvars`` and every term must fit — callers
    size the context first (:meth:`PackedContext.for_degrees`).
    """
    cache = poly._pk
    key = (ctx.nvars, ctx.cap)
    if cache is None:
        cache = poly._pk = {}
    else:
        hit = cache.get(key)
        if hit is not None:
            return hit
    packed = PackedPoly.from_polynomial(poly, ctx)
    cache[key] = packed
    return packed
