"""Packed monomials for grevlex division: one integer per monomial.

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
so a context sized from the operands' total degrees suffices — see
:meth:`PackedContext.for_degrees`.  Python ints are unbounded, so wide
variable counts just make longer keys: every grevlex division runs
here, and ``tests/poly`` pins it against the exponent-tuple reference
loop in :mod:`repro.poly.division`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .monomial import Exponents


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

    #: ``for_degrees`` result memo, keyed ``(nvars, degree bound)``.
    #: Every division sizes a context — tens of thousands of calls that
    #: hit a handful of shapes — so repeats skip the sizing arithmetic
    #: and the locked LRU probe.  Reads are lock-free (CPython dict reads
    #: are atomic); writes share ``_cache_lock``.  Derived data only —
    #: wholesale clearing just re-derives a few keys.
    _sized: "dict[tuple[int, int], PackedContext]" = {}
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
    def for_degrees(cls, nvars: int, degree: int) -> "PackedContext":
        """Context for monomials of total degree at most ``degree``.

        Division only ever shrinks monomials, so the operands' degree
        bound covers every monomial a division touches.  The cap is
        rounded up to a power of two so nearby shapes share one interned
        context (and the per-polynomial pack memos stay hot).
        """
        key = (nvars, degree)
        ctx = cls._sized.get(key)
        if ctx is None:
            ctx = cls.get(nvars, 1 << max(degree.bit_length(), 1))
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
        # ``cap`` must be subtracted back out (the division core's
        # ``q + d - capshift``).
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

    # -- arithmetic ------------------------------------------------------

    def divides(self, b: int, a: int) -> bool:
        """True when monomial ``b`` divides monomial ``a`` field-wise."""
        guards = self.guards
        return (
            ((a & self.lowmask) | guards) - (b & self.lowmask)
        ) & guards == guards

    def degree_of(self, packed: int) -> int:
        """Total degree of a packed monomial (read off the top field)."""
        return self.cap - (packed >> self.degshift)

    def unit(self, index: int) -> int:
        """The packed monomial ``x_index`` (degree one, one field set)."""
        return ((self.cap - 1) << self.degshift) | (1 << (index * self.width))


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

    The boundary representation of packed division: ``keys[i]`` is
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
    def from_polynomial(cls, poly, ctx: PackedContext) -> "PackedPoly":
        """Pack a :class:`~repro.poly.polynomial.Polynomial`'s terms in order."""
        pack = ctx.pack
        keys: list[int] = []
        coeffs: list[int] = []
        for exps, coeff in poly.terms.items():
            keys.append(pack(exps))
            coeffs.append(coeff)
        return cls(ctx, keys, coeffs)

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


def packed_form(poly, ctx: PackedContext) -> PackedPoly:
    """Memoized :class:`PackedPoly` of a polynomial under a context.

    Division meets the same polynomial instances repeatedly; the packing
    is cached on the polynomial instance, keyed by the context's shape.
    ``poly.vars`` must align with ``ctx.nvars`` and every term must fit
    — callers size the context first (:meth:`PackedContext.for_degrees`).
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
