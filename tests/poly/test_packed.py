"""Differential property tests: packed division agrees with tuples.

Grevlex division (:mod:`repro.poly.division`) runs on packed monomials
(:mod:`repro.poly.packed`): multiplication, divisibility and grevlex
comparison become plain integer arithmetic.  A silent field overflow or
an off-by-one in the guard-bit trick would not crash — it would alias
distinct monomials and quietly change division results downstream.  So
every packed operation the division loop uses is pinned against the
reference ``mono_*`` tuple implementation over hypothesis-generated
exponent tuples, and the two whole-polynomial entry points
(``divmod_poly``, ``divide_out_all``) are checked against the
exponent-tuple reference loop ``_divmod_generic`` for exact result
identity, including term order and variable order.
"""

from __future__ import annotations

import random
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.poly import Polynomial
from repro.poly.division import _divmod_generic, divide_out_all, divmod_poly
from repro.poly.monomial import mono_degree, mono_div, mono_divides, mono_mul
from repro.poly.orderings import grevlex_key
from repro.poly.packed import (
    PackedContext,
    PackedPoly,
    clear_packed_context_cache,
    packed_context_cache_size,
    packed_form,
)

# Exponent tuples: 1..6 variables, entries small enough that products of
# two monomials stay inside a product-sized context.
NVARS = st.shared(st.integers(min_value=1, max_value=6), key="nvars")


def exponents(max_exp: int = 9):
    return NVARS.flatmap(
        lambda n: st.tuples(
            *[st.integers(min_value=0, max_value=max_exp)] * n
        )
    )


def _product_context(*tuples):
    """Context that holds every product of two of these monomials."""
    nvars = len(tuples[0])
    return PackedContext.for_degrees(nvars, 2 * max(sum(t) for t in tuples))


class TestPackedMonomialOps:
    @given(exponents())
    def test_pack_unpack_roundtrip(self, exps):
        ctx = _product_context(exps)
        assert ctx.unpack(ctx.pack(exps)) == exps

    @given(exponents(), exponents())
    def test_mul_matches_mono_mul(self, a, b):
        # The division core's product: ``target = q + d - capshift``.
        ctx = _product_context(a, b)
        product = ctx.pack(a) + ctx.pack(b) - ctx.capshift
        assert ctx.unpack(product) == mono_mul(a, b)
        assert ctx.degree_of(product) == mono_degree(mono_mul(a, b))

    @given(exponents(), exponents())
    def test_divides_matches_mono_divides(self, a, b):
        ctx = _product_context(a, b)
        assert ctx.divides(ctx.pack(b), ctx.pack(a)) == mono_divides(b, a)

    @given(exponents(), exponents())
    def test_div_matches_mono_div(self, a, b):
        # The division core's quotient: ``q = w - lead + capshift``.
        joint = mono_mul(a, b)
        ctx = _product_context(joint)
        packed = ctx.pack(joint) - ctx.pack(b) + ctx.capshift
        assert ctx.unpack(packed) == mono_div(joint, b) == a

    @given(exponents(), exponents())
    def test_packed_order_is_inverse_grevlex(self, a, b):
        ctx = _product_context(a, b)
        pa, pb = ctx.pack(a), ctx.pack(b)
        if a == b:
            assert pa == pb
        else:
            # Smaller packed integer == grevlex-larger monomial, the
            # invariant the division heap and ``lead_rest()`` rely on.
            assert (pa < pb) == (grevlex_key(a) > grevlex_key(b))

    @given(exponents())
    def test_unit_monomials(self, exps):
        ctx = _product_context(exps)
        for index in range(len(exps)):
            expected = tuple(
                1 if j == index else 0 for j in range(len(exps))
            )
            assert ctx.unpack(ctx.unit(index)) == expected
            assert ctx.degree_of(ctx.unit(index)) == 1


class TestContextSizing:
    def test_for_degrees_caches_and_clears(self):
        clear_packed_context_cache()
        ctx = PackedContext.for_degrees(3, 10)
        assert PackedContext.for_degrees(3, 10) is ctx
        assert packed_context_cache_size() >= 1
        clear_packed_context_cache()
        assert packed_context_cache_size() == 0

    def test_boundary_degree_fits(self):
        # Everything up to the degree bound must pack losslessly.
        ctx = PackedContext.for_degrees(2, 14)
        assert ctx.cap >= 14
        for exps in ((14, 0), (0, 14), (7, 7)):
            packed = ctx.pack(exps)
            assert ctx.unpack(packed) == exps
            assert ctx.degree_of(packed) == 14

    def test_get_cache_is_bounded_lru(self):
        clear_packed_context_cache()
        limit = PackedContext._CACHE_MAX
        for degree in range(1, limit + 10):
            PackedContext.get(2, degree)
        assert packed_context_cache_size() == limit
        # The oldest shapes were evicted, the newest survive.
        with PackedContext._cache_lock:
            keys = list(PackedContext._cache)
        assert (2, 1) not in keys and (2, limit + 9) in keys
        clear_packed_context_cache()

    def test_get_is_thread_safe(self):
        clear_packed_context_cache()
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    degree = rng.randint(1, 40)
                    ctx = PackedContext.get(3, degree)
                    assert ctx.cap == max(degree, 1)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        clear_packed_context_cache()


POLY_VARS = ("x", "y", "z")


def _polys(draw_terms):
    terms = {}
    for exps, coeff in draw_terms:
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(POLY_VARS, {e: c for e, c in terms.items() if c})


poly_terms = st.lists(
    st.tuples(
        st.tuples(*[st.integers(min_value=0, max_value=4)] * 3),
        st.integers(min_value=-9, max_value=9).filter(bool),
    ),
    min_size=0,
    max_size=6,
)


class TestPackedPoly:
    @given(poly_terms)
    def test_round_trip_preserves_order(self, raw_terms):
        poly = _polys(raw_terms)
        ctx = PackedContext.for_degrees(3, poly.total_degree())
        packed = PackedPoly.from_polynomial(poly, ctx)
        unpacked = [(ctx.unpack(k), c) for k, c in zip(packed.keys, packed.coeffs)]
        assert unpacked == list(poly.terms.items())
        assert len(packed) == len(poly.terms)

    @given(poly_terms)
    def test_leading_and_degree(self, raw_terms):
        poly = _polys(raw_terms)
        ctx = PackedContext.for_degrees(3, poly.total_degree())
        packed = PackedPoly.from_polynomial(poly, ctx)
        if poly.is_zero:
            assert len(packed) == 0
            return
        lead, coeff, rest = packed.lead_rest()
        expected = max(poly.terms, key=grevlex_key)
        assert ctx.unpack(lead) == expected
        assert coeff == poly.terms[expected]
        assert ctx.degree_of(lead) == poly.total_degree()
        assert dict(rest) == {
            k: c for k, c in packed.term_map().items() if k != lead
        }

    def test_packed_form_memoizes_per_context_shape(self):
        poly = Polynomial(POLY_VARS, {(1, 0, 0): 2, (0, 1, 1): -3})
        ctx = PackedContext.for_degrees(3, 8)
        assert packed_form(poly, ctx) is packed_form(poly, ctx)
        other = PackedContext.for_degrees(3, 80)
        assert packed_form(poly, other) is not packed_form(poly, ctx)


def _reference_divmod(dividend, divisor):
    """Grevlex division on the exponent-tuple reference loop."""
    return _divmod_generic(*Polynomial.unify(dividend, divisor), grevlex_key)


def _reference_divide_out_all(dividend, divisor):
    """Repeated exact division on the exponent-tuple reference loop."""
    current, divisor_u = Polynomial.unify(dividend, divisor)
    count = 0
    while not current.is_zero:
        quotient, remainder = _divmod_generic(current, divisor_u, grevlex_key)
        if not remainder.is_zero:
            break
        current = quotient
        count += 1
    if count == 0:
        return dividend, 0
    return current, count


def _assert_identical(got, want):
    """Equal values, equal term order and equal variable tuples."""
    assert got == want
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.vars == want.vars


class TestWholePolynomialDifferential:
    """divmod/divide_out_all: packed path byte-identical to the tuple loop."""

    @settings(max_examples=60, deadline=None)
    @given(poly_terms, poly_terms)
    def test_divmod_identical(self, a_terms, b_terms):
        dividend = _polys(a_terms)
        divisor = _polys(b_terms)
        if divisor.is_zero:
            return
        # Identity must extend to term *order* (it leaks into greedy
        # tie-breaks downstream), not just mathematical equality.
        for got, want in zip(
            divmod_poly(dividend, divisor), _reference_divmod(dividend, divisor)
        ):
            _assert_identical(got, want)

    @settings(max_examples=60, deadline=None)
    @given(poly_terms, poly_terms)
    def test_divide_out_all_identical(self, a_terms, b_terms):
        dividend = _polys(a_terms)
        divisor = _polys(b_terms)
        if divisor.is_zero or divisor.is_constant:
            return
        reduced, count = divide_out_all(dividend, divisor)
        want_reduced, want_count = _reference_divide_out_all(dividend, divisor)
        _assert_identical(reduced, want_reduced)
        assert count == want_count

    def test_wide_context_past_1024_bits(self):
        # 200 variables at degree <= 12: (200 + 1) * 6 bits per key.
        nvars = 200
        names = tuple(f"x{i:03d}" for i in range(nvars))
        rng = random.Random(0x200)

        def sparse_poly(terms, degree):
            out = {}
            for _ in range(terms):
                exps = [0] * nvars
                for _ in range(rng.randint(0, degree)):
                    exps[rng.randrange(nvars)] += 1
                out[tuple(exps)] = rng.choice([-3, -2, -1, 1, 2, 3, 5])
            return Polynomial(names, out)

        ctx = PackedContext.for_degrees(nvars, 12)
        assert (nvars + 1) * ctx.width > 1024
        for _ in range(20):
            a = tuple(rng.randint(0, 3) for _ in range(nvars))
            b = tuple(rng.randint(0, 3) for _ in range(nvars))
            assert ctx.unpack(ctx.pack(a)) == a
            assert ctx.divides(ctx.pack(b), ctx.pack(a)) == mono_divides(b, a)
            joint = mono_mul(a, b)
            assert ctx.divides(ctx.pack(b), ctx.pack(joint))

        for _ in range(8):
            divisor = sparse_poly(rng.randint(2, 3), 2)
            if divisor.is_constant:
                continue
            cofactor = sparse_poly(rng.randint(1, 3), 2)
            dividend = divisor * divisor * cofactor + sparse_poly(2, 3)
            assert dividend.total_degree() <= 12
            for got, want in zip(
                divmod_poly(dividend, divisor),
                _reference_divmod(dividend, divisor),
            ):
                _assert_identical(got, want)
            for candidate in (dividend, divisor * divisor * cofactor):
                reduced, count = divide_out_all(candidate, divisor)
                want_reduced, want_count = _reference_divide_out_all(
                    candidate, divisor
                )
                _assert_identical(reduced, want_reduced)
                assert count == want_count


class TestCacheRegistration:
    def test_clear_caches_covers_packed_and_rings(self):
        from repro.api import clear_caches
        from repro.rings.falling import falling_factorial_dense
        from repro.rings.modular import smarandache_lambda

        PackedContext.get(3, 7)
        smarandache_lambda(5)
        falling_factorial_dense(3)
        sizes = clear_caches()
        assert sizes["packed_contexts"] >= 1
        assert sizes["rings_modular"] >= 1
        assert sizes["rings_falling"] >= 1
        assert packed_context_cache_size() == 0
        assert smarandache_lambda.cache_info().currsize == 0
