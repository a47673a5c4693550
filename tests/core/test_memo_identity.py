"""Memoization must never change results, and disabled tracing must
never allocate.

The combination search memoizes per-representation sub-results by
mathematical content (``_BEST_EXPR_CACHE``, the kernel cache) and prunes
with a branch-and-bound surrogate bound.  Both are pure optimizations:
a cold-cache run and a warm-cache run of the same system must produce
the *identical* ``SynthesisResult`` — same decomposition, same chosen
combination, same number of combinations scored.  These properties are
checked across every fuzz generator shape.

The zero-cost observability contract is checked the same way: running
the whole flow under the default (disabled) tracer must allocate zero
``Span`` objects, asserted via the tracer's allocation counter.
"""

import pytest

from repro.core import synth, synthesize
from repro.core.synth import clear_synthesis_caches
from repro.cse import kernels
from repro.factor import factorize
from repro.fuzz import SHAPES, generate_case, generate_cases
from repro.obs import NULL_TRACER, Tracer, allocation_counts, current_tracer, use_tracer
from repro.poly import polynomial


def _run(system):
    return synthesize(list(system.polys), system.signature)


def _fingerprint(result):
    """Everything observable about a result, hashable for comparison."""
    return (
        result.summary(),
        result.op_count,
        result.initial_op_count,
        result.chosen,
        result.provenance.combinations_scored,
        tuple(
            tuple(rep.poly for rep in reps) for reps in result.representation_lists
        ),
    )


class TestCachedVsCold:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_cold_and_warm_runs_identical(self, shape):
        case = generate_case(seed=11, index=0, shapes=[shape])

        clear_synthesis_caches()
        cold = _fingerprint(_run(case.system))
        # Same process, caches now warm from the first run.
        warm = _fingerprint(_run(case.system))
        # And a second cold run for symmetry (warm != stale).
        clear_synthesis_caches()
        cold_again = _fingerprint(_run(case.system))

        assert cold == warm
        assert cold == cold_again

    def test_warm_cache_shared_across_different_systems(self):
        # Interleaving other systems must not leak wrong sub-results
        # between content-keyed cache entries.
        a = generate_case(seed=3, index=0, shapes=["planted-kernel"]).system
        b = generate_case(seed=3, index=1, shapes=["unstructured"]).system
        clear_synthesis_caches()
        cold_a = _fingerprint(_run(a))
        cold_b = _fingerprint(_run(b))
        warm_a = _fingerprint(_run(a))
        warm_b = _fingerprint(_run(b))
        assert cold_a == warm_a
        assert cold_b == warm_b

    def test_clear_drops_the_variable_union_memo(self):
        # A cold run starts with no memo warm, the polynomial layer's too.
        case = generate_case(seed=3, index=0, shapes=["planted-kernel"])
        _run(case.system)
        assert polynomial._VAR_UNIONS
        clear_synthesis_caches()
        assert not polynomial._VAR_UNIONS


def _ordered_fingerprint(result):
    """Rendered decomposition in block order, ``chosen`` and phase counters.

    Text, not ``==``: a memo that hands back an equal polynomial in a
    different term order changes the rendering and fails here.
    """
    return (
        [f"{name}={expr}" for name, expr in result.decomposition.blocks.items()],
        [str(expr) for expr in result.decomposition.outputs],
        result.chosen,
        [(phase.phase, phase.counters) for phase in result.timings.phases],
    )


class TestWarmProcessStream:
    def test_warm_stream_matches_cold_reruns(self):
        """A fuzz stream in one warm process, each system re-run cold."""
        cases = generate_cases(0, 40)
        clear_synthesis_caches()
        warm = [_ordered_fingerprint(_run(case.system)) for case in cases]
        for case, expected in zip(cases, warm):
            clear_synthesis_caches()
            assert _ordered_fingerprint(_run(case.system)) == expected, case.index

    def test_warm_stream_with_tiny_memo_bounds_matches_cold_reruns(self, monkeypatch):
        """The same stream with every memo clearing itself wholesale
        every few entries: a clear in the middle of a system must not
        change its result."""
        monkeypatch.setattr(kernels, "_KERNEL_CACHE_MAX", 5)
        monkeypatch.setattr(synth, "_BEST_EXPR_CACHE_MAX", 5)
        monkeypatch.setattr(factorize, "_FACTOR_CACHE_MAX", 3)
        cases = generate_cases(0, 40)
        clear_synthesis_caches()
        warm = [_ordered_fingerprint(_run(case.system)) for case in cases]
        for case, expected in zip(cases, warm):
            clear_synthesis_caches()
            assert _ordered_fingerprint(_run(case.system)) == expected, case.index


class TestZeroCostTracing:
    def test_disabled_tracer_allocates_no_spans(self):
        assert current_tracer() is NULL_TRACER or not current_tracer().tracing
        case = generate_case(seed=7, index=0, shapes=["planted-kernel"])
        before = allocation_counts()["spans"]
        _run(case.system)
        assert allocation_counts()["spans"] == before

    def test_enabled_tracer_does_allocate(self):
        # The counter itself must be live, or the test above proves nothing.
        case = generate_case(seed=7, index=0, shapes=["planted-kernel"])
        before = allocation_counts()["spans"]
        with use_tracer(Tracer()):
            _run(case.system)
        assert allocation_counts()["spans"] > before
