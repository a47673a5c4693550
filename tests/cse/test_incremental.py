"""The incremental extractor returns exactly what a full rebuild returns.

``tests/cse/full_rebuild.py`` is the extractor that rebuilds its whole
candidate pool every greedy round.  The library's extractor keeps the
pool across rounds and rescores only rewritten rows; these tests require
identical results from both: block names, bodies and insertion order,
rewritten polynomials (terms, term order and variables) and round
counts.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.budget import Budget, BudgetExceeded, Deadline, use_deadline
from repro.cse import eliminate_common_subexpressions
from repro.cse.kernels import clear_kernel_cache
from repro.fuzz import generate_case
from repro.obs import Tracer, use_tracer
from repro.poly import Polynomial, parse_system
from repro.suite import get_system
from tests.cse.full_rebuild import _Extractor as FullRebuild
from tests.cse.full_rebuild import full_rebuild_cse

SWITCHES = ("enable_kernels", "enable_cubes", "enable_rectangles")

#: Budget sites of the incremental loops (see docs/ROBUSTNESS.md).
INCREMENTAL_SITES = {
    "cse/rows", "cse/kernel_pairs", "cse/rescore", "cse/rectangles",
    "cse/cube_pairs", "cse/coeff_cube_pairs",
}


def snapshot(result) -> tuple:
    """Everything a caller can observe, term order and variables included."""
    return (
        result.rounds,
        [(name, body.vars, list(body.terms.items())) for name, body in result.blocks.items()],
        [(poly.vars, list(poly.terms.items())) for poly in result.polys],
    )


def assert_same(polys, **kwargs):
    clear_kernel_cache()
    expected = full_rebuild_cse(polys, **kwargs)
    clear_kernel_cache()
    actual = eliminate_common_subexpressions(polys, **kwargs)
    assert snapshot(actual) == snapshot(expected)
    return actual


@st.composite
def shared_systems(draw):
    """Systems built from a few shared bodies, so extraction runs many rounds.

    Each polynomial sums cube multiples of shared bodies (with either
    sign and small coefficients) plus loose terms: shifted copies, tied
    gains, sign-flipped kernels and shared coefficient cubes all occur.
    """
    nvars = 5
    variables = ("a", "b", "c", "x", "y")
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeffs = st.sampled_from([1, -1, 2, -2, 3, 6])
    bodies = draw(st.lists(
        st.dictionaries(exps, coeffs, min_size=2, max_size=3), min_size=1, max_size=3))
    polys = []
    for _ in range(draw(st.integers(2, 6))):
        terms: dict = {}
        for _ in range(draw(st.integers(1, 3))):
            body = draw(st.sampled_from(bodies))
            cube = draw(exps)
            scale = draw(st.sampled_from([1, -1, 2]))
            for e, c in body.items():
                key = tuple(x + y for x, y in zip(e, cube))
                terms[key] = terms.get(key, 0) + scale * c
        for e, c in draw(st.dictionaries(exps, coeffs, max_size=2)).items():
            terms[e] = terms.get(e, 0) + c
        polys.append(Polynomial(variables, {e: c for e, c in terms.items() if c}))
    return polys


class TestDifferential:
    @settings(max_examples=100, deadline=None)
    @given(shared_systems())
    def test_shared_systems(self, polys):
        assert_same(polys)

    @settings(max_examples=40, deadline=None)
    @given(shared_systems(), st.sampled_from(SWITCHES))
    def test_each_switch_off(self, polys, switch):
        assert_same(polys, **{switch: False})

    @settings(max_examples=40, deadline=None)
    @given(shared_systems(), st.integers(0, 3))
    def test_round_limit(self, polys, max_rounds):
        assert_same(polys, max_rounds=max_rounds)

    @pytest.mark.parametrize("index", range(24))
    def test_fuzz_stream_systems(self, index):
        assert_same(generate_case(0, index).system.polys, prefix="_pre")


class TestCraftedCases:
    def test_shifted_copies_with_tied_gains(self):
        # Every pair of rows shares the same quadratic form, so many
        # candidates tie on gain and the rebuild's pool order decides.
        system = parse_system([
            "x^2 - 4*x*y + 3*y^2 + 12*x + 17",
            "x^2 - 4*x*y + 3*y^2 + 5*y + 2",
            "x^2 - 4*x*y + 3*y^2 + 7*x + 9*y",
            "a*x^2 - 4*a*x*y + 3*a*y^2 + b",
        ])
        assert assert_same(system).rounds >= 1

    def test_sign_flipped_kernels(self):
        system = parse_system([
            "3*a - 3*b + x*c - x*d + q", "5*b - 5*a + y*d - y*c + r",
            "z*c - z*d + a*x - b*x",
        ])
        assert assert_same(system).blocks

    def test_pair_sources_in_rebuild_order(self):
        # p + q (same-sign pair with the third row), r + s (its flipped
        # pair) and t + u (a flip-only pair with the second row) tie on
        # gain.  A rebuild inserts a kernel's same-sign and flipped pairs
        # before its flip-only ones, so p + q, r + s, t + u is the order.
        system = parse_system(["x*(p + q + r + s + t + u)", "y*(v - t - u)", "w*(p + q - r - s)"])
        result = assert_same(system)
        assert [str(body) for body in result.blocks.values()] == ["p + q", "r + s", "t + u"]

    def test_shared_coefficient_cubes(self):
        system = parse_system([
            "6*x*y + 6*x*z + 5", "6*x*w - 12*y*z", "12*x*y*z + 6*y*w + 6*x*w",
        ])
        assert assert_same(system).blocks

    def test_more_than_one_slot_chunk(self):
        # 20 independent shared bodies: more than 16 extractions, so the
        # pool must survive the variable re-pad of a second slot chunk.
        lines = []
        for k in range(20):
            lines += [f"s*(a{k} + b{k}) + u", f"t*(a{k} + b{k}) + v"]
        result = assert_same(parse_system(lines))
        assert len(result.blocks) > FullRebuild._SLOT_CHUNK

    def test_sg_5x3_rows(self):
        result = assert_same(get_system("SG 5X3").polys, prefix="_pre")
        assert result.rounds > 2 * FullRebuild._SLOT_CHUNK - 1

    def test_no_rows(self):
        assert_same([])
        assert_same(parse_system(["x + 1"]))


class TestBudget:
    def test_interrupts_after_the_first_round(self):
        # Steps of one round, counted under an unlimited but armed budget;
        # a budget one step larger must stop the extraction inside an
        # incremental loop of a later round.
        rows = get_system("SG 5X3").polys
        counting = Deadline(Budget(max_steps=10**9))
        with use_deadline(counting):
            eliminate_common_subexpressions(rows, max_rounds=1)
        first_round = counting.steps
        with use_deadline(Deadline(Budget(max_steps=first_round + 1))):
            with pytest.raises(BudgetExceeded) as excinfo:
                eliminate_common_subexpressions(rows)
        assert excinfo.value.site in INCREMENTAL_SITES

    def test_every_incremental_loop_ticks(self):
        sites = set()

        class Recording(Deadline):
            def tick(self, n=1, site=""):
                sites.add(site)
                super().tick(n, site=site)

        with use_deadline(Recording(Budget(max_steps=10**9))):
            eliminate_common_subexpressions(get_system("SG 5X3").polys)
        assert sites == INCREMENTAL_SITES | {"cse/round"}


class TestWorkCounters:
    def counters(self, polys):
        tracer = Tracer()
        with use_tracer(tracer):
            eliminate_common_subexpressions(polys)
        return tracer.find("cse/extract").counters

    def full_rebuild_work(self, polys):
        """(kernel rows enumerated, candidates scored) of a full rebuild."""
        work = {"rows": 0, "scored": 0}
        extractor = FullRebuild(polys, "_cse", 0, 200)
        rows_of = extractor._kernel_rows
        matches_of = extractor._kernel_matches
        occurrences_of = extractor._cube_occurrences

        def rows():
            out = rows_of()
            work["rows"] += len(out)
            return out

        def scored(fn):
            def wrapped(*args):
                work["scored"] += 1
                return fn(*args)
            return wrapped

        extractor._kernel_rows = rows
        extractor._kernel_matches = scored(matches_of)
        extractor._cube_occurrences = scored(occurrences_of)
        extractor.run()
        return work

    def test_pinned_and_below_a_full_rebuild(self):
        clear_kernel_cache()
        rows = get_system("SG 5X3").polys
        counters = self.counters(rows)
        assert (counters["rounds"], counters["blocks"]) == (32, 32)
        assert (counters["rows_rescanned"], counters["candidates_rescored"]) == (
            PINNED_ROWS, PINNED_SCORED)
        full = self.full_rebuild_work(rows)
        assert counters["rows_rescanned"] < full["rows"]
        assert counters["candidates_rescored"] < full["scored"]


#: Work counters of the SG 5X3 rows, fixed by the extraction sequence.
PINNED_ROWS = 607
PINNED_SCORED = 665
