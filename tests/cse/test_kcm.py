"""Tests for the kernel-cube matrix and prime-rectangle extraction."""

from __future__ import annotations

from dataclasses import dataclass

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.cse.kcm import KernelCubeMatrix, grow_rectangle, rectangle_value
from repro.cse.kernels import all_kernels
from repro.poly import Polynomial, parse_system
from repro.poly.monomial import Exponents, mono_literal_count
from tests.conftest import polynomials


@dataclass
class BuiltKcm:
    """A matrix over one system: row ``r`` is ``rows[r]``, column ``c`` is ``columns[c]``."""

    variables: tuple[str, ...]
    rows: list[tuple[int, Exponents]]  # (poly index, co-kernel)
    columns: list[tuple[Exponents, int]]  # (monomial, coefficient)
    matrix: KernelCubeMatrix

    def column_sum(self, column_indices) -> Polynomial:
        """The polynomial formed by a set of columns (the sub-expression)."""
        terms: dict[Exponents, int] = {}
        for index in column_indices:
            exps, coeff = self.columns[index]
            terms[exps] = terms.get(exps, 0) + coeff
        return Polynomial(self.variables, terms)


def build_kcm(polys) -> BuiltKcm:
    """The KCM of a polynomial system, rows and columns numbered in order."""
    unified = Polynomial.unify_all(list(polys))
    variables = unified[0].vars if unified else ()
    columns: list[tuple[Exponents, int]] = []
    column_of: dict[tuple[Exponents, int], int] = {}

    def weight(column: int) -> int:
        exps, coeff = columns[column]
        literals = mono_literal_count(exps)
        return max(literals - 1, 0) * 20 + (2 if abs(coeff) != 1 and literals else 0)

    built = BuiltKcm(variables, [], columns, KernelCubeMatrix(weight))
    for index, poly in enumerate(unified):
        for entry in all_kernels(poly):
            ids = []
            for cube in entry.kernel.terms.items():
                if cube not in column_of:
                    column_of[cube] = len(columns)
                    columns.append(cube)
                ids.append(column_of[cube])
            built.matrix.add_row(len(built.rows), ids)
            built.rows.append((index, entry.cokernel))
    return built


def shifted_system():
    """Three polynomials sharing the quadratic form x^2 - 4xy + 3y^2."""
    return parse_system(
        [
            "x^2 - 4*x*y + 3*y^2 + 12*x + 17",
            "x^2 - 4*x*y + 3*y^2 + 5*y + 2",
            "x^2 - 4*x*y + 3*y^2 + 7*x + 9*y",
        ]
    )


class TestBuild:
    def test_shape(self):
        kcm = build_kcm(shifted_system())
        n_rows, n_cols = kcm.matrix.shape
        assert n_rows >= 3 and n_cols >= 3

    def test_incidence_consistent(self):
        kcm = build_kcm(shifted_system())
        for row, present in kcm.matrix.incidence.items():
            for col in present:
                assert 0 <= col < len(kcm.columns)
                assert row in kcm.matrix.postings[col]

    def test_column_sum(self):
        kcm = build_kcm(parse_system(["2*x + 3*y"]))
        total = kcm.column_sum(range(len(kcm.columns)))
        assert total == parse_system(["2*x + 3*y"])[0]

    def test_empty_system(self):
        kcm = build_kcm([])
        assert kcm.matrix.shape == (0, 0)


class TestRectangles:
    def test_shared_quadratic_found(self):
        from repro.poly import parse_polynomial as P

        kcm = build_kcm(shifted_system())
        rectangles = kcm.matrix.best_rectangles()
        assert rectangles, "expected at least one rectangle"
        bodies = [kcm.column_sum(r.column_indices).trim() for r in rectangles]
        target = P("x^2 - 4*x*y + 3*y^2")
        assert any(target.terms == dict(b.terms) or target == b for b in bodies)

    def test_three_way_rows(self):
        kcm = build_kcm(shifted_system())
        top = kcm.matrix.best_rectangles(limit=1)[0]
        assert top.num_rows >= 3

    def test_value_zero_for_degenerate(self):
        kcm = build_kcm(shifted_system())
        assert rectangle_value(kcm.matrix, [0], {0, 1}) == 0
        assert rectangle_value(kcm.matrix, [0, 1], {0}) == 0

    def test_grow_from_unshared_seed(self):
        kcm = build_kcm(parse_system(["x*a + q", "y*b + r"]))
        # no sharing: every grow attempt fails or values zero
        for seed in range(len(kcm.columns)):
            rectangle = grow_rectangle(kcm.matrix, seed)
            assert rectangle is None or rectangle.value == 0 or rectangle.num_rows < 2


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(polynomials(max_terms=4, max_exp=3, max_coeff=9), min_size=1, max_size=3))
    def test_rectangles_are_all_ones(self, polys):
        system = Polynomial.unify_all(polys)
        kcm = build_kcm(system)
        for rectangle in kcm.matrix.best_rectangles():
            cols = set(rectangle.column_indices)
            for row in rectangle.row_indices:
                assert cols <= kcm.matrix.incidence[row]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(polynomials(max_terms=4, max_exp=3, max_coeff=9), min_size=1, max_size=3))
    def test_rectangle_bodies_are_sub_expressions(self, polys):
        from repro.poly.monomial import mono_mul

        system = Polynomial.unify_all(polys)
        kcm = build_kcm(system)
        for rectangle in kcm.matrix.best_rectangles():
            body = kcm.column_sum(rectangle.column_indices)
            for row_index in rectangle.row_indices:
                poly_index, cokernel = kcm.rows[row_index]
                poly = system[poly_index]
                for exps, coeff in body.terms.items():
                    target = mono_mul(cokernel, exps)
                    assert poly.terms.get(target) == coeff

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(polynomials(max_terms=4, max_exp=3, max_coeff=9), min_size=2, max_size=4),
        st.data(),
    )
    def test_row_updates_match_a_fresh_matrix(self, polys, data):
        # Removing rows and adding them back regrows only the touched
        # seeds; the ranking must equal that of a freshly built matrix.
        kcm = build_kcm(Polynomial.unify_all(polys))
        expected = kcm.matrix.best_rectangles()
        rows = sorted(kcm.matrix.incidence)
        if not rows:
            return
        dropped = data.draw(st.lists(st.sampled_from(rows), unique=True, max_size=3))
        kept = {row: kcm.matrix.row_columns[row] for row in dropped}
        for row in dropped:
            kcm.matrix.remove_row(row)
        kcm.matrix.best_rectangles()
        for row, columns in kept.items():
            kcm.matrix.add_row(row, columns)
        assert kcm.matrix.best_rectangles() == expected
