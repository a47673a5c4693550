"""The Kernel-Cube Matrix (KCM) and prime-rectangle extraction.

The matrix formulation of multi-polynomial CSE from Hosangadi et al. [13]
(inherited from Rajski/Vasudevamurthy's Boolean rectangle covering):

* one **row** per (polynomial, co-kernel) pair,
* one **column** per distinct cube appearing in any kernel (a cube here is
  a signed coefficient with a monomial),
* entry ``(r, c) = 1`` iff column ``c``'s cube is a term of row ``r``'s
  kernel.

A **rectangle** (set of rows x set of columns, all ones) is a common
sub-expression: the column cubes sum to an expression contained in every
row's kernel.  A **prime** rectangle cannot be extended in either
direction without losing the all-ones property.  The classical greedy
"ping-pong" heuristic grows a seed column into a locally best prime
rectangle by alternating row- and column-side extensions.

:mod:`repro.cse.extract` consumes the best rectangles as extraction
candidates (they capture k-way kernel intersections that pairwise
intersection misses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.poly import Polynomial
from repro.poly.monomial import Exponents, mono_literal_count

from .kernels import all_kernels

Cube = tuple[Exponents, int]  # (monomial, coefficient)


@dataclass(frozen=True)
class KcmRow:
    """One (polynomial index, co-kernel) pair."""

    poly_index: int
    cokernel: Exponents


@dataclass
class KernelCubeMatrix:
    """The incidence structure between kernel rows and cube columns."""

    variables: tuple[str, ...]
    rows: list[KcmRow]
    columns: list[Cube]
    # For each row, the set of column indices present in its kernel.
    incidence: list[set[int]]
    # Lazily-built transpose (column -> rows containing it); rectangle
    # growth probes row coverage hundreds of times per matrix.
    _postings: list[set[int]] | None = field(default=None, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.columns)

    def _column_postings(self) -> list[set[int]]:
        postings = self._postings
        if postings is None:
            postings = [set() for _ in self.columns]
            for r, present in enumerate(self.incidence):
                for c in present:
                    postings[c].add(r)
            self._postings = postings
        return postings

    def column_sum(self, column_indices: Sequence[int]) -> Polynomial:
        """The polynomial formed by a set of columns (the sub-expression)."""
        terms: dict[Exponents, int] = {}
        for index in column_indices:
            exps, coeff = self.columns[index]
            terms[exps] = terms.get(exps, 0) + coeff
        return Polynomial(self.variables, terms)

    def rows_covering(self, column_indices: set[int]) -> list[int]:
        """Rows whose kernels contain every given column (ascending)."""
        if not column_indices:
            return list(range(len(self.rows)))
        postings = self._column_postings()
        it = iter(column_indices)
        acc = set(postings[next(it)])
        for c in it:
            acc &= postings[c]
            if not acc:
                break
        return sorted(acc)

    def columns_common(self, row_indices: Sequence[int]) -> set[int]:
        """Columns present in every given row."""
        row_iter = iter(row_indices)
        try:
            first = next(row_iter)
        except StopIteration:
            return set()
        common = set(self.incidence[first])
        for r in row_iter:
            common &= self.incidence[r]
            if not common:
                break
        return common


def build_kcm(polys: Sequence[Polynomial]) -> KernelCubeMatrix:
    """Construct the KCM of a polynomial system."""
    unified = Polynomial.unify_all(list(polys))
    variables = unified[0].vars if unified else ()
    return kcm_from_kernels(
        variables,
        (
            (KcmRow(poly_index, entry.cokernel), entry.kernel)
            for poly_index, poly in enumerate(unified)
            for entry in all_kernels(poly)
        ),
    )


def kcm_from_kernels(
    variables: tuple[str, ...], entries: Iterable[tuple[KcmRow, Polynomial]]
) -> KernelCubeMatrix:
    """The KCM of already-enumerated ``(row, kernel)`` pairs, in order.

    Columns are numbered in order of first appearance, which seeds
    rectangle growth, so the row order fixes the matrix.
    """
    rows: list[KcmRow] = []
    column_index: dict[Cube, int] = {}
    columns: list[Cube] = []
    incidence: list[set[int]] = []
    for row, kernel in entries:
        rows.append(row)
        present: set[int] = set()
        for cube in kernel.terms.items():
            index = column_index.get(cube)
            if index is None:
                index = len(columns)
                column_index[cube] = index
                columns.append(cube)
            present.add(index)
        incidence.append(present)
    return KernelCubeMatrix(variables, rows, columns, incidence)


@dataclass(frozen=True)
class Rectangle:
    """An all-ones submatrix: rows sharing the column sub-expression."""

    row_indices: tuple[int, ...]
    column_indices: tuple[int, ...]
    value: int

    @property
    def num_rows(self) -> int:
        return len(self.row_indices)

    @property
    def num_columns(self) -> int:
        return len(self.column_indices)


def _column_weight(cube: Cube) -> int:
    """Weighted operator content of one cube (variable muls dear)."""
    exps, coeff = cube
    weight = max(mono_literal_count(exps) - 1, 0) * 20
    if abs(coeff) != 1 and mono_literal_count(exps):
        weight += 2
    return weight


def rectangle_value(kcm: KernelCubeMatrix, rows: Sequence[int], cols: set[int]) -> int:
    """Savings estimate: (occurrences - 1) x cost of the shared body."""
    if len(rows) < 2 or len(cols) < 2:
        return 0
    body_cost = sum(_column_weight(kcm.columns[c]) for c in cols) + (len(cols) - 1)
    return (len(rows) - 1) * body_cost


def grow_rectangle(kcm: KernelCubeMatrix, seed_column: int) -> Rectangle | None:
    """Ping-pong growth from a seed column to a locally-best prime rectangle."""
    cols = {seed_column}
    rows = kcm.rows_covering(cols)
    if len(rows) < 2:
        return None
    best_value = 0
    best: tuple[list[int], set[int]] | None = None
    for _ in range(8):  # alternation converges fast; bound for safety
        # Column side: take every column all current rows share.
        cols = kcm.columns_common(rows)
        rows = kcm.rows_covering(cols)
        value = rectangle_value(kcm, rows, cols)
        if value > best_value:
            best_value = value
            best = (list(rows), set(cols))
        # Row side: try dropping the row that constrains columns most.
        if len(rows) <= 2:
            break
        scored = []
        for drop in rows:
            kept = [r for r in rows if r != drop]
            candidate_cols = kcm.columns_common(kept)
            scored.append(
                (rectangle_value(kcm, kept, candidate_cols), kept, candidate_cols)
            )
        scored.sort(key=lambda item: item[0], reverse=True)
        if not scored or scored[0][0] <= value:
            break
        _, rows, cols = scored[0]
        rows = kcm.rows_covering(cols)
    if best is None:
        return None
    rows_out, cols_out = best
    return Rectangle(tuple(sorted(rows_out)), tuple(sorted(cols_out)), best_value)


def best_rectangles(
    kcm: KernelCubeMatrix, limit: int = 8
) -> list[Rectangle]:
    """The top prime rectangles by estimated value (deduplicated)."""
    found: dict[tuple[tuple[int, ...], tuple[int, ...]], Rectangle] = {}
    for seed in range(len(kcm.columns)):
        rectangle = grow_rectangle(kcm, seed)
        if rectangle is None or rectangle.value <= 0:
            continue
        key = (rectangle.row_indices, rectangle.column_indices)
        if key not in found:
            found[key] = rectangle
    ranked = sorted(found.values(), key=lambda r: r.value, reverse=True)
    return ranked[:limit]
