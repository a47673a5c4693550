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

The matrix is kept up to date row by row: :mod:`repro.cse.extract`
removes the rows of every polynomial an extraction rewrites and adds the
rows of the rewritten polynomial.  Rows and columns are integer ids
chosen by the caller; row ids sort in row order.  Growth from a seed
column reads only the rows that contain it, so each seed's rectangle is
kept until one of those rows changes, and :meth:`best_rectangles`
regrows only the seeds a row change touched.  The extractor consumes
the best rectangles as extraction candidates (they capture k-way kernel
intersections that pairwise intersection misses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


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


class KernelCubeMatrix:
    """The incidence structure between kernel rows and cube columns.

    ``column_weight`` gives the weighted operator content of one column's
    cube (variable multiplies dear), which prices rectangles.
    """

    def __init__(self, column_weight: Callable[[int], int]):
        self.column_weight = column_weight
        #: row id -> its columns, in the kernel's term order.
        self.row_columns: dict[int, tuple[int, ...]] = {}
        #: row id -> the same columns as a set.
        self.incidence: dict[int, frozenset[int]] = {}
        #: column id -> the rows whose kernels contain it.
        self.postings: dict[int, set[int]] = {}
        #: seed column -> rectangle grown from it (positive value only).
        self._grown: dict[int, Rectangle] = {}
        #: seeds whose rows changed since they were last grown.
        self._stale: set[int] = set()
        self._first: dict[int, tuple[int, int]] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.incidence), len(self.postings)

    def add_row(self, row: int, columns: Sequence[int]) -> frozenset[int]:
        """Add one kernel row; returns its column set."""
        present = frozenset(columns)
        self.row_columns[row] = tuple(columns)
        self.incidence[row] = present
        postings = self.postings
        for column in present:
            rows = postings.get(column)
            if rows is None:
                postings[column] = {row}
            else:
                rows.add(row)
        self._forget(present)
        return present

    def remove_row(self, row: int) -> None:
        del self.row_columns[row]
        postings = self.postings
        present = self.incidence.pop(row)
        for column in present:
            rows = postings[column]
            rows.discard(row)
            if not rows:
                del postings[column]
        self._forget(present)

    def _forget(self, columns: frozenset[int]) -> None:
        """Mark the seeds of a changed row for regrowth."""
        grown, first = self._grown, self._first
        if grown or first:
            for column in columns:
                grown.pop(column, None)
                first.pop(column, None)
        self._stale |= columns

    def rows_covering(self, column_indices: Iterable[int]) -> list[int]:
        """Rows whose kernels contain every given column (in row order)."""
        postings = self.postings
        it = iter(column_indices)
        first = next(it, None)
        if first is None:
            return sorted(self.incidence)
        acc = set(postings.get(first, ()))
        for c in it:
            acc &= postings.get(c, ())
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

    def first_appearance(self, column: int) -> tuple[int, int]:
        """(row, term position) of the column's first occurrence in row order."""
        first = self._first.get(column)
        if first is None:
            row = min(self.postings[column])
            first = (row, self.row_columns[row].index(column))
            self._first[column] = first
        return first

    def best_rectangles(self, limit: int = 8) -> list[Rectangle]:
        """The top prime rectangles by estimated value (deduplicated).

        Seeds are taken in order of first appearance, so among equally
        valued rectangles the one grown from the earliest seed ranks first.
        """
        from repro.core.budget import current_deadline

        meter = current_deadline().meter("cse/rectangles")
        grown = self._grown
        for seed in self._stale:
            if seed not in self.postings:
                continue
            rectangle = grow_rectangle(self, seed)
            if rectangle is not None and rectangle.value > 0:
                grown[seed] = rectangle
            meter.step()
        meter.flush()
        self._stale.clear()
        seeded = [(self.first_appearance(seed), r) for seed, r in grown.items()]
        seeded.sort(key=lambda item: item[0])
        found: dict[tuple[tuple[int, ...], tuple[int, ...]], Rectangle] = {}
        for _, rectangle in seeded:
            found.setdefault((rectangle.row_indices, rectangle.column_indices), rectangle)
        ranked = sorted(found.values(), key=lambda r: r.value, reverse=True)
        return ranked[:limit]


def rectangle_value(kcm: KernelCubeMatrix, rows: Sequence[int], cols: set[int]) -> int:
    """Savings estimate: (occurrences - 1) x cost of the shared body."""
    if len(rows) < 2 or len(cols) < 2:
        return 0
    weight = kcm.column_weight
    body_cost = sum(weight(c) for c in cols) + (len(cols) - 1)
    return (len(rows) - 1) * body_cost


def grow_rectangle(kcm: KernelCubeMatrix, seed_column: int) -> Rectangle | None:
    """Ping-pong growth from a seed column to a locally-best prime rectangle.

    Every row it reads contains the seed column.
    """
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
