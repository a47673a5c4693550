"""The full-rebuild CSE extractor: the oracle for the incremental one.

This is the greedy kernel-intersection extractor as it was before the
library's extractor kept its candidate pool across rounds.  Every round
it rebuilds all of its state from the current polynomials:

1. enumerate every kernel of every polynomial,
2. build the candidate pool — whole kernels, pairwise kernel
   intersections, the best rectangles of a freshly built kernel-cube
   matrix, and common cubes with and without an attached coefficient,
3. score each candidate by the exact MULT/ADD operators its extraction
   saves,
4. extract the first candidate with the strictly best gain (pool
   insertion order, kernels before cubes) and rewrite every occurrence.

``tests/cse/test_incremental.py`` and ``scripts/check_cse_parity.py``
require the library's extractor to return exactly what this one returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from repro.cse import CseResult
from repro.cse.kernels import all_kernels
from repro.poly import Polynomial
from repro.poly.monomial import Exponents, mono_literal_count, mono_mul

# -- the kernel-cube matrix, rebuilt every round ---------------------------------

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

# -- the extractor ---------------------------------------------------------------

_MUL_WEIGHT = 20   # variable x variable multiply (array multiplier)
_CMUL_WEIGHT = 2   # multiply by a compile-time constant (CSD shift-add)
_ADD_WEIGHT = 1


def _current_deadline():
    # Lazy import: cse is a dependency of core, so the budget module is
    # reached at call time to keep the import graph acyclic.
    from repro.core.budget import current_deadline

    return current_deadline()


def _deadline_stride():
    """(ambient deadline, CHECK_STRIDE) — lazy for the same cycle reason."""
    from repro.core.budget import CHECK_STRIDE, current_deadline

    return current_deadline(), CHECK_STRIDE


def _term_weight(coeff: int, exps: Exponents) -> int:
    """Weighted operator cost of implementing one term's product.

    Variable-by-variable multiplies dominate; the coefficient multiply is
    a cheap shift-add network.
    """
    literals = mono_literal_count(exps)
    weight = max(literals - 1, 0) * _MUL_WEIGHT
    if abs(coeff) != 1 and literals:
        weight += _CMUL_WEIGHT
    return weight


def _poly_weight(poly: Polynomial) -> int:
    """Weighted operator cost of a polynomial implemented as a direct SOP."""
    total = sum(_term_weight(c, e) for e, c in poly.terms.items())
    if len(poly) > 1:
        total += (len(poly) - 1) * _ADD_WEIGHT
    return total


def _normalize_sign(poly: Polynomial) -> tuple[Polynomial, int]:
    """Return (positively-oriented polynomial, sign)."""
    if poly.leading_coeff("grlex") < 0:
        return -poly, -1
    return poly, 1


@dataclass(frozen=True)
class _KernelCandidate:
    body: Polynomial  # sign-normalized, >= 2 terms, cube-free


@dataclass(frozen=True)
class _CubeCandidate:
    coeff: int  # 1 for a plain variable cube, else the exact shared coefficient
    exps: Exponents


class _Extractor:
    """One CSE run over a system of polynomials."""

    #: How many block-variable columns are reserved at a time.  Extending
    #: the variable tuple re-pads every polynomial's exponent tuples, and
    #: a changed tuple also misses the kernel memo's aligned cache — so
    #: slots are claimed from a pre-reserved chunk and the expensive
    #: re-pad happens once per chunk instead of once per extraction.
    _SLOT_CHUNK = 16

    def __init__(
        self,
        polys: Sequence[Polynomial],
        prefix: str,
        start_index: int,
        max_rounds: int,
        enable_kernels: bool = True,
        enable_cubes: bool = True,
        enable_rectangles: bool = True,
    ):
        unified = Polynomial.unify_all(list(polys))
        self.vars: tuple[str, ...] = unified[0].vars if unified else ()
        self.polys: list[Polynomial] = unified
        self.blocks: dict[str, Polynomial] = {}
        self.prefix = prefix
        self.counter = start_index
        self.max_rounds = max_rounds
        self.rounds = 0
        self.enable_kernels = enable_kernels
        self.enable_cubes = enable_cubes
        self.enable_rectangles = enable_rectangles
        self._next_slot = len(self.vars)

    # -- candidate generation ------------------------------------------

    def _kernel_rows(self) -> list[tuple]:
        """(poly index, co-kernel, kernel, term-set) rows.

        The frozenset of ``(exponents, coeff)`` items rides along so the
        candidate-intersection and occurrence-matching steps run as
        C-speed set operations.
        """
        return [
            (
                index,
                entry.cokernel,
                entry.kernel,
                frozenset(entry.kernel.terms.items()),
            )
            for index, poly in enumerate(self.polys)
            for entry in all_kernels(poly)
        ]

    def _kernel_candidates(self, rows: list[tuple]) -> list[_KernelCandidate]:
        pool: dict[frozenset, Polynomial] = {}

        def add(poly: Polynomial) -> None:
            if len(poly) < 2:
                return
            normalized, _ = _normalize_sign(poly)
            key = frozenset(normalized.terms.items())
            pool.setdefault(key, normalized)

        # Deduplicate kernels (shifted-copy systems repeat them massively)
        # before the quadratic pairwise-intersection step.
        unique: dict[frozenset, Polynomial] = {}
        for _, _, kernel, term_set in rows:
            unique.setdefault(term_set, kernel)
        for kernel in unique.values():
            add(kernel)
        term_sets = list(unique)
        negated = [frozenset((e, -c) for e, c in fs) for fs in term_sets]
        deadline, stride = _deadline_stride()
        ticking = deadline.enabled
        pending = 0
        variables = self.vars
        # Inverted index over term items: a useful overlap needs >= 2
        # shared terms, and under 1% of all kernel pairs have even one —
        # counting co-occurrences through posting lists visits only the
        # pairs that share something, instead of the full quadratic sweep.
        posting: dict = {}
        for i, fs in enumerate(term_sets):
            for item in fs:
                posting.setdefault(item, []).append(i)
        for i, fs_a in enumerate(term_sets):
            counts: dict[int, int] = {}
            flip_counts: dict[int, int] = {}
            work = 0
            for item in fs_a:
                for j in posting.get(item, ()):
                    if j > i:
                        counts[j] = counts.get(j, 0) + 1
                        work += 1
                exps, coeff = item
                for j in posting.get((exps, -coeff), ()):
                    if j > i:
                        flip_counts[j] = flip_counts.get(j, 0) + 1
                        work += 1
            if ticking:
                pending += work + 1
                if pending >= stride:
                    deadline.tick(pending, site="cse/kernel_pairs")
                    pending = 0
            # Ascending partner order keeps candidate-pool insertion (and
            # thus greedy tie-breaking) identical to the full pairwise
            # sweep this replaces, independent of frozenset hash order.
            for j in sorted(counts):
                if counts[j] >= 2:
                    add(Polynomial._raw(variables, dict(fs_a & term_sets[j])))
                if flip_counts.get(j, 0) >= 2:
                    add(Polynomial._raw(variables, dict(fs_a & negated[j])))
            for j in sorted(flip_counts):
                if j not in counts and flip_counts[j] >= 2:
                    add(Polynomial._raw(variables, dict(fs_a & negated[j])))
        if ticking and pending:
            deadline.tick(pending, site="cse/kernel_pairs")
        # k-way intersections via prime rectangles of the kernel-cube
        # matrix (pairwise overlap misses bodies shared by 3+ rows only
        # partially; the KCM's rectangles capture them exactly).
        if self.enable_rectangles:
            for body in self._rectangle_bodies(rows):
                add(body)
        return [_KernelCandidate(body) for body in pool.values()]

    def _rectangle_bodies(self, rows: list[tuple]) -> list[Polynomial]:
        kcm = kcm_from_kernels(
            self.vars,
            ((KcmRow(index, cokernel), kernel) for index, cokernel, kernel, _ in rows),
        )
        bodies = []
        for rectangle in best_rectangles(kcm, limit=6):
            if rectangle.num_columns >= 2:
                bodies.append(kcm.column_sum(rectangle.column_indices))
        return bodies

    @staticmethod
    def _sparse(exps: Exponents) -> tuple[tuple[int, int], ...]:
        return tuple((i, e) for i, e in enumerate(exps) if e)

    def _shared_cube(
        self,
        sparse_a: tuple[tuple[int, int], ...],
        sparse_b: tuple[tuple[int, int], ...],
        min_literals: int,
    ) -> Exponents | None:
        """Exponent-wise minimum of two sparse monomials, or None if small."""
        if len(sparse_b) < len(sparse_a):
            sparse_a, sparse_b = sparse_b, sparse_a
        lookup = dict(sparse_b)
        shared_pairs = []
        literals = 0
        for index, exp in sparse_a:
            other = lookup.get(index)
            if other:
                smaller = exp if exp < other else other
                shared_pairs.append((index, smaller))
                literals += smaller
        if literals < min_literals:
            return None
        nvars = len(self.vars)
        out = [0] * nvars
        for index, exp in shared_pairs:
            out[index] = exp
        return tuple(out)

    def _cube_candidates(self) -> list[_CubeCandidate]:
        # Deduplicate before the quadratic pairing: distinct monomials for
        # plain cubes, distinct (|coeff|, monomial) pairs for coefficient
        # cubes.  Sparse exponent pairs keep the inner loop proportional to
        # monomial support, not to the (block-inflated) variable count.
        pool: set[_CubeCandidate] = set()
        monomials: set[Exponents] = set()
        coeff_terms: set[tuple[int, Exponents]] = set()
        for poly in self.polys:
            for exps, coeff in poly.terms.items():
                if mono_literal_count(exps) >= 2:
                    monomials.add(exps)
                if abs(coeff) != 1 and mono_literal_count(exps) >= 1:
                    coeff_terms.add((abs(coeff), exps))
        deadline, stride = _deadline_stride()
        ticking = deadline.enabled
        pending = 0
        sparse_monos = [self._sparse(e) for e in sorted(monomials)]
        for a, b in combinations(sparse_monos, 2):
            if ticking:
                pending += 1
                if pending >= stride:
                    deadline.tick(pending, site="cse/cube_pairs")
                    pending = 0
            shared = self._shared_cube(a, b, 2)
            if shared is not None:
                pool.add(_CubeCandidate(1, shared))
        by_coeff: dict[int, list[Exponents]] = {}
        for coeff, exps in coeff_terms:
            by_coeff.setdefault(coeff, []).append(exps)
        for coeff, group in by_coeff.items():
            if len(group) < 2:
                continue
            sparse_group = [self._sparse(e) for e in sorted(group)]
            for a, b in combinations(sparse_group, 2):
                if ticking:
                    pending += 1
                    if pending >= stride:
                        deadline.tick(pending, site="cse/coeff_cube_pairs")
                        pending = 0
                shared = self._shared_cube(a, b, 1)
                if shared is not None:
                    pool.add(_CubeCandidate(coeff, shared))
        if ticking and pending:
            deadline.tick(pending, site="cse/cube_pairs")
        # Deterministic, padding-invariant order: set iteration would vary
        # with the (reserve-chunk dependent) arity of the exponent tuples,
        # making greedy tie-breaks depend on memory layout.
        return sorted(pool, key=lambda c: (c.coeff, self._sparse(c.exps)))

    # -- kernel candidate matching / application ------------------------

    def _kernel_matches(
        self, candidate: _KernelCandidate, rows: list[tuple]
    ) -> list[tuple[int, Exponents, int]]:
        """All (poly index, co-kernel, sign) occurrences of a candidate."""
        matches: list[tuple[int, Exponents, int]] = []
        seen: set[tuple[int, Exponents, int]] = set()
        body_items = candidate.body.terms.items()
        body_set = frozenset(body_items)
        negated = frozenset((e, -c) for e, c in body_items)
        for index, cokernel, _, term_set in rows:
            if body_set <= term_set:
                key = (index, cokernel, 1)
            elif negated <= term_set:
                key = (index, cokernel, -1)
            else:
                continue
            if key not in seen:
                seen.add(key)
                matches.append(key)
        return matches

    def _apply_kernel(
        self,
        candidate: _KernelCandidate,
        matches: list[tuple[int, Exponents, int]],
    ) -> int:
        """Rewrite occurrences; returns how many were actually applied."""
        used: dict[int, set[Exponents]] = {}
        planned: list[tuple[int, Exponents, int, list[Exponents]]] = []
        for index, cokernel, sign in matches:
            poly = self.polys[index]
            covered = []
            ok = True
            taken = used.setdefault(index, set())
            for exps, coeff in candidate.body.terms.items():
                target = mono_mul(cokernel, exps)
                if target in taken or poly.terms.get(target) != sign * coeff:
                    ok = False
                    break
                covered.append(target)
            if ok:
                taken.update(covered)
                planned.append((index, cokernel, sign, covered))
        if len(planned) < 2:
            return 0
        name, slot, pad = self._claim_slot()
        new_polys = list(self.polys)
        for index, cokernel, sign, covered in planned:
            terms = dict(new_polys[index].terms)
            for target in covered:
                del terms[target + pad]
            full = cokernel + pad
            block_exps = full[:slot] + (1,) + full[slot + 1:]
            total = terms.get(block_exps, 0) + sign
            if total:
                terms[block_exps] = total
            else:
                terms.pop(block_exps, None)
            new_polys[index] = Polynomial._raw(self.vars, terms)
        self.blocks[name] = candidate.body
        self.polys = new_polys
        return len(planned)

    def _kernel_gain(
        self,
        candidate: _KernelCandidate,
        matches: list[tuple[int, Exponents, int]],
    ) -> int:
        """Exact weighted operators saved by extracting the candidate.

        Per occurrence: the covered terms' products and joining adds
        disappear, replaced by a single ``cokernel * block`` term; the
        block body itself is paid once.  Overlapping occurrences make this
        an optimistic bound — the application step re-checks every term.
        """
        body = candidate.body.terms
        saved = 0
        for index, cokernel, sign in matches:
            poly = self.polys[index]
            occurrence = 0
            complete = True
            for exps in body:
                target = mono_mul(cokernel, exps)
                coeff = poly.terms.get(target)
                if coeff is None:
                    complete = False
                    break
                occurrence += _term_weight(coeff, target)
            if not complete:
                continue
            occurrence += (len(body) - 1) * _ADD_WEIGHT
            occurrence -= _term_weight(sign, cokernel + (1,))
            saved += occurrence
        return saved - _poly_weight(candidate.body)

    # -- cube candidate matching / application --------------------------

    def _cube_occurrences(self, candidate: _CubeCandidate) -> list[tuple[int, Exponents, int]]:
        """(poly index, term exps, power) for every term the cube divides."""
        out = []
        sparse = self._sparse(candidate.exps)
        for index, poly in enumerate(self.polys):
            for exps, coeff in poly.terms.items():
                power = None
                for i, c in sparse:
                    k = exps[i] // c
                    if k == 0:
                        power = 0
                        break
                    power = k if power is None else min(power, k)
                if not power:
                    continue
                if candidate.coeff != 1:
                    if coeff % candidate.coeff:
                        continue
                    power = min(power, 1)  # the coefficient divides once
                out.append((index, exps, power))
        return out

    def _cube_savings(
        self, candidate: _CubeCandidate, occurrences: list[tuple[int, Exponents, int]]
    ) -> int:
        block_cost = max(
            mono_literal_count(candidate.exps) - 1, 0
        ) * _MUL_WEIGHT + (_CMUL_WEIGHT if candidate.coeff != 1 else 0)
        saved = 0
        for index, exps, power in occurrences:
            coeff = self.polys[index].terms[exps]
            before = _term_weight(coeff, exps)
            new_exps = tuple(
                e - power * c for e, c in zip(exps, candidate.exps)
            ) + (power,)
            new_coeff = coeff // candidate.coeff if candidate.coeff != 1 else coeff
            after = _term_weight(new_coeff, new_exps)
            saved += before - after
        return saved - block_cost

    def _apply_cube(
        self, candidate: _CubeCandidate, occurrences: list[tuple[int, Exponents, int]]
    ) -> int:
        if len(occurrences) < 2:
            return 0
        block_poly = Polynomial(self.vars, {candidate.exps: candidate.coeff})
        name, slot, pad = self._claim_slot()
        by_poly: dict[int, list[tuple[Exponents, int]]] = {}
        for index, exps, power in occurrences:
            by_poly.setdefault(index, []).append((exps, power))
        new_polys = list(self.polys)
        for index, pairs in by_poly.items():
            terms = dict(new_polys[index].terms)
            for exps, power in pairs:
                coeff = terms.pop(exps + pad)
                base = tuple(
                    e - power * c for e, c in zip(exps, candidate.exps)
                ) + pad
                new_exps = base[:slot] + (power,) + base[slot + 1:]
                new_coeff = coeff // candidate.coeff if candidate.coeff != 1 else coeff
                total = terms.get(new_exps, 0) + new_coeff
                if total:
                    terms[new_exps] = total
                else:
                    terms.pop(new_exps, None)
            new_polys[index] = Polynomial._raw(self.vars, terms)
        self.blocks[name] = block_poly
        self.polys = new_polys
        return len(occurrences)

    # -- bookkeeping -----------------------------------------------------

    def _claim_slot(self) -> tuple[str, int, Exponents]:
        """Claim one block-variable column; returns (name, index, key pad).

        When the reserve is exhausted, ``_SLOT_CHUNK`` spare columns are
        appended at once (with their future names pre-assigned, since
        claims are sequential) and every polynomial is re-padded — that is
        the only point where variable tuples change, so polynomials keep
        content-stable identities across most rounds and the kernel
        memo's aligned cache stays hot.  The returned ``pad`` is what a
        caller must append to exponent keys computed *before* the claim
        (empty unless this claim grew the tuple).
        """
        grew = 0
        if self._next_slot >= len(self.vars):
            spare = tuple(
                f"{self.prefix}{self.counter + k + 1}"
                for k in range(self._SLOT_CHUNK)
            )
            chunk_pad = (0,) * self._SLOT_CHUNK
            self.vars = self.vars + spare
            self.polys = [
                Polynomial._raw(
                    self.vars, {e + chunk_pad: c for e, c in p.terms.items()}
                )
                for p in self.polys
            ]
            grew = self._SLOT_CHUNK
        slot = self._next_slot
        self._next_slot += 1
        self.counter += 1
        return self.vars[slot], slot, (0,) * grew

    def _compact(self) -> None:
        """Drop reserved-but-unclaimed trailing columns (all zero)."""
        if self._next_slot >= len(self.vars):
            return
        keep = self._next_slot
        vars_t = self.vars[:keep]
        self.polys = [
            Polynomial._raw(vars_t, {e[:keep]: c for e, c in p.terms.items()})
            for p in self.polys
        ]
        self.vars = vars_t

    # -- the greedy loop --------------------------------------------------

    def run(self) -> CseResult:
        from repro.obs import current_tracer

        deadline = _current_deadline()
        tracer = current_tracer()
        emitting = tracer.emitting  # hoisted: the greedy loop is hot
        while self.rounds < self.max_rounds:
            deadline.tick(site="cse/round")
            rows = self._kernel_rows() if self.enable_kernels else []
            best_gain = 0
            best_action = None

            if self.enable_kernels:
                for candidate in self._kernel_candidates(rows):
                    matches = self._kernel_matches(candidate, rows)
                    if len(matches) < 2:
                        continue
                    gain = self._kernel_gain(candidate, matches)
                    if gain > best_gain:
                        best_gain = gain
                        best_action = ("kernel", candidate, matches)

            if self.enable_cubes:
                for candidate in self._cube_candidates():
                    occurrences = self._cube_occurrences(candidate)
                    if len(occurrences) < 2:
                        continue
                    gain = self._cube_savings(candidate, occurrences)
                    if gain > best_gain:
                        best_gain = gain
                        best_action = ("cube", candidate, occurrences)

            if best_action is None:
                break
            kind, candidate, where = best_action
            applied = (
                self._apply_kernel(candidate, where)
                if kind == "kernel"
                else self._apply_cube(candidate, where)
            )
            if not applied:
                break
            if emitting:
                tracer.emit(
                    "kernel_chosen",
                    kind=kind,
                    gain=best_gain,
                    matches=len(where),
                    round=self.rounds,
                )
            self.rounds += 1
        self._compact()
        return CseResult(self.polys, dict(self.blocks), self.rounds)


def full_rebuild_cse(
    polys: Iterable[Polynomial],
    prefix: str = "_cse",
    start_index: int = 0,
    max_rounds: int = 200,
    enable_kernels: bool = True,
    enable_cubes: bool = True,
    enable_rectangles: bool = True,
) -> CseResult:
    """Run the full-rebuild extractor over a system of polynomials.

    Returns the rewritten polynomials (over the original variables plus
    one fresh variable per extracted block) and the block definitions.
    Rewriting is always exact: substituting every block definition back
    reproduces the input system — tests enforce this invariant.

    The ``enable_*`` switches turn off candidate classes (multi-term
    kernels, single cubes, KCM rectangles) for ablation studies; the full
    extractor is strictly stronger than any restriction.
    """
    extractor = _Extractor(
        list(polys),
        prefix,
        start_index,
        max_rounds,
        enable_kernels=enable_kernels,
        enable_cubes=enable_cubes,
        enable_rectangles=enable_rectangles,
    )
    return extractor.run()
