"""Greedy multi-polynomial common sub-expression extraction.

The repo's substitute for the JuanCSE tool [14]: an implementation of the
kernel-intersection CSE of Hosangadi, Fallah & Kastner [13].  The
extractor keeps one candidate pool for the whole run:

1. the kernel rows of every polynomial (:mod:`repro.cse.kernels`) in a
   kernel-cube matrix (:mod:`repro.cse.kcm`);
2. the candidates — whole kernels, pairwise kernel intersections and
   the best KCM rectangles (multi-term sub-expressions), and common cubes
   with and without an attached coefficient (single-term ones) — each
   with reference counts of the sources that produce it;
3. each kernel candidate's matching rows with its exact per-row saving,
   and each cube candidate's exact saving: the weighted MULT/ADD
   operators its extraction saves (a multiplier is worth several adders).

Each round extracts the best candidate into a fresh building-block
variable and rewrites every occurrence.  Then only the rewritten
polynomials are re-enumerated: their old rows leave the matrix, the
candidates that matched them lose those savings, new kernels are paired
against the existing ones through a posting index, and only rectangles
seeded from a column of a changed row are regrown.  The loop stops when
nothing saves anything.

The pool picks the same winner a from-scratch rebuild of every round
would: the highest gain wins, kernel candidates before cubes.  Ties among
kernel candidates go to the one a rebuild would insert first — whole
kernels in row order, then pair intersections by pair, then rectangles
by rank — and ties among cubes to the smallest ``(coeff, monomial)``.

Matching is *syntactic* with exact integer coefficients (and global sign),
exactly like [13]: ``4 - 3ab`` in two kernels matches, ``8 - 6ab`` does
not — closing that gap is the job of the paper's CCE and algebraic
division, not of CSE.

Coefficients are never split here; blocks become ordinary variables of the
rewritten polynomials, so extraction composes transparently with every
other transformation in the repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.expr.cost import ADD_WEIGHT, CMUL_WEIGHT, MUL_WEIGHT
from repro.poly import Polynomial
from repro.poly.monomial import Exponents, mono_mul

from .kcm import KernelCubeMatrix
from .kernels import trimmed_kernels

#: Row ids are ``poly index << _ROW_SHIFT | kernel position``, so they
#: sort in row order: polynomial by polynomial, kernels in enumeration
#: order.
_ROW_SHIFT = 32


def _current_deadline():
    # Lazy import: cse is a dependency of core, so the budget module is
    # reached at call time to keep the import graph acyclic.
    from repro.core.budget import current_deadline

    return current_deadline()


@dataclass
class CseResult:
    """Rewritten system plus the building blocks CSE introduced."""

    polys: list[Polynomial]
    blocks: dict[str, Polynomial] = field(default_factory=dict)
    rounds: int = 0

    @property
    def block_names(self) -> list[str]:
        return list(self.blocks)


def _weight(coeff: int, literals: int) -> int:
    """Weighted operator cost of one term with ``literals`` literals.

    Variable-by-variable multiplies dominate; the coefficient multiply is
    a cheap shift-add network.
    """
    weight = max(literals - 1, 0) * MUL_WEIGHT
    if abs(coeff) != 1 and literals:
        weight += CMUL_WEIGHT
    return weight


def _normalize_sign(poly: Polynomial) -> Polynomial:
    """The positively-oriented (grlex leading coefficient > 0) sign of ``poly``."""
    return -poly if poly.leading_coeff("grlex") < 0 else poly


def _shared_cube(
    sparse_a: tuple[tuple[int, int], ...],
    sparse_b: tuple[tuple[int, int], ...],
    min_literals: int,
) -> tuple[tuple[int, int], ...] | None:
    """Exponent-wise minimum of two sparse monomials, or None if small."""
    if len(sparse_b) < len(sparse_a):
        sparse_a, sparse_b = sparse_b, sparse_a
    lookup = dict(sparse_b)
    shared = []
    literals = 0
    for index, exp in sparse_a:
        other = lookup.get(index)
        if other:
            smaller = exp if exp < other else other
            shared.append((index, smaller))
            literals += smaller
    return tuple(shared) if literals >= min_literals else None


def _mask(sparse: tuple[tuple[int, int], ...]) -> int:
    """Bitmask of the variables a sparse monomial uses."""
    mask = 0
    for i, _ in sparse:
        mask |= 1 << i
    return mask


def _column_weigher(
    cube_coeff: list[int], cube_mono: list[int], mono_literals: list[int]
) -> Callable[[int], int]:
    """A cube column's weight, read from the extractor's growing tables.

    It closes over the tables, not the extractor: a bound method would
    make the matrix and the extractor a reference cycle, and every run's
    candidate pool would then wait for the cycle collector.
    """

    def column_weight(cid: int) -> int:
        return _weight(cube_coeff[cid], mono_literals[cube_mono[cid]])

    return column_weight


class _Unique:
    """One distinct kernel term set: the rows holding it and its pairs."""

    __slots__ = ("rows", "key", "pairs")

    def __init__(self, row: int):
        self.rows = {row}
        self.key: frozenset[int] | None = None
        #: partner term set -> the (source, candidate key)s the pair adds.
        self.pairs: dict[frozenset[int], list[tuple[tuple, frozenset[int]]]] = {}


class _Candidate:
    """A multi-term candidate: its sources, matching rows and cached gain."""

    __slots__ = ("key", "neg", "sources", "matches", "gain", "terms", "per_row")

    def __init__(self, key: frozenset[int]):
        self.key = key
        self.neg = frozenset(c ^ 1 for c in key)
        #: What adds it to a full rebuild's pool: ``(0, term set)`` a whole
        #: kernel, ``(1, term set, term set, flag)`` a pair intersection
        #: (flag 0 same-sign, 1 flipped, 2 flipped with no same-sign
        #: overlap), ``(2, rank)`` a rectangle.
        self.sources: set[tuple] = set()
        #: row id -> sign of the occurrence.
        self.matches: dict[int, int] = {}
        #: exact gain on the current rows; None once the matches change.
        self.gain: int | None = None
        #: (literal count, coefficient) per body term, once first scored.
        self.terms: list[tuple[int, int]] | None = None
        #: co-kernel literal count -> operators saved by one occurrence.
        self.per_row: dict[int, int] = {}


class _Cube:
    """A single-term candidate: its source count and exact savings."""

    __slots__ = ("refs", "literals", "mask", "occurrences", "saved")

    def __init__(self, sparse: tuple[tuple[int, int], ...]):
        self.refs = 0
        self.literals = sum(e for _, e in sparse)
        self.mask = _mask(sparse)
        self.occurrences = -1  # -1: not scored yet
        self.saved = 0


class _Extractor:
    """One CSE run over a system of polynomials."""

    #: How many block-variable columns are reserved at a time.  Extending
    #: the variable tuple re-pads every polynomial's exponent tuples and
    #: re-keys the interned monomials, so slots are claimed from a
    #: pre-reserved chunk and the re-pad happens once per chunk instead of
    #: once per extraction.  Block bodies carry the variable tuple of the
    #: round that extracted them, reserved names included.
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
        #: Work counters: kernel rows enumerated, candidate scores computed.
        self.rows_rescanned = 0
        self.candidates_rescored = 0
        self._meter = _current_deadline().meter()

        # Interned monomials (dense exponent tuples of the current width;
        # re-keyed when a slot claim re-pads) and signed cubes over them.
        # Cube ids come in pairs: ``c ^ 1`` is the negation of cube ``c``.
        self._mono_of: dict[Exponents, int] = {}
        self._monos: list[Exponents] = []
        self._mono_literals: list[int] = []
        self._mono_sparse: list[tuple[tuple[int, int], ...] | None] = []
        self._mono_mask: list[int] = []  # variable bitmask, set with the sparse form
        # Kernels arrive over each polynomial's used variables: per used
        # tuple, their positions and the monomial ids of exponent tuples
        # over them (claims append variables, so positions stay valid).
        self._var_index = {v: i for i, v in enumerate(self.vars)}
        self._trimmed_monos: dict[
            tuple[str, ...], tuple[list[int], dict[Exponents, int]]
        ] = {}
        self._cube_of: dict[tuple[int, int], int] = {}
        self._cube_mono: list[int] = []
        self._cube_coeff: list[int] = []

        # Kernel side.
        self._kcm = KernelCubeMatrix(
            _column_weigher(self._cube_coeff, self._cube_mono, self._mono_literals)
        )
        self._rows_of: list[list[int]] = [[] for _ in unified]
        self._cokernel: dict[int, int] = {}
        self._uniques: dict[frozenset[int], _Unique] = {}
        self._unique_posting: dict[int, set[frozenset[int]]] = {}
        self._candidates: dict[frozenset[int], _Candidate] = {}
        self._anchored: dict[int, set[frozenset[int]]] = {}
        self._row_candidates: dict[int, set[frozenset[int]]] = {}
        self._normalized: dict[frozenset[int], frozenset[int]] = {}
        self._rectangles: list[frozenset[int]] = []  # column sets by rank
        self._emptied: set[frozenset[int]] = set()  # term sets left without rows
        self._orphans: set[frozenset[int]] = set()  # candidates left without sources

        # Cube side: each polynomial's (monomial, coeff) terms and their
        # counts over the system, the reference-counted pairing items, the
        # paired monomials of each coefficient group (1 = plain cubes),
        # the cube each pair shares, and the cubes with their sources.
        self._poly_terms: list[set[tuple[int, int]]] = [set() for _ in unified]
        self._pair_refs: dict[tuple[int, int], int] = {}
        self._groups: dict[int, dict[int, None]] = {}
        self._pairs: dict[tuple[int, int], dict[int, tuple]] = {}
        self._term_counts: dict[tuple[int, int], int] = {}
        self._cubes: dict[tuple, _Cube] = {}

    # -- interning --------------------------------------------------------

    def _mono(self, exps: Exponents) -> int:
        mid = self._mono_of.get(exps)
        if mid is None:
            mid = self._mono_of[exps] = len(self._monos)
            self._monos.append(exps)
            self._mono_literals.append(sum(exps))
            self._mono_sparse.append(None)
            self._mono_mask.append(0)
        return mid

    def _mono_over(
        self, positions: list[int], local: dict[Exponents, int], exps: Exponents
    ) -> int:
        """Intern a monomial given over the used variables at ``positions``."""
        dense = [0] * len(self.vars)
        for position, e in zip(positions, exps):
            dense[position] = e
        mid = local[exps] = self._mono(tuple(dense))
        return mid

    def _sparse(self, mid: int) -> tuple[tuple[int, int], ...]:
        sparse = self._mono_sparse[mid]
        if sparse is None:
            sparse = tuple((i, e) for i, e in enumerate(self._monos[mid]) if e)
            self._mono_sparse[mid] = sparse
            self._mono_mask[mid] = _mask(sparse)
        return sparse

    def _cube(self, mid: int, coeff: int) -> int:
        cid = self._cube_of.get((mid, coeff))
        if cid is None:
            cid = len(self._cube_mono)
            self._cube_of[(mid, coeff)] = cid
            self._cube_of[(mid, -coeff)] = cid + 1
            self._cube_mono += (mid, mid)
            self._cube_coeff += (coeff, -coeff)
        return cid

    def _dense_items(self, cids: Iterable[int]) -> list[tuple[Exponents, int]]:
        monos, cube_mono, cube_coeff = self._monos, self._cube_mono, self._cube_coeff
        return [(monos[cube_mono[c]], cube_coeff[c]) for c in cids]

    # -- kernel rows ------------------------------------------------------

    def _drop_rows(self, index: int) -> None:
        kcm = self._kcm
        for row in self._rows_of[index]:
            for key in self._row_candidates.pop(row, ()):
                candidate = self._candidates[key]
                del candidate.matches[row]
                candidate.gain = None
            unique = self._uniques[kcm.incidence[row]]
            unique.rows.discard(row)
            if not unique.rows:
                self._emptied.add(kcm.incidence[row])
            del self._cokernel[row]
            kcm.remove_row(row)
        self._rows_of[index] = []

    def _add_rows(self, index: int, fresh: list[frozenset[int]]) -> None:
        """Enumerate one polynomial's kernels into rows.

        Existing candidates are matched against each new row through their
        anchor cube; term sets seen for the first time go to ``fresh``.
        """
        kcm = self._kcm
        cube_of = self._cube_of
        anchored, candidates = self._anchored, self._candidates
        uniques = self._uniques
        used, entries = trimmed_kernels(self.polys[index])
        known = self._trimmed_monos.get(used)
        if known is None:
            index_of = self._var_index
            known = self._trimmed_monos[used] = ([index_of[v] for v in used], {})
        positions, local = known
        base = index << _ROW_SHIFT
        rows = []
        work = 0
        for position, entry in enumerate(entries):
            row = base | position
            cids = []
            for exps, coeff in entry.kernel.terms.items():
                mid = local.get(exps)
                if mid is None:
                    mid = self._mono_over(positions, local, exps)
                cid = cube_of.get((mid, coeff))
                if cid is None:
                    cid = self._cube(mid, coeff)
                cids.append(cid)
            term_set = kcm.add_row(row, cids)
            cokernel = local.get(entry.cokernel)
            if cokernel is None:
                cokernel = self._mono_over(positions, local, entry.cokernel)
            self._cokernel[row] = cokernel
            rows.append(row)
            unique = uniques.get(term_set)
            if unique is None:
                uniques[term_set] = _Unique(row)
                fresh.append(term_set)
            else:
                unique.rows.add(row)
            if not candidates:
                continue
            for cid in term_set:
                for key in anchored.get(cid, ()):
                    work += 1
                    if key <= term_set:
                        self._match(candidates[key], row, 1)
                for key in anchored.get(cid ^ 1, ()):
                    work += 1
                    candidate = candidates[key]
                    if candidate.neg <= term_set:
                        self._match(candidate, row, -1)
        self._rows_of[index] = rows
        self.rows_rescanned += len(rows)
        self._meter.step(len(rows) + work, "cse/rows")

    def _match(self, candidate: _Candidate, row: int, sign: int) -> None:
        candidate.matches[row] = sign
        candidate.gain = None
        self._row_candidates.setdefault(row, set()).add(candidate.key)

    # -- kernel candidates ------------------------------------------------

    def _normalize(self, cids: frozenset[int]) -> frozenset[int]:
        """The sign-normalized candidate key of a term set."""
        key = self._normalized.get(cids)
        if key is None:
            monos, cube_mono = self._monos, self._cube_mono
            lead = max(
                cids,
                key=lambda c: (self._mono_literals[cube_mono[c]], monos[cube_mono[c]]),
            )
            key = cids if self._cube_coeff[lead] > 0 else frozenset(c ^ 1 for c in cids)
            self._normalized[cids] = key
        return key

    def _add_source(self, cids: frozenset[int], source: tuple) -> frozenset[int]:
        key = self._normalize(cids)
        candidate = self._candidates.get(key)
        if candidate is None:
            candidate = self._new_candidate(key)
        candidate.sources.add(source)
        return key

    def _drop_source(self, key: frozenset[int], source: tuple) -> None:
        candidate = self._candidates[key]
        candidate.sources.discard(source)
        if not candidate.sources:
            self._orphans.add(key)

    def _new_candidate(self, key: frozenset[int]) -> _Candidate:
        """Register a candidate with its occurrences on every current row."""
        candidate = self._candidates[key] = _Candidate(key)
        self._anchored.setdefault(min(key), set()).add(key)
        postings = self._kcm.postings
        for sign, cids in ((1, key), (-1, candidate.neg)):
            sets = [postings.get(c) for c in cids]
            if None in sets:
                continue
            for row in set.intersection(*sets):
                self._match(candidate, row, sign)
        self._meter.step(len(candidate.matches) + 1, "cse/rescore")
        return candidate

    def _kernel_gain(self, candidate: _Candidate) -> int:
        """Exact weighted operators saved by extracting the candidate.

        Per occurrence: the covered terms' products and joining adds
        disappear, replaced by a single ``cokernel * block`` term; the
        block body itself is paid once.  A row's kernel is its
        polynomial's terms divided by the co-kernel, so an occurrence's
        saving depends on the row only through the co-kernel's literal
        count.  Overlapping occurrences make this an optimistic bound —
        the application step re-checks every term.
        """
        terms = candidate.terms
        if terms is None:
            cube_mono, literals_of = self._cube_mono, self._mono_literals
            terms = candidate.terms = [
                (literals_of[cube_mono[c]], self._cube_coeff[c]) for c in candidate.key
            ]
        per_row = candidate.per_row
        literals_of, cokernel = self._mono_literals, self._cokernel
        gain = -sum(_weight(c, literals) for literals, c in terms) - (
            len(terms) - 1
        ) * ADD_WEIGHT
        for row in candidate.matches:
            literals = literals_of[cokernel[row]]
            saved = per_row.get(literals)
            if saved is None:
                saved = (len(terms) - 1) * ADD_WEIGHT - literals * MUL_WEIGHT
                for term_literals, c in terms:
                    saved += _weight(c, literals + term_literals)
                per_row[literals] = saved
            gain += saved
        candidate.gain = gain
        self.candidates_rescored += 1
        self._meter.step(len(candidate.matches) + 1, "cse/rescore")
        return gain

    def _add_unique(self, term_set: frozenset[int]) -> None:
        """Source a new distinct kernel and pair it with every other one.

        A pair adds its same-sign intersection when it shares two terms
        and its sign-flipped intersection when two terms match with the
        opposite sign; the posting index visits only kernels that share a
        term.
        """
        unique = self._uniques[term_set]
        unique.key = self._add_source(term_set, (0, term_set))
        posting = self._unique_posting
        counts: dict[frozenset[int], int] = {}
        flips: dict[frozenset[int], int] = {}
        work = 0
        for cid in term_set:
            for other in posting.get(cid, ()):
                counts[other] = counts.get(other, 0) + 1
                work += 1
            for other in posting.get(cid ^ 1, ()):
                flips[other] = flips.get(other, 0) + 1
                work += 1
        for cid in term_set:
            entry = posting.get(cid)
            if entry is None:
                posting[cid] = {term_set}
            else:
                entry.add(term_set)
        self._meter.step(work + 1, "cse/kernel_pairs")
        for other in counts.keys() | flips.keys():
            same, flipped = counts.get(other, 0), flips.get(other, 0)
            added = []
            if same >= 2:
                source = (1, term_set, other, 0)
                added.append((source, self._add_source(term_set & other, source)))
            if flipped >= 2:
                source = (1, term_set, other, 1 if same else 2)
                overlap = frozenset(c for c in term_set if c ^ 1 in other)
                added.append((source, self._add_source(overlap, source)))
            if added:
                unique.pairs[other] = added
                self._uniques[other].pairs[term_set] = added

    def _drop_unique(self, term_set: frozenset[int]) -> None:
        unique = self._uniques.pop(term_set)
        self._drop_source(unique.key, (0, term_set))
        for other, added in unique.pairs.items():
            del self._uniques[other].pairs[term_set]
            for source, key in added:
                self._drop_source(key, source)
        posting = self._unique_posting
        for cid in term_set:
            entry = posting[cid]
            entry.discard(term_set)
            if not entry:
                del posting[cid]

    def _update_rectangles(self) -> None:
        """Re-rank the best KCM rectangles; only changed seeds regrow."""
        ranked = [
            frozenset(rectangle.column_indices)
            for rectangle in self._kcm.best_rectangles(limit=6)
            if rectangle.num_columns >= 2
        ]
        old = self._rectangles
        for rank in range(max(len(old), len(ranked))):
            before = old[rank] if rank < len(old) else None
            after = ranked[rank] if rank < len(ranked) else None
            if before == after:
                continue
            if before is not None:
                self._drop_source(self._normalize(before), (2, rank))
            if after is not None:
                self._add_source(after, (2, rank))
        self._rectangles = ranked

    def _drop_candidate(self, key: frozenset[int]) -> None:
        candidate = self._candidates.pop(key)
        anchor = self._anchored[min(key)]
        anchor.discard(key)
        if not anchor:
            del self._anchored[min(key)]
        for row in candidate.matches:
            self._row_candidates[row].discard(key)

    # -- cube side --------------------------------------------------------

    def _refresh_terms(self, indices: Iterable[int]) -> None:
        """Diff the terms of changed polynomials into the cube pool.

        Scored cubes gain or lose exactly the changed terms they divide.
        The pairing items — ``(1, monomial)`` for each distinct monomial
        of >= 2 literals and ``(|coeff|, monomial)`` for each distinct
        scaled term of >= 1 literal — are reference counted; one that
        appears is paired with its group, one that vanishes unpaired.
        """
        counts, refs = self._term_counts, self._pair_refs
        mono_of, literals_of = self._mono_of, self._mono_literals
        deltas: list[tuple[int, int, int]] = []
        gone: list[tuple[int, int]] = []
        born: list[tuple[int, int]] = []
        for index in indices:
            terms = set()
            for exps, coeff in self.polys[index].terms.items():
                mid = mono_of.get(exps)
                terms.add((self._mono(exps) if mid is None else mid, coeff))
            old = self._poly_terms[index]
            self._poly_terms[index] = terms
            for delta, items in ((-1, old - terms), (1, terms - old)):
                for item in items:
                    mid, coeff = item
                    deltas.append((mid, coeff, delta))
                    count = counts.get(item, 0) + delta
                    if count:
                        counts[item] = count
                    else:
                        del counts[item]
                    literals = literals_of[mid]
                    keys = []
                    if literals >= 2:
                        keys.append((1, mid))
                    if literals and abs(coeff) != 1:
                        keys.append((abs(coeff), mid))
                    for key in keys:
                        count = refs.get(key, 0) + delta
                        if count:
                            refs[key] = count
                            if count == 1 and delta > 0:
                                born.append(key)
                        else:
                            del refs[key]
                            gone.append(key)
        scored = [item for item in self._cubes.items() if item[1].occurrences >= 0]
        if scored:
            self._rescore_cubes(scored, deltas)
        for item in gone:
            if item not in refs and item in self._pairs:
                self._unpair(item)
        for item in born:
            if item in refs and item not in self._pairs:
                self._pair(item)

    def _rescore_cubes(
        self, scored: list[tuple[tuple, _Cube]], deltas: list[tuple[int, int, int]]
    ) -> None:
        """Add (+1) or take away (-1) each changed term in the cubes dividing it."""
        monos, masks, sparse_of = self._monos, self._mono_mask, self._sparse
        for mid, _, _ in deltas:
            sparse_of(mid)
        for key, cube in scored:
            coeff, sparse = key
            mask = cube.mask
            for mid, term_coeff, delta in deltas:
                if mask & ~masks[mid]:
                    continue
                saved = self._cube_saving(coeff, sparse, cube.literals, monos[mid], term_coeff)
                if saved is not None:
                    cube.occurrences += delta
                    cube.saved += delta * saved
        self.candidates_rescored += len(scored)
        self._meter.step(len(deltas) * len(scored), "cse/rescore")

    def _pair(self, item: tuple[int, int]) -> None:
        """Pair a new item with every other one of its coefficient group.

        Each pair shares the exponent-wise minimum of the two monomials:
        a plain cube when it has >= 2 literals, a coefficient cube when it
        has >= 1.
        """
        coeff, mid = item
        least = 2 if coeff == 1 else 1
        sparse = self._sparse(mid)
        mask, masks, sparse_of = self._mono_mask[mid], self._mono_mask, self._mono_sparse
        group = self._groups.setdefault(coeff, {})
        pairs = self._pairs
        mine = pairs[item] = {}
        for other in group:
            if not mask & masks[other]:
                continue
            shared = _shared_cube(sparse, sparse_of[other], least)
            if shared is not None:
                key = (coeff, shared)
                mine[other] = key
                pairs[(coeff, other)][mid] = key
                self._cube_ref(key, 1)
        group[mid] = None
        site = "cse/cube_pairs" if coeff == 1 else "cse/coeff_cube_pairs"
        self._meter.step(len(group), site)

    def _unpair(self, item: tuple[int, int]) -> None:
        coeff, mid = item
        for other, key in self._pairs.pop(item).items():
            del self._pairs[(coeff, other)][mid]
            self._cube_ref(key, -1)
        group = self._groups[coeff]
        del group[mid]
        if not group:
            del self._groups[coeff]

    def _cube_ref(self, key: tuple, delta: int) -> None:
        cube = self._cubes.get(key)
        if cube is None:
            cube = self._cubes[key] = _Cube(key[1])
        cube.refs += delta
        if not cube.refs:
            del self._cubes[key]

    @staticmethod
    def _cube_power(
        coeff: int, sparse: tuple[tuple[int, int], ...], exps: Exponents, term_coeff: int
    ) -> int:
        """How often the cube divides one term (0: not at all).

        A coefficient cube divides at most once, since the coefficient does.
        """
        power = None
        for i, c in sparse:
            k = exps[i] // c
            if k == 0:
                return 0
            power = k if power is None else min(power, k)
        if coeff != 1:
            return 0 if term_coeff % coeff else 1
        return power

    @classmethod
    def _cube_saving(
        cls,
        coeff: int,
        sparse: tuple[tuple[int, int], ...],
        cube_literals: int,
        exps: Exponents,
        term_coeff: int,
    ) -> int | None:
        """Operators saved in one term by the cube, or None if it does not divide.

        The term becomes ``term / cube^k * block^k``.
        """
        power = cls._cube_power(coeff, sparse, exps, term_coeff)
        if not power:
            return None
        literals = sum(exps)
        after = literals - power * cube_literals + power
        new_coeff = term_coeff // coeff if coeff != 1 else term_coeff
        return _weight(term_coeff, literals) - _weight(new_coeff, after)

    def _cube_occurrences(
        self, coeff: int, sparse: tuple[tuple[int, int], ...]
    ) -> list[tuple[int, Exponents, int]]:
        """(poly index, term exps, power) for every term the cube divides."""
        out = []
        for index, poly in enumerate(self.polys):
            for exps, term_coeff in poly.terms.items():
                power = self._cube_power(coeff, sparse, exps, term_coeff)
                if power:
                    out.append((index, exps, power))
        return out

    def _best_cube(self, to_beat: int) -> tuple[tuple | None, int]:
        """(cube, gain) a full rescoring would pick over a kernel gain ``to_beat``.

        Cubes are scanned in ``(coeff, monomial)`` order; a new cube is
        scored once over the distinct terms, then kept up to date.  The
        cube is None when none beats ``to_beat``.
        """
        best_gain = to_beat
        best = None
        monos = self._monos
        for key in sorted(self._cubes):
            cube = self._cubes[key]
            if cube.occurrences < 0:
                coeff, sparse = key
                cube.occurrences = cube.saved = 0
                for (mid, term_coeff), count in self._term_counts.items():
                    saved = self._cube_saving(
                        coeff, sparse, cube.literals, monos[mid], term_coeff
                    )
                    if saved is not None:
                        cube.occurrences += count
                        cube.saved += count * saved
                self.candidates_rescored += 1
                self._meter.step(len(self._term_counts), "cse/rescore")
            if cube.occurrences < 2:
                continue
            gain = cube.saved - max(cube.literals - 1, 0) * MUL_WEIGHT - (
                CMUL_WEIGHT if key[0] != 1 else 0
            )
            if gain > best_gain:
                best_gain = gain
                best = key
        return best, best_gain

    # -- the incremental pool ------------------------------------------------

    def _refresh(self, indices: list[int]) -> None:
        """Bring the pool up to date after ``indices`` were (re)written."""
        if self.enable_kernels:
            for index in indices:
                self._drop_rows(index)
            fresh: list[frozenset[int]] = []
            for index in indices:
                self._add_rows(index, fresh)
            for term_set in self._emptied:
                if not self._uniques[term_set].rows:
                    self._drop_unique(term_set)
            self._emptied.clear()
            for term_set in fresh:
                self._add_unique(term_set)
            if self.enable_rectangles:
                self._update_rectangles()
            for key in self._orphans:
                if key in self._candidates and not self._candidates[key].sources:
                    self._drop_candidate(key)
            self._orphans.clear()
        if self.enable_cubes:
            self._refresh_terms(indices)

    def _position(self, source: tuple) -> tuple:
        """Where a full rebuild would insert ``source`` into its pool."""
        kind = source[0]
        if kind == 0:
            return (0, min(self._uniques[source[1]].rows))
        if kind == 1:
            first, second = (min(self._uniques[t].rows) for t in source[1:3])
            if first > second:
                first, second = second, first
            flag = source[3]
            return (1, first, flag == 2, second, flag == 1)
        return source

    def _best_kernel(self) -> tuple[int, _Candidate | None]:
        """(gain, candidate) of the winning multi-term candidate, if any gains.

        Only candidates whose occurrences changed are rescored; ties go to
        the candidate a full rebuild would have inserted first.
        """
        best_gain = 0
        tied: list[_Candidate] = []
        for candidate in self._candidates.values():
            if len(candidate.matches) < 2:
                continue
            gain = candidate.gain
            if gain is None:
                gain = self._kernel_gain(candidate)
            if gain > best_gain:
                best_gain = gain
                tied = [candidate]
            elif gain == best_gain and tied:
                tied.append(candidate)
        if not tied:
            return 0, None
        if len(tied) == 1:
            return best_gain, tied[0]
        return best_gain, min(
            tied, key=lambda c: min(self._position(s) for s in c.sources)
        )

    def _first_kernel(self, term_set: frozenset[int]) -> list[tuple[Exponents, int]]:
        """Dense terms of the first row holding ``term_set``, in kernel order."""
        row = min(self._uniques[term_set].rows)
        return self._dense_items(self._kcm.row_columns[row])

    def _body(self, candidate: _Candidate) -> Polynomial:
        """The candidate's body exactly as a full rebuild would build it.

        That is the body of its first source; a pair intersection's term
        order follows the frozenset intersection of the two kernels'
        dense term sets, so it is recomputed from them.
        """
        source = min(candidate.sources, key=self._position)
        kind = source[0]
        if kind == 0:
            terms = dict(self._first_kernel(source[1]))
        elif kind == 1:
            first, second = source[1], source[2]
            if min(self._uniques[first].rows) > min(self._uniques[second].rows):
                first, second = second, first
            set_a = frozenset(self._first_kernel(first))
            set_b = frozenset(self._first_kernel(second))
            if source[3]:
                set_b = frozenset((e, -c) for e, c in set_b)
            terms = dict(set_a & set_b)
        else:
            ordered = sorted(self._rectangles[source[1]], key=self._kcm.first_appearance)
            terms = dict(self._dense_items(ordered))
        return _normalize_sign(Polynomial._raw(self.vars, terms))

    # -- application ------------------------------------------------------

    def _apply_kernel(
        self, body: Polynomial, matches: list[tuple[int, Exponents, int]]
    ) -> list[int]:
        """Rewrite occurrences; returns the rewritten polynomial indices."""
        used: dict[int, set[Exponents]] = {}
        planned: list[tuple[int, Exponents, int, list[Exponents]]] = []
        for index, cokernel, sign in matches:
            poly = self.polys[index]
            covered = []
            ok = True
            taken = used.setdefault(index, set())
            for exps, coeff in body.terms.items():
                target = mono_mul(cokernel, exps)
                if target in taken or poly.terms.get(target) != sign * coeff:
                    ok = False
                    break
                covered.append(target)
            if ok:
                taken.update(covered)
                planned.append((index, cokernel, sign, covered))
        if len(planned) < 2:
            return []
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
        self.blocks[name] = body
        self.polys = new_polys
        return sorted({index for index, _, _, _ in planned})

    def _apply_cube(
        self, coeff: int, exps: Exponents, occurrences: list[tuple[int, Exponents, int]]
    ) -> list[int]:
        if len(occurrences) < 2:
            return []
        block_poly = Polynomial(self.vars, {exps: coeff})
        name, slot, pad = self._claim_slot()
        by_poly: dict[int, list[tuple[Exponents, int]]] = {}
        for index, term, power in occurrences:
            by_poly.setdefault(index, []).append((term, power))
        new_polys = list(self.polys)
        for index, pairs in by_poly.items():
            terms = dict(new_polys[index].terms)
            for term, power in pairs:
                term_coeff = terms.pop(term + pad)
                base = tuple(e - power * c for e, c in zip(term, exps)) + pad
                new_exps = base[:slot] + (power,) + base[slot + 1:]
                new_coeff = term_coeff // coeff if coeff != 1 else term_coeff
                total = terms.get(new_exps, 0) + new_coeff
                if total:
                    terms[new_exps] = total
                else:
                    terms.pop(new_exps, None)
            new_polys[index] = Polynomial._raw(self.vars, terms)
        self.blocks[name] = block_poly
        self.polys = new_polys
        return sorted(by_poly)

    # -- bookkeeping -----------------------------------------------------

    def _claim_slot(self) -> tuple[str, int, Exponents]:
        """Claim one block-variable column; returns (name, index, key pad).

        When the reserve is exhausted, ``_SLOT_CHUNK`` spare columns are
        appended at once (with their future names pre-assigned, since
        claims are sequential) and every polynomial is re-padded — that is
        the only point where variable tuples change.  The interned
        monomials are re-keyed with them; the pool refers to monomials by
        id only, so it survives the re-pad.  The returned ``pad`` is what
        a caller must append to exponent keys computed *before* the claim
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
            self._monos = [e + chunk_pad for e in self._monos]
            self._mono_of = {e: mid for mid, e in enumerate(self._monos)}
            self._var_index = {v: i for i, v in enumerate(self.vars)}
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
        changed = list(range(len(self.polys)))
        while self.rounds < self.max_rounds:
            deadline.tick(site="cse/round")
            self._refresh(changed)
            best_gain, winner = (
                self._best_kernel() if self.enable_kernels else (0, None)
            )
            cube, best_gain = (
                self._best_cube(best_gain) if self.enable_cubes else (None, best_gain)
            )
            if cube is not None:
                kind = "cube"
                coeff, sparse = cube
                exps = [0] * len(self.vars)
                for i, e in sparse:
                    exps[i] = e
                where = self._cube_occurrences(coeff, sparse)
                changed = self._apply_cube(coeff, tuple(exps), where)
            elif winner is not None:
                kind = "kernel"
                where = [
                    (row >> _ROW_SHIFT, self._monos[self._cokernel[row]], sign)
                    for row, sign in sorted(winner.matches.items())
                ]
                changed = self._apply_kernel(self._body(winner), where)
            else:
                break
            if not changed:
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
        self._meter.flush()
        self._compact()
        return CseResult(self.polys, dict(self.blocks), self.rounds)


def eliminate_common_subexpressions(
    polys: Iterable[Polynomial],
    prefix: str = "_cse",
    start_index: int = 0,
    max_rounds: int = 200,
    enable_kernels: bool = True,
    enable_cubes: bool = True,
    enable_rectangles: bool = True,
) -> CseResult:
    """Run kernel-intersection CSE over a system of polynomials.

    Returns the rewritten polynomials (over the original variables plus
    one fresh variable per extracted block) and the block definitions.
    Rewriting is always exact: substituting every block definition back
    reproduces the input system — tests enforce this invariant.

    The ``enable_*`` switches turn off candidate classes (multi-term
    kernels, single cubes, KCM rectangles) for ablation studies; the full
    extractor is strictly stronger than any restriction.
    """
    from repro.obs import current_tracer

    extractor = _Extractor(
        list(polys),
        prefix,
        start_index,
        max_rounds,
        enable_kernels=enable_kernels,
        enable_cubes=enable_cubes,
        enable_rectangles=enable_rectangles,
    )
    with current_tracer().span("cse/extract") as span:
        result = extractor.run()
        span.count(
            rounds=result.rounds,
            blocks=len(result.blocks),
            rows_rescanned=extractor.rows_rescanned,
            candidates_rescored=extractor.candidates_rescored,
        )
    return result


def expand_blocks(poly: Polynomial, blocks: dict[str, Polynomial]) -> Polynomial:
    """Substitute block definitions (repeatedly) back into a polynomial."""
    current = poly
    # Blocks may reference earlier blocks; substitute until none remain.
    for _ in range(len(blocks) + 1):
        used = set(current.used_vars())
        present = [name for name in blocks if name in used]
        if not present:
            return current.trim()
        current = current.subs({name: blocks[name] for name in present})
    raise RuntimeError("cyclic block definitions")
