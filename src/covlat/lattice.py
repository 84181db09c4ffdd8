"""Flat lattices of matroids: enumeration, order structure, geometricity.

``enumerate_lattice`` grows the lattice upward from the bottom flat by cover
generation instead of filtering all 2^n subsets, so it only pays for flats
that exist.  The input is any object exposing ``universe``, ``rank``,
``closure`` and ``covers_of`` with matroid semantics; that contract is what
makes cover generation correct.  ``covers_of`` returns a flat's rank with
the masks of its covers.  An oracle with no faster way to list the covers
of a flat uses ``covers_by_closure``, one closure per cover.

A ``FlatLattice`` holds its Hasse diagram in compressed sparse row form: one
array of row offsets and one array of upper ends, a sorted row per flat in
canonical order.  No Python object is kept per edge; ``hasse_edges`` is a
read-only view that yields the (lower, upper) pairs on demand.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, count, islice, repeat
from operator import and_, or_, sub
from typing import Protocol

from .errors import (
    GuardExceeded,
    InternalConsistencyError,
    NotAFlatError,
    ValidationError,
)
from .universe import ElementSet, Universe, bits_of

DEFAULT_MAX_FLATS = 100_000
MAX_FLATS_ENV_VAR = "COVLAT_MAX_LATTICE_SIZE"


def default_max_flats() -> int:
    """Lattice size guard; overridable through the environment."""
    raw = os.environ.get(MAX_FLATS_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_FLATS
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{MAX_FLATS_ENV_VAR} must be a positive integer") from None
    return _positive_guard(MAX_FLATS_ENV_VAR, value)


def _positive_guard(name: str, value: int) -> int:
    """The one rule for a lattice size guard, from either source."""
    if value < 1:
        raise ValidationError(f"{name} must be a positive integer")
    return value


class MatroidOracle(Protocol):
    universe: Universe

    def rank(self, x: ElementSet) -> int: ...

    def closure(self, x: ElementSet) -> ElementSet: ...

    def covers_of(self, flat: ElementSet) -> tuple[int, list[int]]:
        """The rank of a closed flat and the masks of the flats that cover it."""


def closure_from_rank(matroid: MatroidOracle, x: ElementSet) -> ElementSet:
    """x plus every element whose addition leaves the rank of x unchanged."""
    r = matroid.rank(x)
    mask = x.mask
    for e in bits_of(matroid.universe.full_mask & ~x.mask):
        if matroid.rank(x.with_index(e)) == r:
            mask |= 1 << e
    return ElementSet(matroid.universe, mask)


def covers_by_closure(matroid: MatroidOracle, flat: ElementSet) -> tuple[int, list[int]]:
    """The rank of a flat F and the masks of its covers, one closure cl(F + e) per cover.

    In a matroid every cl(F + e) with e outside F covers F, and the sets
    cover - F partition E - F (e lies in cl(F + e), and two covers meet only
    in F), so the elements of a found cover are dropped from the candidates.
    """
    universe = matroid.universe
    covers = []
    remaining = universe.full_mask & ~flat.mask
    while remaining:
        low = remaining & -remaining
        mask = matroid.closure(ElementSet(universe, flat.mask | low)).mask
        # low as well: a closure that missed it must not loop forever
        remaining &= ~(low | mask)
        covers.append(mask)
    return matroid.rank(flat), covers


def containment_index(n: int, sets: Sequence[ElementSet]) -> list[int]:
    """One bitset per element e < n: bit k is set iff ``sets[k]`` contains e."""
    index = [0] * n
    for k, s in enumerate(sets):
        for e in bits_of(s.mask):
            index[e] |= 1 << k
    return index


def positions_over(index: Sequence[int], mask: int, within: int) -> int:
    """The positions in ``within`` whose sets contain every element of ``mask``.
    The lowest-bit loop is inlined: this runs inside the all-pairs scan."""
    while mask:
        low = mask & -mask
        within &= index[low.bit_length() - 1]
        mask ^= low
    return within


def first_pair_violation(
    sets: Sequence[ElementSet], weights: Sequence[int], index: Sequence[int]
) -> str | None:
    """The first pair whose meet is not a member or that breaks submodularity,
    f(x v y) + f(x ^ y) <= f(x) + f(y); None if there is none.  ``sets`` is in
    size order with a last member over all others, and ``index`` is its
    ``containment_index``: the join is the lowest position over the union."""
    masks = [s.mask for s in sets]
    position = {mask: k for k, mask in enumerate(masks)}
    everything = (1 << len(masks)) - 1
    for i, x in enumerate(masks):
        above_x = positions_over(index, x, everything)
        for j in range(i + 1, len(masks)):
            y = masks[j]
            meet = position.get(x & y)
            if meet is None:
                return f"not intersection-closed: {sets[i]!r} n {sets[j]!r} missing"
            above = positions_over(index, y & ~x, above_x)
            join = (above & -above).bit_length() - 1
            if weights[join] + weights[meet] > weights[i] + weights[j]:
                return f"not submodular on ({sets[i]!r}, {sets[j]!r})"
    return None


@dataclass(frozen=True)
class GeometricityCheck:
    ok: bool
    violation: str | None = None


class HasseEdges(Sequence):
    """Hasse edges as read-only (lower, upper) pairs over compressed rows.

    Row i holds the upper ends of the edges from flat i, at positions
    ``offsets[i]`` to ``offsets[i + 1]`` of ``uppers``.  The pairs are built
    as they are read, so the view keeps no object per edge.  It compares
    equal to the tuple of its pairs.
    """

    __slots__ = ("_offsets", "_uppers")

    def __init__(self, offsets: array, uppers: array):
        self._offsets = offsets
        self._uppers = uppers

    def __len__(self) -> int:
        return len(self._uppers)

    def __getitem__(self, k: int | slice) -> tuple:
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(*k.indices(len(self._uppers)))))
        if k < 0:
            k += len(self._uppers)
        if not 0 <= k < len(self._uppers):
            raise IndexError("hasse edge index out of range")
        return bisect_right(self._offsets, k) - 1, self._uppers[k]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        # each lower end repeated once per edge of its row, all in C iterators
        lengths = map(sub, islice(self._offsets, 1, None), self._offsets)
        return zip(chain.from_iterable(map(repeat, count(), lengths)), self._uppers)

    def row(self, lower: int) -> array:
        """The upper ends of the edges from ``lower``, ascending (a copy)."""
        return self._uppers[self._offsets[lower] : self._offsets[lower + 1]]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, HasseEdges)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"HasseEdges({tuple(self)!r})"


def _rows_of(pairs: Iterable[tuple[int, int]], size: int) -> HasseEdges:
    """(lower, upper) pairs in any order as one row per lower end < size."""
    rows: list[list[int]] = [[] for _ in range(size)]
    for lower, upper in pairs:
        if not 0 <= lower < size:
            raise ValidationError("hasse edge names no flat")
        rows[lower].append(upper)
    offsets = array("l", accumulate(map(len, rows), initial=0))
    return HasseEdges(offsets, array("l", chain.from_iterable(rows)))


class FlatLattice:
    """All flats of a matroid with their Hasse diagram and heights.

    Flats are stored in canonical order (cardinality, then index sequence);
    heights are longest-chain distances from the bottom over the stored
    Hasse edges.  Construction builds only what every caller reads: the
    flats, their index, the heights and the Hasse edges as one sorted row of
    upper ends per flat in two arrays, which ``covers`` searches by
    bisection and ``upper_covers`` slices.  Joins use a
    ``containment_index`` (the flats over a union are the AND of its
    elements' bitsets; the join is the lowest, the first in size order); it
    and the mask of all flats are built by the first ``join`` or
    ``is_geometric`` and kept.
    """

    def __init__(self, flats: Sequence[ElementSet], edges: Iterable[tuple[int, int]]):
        """``edges`` holds (lower, upper) positions in ``flats``: any iterable
        of pairs, grouped into rows first, or a ``HasseEdges`` with one row
        per flat.  Duplicates collapse."""
        if not flats:
            raise ValidationError("a lattice needs at least one flat")
        universe = flats[0].universe
        masks = [f.mask for f in flats]
        size = len(flats)
        order = sorted(range(size), key=list(map(universe.sort_key, masks)).__getitem__)
        remap = array("l", [0]) * size
        for new, old in enumerate(order):
            remap[old] = new
        self.universe = universe
        self.flats: tuple[ElementSet, ...] = tuple([flats[i] for i in order])
        self._index: dict[int, int] = {f.mask: i for i, f in enumerate(self.flats)}
        if len(self._index) != size:
            raise ValidationError("duplicate flats")
        if not isinstance(edges, HasseEdges):
            edges = _rows_of(edges, size)
        uppers = edges._uppers
        if len(edges._offsets) != size + 1:
            raise ValidationError("hasse edges need one row per flat")
        if uppers and not (0 <= min(uppers) and max(uppers) < size):
            raise ValidationError("hasse edge names no flat")
        # rows in canonical order, each remapped, sorted and deduplicated;
        # edges point to later flats, so lower-index order is topological
        offsets, rows = array("l", [0]), array("l")
        heights = [0] * size
        for lower, old in enumerate(order):
            ends = edges.row(old)
            if ends:
                # a flat lies in each flat of the row iff it lies in their meet
                if old in ends or masks[old] & ~reduce(and_, map(masks.__getitem__, ends)):
                    raise ValidationError("hasse edge does not go strictly upward")
                row = sorted(set(map(remap.__getitem__, ends)))
                rows.extend(row)
                height = heights[lower] + 1
                for upper in row:
                    if heights[upper] < height:
                        heights[upper] = height
            offsets.append(len(rows))
        self._hasse = HasseEdges(offsets, rows)
        self.heights: tuple[int, ...] = tuple(heights)
        self.bottom = self.flats[0]
        self.top = self.flats[-1]
        if reduce(and_, masks) != self.bottom.mask or reduce(or_, masks) != self.top.mask:
            raise ValidationError("lattice lacks a unique bottom or top flat")
        self._containing: list[int] | None = None
        self._everything = 0

    @property
    def hasse_edges(self) -> HasseEdges:
        """The Hasse edges as (lower, upper) positions, sorted; a view."""
        return self._hasse

    def _containment(self) -> list[int]:
        """The containment index of the flats, built on first use."""
        if self._containing is None:
            self._everything = (1 << len(self.flats)) - 1
            self._containing = containment_index(self.universe.n, self.flats)
        return self._containing

    def __len__(self) -> int:
        return len(self.flats)

    def index_of(self, flat: ElementSet) -> int:
        try:
            return self._index[flat.mask]
        except KeyError:
            raise NotAFlatError(f"{flat!r} is not a flat of this lattice") from None

    def height_of(self, flat: ElementSet) -> int:
        return self.heights[self.index_of(flat)]

    def meet(self, x: ElementSet, y: ElementSet) -> ElementSet:
        """Greatest lower bound: plain intersection, itself always a flat."""
        self.index_of(x)
        self.index_of(y)
        mask = x.mask & y.mask
        if mask not in self._index:
            raise InternalConsistencyError("intersection of flats is not a flat")
        return ElementSet(self.universe, mask)

    def join(self, x: ElementSet, y: ElementSet) -> ElementSet:
        """Least upper bound: the smallest flat containing the union."""
        self.index_of(x)
        self.index_of(y)
        return self._smallest_flat_over(x.mask | y.mask)

    def _smallest_flat_over(self, mask: int) -> ElementSet:
        containing = self._containing
        if containing is None:
            containing = self._containment()
        over = positions_over(containing, mask, self._everything)
        if not over:
            raise InternalConsistencyError("no flat contains the union; lattice corrupt")
        found = self.flats[(over & -over).bit_length() - 1]
        if positions_over(containing, found.mask & ~mask, over) != over:
            raise InternalConsistencyError("join is not unique; lattice corrupt")
        return found

    def atoms(self) -> tuple[ElementSet, ...]:
        return tuple(f for f, h in zip(self.flats, self.heights) if h == 1)

    def covers(self, lower: ElementSet, upper: ElementSet) -> bool:
        """True iff (lower, upper) is a Hasse edge of the lattice."""
        i, j = self.index_of(lower), self.index_of(upper)
        offsets, uppers = self._hasse._offsets, self._hasse._uppers
        stop = offsets[i + 1]
        k = bisect_left(uppers, j, offsets[i], stop)
        return k < stop and uppers[k] == j

    def upper_covers(self, flat: ElementSet) -> tuple[ElementSet, ...]:
        return tuple(map(self.flats.__getitem__, self._hasse.row(self.index_of(flat))))

    def lower_covers(self, flat: ElementSet) -> tuple[ElementSet, ...]:
        i = self.index_of(flat)
        return tuple(self.flats[l] for l, u in self._hasse if u == i)

    def _true_covers(self) -> Iterator[list[int]]:
        """Each flat's upper covers in order, ascending, recomputed from
        inclusion alone (ignoring stored edges)."""
        masks = [f.mask for f in self.flats]
        containing = self._containment()
        for i, mask in enumerate(masks):
            above = positions_over(containing, mask, self._everything) & ~(1 << i)
            kept: list[int] = []
            for j in bits_of(above):
                if all(masks[k] & ~masks[j] for k in kept):
                    kept.append(j)
            yield kept

    def is_geometric(self) -> GeometricityCheck:
        """Jordan-Dedekind + semimodular inequality + atomistic, with diagnostics.

        The stored Hasse edges are first checked against the cover relation
        recomputed from inclusion, so a corrupted diagram is reported rather
        than silently graded.  All pairs then go through ``first_pair_violation``
        weighted by height, with joins from the containment index.

        The atomistic step counts each flat's lower covers on the stored
        edges, by then the covers of a graded, intersection-closed lattice.
        Each element of a finite lattice is a join of join-irreducibles, the
        flats with exactly one lower cover, so the lattice is atomistic iff
        none of them has height >= 2.  The first in canonical order is also
        the first flat that is no join of atoms: the flats below it come
        before it, and two distinct lower covers join to the flat they share.
        """
        for lower, true_row in enumerate(self._true_covers()):
            row = self._hasse.row(lower).tolist()
            if row != true_row:
                upper = min(set(row).symmetric_difference(true_row))
                return GeometricityCheck(
                    False,
                    f"hasse edges disagree with the cover relation near "
                    f"{self.flats[lower]!r} -> {self.flats[upper]!r}",
                )
        for lower, upper in self._hasse:
            if self.heights[upper] != self.heights[lower] + 1:
                return GeometricityCheck(
                    False,
                    f"chain condition fails on cover {self.flats[lower]!r} -> "
                    f"{self.flats[upper]!r}",
                )
        violation = first_pair_violation(self.flats, self.heights, self._containment())
        if violation is not None:
            return GeometricityCheck(False, violation)
        lower_covers = Counter(self._hasse._uppers)
        for k, flat in enumerate(self.flats):
            if lower_covers[k] == 1 and self.heights[k] >= 2:
                return GeometricityCheck(False, f"{flat!r} is not a join of atoms")
        return GeometricityCheck(True)

    def to_json_dict(self) -> dict:
        return {
            "flats": [list(f.labels()) for f in self.flats],
            "edges": [list(e) for e in self.hasse_edges],
            "heights": list(self.heights),
        }

    def to_dot(self) -> str:
        def quote(label: str) -> str:
            return label.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph flats {", "  rankdir=BT;", "  node [shape=box];"]
        for i, flat in enumerate(self.flats):
            lines.append(f'  f{i} [label="{quote(repr(flat))}"];')
        by_height: dict[int, list[int]] = {}
        for i, h in enumerate(self.heights):
            by_height.setdefault(h, []).append(i)
        for h in sorted(by_height):
            members = " ".join(f"f{i};" for i in by_height[h])
            lines.append(f"  {{ rank=same; {members} }}")
        for lower, upper in self.hasse_edges:
            lines.append(f"  f{lower} -> f{upper};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def lattice_guard_exceeded(limit: int) -> GuardExceeded:
    """The refusal of a lattice over ``limit`` flats, at the first flat past it."""
    text = f"flat lattice exceeds the guard of {limit} flats (at least {limit + 1} exist)"
    return GuardExceeded(text)


def enumerate_lattice(matroid: MatroidOracle, max_flats: int | None = None) -> FlatLattice:
    """Enumerate all flats of a matroid oracle by upward cover generation.

    Each flat F asks the oracle once for ``covers_of(F)``: the rank of F and
    the masks of the flats that cover F (the closures cl(F + e), e outside
    F; none for the top).  Only the bottom flat goes through ``closure``,
    and ``rank`` is never called.  A transversal oracle finds the rank and
    the covers from one maximum matching of F and one post-dominator pass
    over its blocks, a partition oracle adds each class outside F, and any
    other oracle may close one extension per cover (``covers_by_closure``).
    An ``ElementSet`` is built only for a flat seen for the first time.  The
    covers of each flat are collected as one row of two arrays and handed to
    ``FlatLattice`` as a ``HasseEdges`` view, so no edge tuple is built.

    Heights are asserted equal to the reported ranks; a mismatch means the
    oracle is not a matroid and raises ``InternalConsistencyError``.  A
    guard below one flat is refused with ``ValidationError``, as it is from
    the environment.
    """
    limit = default_max_flats() if max_flats is None else _positive_guard("max_flats", max_flats)
    universe = matroid.universe
    bottom = matroid.closure(universe.empty())
    discovered: dict[int, int] = {bottom.mask: 0}
    order: list[ElementSet] = [bottom]
    ranks = array("b")
    # the covers of each flat, one row per flat in discovery order
    offsets, uppers = array("l", [0]), array("l")
    # order doubles as the breadth-first queue: it grows while it is walked
    for flat in order:
        rank, covers = matroid.covers_of(flat)
        ranks.append(rank)
        for mask in covers:
            upper = discovered.get(mask)
            if upper is None:
                if len(discovered) >= limit:
                    raise lattice_guard_exceeded(limit)
                upper = discovered[mask] = len(order)
                order.append(ElementSet(universe, mask))
            uppers.append(upper)
        offsets.append(len(uppers))
    del discovered  # as large as the lattice's own index: free it first
    lattice = FlatLattice(order, HasseEdges(offsets, uppers))
    for flat, rank, height in zip(order, ranks, map(lattice.height_of, order)):
        if rank != height:
            raise InternalConsistencyError(
                f"height {height} of {flat!r} disagrees with rank {rank}"
            )
    return lattice


def is_modular_pair(
    lattice: FlatLattice, matroid: MatroidOracle, x: ElementSet, y: ElementSet
) -> bool:
    """Rank identity r(X u Y) + r(X n Y) = r(X) + r(Y) on two flats."""
    lattice.index_of(x)
    lattice.index_of(y)
    return matroid.rank(x | y) + matroid.rank(x & y) == matroid.rank(x) + matroid.rank(y)


def is_modular_element(lattice: FlatLattice, matroid: MatroidOracle, x: ElementSet) -> bool:
    """A flat that forms a modular pair with every flat of the lattice."""
    return all(is_modular_pair(lattice, matroid, x, y) for y in lattice.flats)


def modular_pair_by_heights(lattice: FlatLattice, x: ElementSet, y: ElementSet) -> bool:
    """Height identity h(x v y) + h(x ^ y) = h(x) + h(y); equivalent on
    semimodular lattices to the rank identity."""
    join = lattice.join(x, y)
    meet = lattice.meet(x, y)
    return lattice.height_of(join) + lattice.height_of(meet) == lattice.height_of(
        x
    ) + lattice.height_of(y)


def modular_pairs(lattice: FlatLattice, matroid: MatroidOracle) -> tuple[list[int], list[int]]:
    """``is_modular_pair`` and ``modular_pair_by_heights`` on every pair of
    flats in one pass, as two lists of bitset rows: (by rank, by heights).
    Bit j of row i is set iff flats i and j satisfy the identity; the rows
    are symmetric and include the diagonal.

    Row i takes the flats over X once from the containment index.  The meet
    is the position of X n Y; one that is no flat raises
    ``InternalConsistencyError`` as ``meet`` does.  Once every meet is found
    the flats are intersection-closed, so the join is the lowest flat over
    Y - X (the top lies over every union).  The rank side never reads a
    height: the matroid ranks each flat once, and each distinct union X u Y
    that is no flat once per call.  The union is a flat iff it is the join's
    mask: flats are distinct and in size order, so a flat that is a union
    comes before every other flat over it, each a strict superset.
    """
    universe, position, heights = lattice.universe, lattice._index, lattice.heights
    masks = [f.mask for f in lattice.flats]
    ranks = [matroid.rank(f) for f in lattice.flats]
    index = lattice._containment()
    union_ranks: dict[int, int] = {}
    by_rank, by_heights = [0] * len(masks), [0] * len(masks)
    for i, x in enumerate(masks):
        above_x = positions_over(index, x, lattice._everything)
        rank_x, height_x = ranks[i], heights[i]
        for j in range(i, len(masks)):
            y = masks[j]
            meet = position.get(x & y)
            if meet is None:
                raise InternalConsistencyError("intersection of flats is not a flat")
            above = positions_over(index, y & ~x, above_x)
            join = (above & -above).bit_length() - 1
            union = x | y
            rank_union = ranks[join] if masks[join] == union else union_ranks.get(union)
            if rank_union is None:
                rank_union = union_ranks[union] = matroid.rank(ElementSet(universe, union))
            if rank_union + ranks[meet] == rank_x + ranks[j]:
                by_rank[i] |= 1 << j
                by_rank[j] |= 1 << i
            if heights[join] + heights[meet] == height_x + heights[j]:
                by_heights[i] |= 1 << j
                by_heights[j] |= 1 << i
    return by_rank, by_heights


def modular_pair_by_definition(lattice: FlatLattice, a: ElementSet, b: ElementSet) -> bool:
    """Order-theoretic modular pair: for every flat z <= b,
    b ^ (a v z) = (b ^ a) v z."""
    lattice.index_of(a)
    lattice.index_of(b)
    for z in lattice.flats:
        if not z <= b:
            continue
        left = lattice.meet(b, lattice.join(a, z))
        right = lattice.join(lattice.meet(b, a), z)
        if left != right:
            return False
    return True
