"""Transversal matroids over indexed block families.

Independence of a set X is the existence of a matching that assigns every
member of X to a distinct block containing it; rank is the maximum matching
size on the subgraph induced by X.  Matchings are found with plain augmenting
paths, trying blocks in ascending index order, and are held as two lists:
block -> element and element -> block, with -1 for unmatched.

Closure needs one matching, not one per element: with a maximum matching of
X, an element outside X lies in cl(X) exactly when no alternating path from
it ends at an unmatched block.  One backward search from the unmatched
blocks finds every block such a path can start at, so a closure costs one
matching plus O(n + m) bitmask steps instead of n - |X| matchings.

Lattice enumeration closes every one-element extension F + e of a flat F.
``extensions`` finds one maximum matching of F for all of them, lists F's
unmatched blocks and records the matching's size as the rank of F.  Each
F + e then costs two list copies, one augmenting path from e, and the
backward search started from F's unmatched blocks less the one the path
ended at: no scan of all m blocks and no fresh matching of F + e.

Deleting a set D of blocks turns a maximum matching of X into one of X in
M \\ D after one augmenting path from each element that lost its block.
``rank_and_closure_without`` keeps one matching of X and derives the rank
and the closure of X in every M \\ D from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .errors import GuardExceeded, InternalConsistencyError, ValidationError
from .lattice import _positive_guard
from .universe import Covering, ElementSet, SetFamily, bits_of

ENUMERATION_GUARD = 20


class TransversalMatroid:
    """Independence / rank / closure oracle for the matroid of a family.

    The rank cache and the matchings kept by ``rank_and_closure_without``
    are optimizations only; results are identical with them removed, and
    concurrent queries are safe because cache fills are idempotent.
    """

    def __init__(self, family: SetFamily):
        self.family = family
        self.universe = family.universe
        blocks_of = [0] * self.universe.n
        for j, block in enumerate(family.blocks):
            for e in bits_of(block.mask):
                blocks_of[e] |= 1 << j
        self._blocks_of: tuple[int, ...] = tuple(blocks_of)
        self._block_masks: tuple[int, ...] = tuple(block.mask for block in family.blocks)
        self._rank_cache: dict[int, int] = {}
        self._matchings: dict[int, tuple[list[int], list[int], list[int]]] = {}

    def _check(self, x: ElementSet) -> None:
        if x.universe != self.universe:
            raise ValidationError("set lives on a different universe")

    def rank(self, x: ElementSet) -> int:
        """Maximum matching size between the members of x and their blocks."""
        self._check(x)
        cached = self._rank_cache.get(x.mask)
        if cached is None:
            block_to, _ = self._maximum_matching(x.mask)
            cached = len(block_to) - block_to.count(-1)
            self._rank_cache[x.mask] = cached
        return cached

    def is_independent(self, x: ElementSet) -> bool:
        return self.rank(x) == len(x)

    def _maximum_matching(self, mask: int) -> tuple[list[int], list[int]]:
        """A maximum matching of the members of mask, as the lists
        block -> element and element -> block (-1: unmatched)."""
        block_to = [-1] * len(self._block_masks)
        element_to = [-1] * self.universe.n
        for element in bits_of(mask):
            self._augment(element, block_to, element_to, 0)
        return block_to, element_to

    def _augment(self, element: int, block_to: list[int], element_to: list[int], seen: int) -> int:
        """Give element a block by an augmenting path through blocks outside
        the bitmask seen.  Returns the unmatched block the path ended at once
        it has one; otherwise the matching is unchanged and the result is
        ~(seen plus every block tried), which is negative."""
        blocks = self._blocks_of[element] & ~seen
        while blocks:
            low = blocks & -blocks
            seen |= low
            block = low.bit_length() - 1
            holder = block_to[block]
            if holder < 0:
                end = block
            else:
                end = self._augment(holder, block_to, element_to, seen)
                if end < 0:
                    seen = ~end
                    blocks &= ~seen
                    continue
            block_to[block] = element
            element_to[element] = block
            return end
        return ~seen

    def closure(self, x: ElementSet) -> ElementSet:
        """Elements whose addition leaves the rank of x unchanged.

        Take a maximum matching M of x.  Call a block reached if it is
        unmatched, or if the element M gives it lies in a reached block: a
        reached block starts an M-alternating path that ends at an unmatched
        block.  Then cl(x) is x plus every element in no reached block.

        Proof.  M is a matching of x + e, and by Berge's theorem rank(x + e)
        exceeds |M| iff x + e has an M-augmenting path.  Such a path has an
        unmatched element at one end; the unmatched members of x are ruled
        out, since a path from one of them cannot pass through the unmatched
        e and would therefore augment M inside x, which is maximum.  So the
        path runs e, b1, M(b1), b2, ..., bk with bk unmatched, which says
        exactly that e lies in the reached block b1 (Edmonds 1965).  Each
        reached block is entered once, so after the matching the search is
        O(n + m) bitmask steps.
        """
        self._check(x)
        block_to, element_to = self._maximum_matching(x.mask)
        unmatched = 0
        for block, block_mask in enumerate(self._block_masks):
            if block_to[block] < 0:
                unmatched |= block_mask
        return self._closure_of(x.mask, element_to, unmatched)

    def extensions(self, flat: ElementSet) -> Callable[[int], ElementSet]:
        """The map e -> cl(flat + e) over the elements e outside a closed flat.

        One maximum matching M of the flat is found here, and its size is
        stored as the flat's rank.  For e outside a closed flat,
        rank(flat + e) = |M| + 1, so by Berge's theorem M has an augmenting
        path in flat + e, and it starts at e (one that avoids e would augment
        M inside the flat).  Each call therefore copies M, grows it by one
        augmenting path from e to a maximum matching of flat + e, and runs
        closure's backward search on that.  The unmatched blocks of the grown
        matching are those of M less the one the path ended at.  If no path
        exists, e was already in cl(flat): the flat was not closed, and the
        call raises ``InternalConsistencyError`` rather than return a wrong
        cover.
        """
        self._check(flat)
        mask = flat.mask
        block_to, element_to = self._maximum_matching(mask)
        block_masks = self._block_masks
        free = [block for block, element in enumerate(block_to) if element < 0]
        self._rank_cache[mask] = len(block_to) - len(free)

        def closure_with(e: int) -> ElementSet:
            if mask >> e & 1:
                raise ValidationError(f"element {self.universe.labels[e]} is already in {flat!r}")
            grown_element_to = element_to[:]
            end = self._augment(e, block_to[:], grown_element_to, 0)
            if end < 0:
                raise InternalConsistencyError(
                    f"{flat!r} is not closed: element {self.universe.labels[e]} "
                    "leaves its rank unchanged"
                )
            unmatched = 0
            for block in free:
                if block != end:
                    unmatched |= block_masks[block]
            return self._closure_of(mask | 1 << e, grown_element_to, unmatched)

        return closure_with

    def rank_and_closure_without(self, x: ElementSet, deleted: int) -> tuple[int, ElementSet]:
        """The rank and the closure of x in M \\ D, the transversal matroid of
        the family less the blocks in the bitmask deleted (D).

        One maximum matching of x in M is found per x and kept, so every D
        shares it.  Unmatching D's blocks leaves a matching of x in M \\ D;
        one augmenting path through blocks outside D is then sought from each
        element that lost its block, and closure's backward search starts
        from the unmatched blocks outside D.

        Proof.  Only a freed element can start an augmenting path: one from
        an element that M leaves unmatched would run through blocks outside D
        and matched edges of M to a block that M leaves unmatched, and
        augment M inside x.  An element whose search fails stays unmatched:
        an element with no augmenting path gets none when the matching grows
        along another path (Kuhn 1955).  So after one search per freed
        element no augmenting path is left, and by Berge's theorem the
        matching is a maximum matching of x in M \\ D, whose size is the
        rank; closure's proof then applies to it with the blocks outside D.
        Elements that lie only in blocks of D are loops of M \\ D: the search
        reaches no block of theirs, so they land in the closure.
        """
        self._check(x)
        block_masks = self._block_masks
        if not 0 <= deleted < 1 << len(block_masks):
            raise ValidationError(f"deleted-block mask {deleted:#x} names no block of the family")
        mask = x.mask
        matching = self._matchings.get(mask)
        if matching is None:
            block_to, element_to = self._maximum_matching(mask)
            free = [block for block, element in enumerate(block_to) if element < 0]
            matching = self._matchings[mask] = (block_to, element_to, free)
        block_to, element_to, free = matching
        block_to, element_to = block_to[:], element_to[:]
        rank = len(block_to) - len(free)
        freed = []
        for block in bits_of(deleted):
            element = block_to[block]
            if element >= 0:
                block_to[block] = element_to[element] = -1
                freed.append(element)
        ends = deleted
        for element in freed:
            end = self._augment(element, block_to, element_to, deleted)
            if end < 0:
                rank -= 1
            else:
                ends |= 1 << end
        unmatched = 0
        for block in free:
            if not ends >> block & 1:
                unmatched |= block_masks[block]
        return rank, self._closure_of(mask, element_to, unmatched)

    def _closure_of(self, mask: int, element_to: list[int], reached: int) -> ElementSet:
        """cl(mask) by closure's backward search, from the element -> block
        list of a maximum matching of mask and the union of its unmatched
        blocks, where the search starts.

        A member of mask in a reached block is matched, or it would start an
        augmenting path, so the search follows members only."""
        block_masks = self._block_masks
        pending = reached & mask
        while pending:
            low = pending & -pending
            pending ^= low
            grown = block_masks[element_to[low.bit_length() - 1]] & ~reached
            reached |= grown
            pending |= grown & mask
        return ElementSet(self.universe, mask | self.universe.full_mask & ~reached)

    def closure_of_empty(self) -> ElementSet:
        """Empty iff the family is a covering; otherwise the set of loops."""
        return self.closure(self.universe.empty())

    def _enumeration_size(self, guard: int) -> int:
        """The universe size, refused over the guard; a guard below 1 is an
        input error, as a lattice guard is."""
        n = self.universe.n
        if n > _positive_guard("guard", guard):
            raise GuardExceeded(f"universe size {n} exceeds enumeration guard {guard}")
        return n

    def bases(self, guard: int = ENUMERATION_GUARD) -> tuple[ElementSet, ...]:
        """All maximal independent sets; each has cardinality rank(E)."""
        n = self._enumeration_size(guard)
        target = self.rank(self.universe.full())
        found: list[ElementSet] = []

        def extend(current: ElementSet, start: int) -> None:
            if len(current) == target:
                found.append(current)
                return
            if len(current) + (n - start) < target:
                return
            for e in range(start, n):
                grown = current.with_index(e)
                if self.rank(grown) == len(grown):
                    extend(grown, e + 1)

        extend(self.universe.empty(), 0)
        return tuple(sorted(found, key=ElementSet.sort_key))

    def circuits(self, guard: int = ENUMERATION_GUARD) -> tuple[ElementSet, ...]:
        """All minimal dependent sets, found in cardinality order with pruning."""
        n = self._enumeration_size(guard)
        top = self.rank(self.universe.full())
        circuit_masks: list[int] = []
        for size in range(1, min(n, top + 1) + 1):
            for combo in combinations(range(n), size):
                mask = 0
                for e in combo:
                    mask |= 1 << e
                if any(c & mask == c for c in circuit_masks):
                    continue
                candidate = ElementSet(self.universe, mask)
                if not self.is_independent(candidate):
                    circuit_masks.append(mask)
        return tuple(
            sorted((ElementSet(self.universe, m) for m in circuit_masks), key=ElementSet.sort_key)
        )

    def parallel_classes(self) -> tuple[ElementSet, tuple[ElementSet, ...]]:
        """Loops plus the nontrivial parallel classes (size >= 2) of non-loops."""
        loops = self.closure_of_empty()
        classes: list[ElementSet] = []
        assigned = loops.mask
        for e in bits_of(self.universe.full_mask & ~loops.mask):
            if assigned >> e & 1:
                continue
            cls = self.closure(self.universe.singleton(e)) - loops
            assigned |= cls.mask
            if len(cls) >= 2:
                classes.append(cls)
        return loops, tuple(sorted(classes, key=ElementSet.sort_key))

    def is_simple(self) -> bool:
        """No loops and no parallel elements.

        When the family is a covering the block-difference criterion (every
        nonempty K_i minus the other blocks is a singleton) is evaluated as a
        cross-check; disagreement raises ``InternalConsistencyError``.
        """
        loops, classes = self.parallel_classes()
        direct = not loops and not classes
        if isinstance(self.family, Covering):
            decomposition = ab_decomposition(self.family)
            predicted = all(len(a) == 1 for a in decomposition.a_parts)
            if predicted != direct:
                raise InternalConsistencyError(
                    "simplicity criterion disagrees with the direct loop/parallel test"
                )
        return direct


@dataclass(frozen=True)
class ABDecomposition:
    """Private parts of blocks plus the shared remainder.

    ``a_parts`` are the nonempty differences K_i minus all other blocks, in
    block order; ``b_part`` collects everything else (the elements that lie in
    at least two blocks).  The a-parts together with the singletons of the
    b-part partition the universe, and they are exactly the atoms of the flat
    lattice of the covering's transversal matroid.
    """

    a_parts: tuple[ElementSet, ...]
    b_part: ElementSet

    def predicted_atoms(self) -> tuple[ElementSet, ...]:
        universe = self.b_part.universe
        atoms = list(self.a_parts) + [universe.singleton(e) for e in bits_of(self.b_part.mask)]
        return tuple(sorted(atoms, key=ElementSet.sort_key))


def ab_decomposition(covering: Covering) -> ABDecomposition:
    universe = covering.universe
    a_parts: list[ElementSet] = []
    covered_by_a = 0
    for i, block in enumerate(covering.blocks):
        others = 0
        for j, other in enumerate(covering.blocks):
            if j != i:
                others |= other.mask
        private = block.mask & ~others
        if private:
            a_parts.append(ElementSet(universe, private))
            covered_by_a |= private
    b_part = ElementSet(universe, universe.full_mask & ~covered_by_a)
    return ABDecomposition(tuple(a_parts), b_part)
