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

Lattice enumeration asks each flat F for its rank and covers.  ``covers_of``
finds both from one maximum matching of F: its size is the rank, and the
covers are the parallel classes of the contraction M/F, where two elements
outside F are parallel iff their alternating paths to F's unmatched blocks
cannot be chosen vertex-disjoint.  One backward search from those blocks
and one post-dominator computation over the blocks it reaches group the
elements: no per-cover augmenting path, list copy or closure.

Deleting a set D of blocks turns a maximum matching of X into one of X in
M \\ D after one augmenting path from each element that lost its block.
``ranks_and_closures_without`` finds one matching of X and derives the rank
and the closure of X in each given M \\ D from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import GuardExceeded, InternalConsistencyError, ValidationError
from .lattice import _positive_guard
from .universe import Covering, ElementSet, SetFamily, bits_of

ENUMERATION_GUARD = 20


class TransversalMatroid:
    """Independence / rank / closure oracle for the matroid of a family.
    Nothing is kept between calls: each answer comes from a fresh matching."""

    def __init__(self, family: SetFamily):
        self.family = family
        self.universe = family.universe
        blocks_of = [0] * self.universe.n
        for j, block in enumerate(family.blocks):
            for e in bits_of(block.mask):
                blocks_of[e] |= 1 << j
        self._blocks_of: tuple[int, ...] = tuple(blocks_of)
        self._block_masks: tuple[int, ...] = tuple(block.mask for block in family.blocks)

    def _check(self, x: ElementSet) -> None:
        if x.universe != self.universe:
            raise ValidationError("set lives on a different universe")

    def rank(self, x: ElementSet) -> int:
        """Maximum matching size between the members of x and their blocks."""
        self._check(x)
        block_to, _ = self._maximum_matching(x.mask)
        return len(block_to) - block_to.count(-1)

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
        O(n + m) bitmask steps.  It is the closure in M less no blocks.
        """
        return self.ranks_and_closures_without(x, [0])[0][1]

    def covers_of(self, flat: ElementSet) -> tuple[int, list[int]]:
        """The rank of a closed flat F and the masks of the flats that cover
        it, from one maximum matching M of F, whose size is the rank.

        The covers of F are F plus each parallel class of M/F: e and f
        outside F lie in one cover iff r(F + e + f) = r(F) + 1.  Closure's
        backward search from M's unmatched blocks finds the reached blocks;
        an element outside F lies in none of them exactly when it is in
        cl(F), and then the call raises ``InternalConsistencyError`` rather
        than return a wrong cover.  On the reached blocks put an arc from b
        to each other reached block holding M(b), an arc from each unmatched
        block to a sink t, and an arc from each e outside F to each reached
        block holding it.  The M-alternating paths from e to unmatched blocks
        are then the paths from e to t.

        Proof.  r(F + e + f) = |M| + 2 iff e and f have vertex-disjoint
        alternating paths to unmatched blocks.  If they do, augment M along
        both.  Conversely, a maximum matching M' of F + e + f has two more
        edges than M, so M and M' differ in two disjoint M-augmenting paths,
        each starting at an element M leaves unmatched.  A path starting in
        F meets only matched elements after its first, which lie in F, so it
        would augment M inside F; hence the paths start at e and at f.  By
        Menger's theorem the paths e -> t and f -> t meeting only in t exist
        iff no single block lies on every path from e and on every path from
        f to t, that is, post-dominates both.  The post-dominators of a block
        form its chain to t in the post-dominator tree, and a block
        post-dominates e iff it lies on the chain of every reached block
        holding e.  If those chains end at two different children of t they
        share no block: e is parallel to nothing and its cover is F + e.
        Otherwise they all end at one child c, which post-dominates e.  A
        block that post-dominates both e and f lies on chains of e's and of
        f's that end at its own child of t, so e and f are parallel iff both
        have all their chains end at the same c.  Each cover is therefore F
        plus the elements whose reached blocks all lie under one child of t.
        With one unmatched block every path ends there, so the one cover is
        E.  Post-dominators are bitsets of blocks, iterated to a fixpoint
        from the whole reached set; a pass costs O(m) bitmask steps per
        reached block.
        """
        self._check(flat)
        mask = flat.mask
        block_to, element_to = self._maximum_matching(mask)
        block_masks = self._block_masks
        free = [block for block, element in enumerate(block_to) if element < 0]
        rank = len(block_to) - len(free)
        outside = self.universe.full_mask & ~mask
        if not outside:
            return rank, []
        unmatched = 0
        for block in free:
            unmatched |= block_masks[block]
        covered, matched = self._reach(mask, element_to, unmatched)
        missed = outside & ~covered
        if missed:
            e = (missed & -missed).bit_length() - 1
            raise InternalConsistencyError(
                f"{flat!r} is not closed: element {self.universe.labels[e]} "
                "leaves its rank unchanged"
            )
        if len(free) == 1:
            return rank, [self.universe.full_mask]
        roots = sum(1 << block for block in free)
        reached = roots | sum(1 << block for block in matched)
        # post[b]: the bitset of the blocks on every path from block b to t
        post = [reached] * len(block_masks)
        for block in free:
            post[block] = 1 << block
        blocks_of = self._blocks_of
        arcs = [(block, blocks_of[block_to[block]] & reached & ~(1 << block)) for block in matched]
        changed = True
        while changed:
            changed = False
            for block, after in arcs:
                common = reached
                while after:
                    low = after & -after
                    after ^= low
                    common &= post[low.bit_length() - 1]
                common |= 1 << block
                if common != post[block]:
                    post[block] = common
                    changed = True
        roots |= sum(1 << block for block in matched if post[block] == 1 << block)
        # the elements of the reached blocks under each child of t
        under: dict[int, int] = {}
        for block in free + matched:
            root = post[block] & roots
            under[root] = under.get(root, 0) | block_masks[block]
        # an element under two children is parallel to nothing
        once = twice = 0
        for elements in under.values():
            twice |= once & elements
            once |= elements
        covers = [mask | part for part in (u & outside & ~twice for u in under.values()) if part]
        alone = outside & twice
        while alone:
            low = alone & -alone
            alone ^= low
            covers.append(mask | low)
        return rank, covers

    def ranks_and_closures_without(
        self, x: ElementSet, deletions: list[int]
    ) -> list[tuple[int, ElementSet]]:
        """The rank and the closure of x in M \\ D, the transversal matroid of
        the family less the blocks in D, for each bitmask D in deletions.

        One maximum matching of x in M is found, and every D starts from a
        copy of it.  Unmatching D's blocks leaves a matching of x in M \\ D;
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
        mask = x.mask
        m_block_to, m_element_to = self._maximum_matching(mask)
        free = [block for block, element in enumerate(m_block_to) if element < 0]
        results = []
        for deleted in deletions:
            if not 0 <= deleted < 1 << len(block_masks):
                raise ValidationError(f"deleted-block mask {deleted:#x} names no block")
            block_to, element_to = m_block_to[:], m_element_to[:]
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
            reached, _ = self._reach(mask, element_to, unmatched)
            closure = ElementSet(self.universe, mask | self.universe.full_mask & ~reached)
            results.append((rank, closure))
        return results

    def _reach(self, mask: int, element_to: list[int], reached: int) -> tuple[int, list[int]]:
        """Closure's backward search, from the element -> block list of a
        maximum matching of mask and the union of its unmatched blocks,
        where it starts.  Returns the union of the blocks it reaches, so
        cl(mask) is mask plus every element outside that union, and the
        matched blocks it reaches, in the order it reaches them.

        A member of mask in a reached block is matched, or it would start an
        augmenting path, so the search follows members only."""
        block_masks = self._block_masks
        found = []
        pending = reached & mask
        while pending:
            low = pending & -pending
            pending ^= low
            block = element_to[low.bit_length() - 1]
            found.append(block)
            grown = block_masks[block] & ~reached
            reached |= grown
            pending |= grown & mask
        return reached, found

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
