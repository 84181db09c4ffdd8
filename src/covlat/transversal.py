"""Transversal matroids over indexed block families.

Independence of a set X is the existence of a matching that assigns every
member of X to a distinct block containing it; rank is the maximum matching
size on the subgraph induced by X.  A matching gives each element a free
block of its own where it has one, then finds plain augmenting paths for the
rest, trying blocks in ascending index order; it is held as two lists:
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

``ranks_and_closures_without`` gives X's rank and closure in each M \\ D,
less a set D of blocks, from one matching of X.  Deleting one block b is
contracting a new element of b alone, read off the same post-dominator tree;
a larger D costs one augmenting path per element that lost its block.  Both
read one search (``_search``), from which ``relations.DeletionReads`` takes
a flat's covers and its deletion reads together as the lattice is
enumerated through it.
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
        block -> element and element -> block (-1: unmatched).

        Each member takes a free block of its own where it has one; then each
        other member gets one augmenting search while a block is free, past
        the blocks every failed search so far visited (``seen``).  Those are
        matched, and hold every block of the members matched to them, so no
        alternating path leaves them for a free block: no augmenting path
        enters them, and a search that skips them fails exactly when the
        full one would (Berge; Kuhn 1955)."""
        blocks_of, augment = self._blocks_of, self._augment
        block_to = [-1] * len(self._block_masks)
        element_to = [-1] * self.universe.n
        free, waiting, dead = (1 << len(block_to)) - 1, [], 0
        while mask:
            low = mask & -mask
            mask ^= low
            element = low.bit_length() - 1
            if own := blocks_of[element] & free:
                low = own & -own
                free ^= low
                block = low.bit_length() - 1
                block_to[block] = element
                element_to[element] = block
            else:
                waiting.append(element)
        for element in waiting:
            if not free:
                break
            end = augment(element, block_to, element_to, dead)
            if end < 0:
                dead = ~end
            else:
                free ^= 1 << end
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
        closed = self._search(x, (0,), False)[2][0][1]
        return x if closed == x.mask else ElementSet(self.universe, closed)

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
        plus the elements whose reached blocks all lie under one child of t
        (``_parallel_parts``); only the closure check used that F is closed.
        With one unmatched block every path ends there, so the one cover is
        E.
        """
        rank, covers, _ = self._search(flat, (), True)
        return rank, covers

    def _search(self, x: ElementSet, deletions, covers: bool) -> tuple:
        """x's rank, its covers if ``covers`` (``covers_of``; else None) and
        its (rank, closure mask) in M \\ D for each bitmask D in deletions
        (``ranks_and_closures_without``; the callers validate D), from one
        matching, one closure search and at most one post-dominator tree."""
        self._check(x)
        mask, full = x.mask, self.universe.full_mask
        m_block_to, m_element_to = self._maximum_matching(mask)
        # closure's backward search (``_reach``), keeping the matched blocks
        block_masks, covered, free, matched = self._block_masks, 0, [], []
        for block, element in enumerate(m_block_to):
            if element < 0:
                free.append(block)
                covered |= block_masks[block]
        r = len(m_block_to) - len(free)
        pending = covered & mask
        while pending:
            low = pending & -pending
            pending ^= low
            block = m_element_to[low.bit_length() - 1]
            matched.append(block)
            grown = block_masks[block] & ~covered
            covered |= grown
            pending |= grown & mask
        post = found = None
        if covers:
            outside = full & ~mask
            if missed := outside & ~covered:
                label = self.universe.labels[(missed & -missed).bit_length() - 1]
                raise InternalConsistencyError(
                    f"{x!r} is not closed: element {label} leaves its rank unchanged"
                )
            found = [full] if outside and len(free) == 1 else []
            if outside and len(free) > 1:
                post, roots, reached, under, twice = self._parallel_parts(m_block_to, free, matched)
                found = [mask | part for part in (u & outside & ~twice for u in under.values()) if part]
                alone = outside & twice
                while alone:
                    low = alone & -alone
                    alone ^= low
                    found.append(mask | low)
        if not deletions:
            return r, found, []
        base = mask | full & ~covered  # cl_M(x)
        reads = []
        for deleted in deletions:
            rank = r
            if not deleted:
                closed = base
            elif not deleted & deleted - 1:  # one block
                if post is None:
                    post, roots, reached, under, twice = self._parallel_parts(m_block_to, free, matched)
                block = deleted.bit_length() - 1
                root = post[block] & roots if reached >> block & 1 else 0
                closed = base | under.get(root, 0) & ~twice
                rank -= not root
            else:
                block_to, element_to = m_block_to[:], m_element_to[:]
                freed = [block_to[block] for block in bits_of(deleted) if block_to[block] >= 0]
                for element in freed:
                    block_to[element_to[element]] = element_to[element] = -1
                ends = [self._augment(element, block_to, element_to, deleted) for element in freed]
                rank -= sum(end < 0 for end in ends)
                left = [b for b in free if not deleted >> b & 1 and b not in ends]
                closed = mask | full & ~self._reach(mask, element_to, left)
            reads.append((rank, closed))
        return r, found, reads

    def _parallel_parts(self, block_to: list[int], free: list[int], matched: list[int]) -> tuple:
        """The post-dominator tree of ``covers_of``'s proof for any set, from
        its matching (block -> element), unmatched blocks and reached matched
        blocks, as block bitsets: each reached block's post-dominators (its
        child of t is the one child among them), the children of t, the
        reached blocks, the elements under each child and those under two.

        post[b] is b plus what post[c] shares over b's arcs b -> c: passes
        over the matched blocks in discovery order, from every reached block,
        until one changes nothing.  If no arc points forward, to a block
        reached later, discovery order is a topological order of an acyclic
        graph, whose one solution the first pass finds: none follows it."""
        block_masks = self._block_masks
        roots = reached = 0
        for block in matched:
            reached |= 1 << block
        for block in free:
            roots |= 1 << block
        reached |= roots
        # post[b]: the bitset of the blocks on every path from block b to t
        post = [reached] * len(block_masks)
        for block in free:
            post[block] = 1 << block
        blocks_of, arcs, done, forward = self._blocks_of, [], roots, 0
        for block in matched:
            after = blocks_of[block_to[block]] & reached & ~(1 << block)
            arcs.append((block, after))
            forward |= after & ~done  # arcs to blocks a pass sets later
            done |= 1 << block
        changed = len(free) > 1  # else the one unmatched block is the only child of t
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
                    changed = forward  # with no forward arc one pass solves it
        for block in matched:
            if post[block] == 1 << block:
                roots |= 1 << block
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
        return post, roots, reached, under, twice

    def ranks_and_closures_without(
        self, x: ElementSet, deletions: list[int]
    ) -> list[tuple[int, ElementSet]]:
        """The rank and the closure of x in M \\ D, the transversal matroid of
        the family less the blocks in D, for each bitmask D in deletions,
        from one maximum matching of x in M, of size r.

        D = 0 and a single block b read closure's search of that matching
        (for b, Oxley, Matroid Theory, ch. 7).  Let N be M with a new element
        p in b alone: N \\ p = M, and N / p = M \\ b, as a maximum matching of
        Y + p in N can give p its block.  So the rank is r_N(x + p) - 1 and
        the closure cl_N(x + p) less p.  If the search misses b, p is in
        cl_N(x) (closure's proof): they are r - 1 and cl_M(x).  Otherwise they
        are r and cl_M(x) plus each e parallel to p in N / x, which by
        ``covers_of``'s proof (p adds no arc) is each e whose reached blocks
        all lie under b's child of t (``_parallel_parts``).

        Any other D unmatches its blocks in a copy of the matching and seeks
        one augmenting path through blocks outside D from each element that
        lost its block; the search then starts from the unmatched blocks
        left.  Proof.  Only a freed element can start an augmenting path: one
        from an element that M leaves unmatched would run through blocks
        outside D and matched edges of M to a block that M leaves unmatched,
        and augment M inside x.  An element whose search fails stays
        unmatched: an element with no augmenting path gets none when the
        matching grows along another path (Kuhn 1955).  So after one search
        per freed element no augmenting path is left, and by Berge's theorem
        the matching is a maximum matching of x in M \\ D, whose size is the
        rank; closure's proof then applies to it with the blocks outside D.
        Elements that lie only in blocks of D are loops of M \\ D: the search
        reaches no block of theirs, so they land in the closure.
        """
        universe = self.universe
        for deleted in deletions:
            self.family.check_deleted(deleted)
        return [
            (rank, x if closed == x.mask else ElementSet(universe, closed))
            for rank, closed in self._search(x, deletions, False)[2]
        ]

    def _reach(self, mask: int, element_to: list[int], roots: list[int]) -> int:
        """Closure's backward search, from the element -> block list of a
        maximum matching of mask and the unmatched blocks it starts at: the
        union of the blocks it reaches (cl(mask) is mask plus every element
        outside it).  A member of mask in a reached block is matched, or it
        would start an augmenting path, so the search follows members only.
        ``_search`` runs the same search inline, keeping the matched blocks
        it reaches in order."""
        block_masks = self._block_masks
        reached = 0
        for block in roots:
            reached |= block_masks[block]
        pending = reached & mask
        while pending:
            low = pending & -pending
            pending ^= low
            grown = block_masks[element_to[low.bit_length() - 1]] & ~reached
            reached |= grown
            pending |= grown & mask
        return reached

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
                mask = sum(1 << e for e in combo)
                if any(c & mask == c for c in circuit_masks):
                    continue
                candidate = ElementSet(self.universe, mask)
                if not self.is_independent(candidate):
                    circuit_masks.append(mask)
        return tuple(
            sorted((ElementSet(self.universe, m) for m in circuit_masks), key=ElementSet.sort_key)
        )

    def parallel_classes(self) -> tuple[ElementSet, tuple[ElementSet, ...]]:
        """Loops plus the nontrivial parallel classes (size >= 2) of non-loops.

        The loops are cl(empty), the bottom flat, and its covers are the
        atoms: the loops plus one parallel class each.  Two matchings in all.
        """
        loops = self.closure(self.universe.empty())
        _, atoms = self.covers_of(loops)
        classes = [ElementSet(self.universe, atom & ~loops.mask) for atom in atoms]
        return loops, tuple(sorted((c for c in classes if len(c) >= 2), key=ElementSet.sort_key))

    def is_simple(self) -> bool:
        """No loops and no parallel elements.

        When the family is a covering the block-difference criterion (every
        nonempty K_i minus the other blocks is a singleton) is evaluated as a
        cross-check; disagreement raises ``InternalConsistencyError``.
        """
        loops, classes = self.parallel_classes()
        direct = not loops and not classes
        if isinstance(self.family, Covering):
            predicted = all(len(a) == 1 for a in ab_decomposition(self.family).a_parts)
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
    once = twice = 0  # the elements in some block, and in two or more
    for block in covering.blocks:
        twice |= once & block.mask
        once |= block.mask
    privates = (block.mask & ~twice for block in covering.blocks)
    a_parts = tuple(ElementSet(covering.universe, private) for private in privates if private)
    return ABDecomposition(a_parts, ElementSet(covering.universe, twice))
