"""Transversal matroids over indexed block families.

Independence of a set X is the existence of a matching that assigns every
member of X to a distinct block containing it; rank is the maximum matching
size on the subgraph induced by X.  Matchings are found with plain augmenting
paths, trying blocks in ascending index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import GuardExceeded, InternalConsistencyError, ValidationError
from .lattice import closure_from_rank
from .universe import Covering, ElementSet, SetFamily, bits_of

ENUMERATION_GUARD = 20


class TransversalMatroid:
    """Independence / rank / closure oracle for the matroid of a family.

    The rank cache is an optimization only; results are identical with the
    cache removed, and concurrent queries are safe because cache fills are
    idempotent.
    """

    def __init__(self, family: SetFamily):
        self.family = family
        self.universe = family.universe
        n = self.universe.n
        self._blocks_of: tuple[tuple[int, ...], ...] = tuple(
            tuple(j for j, block in enumerate(family.blocks) if block.has_index(e))
            for e in range(n)
        )
        self._rank_cache: dict[int, int] = {}

    def _check(self, x: ElementSet) -> None:
        if x.universe != self.universe:
            raise ValidationError("set lives on a different universe")

    def rank(self, x: ElementSet) -> int:
        """Maximum matching size between the members of x and their blocks."""
        self._check(x)
        cached = self._rank_cache.get(x.mask)
        if cached is None:
            cached = self._matching_size(tuple(bits_of(x.mask)))
            self._rank_cache[x.mask] = cached
        return cached

    def is_independent(self, x: ElementSet) -> bool:
        return self.rank(x) == len(x)

    def _matching_size(self, members: tuple[int, ...]) -> int:
        owner: dict[int, int] = {}
        size = 0
        for element in members:
            if self._augment(element, owner, set()):
                size += 1
        return size

    def _augment(self, element: int, owner: dict[int, int], seen: set[int]) -> bool:
        for block in self._blocks_of[element]:
            if block in seen:
                continue
            seen.add(block)
            if block not in owner or self._augment(owner[block], owner, seen):
                owner[block] = element
                return True
        return False

    def closure(self, x: ElementSet) -> ElementSet:
        """Elements whose addition leaves the rank of x unchanged."""
        self._check(x)
        return closure_from_rank(self, x)

    def closure_of_empty(self) -> ElementSet:
        """Empty iff the family is a covering; otherwise the set of loops."""
        return self.closure(self.universe.empty())

    def bases(self, guard: int = ENUMERATION_GUARD) -> tuple[ElementSet, ...]:
        """All maximal independent sets; each has cardinality rank(E)."""
        n = self.universe.n
        if n > guard:
            raise GuardExceeded(f"universe size {n} exceeds enumeration guard {guard}")
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
        n = self.universe.n
        if n > guard:
            raise GuardExceeded(f"universe size {n} exceeds enumeration guard {guard}")
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
