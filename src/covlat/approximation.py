"""Covering upper-approximation operators and the matroids they induce.

Three operators act on subsets of a covered universe:

* ``sh`` - block union: everything sharing a block with the argument,
* ``xh`` - neighborhood hit: elements whose neighborhood meets the argument,
* ``vh`` - neighborhood union: the union of all neighborhoods meeting it,

where the neighborhood N(x) is the intersection of the blocks containing x
and the indiscernible neighborhood I(x) is their union.  Each operator is a
matroidal closure operator exactly when its singleton images form a partition
of the universe; in that case the induced matroid is the partition matroid of
those images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator, Sequence

from .errors import CriterionNotSatisfied, InternalConsistencyError, ValidationError
from .lattice import closure_from_rank
from .universe import Covering, ElementSet, Partition, Universe, bits_of


class UpperOperator(str, Enum):
    SH = "sh"
    XH = "xh"
    VH = "vh"


@dataclass(frozen=True)
class NeighborhoodTable:
    """Per-element I(x), N(x) and the inclusion-minimal blocks containing x."""

    covering: Covering
    indiscernible: tuple[ElementSet, ...]
    neighborhood: tuple[ElementSet, ...]
    minimal_description: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, covering: Covering) -> "NeighborhoodTable":
        universe = covering.universe
        indiscernible: list[ElementSet] = []
        neighborhood: list[ElementSet] = []
        minimal: list[tuple[int, ...]] = []
        for e in range(universe.n):
            containing = [j for j, block in enumerate(covering.blocks) if block.has_index(e)]
            i_mask = 0
            n_mask = universe.full_mask
            for j in containing:
                i_mask |= covering.blocks[j].mask
                n_mask &= covering.blocks[j].mask
            indiscernible.append(ElementSet(universe, i_mask))
            neighborhood.append(ElementSet(universe, n_mask))
            minimal.append(
                tuple(
                    j
                    for j in containing
                    if not any(
                        k != j and covering.blocks[k] < covering.blocks[j] for k in containing
                    )
                )
            )
        return cls(covering, tuple(indiscernible), tuple(neighborhood), tuple(minimal))

    def _check(self, x: ElementSet) -> None:
        if x.universe != self.covering.universe:
            raise ValidationError("set lives on a different universe")

    def sh(self, x: ElementSet) -> ElementSet:
        self._check(x)
        mask = 0
        for e in bits_of(x.mask):
            mask |= self.indiscernible[e].mask
        return ElementSet(self.covering.universe, mask)

    def xh(self, x: ElementSet) -> ElementSet:
        self._check(x)
        mask = 0
        for e in range(self.covering.universe.n):
            if self.neighborhood[e].mask & x.mask:
                mask |= 1 << e
        return ElementSet(self.covering.universe, mask)

    def vh(self, x: ElementSet) -> ElementSet:
        self._check(x)
        mask = 0
        for e in range(self.covering.universe.n):
            if self.neighborhood[e].mask & x.mask:
                mask |= self.neighborhood[e].mask
        return ElementSet(self.covering.universe, mask)

    def apply(self, kind: UpperOperator, x: ElementSet) -> ElementSet:
        if kind is UpperOperator.SH:
            return self.sh(x)
        if kind is UpperOperator.XH:
            return self.xh(x)
        return self.vh(x)

    def singleton_images(self, kind: UpperOperator) -> tuple[ElementSet, ...]:
        """Per element, the set whose partition test decides the operator: I(x) =
        sh({x}), vh({x}), and for xh the neighbourhood N(x), which can differ from
        xh({x}) = {y : x in N(y)}; the two agree when the N(x) form a partition."""
        universe = self.covering.universe
        if kind is UpperOperator.SH:
            return self.indiscernible
        if kind is UpperOperator.XH:
            return self.neighborhood
        return tuple(self.vh(universe.singleton(e)) for e in range(universe.n))


def partition_upper(partition: Partition, x: ElementSet) -> ElementSet:
    """Union of the classes meeting x."""
    mask = 0
    for block in partition.blocks:
        if block.mask & x.mask:
            mask |= block.mask
    return ElementSet(partition.universe, mask)


def partition_lower(partition: Partition, x: ElementSet) -> ElementSet:
    """Union of the classes contained in x."""
    mask = 0
    for block in partition.blocks:
        if block.mask & ~x.mask == 0:
            mask |= block.mask
    return ElementSet(partition.universe, mask)


def forms_partition(sets: Sequence[ElementSet]) -> bool:
    """Whether the distinct sets in the collection are pairwise disjoint.

    Requires every set nonempty and every element covered, which all the
    singleton-image collections used here satisfy by construction.
    """
    if not sets:
        raise ValidationError("empty collection")
    universe = sets[0].universe
    union = 0
    for s in sets:
        if s.universe != universe:
            raise ValidationError("sets live on different universes")
        if not s:
            raise ValidationError("empty set in collection")
        union |= s.mask
    if union != universe.full_mask:
        raise ValidationError("collection does not cover the universe")
    distinct = set(s.mask for s in sets)
    return sum(m.bit_count() for m in distinct) == universe.n


def tra_condition(table: NeighborhoodTable) -> bool:
    """Elements co-blocked through a common third element are co-blocked.

    Equivalent to the indiscernible neighborhoods forming a partition: x and
    z share a block exactly when x lies in I(z).
    """
    for z in range(table.covering.universe.n):
        i_z = table.indiscernible[z].mask
        for x in bits_of(i_z):
            if i_z & ~table.indiscernible[x].mask:
                return False
    return True


def equ_condition(covering: Covering) -> bool:
    """Within every block, all members lie in equally many blocks."""
    counts = [0] * covering.universe.n
    for block in covering.blocks:
        for e in bits_of(block.mask):
            counts[e] += 1
    for block in covering.blocks:
        members = tuple(bits_of(block.mask))
        if any(counts[e] != counts[members[0]] for e in members):
            return False
    return True


@dataclass(frozen=True)
class AxiomWitness:
    """A concrete violation of the idempotence or exchange closure axiom."""

    law: str
    subset: ElementSet
    element: str | None = None
    partner: str | None = None

    def __str__(self) -> str:
        if self.law == "exchange":
            return (
                f"exchange fails at X={self.subset!r}, x={self.element}, y={self.partner}"
            )
        return f"{self.law} fails at X={self.subset!r}"


@dataclass(frozen=True)
class ClosureVerdict:
    operator: UpperOperator
    is_closure: bool
    classes: tuple[ElementSet, ...] | None
    witness: AxiomWitness | None

    def partition_matroid(self, universe: Universe) -> "PartitionMatroid":
        """The partition matroid of the classes; ``CriterionNotSatisfied``
        carries the axiom violation when there are none."""
        if self.classes is None:
            raise CriterionNotSatisfied(
                f"{self.operator.value} is not a closure operator here: {self.witness}"
            )
        return PartitionMatroid(universe, self.classes)


Verdicts = dict[UpperOperator, ClosureVerdict]


def _masks_by_size(universe: Universe, max_size: int) -> Iterator[int]:
    for size in range(0, max_size + 1):
        for combo in combinations(range(universe.n), size):
            mask = 0
            for e in combo:
                mask |= 1 << e
            yield mask


def _search_witness(table: NeighborhoodTable, kind: UpperOperator) -> AxiomWitness:
    """Find the first idempotence violation on at most two elements, subsets
    in size order, else an exchange violation at the empty set.

    Called only when the singleton images do not form a partition, and then
    one of the two scans always finds a witness:

    * sh and vh preserve unions, and "y in image({x})" is reflexive and
      symmetric.  If image(image({x})) = image({x}) for every x, then
      y in image({x}) gives image({y}) within image({x}) and, by symmetry,
      the reverse, so the images are the classes of an equivalence: a
      partition.  A failing sh or vh therefore fails idempotence on a
      singleton.
    * For xh, "x in N(y)" means N(x) lies within N(y), a preorder, and it
      is symmetric exactly when the N(y) form a partition.  Exchange at the
      empty set asks for that symmetry (y in xh({x}) forces x in xh({y})),
      so a failing xh always has an exchange witness at the empty set.
    """
    universe = table.covering.universe
    for mask in _masks_by_size(universe, 2):
        x = ElementSet(universe, mask)
        once = table.apply(kind, x)
        if table.apply(kind, once) != once:
            return AxiomWitness("idempotence", x)
    empty = universe.empty()
    for x in range(universe.n):
        for y in bits_of(table.apply(kind, universe.singleton(x)).mask):
            if not table.apply(kind, universe.singleton(y)).has_index(x):
                return AxiomWitness("exchange", empty, universe.labels[x], universe.labels[y])
    raise InternalConsistencyError("criterion failed but no axiom violation was found")


def closure_operator_verdict(table: NeighborhoodTable, kind: UpperOperator) -> ClosureVerdict:
    """Decide whether the operator is a matroidal closure operator.

    The decision is the O(n^2) partition criterion on singleton images; a
    failing covering comes back with a concrete axiom violation as witness.
    """
    images = table.singleton_images(kind)
    if forms_partition(images):
        distinct = sorted({s.mask: s for s in images}.values(), key=ElementSet.sort_key)
        return ClosureVerdict(kind, True, tuple(distinct), None)
    return ClosureVerdict(kind, False, None, _search_witness(table, kind))


@dataclass(frozen=True)
class PartitionMatroidStats:
    base_count: int
    rank: int
    circuits: tuple[ElementSet, ...]


class PartitionMatroid:
    """Matroid of a partition: independent sets meet each class at most once.

    ``closure`` is computed from the rank function, so tests can compare it
    against the partition upper approximation through an independent route.
    ``covers_of`` uses the closed form instead: a flat is a union of
    classes, and its covers add one class each.
    """

    def __init__(self, universe: Universe, classes: Sequence[ElementSet]):
        classes = tuple(classes)
        union = 0
        total = 0
        for cls in classes:
            if cls.universe != universe:
                raise ValidationError("class lives on a different universe")
            if not cls:
                raise ValidationError("empty class")
            union |= cls.mask
            total += len(cls)
        if union != universe.full_mask or total != universe.n:
            raise ValidationError("classes must partition the universe")
        self.universe = universe
        self.classes = tuple(sorted(classes, key=ElementSet.sort_key))

    def _check(self, x: ElementSet) -> None:
        if x.universe != self.universe:
            raise ValidationError("set lives on a different universe")

    def is_independent(self, x: ElementSet) -> bool:
        self._check(x)
        return all((x.mask & cls.mask).bit_count() <= 1 for cls in self.classes)

    def is_dependent(self, x: ElementSet) -> bool:
        return not self.is_independent(x)

    def rank(self, x: ElementSet) -> int:
        """Number of classes the set meets."""
        self._check(x)
        return sum(1 for cls in self.classes if cls.mask & x.mask)

    def closure(self, x: ElementSet) -> ElementSet:
        return closure_from_rank(self, x)

    def covers_of(self, flat: ElementSet) -> tuple[int, list[int]]:
        """The rank of a flat and the masks flat + c over the classes c
        outside it.  A set that is not a union of classes is not closed, and
        is refused with ``InternalConsistencyError``."""
        self._check(flat)
        mask = flat.mask
        if any(cls.mask & mask and cls.mask & ~mask for cls in self.classes):
            raise InternalConsistencyError(f"{flat!r} is not closed: it splits a class")
        return self.rank(flat), [mask | cls.mask for cls in self.classes if not cls.mask & mask]

    def base_count(self) -> int:
        """Bases pick one element per class, so the count is the product of
        class sizes."""
        return math.prod(len(cls) for cls in self.classes)

    def circuits(self) -> tuple[ElementSet, ...]:
        """All two-element subsets lying inside a single class."""
        found: list[ElementSet] = []
        for cls in self.classes:
            for a, b in combinations(cls.indices(), 2):
                found.append(ElementSet(self.universe, (1 << a) | (1 << b)))
        return tuple(sorted(found, key=ElementSet.sort_key))

    def stats(self) -> PartitionMatroidStats:
        return PartitionMatroidStats(self.base_count(), len(self.classes), self.circuits())


def induced_partition_matroid(covering: Covering, kind: UpperOperator) -> PartitionMatroid:
    """The partition matroid of the operator's singleton images.

    Only defined when the operator is a matroidal closure operator; otherwise
    ``CriterionNotSatisfied`` carries the axiom violation.
    """
    verdict = closure_operator_verdict(NeighborhoodTable.build(covering), kind)
    return verdict.partition_matroid(covering.universe)
