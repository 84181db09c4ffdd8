"""Matroids induced by intersection-closed set lattices with submodular weights.

Given a family of sets closed under intersection that contains the empty set
and the universe, together with a non-negative integer submodular function f
vanishing on the empty set, the sets X with f(T) >= |X n T| for every member
T are the independent sets of a matroid.  Applied to the flat lattice of a
matroid with f = rank, this reconstructs the original matroid, and the
induced rank has the closed form min over members Y of f(Y) + |X - Y|.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalConsistencyError, ValidationError
from .lattice import FlatLattice, MatroidOracle, closure_from_rank, covers_by_closure
from .lattice import containment_index, first_pair_violation
from .universe import ElementSet, Universe, bits_of


class SubmodularSystem:
    """Intersection-closed set family with a submodular integer weight."""

    def __init__(self, universe: Universe, sets: Sequence[ElementSet], values: dict[int, int]):
        sets = tuple(sorted(sets, key=ElementSet.sort_key))
        masks = {s.mask for s in sets}
        if len(masks) != len(sets):
            raise ValidationError("duplicate sets")
        if 0 not in masks or universe.full_mask not in masks:
            raise ValidationError("the system must contain the empty set and the universe")
        for s in sets:
            if s.universe != universe:
                raise ValidationError("set lives on a different universe")
            if s.mask not in values:
                raise ValidationError(f"no value for {s!r}")
            v = values[s.mask]
            if not isinstance(v, int) or v < 0:
                raise ValidationError(f"value of {s!r} must be a non-negative integer")
        if values[0] != 0:
            raise ValidationError("the empty set must have value 0")
        self.universe = universe
        self.sets = sets
        self._values = dict(values)
        weights = [values[s.mask] for s in sets]
        violation = first_pair_violation(sets, weights, containment_index(universe.n, sets))
        if violation is not None:
            raise ValidationError(violation)

    def f(self, member: ElementSet) -> int:
        try:
            return self._values[member.mask]
        except KeyError:
            raise ValidationError(f"{member!r} is not a member of the system") from None

    @classmethod
    def from_flat_lattice(cls, lattice: FlatLattice) -> "SubmodularSystem":
        """Flats weighted by their heights (equal to ranks)."""
        values = {f.mask: h for f, h in zip(lattice.flats, lattice.heights)}
        return cls(lattice.universe, lattice.flats, values)


def independence_from_lattice(system: SubmodularSystem, x: ElementSet) -> bool:
    """Whether f(T) >= |x n T| for every member T."""
    if x.universe != system.universe:
        raise ValidationError("set lives on a different universe")
    return all(
        system.f(t) >= (x.mask & t.mask).bit_count() for t in system.sets
    )


class LatticeInducedMatroid:
    """Matroid oracle wrapping the lattice-bound independence predicate.

    Nothing is materialized: rank is computed greedily from the predicate,
    which is valid because the predicate satisfies the matroid axioms.
    """

    def __init__(self, system: SubmodularSystem):
        self.system = system
        self.universe = system.universe

    def is_independent(self, x: ElementSet) -> bool:
        return independence_from_lattice(self.system, x)

    def rank(self, x: ElementSet) -> int:
        current = self.universe.empty()
        for e in bits_of(x.mask):
            grown = current.with_index(e)
            if self.is_independent(grown):
                current = grown
        return len(current)

    def closure(self, x: ElementSet) -> ElementSet:
        return closure_from_rank(self, x)

    def covers_of(self, flat: ElementSet) -> tuple[int, list[int]]:
        return covers_by_closure(self, flat)


def induced_rank(system: SubmodularSystem, x: ElementSet) -> int:
    """min over members Y of f(Y) + |x - Y|, cross-checked against the
    greedy rank of the induced matroid."""
    if x.universe != system.universe:
        raise ValidationError("set lives on a different universe")
    best = min(system.f(y) + (x.mask & ~y.mask).bit_count() for y in system.sets)
    greedy = LatticeInducedMatroid(system).rank(x)
    if best != greedy:
        raise InternalConsistencyError(
            f"induced rank {best} of {x!r} disagrees with the matroid rank {greedy}"
        )
    return best


def independent_iff_flat_bound(
    matroid: MatroidOracle, x: ElementSet, flats: Sequence[ElementSet]
) -> bool:
    """Independence via the flat bound: rank(Y) >= |x n Y| for every flat Y."""
    return all(matroid.rank(y) >= (x.mask & y.mask).bit_count() for y in flats)
