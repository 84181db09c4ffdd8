"""Transversal rank, closure, covers and block deletions against König's
theorem, at sizes past the brute-force oracle's budget.

A maximum matching of X into the blocks is as large as a minimum vertex
cover of the bipartite graph (König 1931).  A cover is a set J of blocks
plus every element of X that has a block outside J, so

    r(X) = min over block sets J of |J| + |X - inside(J)|,

where inside(J) is the set of elements whose blocks all lie in J (an
element in no block lies in every inside(J)).  That formula finds no
matching: it reads 2^m block sets, so it checks the matching code at any n
while m <= 8.
"""

import random

import pytest

from covlat import ElementSet, SetFamily, TransversalMatroid, enumerate_lattice, exclusion, reduct
from conftest import density_covering


class Koenig:
    """Rank and closure of a family's transversal matroid, less the blocks
    in the bitmask ``deleted``, from König's theorem alone.

    The closure is X plus inside(J) for every J that attains r(X).  Proof,
    for e outside X: if J attains r(X) and e is in inside(J), then
    r(X + e) <= |J| + |(X + e) - inside(J)| = r(X).  If r(X + e) = r(X), a J
    attaining r(X + e) has |J| + |X - inside(J)| <= r(X), so it attains r(X);
    and e lies in inside(J), or that sum would be r(X) - 1.
    """

    def __init__(self, family: SetFamily, deleted: int = 0):
        blocks = [b.mask for j, b in enumerate(family.blocks) if not deleted >> j & 1]
        blocks_of = [
            sum(1 << j for j, block in enumerate(blocks) if block >> e & 1)
            for e in range(family.universe.n)
        ]
        self.covers = [
            (kept.bit_count(), sum(1 << e for e, own in enumerate(blocks_of) if not own & ~kept))
            for kept in range(1 << len(blocks))
        ]

    def rank(self, mask: int) -> int:
        return min(size + (mask & ~inside).bit_count() for size, inside in self.covers)

    def rank_and_closure(self, mask: int) -> tuple[int, int]:
        sizes = [size + (mask & ~inside).bit_count() for size, inside in self.covers]
        rank = min(sizes)
        for size, (_, inside) in zip(sizes, self.covers):
            if size == rank:
                mask |= inside
        return rank, mask


def closure_by_rank(koenig: Koenig, n: int, mask: int) -> int:
    """X plus every element that leaves the König rank of X unchanged."""
    rank = koenig.rank(mask)
    return mask | sum(1 << e for e in range(n) if koenig.rank(mask | 1 << e) == rank)


def family_with_loops(rng: random.Random, n: int, m: int) -> SetFamily:
    """A density covering's blocks less two elements, which then lie in no
    block; a block left empty keeps one other element."""
    covering = density_covering(rng, n, m)
    first, second = rng.sample(range(n), 2)
    loops = 1 << first | 1 << second
    other = 1 << min(set(range(n)) - {first, second})
    masks = [block.mask & ~loops or other for block in covering.blocks]
    universe = covering.universe
    return SetFamily(universe, [ElementSet(universe, mask) for mask in masks])


@pytest.mark.parametrize("n", range(8, 25, 2))
def test_rank_and_closure_match_koenig(n):
    rng = random.Random(n)
    for family in (density_covering(rng, n, rng.randint(2, 8)), family_with_loops(rng, n, 6)):
        matroid = TransversalMatroid(family)
        koenig = Koenig(family)
        universe = family.universe
        for k in range(120):
            mask = rng.getrandbits(n) & rng.getrandbits(n) if k % 2 else rng.getrandbits(n)
            x = ElementSet(universe, mask)
            rank, closure = koenig.rank_and_closure(mask)
            assert (matroid.rank(x), matroid.closure(x).mask) == (rank, closure)
            if k < 10:
                assert closure_by_rank(koenig, n, mask) == closure


@pytest.mark.parametrize("n", range(8, 15))
def test_covers_of_every_flat_are_koenig_closed_one_rank_up_and_split_the_rest(n):
    rng = random.Random(200 + n)
    family = density_covering(rng, n, rng.randint(3, 8))
    matroid = TransversalMatroid(family)
    koenig = Koenig(family)
    full = family.universe.full_mask
    for flat in enumerate_lattice(matroid).flats:
        rank, closure = koenig.rank_and_closure(flat.mask)
        assert closure == flat.mask
        reported, covers = matroid.covers_of(flat)
        assert reported == rank
        added = 0
        for cover in covers:
            assert koenig.rank_and_closure(cover) == (rank + 1, cover)
            part = cover & ~flat.mask
            assert part and not part & added
            added |= part
        assert added == full & ~flat.mask


def deletions(family: SetFamily) -> list[int]:
    """Each single block, and the blocks the reduct and the exclusion drop
    (several of them at n = 6, 7, 10 and 12 below)."""
    found = [1 << j for j in range(family.m)]
    for reduced in (reduct(family), exclusion(family)):
        kept = {block.mask for block in reduced.blocks}
        found.append(sum(1 << j for j, b in enumerate(family.blocks) if b.mask not in kept))
    return found


@pytest.mark.parametrize("n", range(6, 13))
def test_block_deletions_match_koenig_on_every_flat(n):
    rng = random.Random(300 + n)
    family = density_covering(rng, n, rng.randint(3, 8))
    matroid = TransversalMatroid(family)
    universe = family.universe
    sets = list(enumerate_lattice(matroid).flats)
    sets += [ElementSet(universe, rng.getrandbits(n)) for _ in range(30)]
    masks = deletions(family)
    koenigs = [Koenig(family, deleted) for deleted in masks]
    for x in sets:
        derived = matroid.ranks_and_closures_without(x, masks)
        for (rank, closure), koenig in zip(derived, koenigs, strict=True):
            assert (rank, closure.mask) == koenig.rank_and_closure(x.mask)
