import random

import pytest
from hypothesis import given

from covlat import (
    BruteForce,
    Covering,
    GuardExceeded,
    SetFamily,
    TransversalMatroid,
    ValidationError,
    ab_decomposition,
    brute_independent,
    enumerate_lattice,
    exclusion,
    is_partition,
    reduct,
)
from covlat.lattice import closure_from_rank
from conftest import cov, density_covering, fam, subsets
from strategies import coverings, families, family_and_two_subsets


class TestIndependence:
    def test_partial_transversal(self, family4):
        matroid = TransversalMatroid(family4)
        assert matroid.is_independent(family4.universe.subset(["2", "4"]))
        assert matroid.is_independent(family4.universe.subset(["2", "3", "4"]))

    def test_empty_always_independent(self, mixed5):
        assert TransversalMatroid(mixed5).is_independent(mixed5.universe.empty())

    def test_five_elements_four_blocks_dependent(self, doubled9):
        matroid = TransversalMatroid(doubled9)
        assert not matroid.is_independent(doubled9.universe.subset(list("acfgi")))

    @given(families(max_n=5, max_m=5))
    def test_agrees_with_backtracking_oracle(self, family):
        matroid = TransversalMatroid(family)
        for x in subsets(family.universe):
            assert matroid.is_independent(x) == brute_independent(family, x)


class TestRank:
    def test_mixed5_values(self, mixed5):
        matroid = TransversalMatroid(mixed5)
        assert matroid.rank(mixed5.universe.full()) == 4
        assert matroid.rank(mixed5.universe.empty()) == 0
        assert matroid.rank(mixed5.universe.subset(["4", "5"])) == 1

    @given(family_and_two_subsets())
    def test_rank_axioms(self, data):
        family, x, y = data
        matroid = TransversalMatroid(family)
        assert 0 <= matroid.rank(x) <= len(x)
        assert matroid.rank(x & y) <= matroid.rank(x)
        assert (
            matroid.rank(x | y) + matroid.rank(x & y)
            <= matroid.rank(x) + matroid.rank(y)
        )

    @given(family_and_two_subsets(max_n=5))
    def test_augmentation(self, data):
        family, a, b = data
        matroid = TransversalMatroid(family)
        small = max(
            (s for s in subsets(family.universe) if s <= a and matroid.is_independent(s)),
            key=len,
        )
        big = max(
            (s for s in subsets(family.universe) if s <= b and matroid.is_independent(s)),
            key=len,
        )
        if len(small) < len(big):
            assert any(
                matroid.is_independent(small.with_index(e))
                for e in (big - small).indices()
            )


class TestClosure:
    def test_doubled9_golden(self, doubled9):
        matroid = TransversalMatroid(doubled9)
        closure = matroid.closure(doubled9.universe.subset(["a", "b", "i"]))
        assert closure == doubled9.universe.subset(["a", "b", "c", "d", "e", "i"])

    def test_parallel_pair_closure(self, mixed5):
        matroid = TransversalMatroid(mixed5)
        assert matroid.closure(mixed5.universe.subset(["4"])) == mixed5.universe.subset(
            ["4", "5"]
        )

    def test_closure_of_empty_iff_covering(self, mixed5, family4):
        assert not TransversalMatroid(mixed5).closure_of_empty()
        assert TransversalMatroid(family4).closure_of_empty() == family4.universe.subset(["1"])
        partition = cov("universe: a b\nblock: a\nblock: b")
        assert not TransversalMatroid(partition).closure_of_empty()

    @given(families())
    def test_closure_of_empty_characterizes_coverings(self, family):
        matroid = TransversalMatroid(family)
        assert (not matroid.closure_of_empty()) == family.covers_universe()

    @given(family_and_two_subsets(max_n=5))
    def test_closure_axioms(self, data):
        family, x, y = data
        matroid = TransversalMatroid(family)
        cx = matroid.closure(x)
        assert x <= cx
        if x <= y:
            assert cx <= matroid.closure(y)
        assert matroid.closure(cx) == cx
        universe = family.universe
        for a in range(universe.n):
            grown = matroid.closure(x.with_index(a))
            for b in (grown - cx).indices():
                assert matroid.closure(x.with_index(b)).has_index(a)

    @given(families(max_n=6))
    def test_alternating_search_agrees_with_rank_and_brute_force(self, family):
        # families include loops, repeated blocks and non-coverings
        matroid = TransversalMatroid(family)
        oracle = BruteForce(family)
        for x in subsets(family.universe):
            closure = matroid.closure(x)
            assert closure == closure_from_rank(matroid, x)
            assert closure == oracle.closure(x)

    @pytest.mark.parametrize("n", range(8, 15))
    def test_alternating_search_agrees_with_rank_on_density_coverings(self, n):
        rng = random.Random(n)
        for _ in range(3):
            covering = density_covering(rng, n, rng.randint(2, n + 2))
            matroid = TransversalMatroid(covering)
            for _ in range(400):
                mask = sum(1 << e for e in rng.sample(range(n), rng.randint(0, n)))
                x = covering.universe.set_from_mask(mask)
                assert matroid.closure(x) == closure_from_rank(matroid, x)


class TestRankAndClosureWithout:
    """The ranks and the closures derived from one matching of x in M equal
    a fresh matroid's of the family less each set of deleted blocks."""

    @staticmethod
    def _families(rng: random.Random, n: int) -> tuple[SetFamily, ...]:
        """A density covering and a plain family on n elements; the family
        repeats its last block, and for n > 1 only its block 0 covers
        element 0."""
        m = rng.randint(2, min(n + 1, 6)) if n > 1 else 1
        covering = density_covering(rng, n, min(m + 1, (1 << n) - 1))
        masks = [1 | sum(1 << e for e in range(n) if rng.random() < 0.4)]
        for _ in range(m - 1):
            masks.append(sum(1 << e for e in range(1, n) if rng.random() < 0.4) or 2)
        masks.append(masks[-1])
        universe = covering.universe
        return covering, SetFamily(universe, map(universe.set_from_mask, masks))

    @staticmethod
    def _deletions(rng: random.Random, family: SetFamily) -> list[int]:
        """Each single block, random sets of blocks, and for a covering the
        blocks its reduct and its exclusion drop; never every block."""
        everything = (1 << family.m) - 1
        deletions = {1 << j for j in range(family.m)}
        deletions.update(rng.randrange(1, everything) for _ in range(4) if family.m > 2)
        if isinstance(family, Covering):
            for reduced in (reduct(family), exclusion(family)):
                kept = {block.mask for block in reduced.blocks}
                deletions.add(sum(1 << j for j, b in enumerate(family.blocks) if b.mask not in kept))
        deletions.discard(everything)
        return sorted(deletions)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_a_fresh_matroid_of_the_subfamily(self, n):
        rng = random.Random(100 + n)
        loops_seen = 0
        for family in self._families(rng, n):
            matroid = TransversalMatroid(family)
            universe = family.universe
            sets = list(enumerate_lattice(matroid).flats)
            sets += [universe.set_from_mask(rng.randrange(1 << n)) for _ in range(20)]
            deletions = self._deletions(rng, family)
            fresh, loops = [], []
            for deleted in deletions:
                kept = [b for j, b in enumerate(family.blocks) if not deleted >> j & 1]
                fresh.append(TransversalMatroid(SetFamily(universe, kept)))
                loops.append(universe.full_mask)
                for block in kept:
                    loops[-1] &= ~block.mask
                loops_seen |= loops[-1]
            for x in sets:
                derived = matroid.ranks_and_closures_without(x, deletions)
                assert len(derived) == len(deletions)
                for (rank, closure), other, lost in zip(derived, fresh, loops):
                    assert (rank, closure) == (other.rank(x), other.closure(x))
                    assert closure.mask & lost == lost
        # deleting block 0 of the plain family leaves element 0 in no block
        assert loops_seen & 1 or n == 1

    def test_deleting_nothing_is_the_matroid_itself(self, doubled9):
        matroid = TransversalMatroid(doubled9)
        for flat in enumerate_lattice(matroid).flats:
            assert matroid.ranks_and_closures_without(flat, [0]) == [(matroid.rank(flat), flat)]
            assert matroid.ranks_and_closures_without(flat, []) == []

    @pytest.mark.parametrize("deleted", [-1, 1 << 4, 1 << 64])
    def test_a_block_outside_the_family_is_refused(self, doubled9, deleted):
        matroid = TransversalMatroid(doubled9)
        with pytest.raises(ValidationError, match="names no block"):
            matroid.ranks_and_closures_without(doubled9.universe.empty(), [0, deleted])


class TestEnumeration:
    def test_bases_of_partition(self):
        covering = cov("universe: 1 2 3\nblock: 1 2\nblock: 3")
        bases = TransversalMatroid(covering).bases()
        assert {b.labels() for b in bases} == {("1", "3"), ("2", "3")}

    def test_single_block_universe(self):
        covering = cov("universe: a\nblock: a")
        assert TransversalMatroid(covering).bases() == (covering.universe.full(),)

    def test_full_transversal(self):
        family = fam("universe: 2 3 4\nblock: 2 3\nblock: 4\nblock: 2 4")
        bases = TransversalMatroid(family).bases()
        assert [b.labels() for b in bases] == [("2", "3", "4")]

    def test_circuits(self, mixed5):
        circuits = TransversalMatroid(mixed5).circuits()
        assert [c.labels() for c in circuits] == [("4", "5")]

    def test_free_matroid_has_no_circuits(self):
        covering = cov("universe: 1 2\nblock: 1\nblock: 2")
        assert TransversalMatroid(covering).circuits() == ()

    def test_single_block_pair_is_a_circuit(self):
        family = fam("universe: 1 2\nblock: 1 2")
        circuits = TransversalMatroid(family).circuits()
        assert [c.labels() for c in circuits] == [("1", "2")]

    def test_guard(self, mixed5):
        matroid = TransversalMatroid(mixed5)
        with pytest.raises(GuardExceeded):
            matroid.bases(guard=4)
        with pytest.raises(GuardExceeded):
            matroid.circuits(guard=4)
        # a guard below 1 is an input error, not a guard that trips
        for guard in (0, -1):
            with pytest.raises(ValidationError, match="guard must be a positive integer"):
                matroid.bases(guard)
            with pytest.raises(ValidationError, match="guard must be a positive integer"):
                matroid.circuits(guard)


class TestParallelAndSimple:
    def test_mixed5_parallel_class(self, mixed5):
        loops, classes = TransversalMatroid(mixed5).parallel_classes()
        assert not loops
        assert [c.labels() for c in classes] == [("4", "5")]

    def test_partition_of_singletons(self):
        covering = cov("universe: 1 2 3\nblock: 1\nblock: 2\nblock: 3")
        loops, classes = TransversalMatroid(covering).parallel_classes()
        assert not loops and classes == ()

    def test_single_block_cover(self):
        covering = cov("universe: 1 2\nblock: 1 2")
        loops, classes = TransversalMatroid(covering).parallel_classes()
        assert not loops
        assert [c.labels() for c in classes] == [("1", "2")]

    def test_simplicity(self, mixed5):
        assert not TransversalMatroid(mixed5).is_simple()
        assert TransversalMatroid(cov("universe: 1 2 3\nblock: 1 2\nblock: 2 3")).is_simple()
        assert not TransversalMatroid(cov("universe: 1 2\nblock: 1 2")).is_simple()

    @given(coverings(max_n=5))
    def test_simplicity_criterion_consistent(self, covering):
        # is_simple raises InternalConsistencyError if the block-difference
        # criterion ever disagrees with the direct loop/parallel test.
        TransversalMatroid(covering).is_simple()

    @given(coverings(max_n=5))
    def test_large_private_parts_are_parallel_classes(self, covering):
        matroid = TransversalMatroid(covering)
        for part in ab_decomposition(covering).a_parts:
            members = part.indices()
            if len(members) < 2:
                continue
            for a in members:
                for b in members:
                    if a < b:
                        pair = covering.universe.set_from_mask((1 << a) | (1 << b))
                        assert not matroid.is_independent(pair)


class TestABDecomposition:
    def test_mixed5(self, mixed5):
        decomposition = ab_decomposition(mixed5)
        assert [a.labels() for a in decomposition.a_parts] == [("4", "5")]
        assert decomposition.b_part.labels() == ("1", "2", "3")

    def test_partition_has_empty_b(self):
        covering = cov("universe: 1 2 3\nblock: 1 2\nblock: 3")
        decomposition = ab_decomposition(covering)
        assert tuple(a.mask for a in decomposition.a_parts) == tuple(
            b.mask for b in covering.blocks
        )
        assert not decomposition.b_part

    def test_doubled9_has_empty_a(self, doubled9):
        decomposition = ab_decomposition(doubled9)
        assert decomposition.a_parts == ()
        assert decomposition.b_part == doubled9.universe.full()

    @given(coverings())
    def test_parts_partition_the_universe(self, covering):
        decomposition = ab_decomposition(covering)
        masks = [a.mask for a in decomposition.a_parts] + [decomposition.b_part.mask]
        union = 0
        total = 0
        for mask in masks:
            union |= mask
            total += mask.bit_count()
        assert union == covering.universe.full_mask
        assert total == covering.universe.n

    @given(coverings())
    def test_b_empty_iff_partition(self, covering):
        assert (not ab_decomposition(covering).b_part) == is_partition(covering)

