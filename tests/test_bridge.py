from itertools import combinations

import pytest
from hypothesis import given

from covlat import (
    BruteForce,
    LatticeInducedMatroid,
    SubmodularSystem,
    TransversalMatroid,
    Universe,
    ValidationError,
    as_partition,
    enumerate_lattice,
    independence_from_lattice,
    independent_iff_flat_bound,
    induced_rank,
    is_partition,
)
from conftest import subsets
from strategies import coverings, partitions


@pytest.fixture
def mixed5_system(mixed5):
    lattice = enumerate_lattice(TransversalMatroid(mixed5))
    return SubmodularSystem.from_flat_lattice(lattice)


class TestIndependencePredicate:
    def test_three_blocked_elements_are_independent(self, mixed5, mixed5_system):
        # oracle first: {1,2,3} really has a full assignment, so rank 3
        x = mixed5.universe.subset(["1", "2", "3"])
        assert BruteForce(mixed5).rank(x) == 3
        assert independence_from_lattice(mixed5_system, x)

    def test_empty_set(self, mixed5, mixed5_system):
        assert independence_from_lattice(mixed5_system, mixed5.universe.empty())

    def test_doubled9_negative(self, doubled9):
        lattice = enumerate_lattice(TransversalMatroid(doubled9))
        system = SubmodularSystem.from_flat_lattice(lattice)
        assert not independence_from_lattice(
            system, doubled9.universe.subset(list("acfgi"))
        )


class TestMatroidFromLattice:
    def test_mixed5_round_trip(self, mixed5, mixed5_system):
        matroid = TransversalMatroid(mixed5)
        rebuilt = LatticeInducedMatroid(mixed5_system)
        for x in subsets(mixed5.universe):
            assert rebuilt.is_independent(x) == matroid.is_independent(x)
            assert rebuilt.rank(x) == matroid.rank(x)
            assert rebuilt.closure(x) == matroid.closure(x)

    @given(partitions(max_n=5))
    def test_partition_round_trip(self, partition):
        matroid = TransversalMatroid(partition)
        system = SubmodularSystem.from_flat_lattice(enumerate_lattice(matroid))
        rebuilt = LatticeInducedMatroid(system)
        for x in subsets(partition.universe):
            assert rebuilt.is_independent(x) == matroid.is_independent(x)

    def test_two_flat_lattice_gives_free_matroid(self):
        universe = Universe(("a",))
        system = SubmodularSystem(
            universe,
            [universe.empty(), universe.full()],
            {0: 0, universe.full_mask: 1},
        )
        matroid = LatticeInducedMatroid(system)
        assert matroid.is_independent(universe.full())
        assert matroid.rank(universe.full()) == 1

    @given(coverings(max_n=5))
    def test_rebuilt_oracle_satisfies_matroid_axioms(self, covering):
        system = SubmodularSystem.from_flat_lattice(
            enumerate_lattice(TransversalMatroid(covering))
        )
        matroid = LatticeInducedMatroid(system)
        universe = covering.universe
        assert matroid.is_independent(universe.empty())
        independents = [x for x in subsets(universe) if matroid.is_independent(x)]
        for x in independents:
            for e in x.indices():
                assert matroid.is_independent(x.without_index(e))
        for a in independents[:8]:
            for b in independents[-8:]:
                if len(a) < len(b):
                    assert any(
                        matroid.is_independent(a.with_index(e))
                        for e in (b - a).indices()
                    )


class TestInducedRank:
    def test_golden_values(self, mixed5, mixed5_system):
        u = mixed5.universe
        assert induced_rank(mixed5_system, u.full()) == 4
        assert induced_rank(mixed5_system, u.empty()) == 0
        assert induced_rank(mixed5_system, u.subset(["4", "5"])) == 1

    @given(coverings(max_n=5))
    def test_equals_transversal_rank_everywhere(self, covering):
        matroid = TransversalMatroid(covering)
        system = SubmodularSystem.from_flat_lattice(enumerate_lattice(matroid))
        for x in subsets(covering.universe):
            assert induced_rank(system, x) == matroid.rank(x)


class TestFlatBound:
    def test_golden(self, mixed5):
        matroid = TransversalMatroid(mixed5)
        flats = enumerate_lattice(matroid).flats
        u = mixed5.universe
        assert independent_iff_flat_bound(matroid, u.subset(["1", "4"]), flats)
        assert not independent_iff_flat_bound(matroid, u.subset(["4", "5"]), flats)
        assert independent_iff_flat_bound(matroid, u.empty(), flats)

    def test_bounds_only_the_given_flats(self, mixed5):
        matroid = TransversalMatroid(mixed5)
        flats = enumerate_lattice(matroid).flats
        dependent = mixed5.universe.subset(["4", "5"])
        assert not independent_iff_flat_bound(matroid, dependent, flats)
        assert independent_iff_flat_bound(matroid, dependent, ())

    @given(coverings(max_n=5))
    def test_matches_direct_independence(self, covering):
        matroid = TransversalMatroid(covering)
        flats = enumerate_lattice(matroid).flats
        for x in subsets(covering.universe):
            assert independent_iff_flat_bound(matroid, x, flats) == matroid.is_independent(x)


class TestPartitionLatticeJoins:
    @given(coverings(max_n=5))
    def test_join_is_union_for_partitions(self, covering):
        if not is_partition(covering):
            return
        partition = as_partition(covering)
        lattice = enumerate_lattice(TransversalMatroid(partition))
        for x in lattice.flats:
            for y in lattice.flats:
                assert lattice.join(x, y) == x | y


class TestSystemValidation:
    def test_must_contain_empty_and_universe(self):
        universe = Universe(("a", "b"))
        with pytest.raises(ValidationError, match="empty set and the universe"):
            SubmodularSystem(universe, [universe.full()], {universe.full_mask: 1})

    def test_empty_set_value_must_be_zero(self):
        universe = Universe(("a",))
        with pytest.raises(ValidationError, match="value 0"):
            SubmodularSystem(
                universe,
                [universe.empty(), universe.full()],
                {0: 1, universe.full_mask: 1},
            )

    def test_values_must_be_non_negative_integers(self):
        universe = Universe(("a",))
        with pytest.raises(ValidationError, match="non-negative"):
            SubmodularSystem(
                universe,
                [universe.empty(), universe.full()],
                {0: 0, universe.full_mask: -1},
            )

    def test_intersection_closure_required(self):
        universe = Universe(("a", "b", "c"))
        ab = universe.subset(["a", "b"])
        bc = universe.subset(["b", "c"])
        sets = [universe.empty(), ab, bc, universe.full()]
        values = {0: 0, ab.mask: 1, bc.mask: 1, universe.full_mask: 2}
        with pytest.raises(ValidationError, match="intersection-closed"):
            SubmodularSystem(universe, sets, values)

    def test_submodularity_required(self):
        universe = Universe(("a", "b"))
        a = universe.subset(["a"])
        b = universe.subset(["b"])
        sets = [universe.empty(), a, b, universe.full()]
        values = {0: 0, a.mask: 1, b.mask: 1, universe.full_mask: 3}
        with pytest.raises(ValidationError, match="submodular"):
            SubmodularSystem(universe, sets, values)

    def test_every_pair_is_checked_on_large_systems(self):
        # 112 sets (6216 pairs): the empty set, all sets of one or two of 14
        # elements, three triples, X, Y and the universe, valued 0, |S| up to
        # 2, then 3.  X n Y is the only missing intersection, and every other
        # pair is intersection-closed and submodular; a 4000-pair sample
        # drawn with seed 0 misses exactly this pair.
        universe = Universe(f"e{i}" for i in range(14))
        values = {0: 0, universe.full_mask: 3}
        for i in range(14):
            values[1 << i] = 1
        for i, j in combinations(range(14), 2):
            values[1 << i | 1 << j] = 2
        for labels in ("e0 e1 e3", "e0 e1 e4", "e0 e1 e5", "e0 e1 e2 e3", "e0 e1 e2 e4"):
            values[universe.subset(labels.split()).mask] = 3
        sets = [universe.set_from_mask(mask) for mask in values]
        assert len(sets) == 112
        with pytest.raises(ValidationError, match=r"\{e0 e1 e2 e3\} n \{e0 e1 e2 e4\}"):
            SubmodularSystem(universe, sets, values)
