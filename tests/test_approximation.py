import random
from itertools import combinations

import pytest
from hypothesis import given

from covlat import (
    CriterionNotSatisfied,
    ElementSet,
    NeighborhoodTable,
    PartitionMatroid,
    TransversalMatroid,
    UpperOperator,
    ValidationError,
    as_partition,
    brute_operator_axioms,
    closure_operator_verdict,
    equ_condition,
    forms_partition,
    induced_partition_matroid,
    partition_lower,
    partition_upper,
    tra_condition,
)
from covlat.approximation import AxiomWitness, _search_witness
from covlat.lattice import closure_from_rank
from covlat.universe import bits_of
from conftest import cov, density_covering, subsets
from strategies import covering_and_subset, covering_and_two_subsets, coverings, partitions

ALL_KINDS = (UpperOperator.SH, UpperOperator.XH, UpperOperator.VH)


class TestNeighborhoods:
    def test_mixed5_table(self, mixed5):
        table = NeighborhoodTable.build(mixed5)
        u = mixed5.universe
        triple = u.subset(["1", "2", "3"])
        pair = u.subset(["4", "5"])
        for label in ("1", "2", "3"):
            assert table.indiscernible[u.index(label)] == triple
        for label in ("4", "5"):
            assert table.indiscernible[u.index(label)] == pair
        assert table.neighborhood[u.index("1")] == u.subset(["1"])
        assert table.neighborhood[u.index("2")] == u.subset(["2"])
        assert table.neighborhood[u.index("3")] == u.subset(["3"])
        assert table.neighborhood[u.index("4")] == pair
        assert table.neighborhood[u.index("5")] == pair

    def test_doubled9_neighborhoods(self, doubled9):
        table = NeighborhoodTable.build(doubled9)
        u = doubled9.universe
        expected = {
            "a": ["a", "b"],
            "b": ["a", "b"],
            "c": ["c", "d", "e"],
            "d": ["c", "d", "e"],
            "e": ["c", "d", "e"],
            "f": ["f"],
            "g": ["g", "h"],
            "h": ["g", "h"],
            "i": ["i"],
        }
        for label, members in expected.items():
            assert table.neighborhood[u.index(label)] == u.subset(members)

    @given(covering_and_subset())
    def test_element_between_neighborhoods(self, data):
        covering, _ = data
        table = NeighborhoodTable.build(covering)
        for e in range(covering.universe.n):
            assert table.neighborhood[e].has_index(e)
            assert table.neighborhood[e] <= table.indiscernible[e]

    @given(coverings())
    def test_neighborhood_is_meet_of_minimal_description(self, covering):
        table = NeighborhoodTable.build(covering)
        for e in range(covering.universe.n):
            mask = covering.universe.full_mask
            for j in table.minimal_description[e]:
                mask &= covering.blocks[j].mask
            assert mask == table.neighborhood[e].mask

    def test_minimal_description_mixed5(self, mixed5):
        table = NeighborhoodTable.build(mixed5)
        u = mixed5.universe
        assert table.minimal_description[u.index("1")] == (0, 1)
        assert table.minimal_description[u.index("4")] == (3,)


class TestOperators:
    def test_vh_singleton(self, doubled9):
        table = NeighborhoodTable.build(doubled9)
        image = table.apply(UpperOperator.VH, doubled9.universe.subset(["b"]))
        assert image == doubled9.universe.subset(["a", "b"])

    def test_empty_set_maps_to_empty(self, mixed5):
        table = NeighborhoodTable.build(mixed5)
        for kind in ALL_KINDS:
            assert not table.apply(kind, mixed5.universe.empty())

    def test_xh_fixpoint(self, doubled9):
        x = doubled9.universe.subset(["a", "b", "i"])
        assert NeighborhoodTable.build(doubled9).apply(UpperOperator.XH, x) == x

    @given(covering_and_two_subsets())
    def test_shared_properties(self, data):
        covering, x, y = data
        table = NeighborhoodTable.build(covering)
        for kind in ALL_KINDS:
            image = table.apply(kind, x)
            assert x <= image
            assert table.apply(kind, x | y) == image | table.apply(kind, y)
            if x <= y:
                assert image <= table.apply(kind, y)

    @given(coverings())
    def test_xh_always_idempotent(self, covering):
        table = NeighborhoodTable.build(covering)
        for x in subsets(covering.universe):
            once = table.xh(x)
            assert table.xh(once) == once

    @given(coverings())
    def test_singleton_symmetry(self, covering):
        table = NeighborhoodTable.build(covering)
        universe = covering.universe
        for kind in (UpperOperator.SH, UpperOperator.VH):
            for a in range(universe.n):
                image = table.apply(kind, universe.singleton(a))
                for b in image.indices():
                    assert table.apply(kind, universe.singleton(b)).has_index(a)

    @given(covering_and_subset())
    def test_xh_within_vh(self, data):
        covering, x = data
        table = NeighborhoodTable.build(covering)
        assert table.xh(x) <= table.vh(x)

    @given(coverings())
    def test_xh_fixes_the_universe(self, covering):
        table = NeighborhoodTable.build(covering)
        assert table.xh(covering.universe.full()) == covering.universe.full()

    @given(covering_and_subset(max_n=5))
    def test_sh_vh_exchange_holds_unconditionally(self, data):
        covering, x_set = data
        table = NeighborhoodTable.build(covering)
        universe = covering.universe
        for kind in (UpperOperator.SH, UpperOperator.VH):
            base = table.apply(kind, x_set)
            for x in range(universe.n):
                grown = table.apply(kind, x_set.with_index(x))
                for y in (grown - base).indices():
                    assert table.apply(kind, x_set.with_index(y)).has_index(x)


class TestPawlakApproximations:
    def test_golden(self):
        partition = as_partition(cov("universe: 1 2 3\nblock: 1 2\nblock: 3"))
        u = partition.universe
        assert partition_upper(partition, u.subset(["1"])) == u.subset(["1", "2"])
        assert not partition_lower(partition, u.subset(["1"]))
        assert not partition_upper(partition, u.empty())
        assert partition_lower(partition, u.full()) == u.full()
        assert partition_upper(partition, u.full()) == u.full()

    @given(partitions())
    def test_lower_within_upper(self, partition):
        for x in subsets(partition.universe):
            assert partition_lower(partition, x) <= x <= partition_upper(partition, x)


class TestFormsPartition:
    def test_golden_cases(self, mixed5, chain_b):
        assert forms_partition(NeighborhoodTable.build(mixed5).indiscernible)
        table = NeighborhoodTable.build(chain_b)
        assert forms_partition(table.singleton_images(UpperOperator.VH))
        assert not forms_partition(table.neighborhood)

    def test_nested_minus_reducible_block_breaks_partition(self, nested3):
        shrunk = cov("universe: 1 2 3\nblock: 1 2\nblock: 1 3")
        assert not forms_partition(NeighborhoodTable.build(shrunk).indiscernible)

    def test_precondition_violations(self, mixed5):
        u = mixed5.universe
        with pytest.raises(ValidationError):
            forms_partition([])
        with pytest.raises(ValidationError):
            forms_partition([u.subset(["1"])])


class TestConditions:
    def test_tra(self, mixed5, nested3):
        assert tra_condition(NeighborhoodTable.build(nested3))
        assert tra_condition(NeighborhoodTable.build(mixed5))
        chain = cov("universe: 1 2 3\nblock: 1 2\nblock: 2 3")
        assert not tra_condition(NeighborhoodTable.build(chain))

    def test_equ(self, doubled9, chain_a):
        assert equ_condition(doubled9)
        assert equ_condition(chain_a)
        assert not equ_condition(cov("universe: 1 2\nblock: 1 2\nblock: 2"))

    @given(coverings(max_n=5))
    def test_tra_iff_sh_criterion(self, covering):
        table = NeighborhoodTable.build(covering)
        assert tra_condition(table) == closure_operator_verdict(table, UpperOperator.SH).is_closure

    @given(coverings(max_n=5))
    def test_equ_implies_neighborhood_partition(self, covering):
        if equ_condition(covering):
            assert forms_partition(NeighborhoodTable.build(covering).neighborhood)


class TestClosureCriterion:
    def test_nested3(self, nested3):
        table = NeighborhoodTable.build(nested3)
        assert closure_operator_verdict(table, UpperOperator.SH).is_closure
        shrunk = cov("universe: 1 2 3\nblock: 1 2\nblock: 1 3")
        verdict = closure_operator_verdict(NeighborhoodTable.build(shrunk), UpperOperator.SH)
        assert not verdict.is_closure
        assert verdict.witness is not None
        assert verdict.witness.law == "idempotence"
        assert verdict.witness.subset == shrunk.universe.subset(["2"])

    def test_chain_coverings(self, chain_a, chain_b):
        table_a, table_b = NeighborhoodTable.build(chain_a), NeighborhoodTable.build(chain_b)
        assert closure_operator_verdict(table_a, UpperOperator.XH).is_closure
        assert not closure_operator_verdict(table_b, UpperOperator.XH).is_closure
        verdict = closure_operator_verdict(table_b, UpperOperator.VH)
        assert verdict.is_closure
        assert verdict.classes is not None
        assert [c.labels() for c in verdict.classes] == [("1",), ("2", "3")]

    def test_xh_witness_is_exchange(self, chain_b):
        verdict = closure_operator_verdict(NeighborhoodTable.build(chain_b), UpperOperator.XH)
        assert not verdict.is_closure
        assert verdict.witness is not None and verdict.witness.law == "exchange"

    @given(coverings(max_n=5))
    def test_criterion_matches_exhaustive_axioms(self, covering):
        table = NeighborhoodTable.build(covering)
        for kind in ALL_KINDS:
            axioms_hold, _ = brute_operator_axioms(covering, kind)
            assert closure_operator_verdict(table, kind).is_closure == axioms_hold

    @given(coverings(max_n=10))
    def test_witness_is_a_real_violation(self, covering):
        table = NeighborhoodTable.build(covering)
        for kind in ALL_KINDS:
            verdict = closure_operator_verdict(table, kind)
            if verdict.is_closure:
                continue
            witness = verdict.witness
            assert witness is not None
            # sh and vh always fail idempotence on a singleton; xh, which is
            # idempotent everywhere, fails exchange at the empty set
            if kind is UpperOperator.XH:
                assert witness.law == "exchange" and not witness.subset
            else:
                assert witness.law == "idempotence" and len(witness.subset) == 1
            if witness.law == "idempotence":
                once = table.apply(kind, witness.subset)
                assert table.apply(kind, once) != once
            else:
                u = covering.universe
                x = u.index(witness.element)
                y = u.index(witness.partner)
                base = table.apply(kind, witness.subset)
                grown = table.apply(kind, witness.subset.with_index(x))
                assert grown.has_index(y) and not base.has_index(y)
                assert not table.apply(kind, witness.subset.with_index(y)).has_index(x)


    @staticmethod
    def _scanned_witness(table, kind):
        # every subset of at most two elements in size order for an
        # idempotence failure, then exchange at the empty set
        universe = table.covering.universe
        for size in range(3):
            for combo in combinations(range(universe.n), size):
                x = ElementSet(universe, sum(1 << e for e in combo))
                once = table.apply(kind, x)
                if table.apply(kind, once) != once:
                    return AxiomWitness("idempotence", x)
        empty = universe.empty()
        for x in range(universe.n):
            for y in bits_of(table.apply(kind, universe.singleton(x)).mask):
                if not table.apply(kind, universe.singleton(y)).has_index(x):
                    return AxiomWitness("exchange", empty, universe.labels[x], universe.labels[y])
        return None

    def _assert_witnesses_are_the_scans(self, covering) -> int:
        table = NeighborhoodTable.build(covering)
        failing = 0
        for kind in ALL_KINDS:
            if not forms_partition(table.singleton_images(kind)):
                failing += 1
                assert _search_witness(table, kind) == self._scanned_witness(table, kind)
        return failing

    @given(coverings(max_n=10))
    def test_witness_equals_the_scan_of_subsets_up_to_two_elements(self, covering):
        self._assert_witnesses_are_the_scans(covering)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_witness_equals_the_scan_on_density_coverings(self, n):
        rng = random.Random(700 + n)
        failing = sum(
            self._assert_witnesses_are_the_scans(density_covering(rng, n, rng.randint(2, n)))
            for _ in range(40)
        )
        assert failing


class TestIdempotenceAndExchangeEquivalences:
    @given(coverings(max_n=5))
    def test_sh_idempotence_iff_image_partition(self, covering):
        table = NeighborhoodTable.build(covering)
        everywhere = all(
            table.sh(table.sh(x)) == table.sh(x) for x in subsets(covering.universe)
        )
        assert everywhere == forms_partition(table.indiscernible)

    @given(coverings(max_n=5))
    def test_vh_idempotence_iff_image_partition(self, covering):
        table = NeighborhoodTable.build(covering)
        everywhere = all(
            table.vh(table.vh(x)) == table.vh(x) for x in subsets(covering.universe)
        )
        assert everywhere == forms_partition(table.singleton_images(UpperOperator.VH))

    @given(coverings(max_n=4))
    def test_xh_exchange_iff_neighborhood_partition(self, covering):
        table = NeighborhoodTable.build(covering)
        universe = covering.universe
        exchange = True
        for x_set in subsets(universe):
            base = table.xh(x_set)
            for x in range(universe.n):
                grown = table.xh(x_set.with_index(x))
                for y in (grown - base).indices():
                    if not table.xh(x_set.with_index(y)).has_index(x):
                        exchange = False
        assert exchange == forms_partition(table.neighborhood)


class TestInducedMatroids:
    def test_mixed5_sh_classes(self, mixed5):
        matroid = induced_partition_matroid(mixed5, UpperOperator.SH)
        assert [c.labels() for c in matroid.classes] == [("4", "5"), ("1", "2", "3")]

    def test_mixed5_xh_classes(self, mixed5):
        matroid = induced_partition_matroid(mixed5, UpperOperator.XH)
        assert [c.labels() for c in matroid.classes] == [
            ("1",),
            ("2",),
            ("3",),
            ("4", "5"),
        ]

    def test_chain_b_vh_classes(self, chain_b):
        matroid = induced_partition_matroid(chain_b, UpperOperator.VH)
        assert [c.labels() for c in matroid.classes] == [("1",), ("2", "3")]

    def test_criterion_failure_raises(self, chain_b):
        with pytest.raises(CriterionNotSatisfied):
            induced_partition_matroid(chain_b, UpperOperator.XH)

    @given(coverings(max_n=5))
    def test_matches_definitional_independence(self, covering):
        table = NeighborhoodTable.build(covering)
        for kind in ALL_KINDS:
            if not closure_operator_verdict(table, kind).is_closure:
                continue
            matroid = induced_partition_matroid(covering, kind)
            for x in subsets(covering.universe):
                definitional = all(
                    not table.apply(kind, x.without_index(e)).has_index(e)
                    for e in x.indices()
                )
                assert definitional == matroid.is_independent(x)


class TestPartitionMatroid:
    def test_base_count_product(self, mixed5):
        matroid = induced_partition_matroid(mixed5, UpperOperator.SH)
        assert matroid.base_count() == 6

    def test_rank_of_empty(self, mixed5):
        matroid = induced_partition_matroid(mixed5, UpperOperator.SH)
        assert matroid.rank(mixed5.universe.empty()) == 0

    def test_doubled9_xh_matroid(self, doubled9):
        matroid = induced_partition_matroid(doubled9, UpperOperator.XH)
        u = doubled9.universe
        assert matroid.is_independent(u.subset(list("acfgi")))
        assert not matroid.is_independent(u.subset(list("acd")))
        vh = induced_partition_matroid(doubled9, UpperOperator.VH)
        assert {c.mask for c in vh.classes} == {c.mask for c in matroid.classes}

    def test_circuits_are_pairs_within_classes(self, mixed5):
        matroid = induced_partition_matroid(mixed5, UpperOperator.SH)
        circuits = {c.labels() for c in matroid.circuits()}
        assert circuits == {("4", "5"), ("1", "2"), ("1", "3"), ("2", "3")}

    @given(partitions(max_n=5))
    def test_stats_match_transversal_enumeration(self, partition):
        matroid = PartitionMatroid(partition.universe, partition.blocks)
        transversal = TransversalMatroid(partition)
        assert matroid.base_count() == len(transversal.bases())
        assert {c.mask for c in matroid.circuits()} == {
            c.mask for c in transversal.circuits()
        }
        for x in subsets(partition.universe):
            assert matroid.rank(x) == transversal.rank(x)
            assert matroid.is_independent(x) == transversal.is_independent(x)

    @given(partitions(max_n=5))
    def test_closure_equals_upper_approximation(self, partition):
        # the closed form and the route through the rank function alike
        matroid = PartitionMatroid(partition.universe, partition.blocks)
        for x in subsets(partition.universe):
            upper = partition_upper(partition, x)
            assert matroid.closure(x) == closure_from_rank(matroid, x) == upper

    @given(coverings(max_n=6))
    def test_induced_closures_equal_closure_from_rank(self, covering):
        table = NeighborhoodTable.build(covering)
        for kind in ALL_KINDS:
            verdict = closure_operator_verdict(table, kind)
            if verdict.is_closure:
                matroid = verdict.partition_matroid(covering.universe)
                for x in subsets(covering.universe):
                    assert matroid.closure(x) == closure_from_rank(matroid, x)

    @given(coverings(max_n=5))
    def test_pair_closure_covers_iff_classes_differ(self, covering):
        from covlat import enumerate_lattice

        universe = covering.universe
        table = NeighborhoodTable.build(covering)
        for kind in ALL_KINDS:
            if not closure_operator_verdict(table, kind).is_closure:
                continue
            matroid = induced_partition_matroid(covering, kind)
            lattice = enumerate_lattice(matroid)
            for a in range(universe.n):
                for b in range(universe.n):
                    if a == b:
                        continue
                    same = any(
                        c.has_index(a) and c.has_index(b) for c in matroid.classes
                    )
                    single = matroid.closure(universe.singleton(a))
                    pair = matroid.closure(
                        ElementSet(universe, (1 << a) | (1 << b))
                    )
                    assert lattice.covers(single, pair) == (not same)


def test_singleton_images_available_without_criterion(chain_b):
    images = NeighborhoodTable.build(chain_b).singleton_images(UpperOperator.XH)
    assert [c.labels() for c in images] == [("1",), ("2",), ("2", "3")]


def test_partition_matroid_validation(mixed5):
    u = mixed5.universe
    with pytest.raises(ValidationError):
        PartitionMatroid(u, [u.subset(["1", "2"]), u.subset(["2", "3", "4", "5"])])
    with pytest.raises(ValidationError):
        PartitionMatroid(u, [u.subset(["1", "2"])])
