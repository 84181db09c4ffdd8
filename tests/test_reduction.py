from hypothesis import given

from covlat import (
    Covering,
    NeighborhoodTable,
    as_covering,
    exclusion,
    immured_block_indices,
    is_partition,
    forms_partition,
    reducible_block_indices,
    reduct,
    reduction_report,
)
from conftest import cov
from strategies import coverings


class TestReducible:
    def test_nested3(self, nested3):
        assert reducible_block_indices(nested3) == (2,)
        assert [b.labels() for b in reduct(nested3).blocks] == [("1", "2"), ("1", "3")]

    def test_partitions_have_none(self):
        partition = cov("universe: 1 2 3\nblock: 1 2\nblock: 3")
        assert reducible_block_indices(partition) == ()
        assert reduct(partition) == partition

    def test_union_of_singletons(self):
        covering = cov("universe: 1 2\nblock: 1\nblock: 2\nblock: 1 2")
        assert reducible_block_indices(covering) == (2,)

    def test_reduct_removes_cascades(self):
        covering = cov(
            "universe: 1 2 3\nblock: 1\nblock: 2\nblock: 1 2\nblock: 1 2 3\nblock: 3"
        )
        result = reduct(covering)
        assert [b.labels() for b in result.blocks] == [("1",), ("2",), ("3",)]

    def test_reduct_is_order_independent(self):
        covering = cov(
            "universe: 1 2 3\nblock: 1\nblock: 2\nblock: 1 2\nblock: 1 2 3\nblock: 3"
        )
        expected = {b.mask for b in reduct(covering).blocks}

        def reduct_removing_last(c: Covering) -> Covering:
            blocks = list(c.blocks)
            changed = True
            while changed:
                changed = False
                for i in reversed(range(len(blocks))):
                    union = 0
                    for j, other in enumerate(blocks):
                        if j != i and other.mask & ~blocks[i].mask == 0:
                            union |= other.mask
                    if union == blocks[i].mask:
                        del blocks[i]
                        changed = True
                        break
            return Covering(c.universe, blocks)

        assert {b.mask for b in reduct_removing_last(covering).blocks} == expected

    @given(coverings())
    def test_reduct_is_irreducible_and_covers(self, covering):
        result = reduct(covering)
        assert reducible_block_indices(result) == ()
        assert result.covers_universe()
        assert isinstance(result, Covering)


class TestImmured:
    def test_chain_b(self, chain_b):
        assert immured_block_indices(chain_b) == (0, 1, 2)
        assert [b.labels() for b in exclusion(chain_b).blocks] == [("1", "2", "3")]

    def test_partitions_have_none(self):
        partition = cov("universe: 1 2\nblock: 1\nblock: 2")
        assert immured_block_indices(partition) == ()
        assert exclusion(partition) == partition

    def test_direct_containment(self):
        covering = cov("universe: a b\nblock: a b\nblock: a")
        assert immured_block_indices(covering) == (1,)
        covering = cov("universe: a b c\nblock: a b\nblock: a\nblock: c")
        assert [b.labels() for b in exclusion(covering).blocks] == [("a", "b"), ("c",)]

    @given(coverings())
    def test_exclusion_has_no_immured_blocks_and_covers(self, covering):
        result = exclusion(covering)
        assert immured_block_indices(result) == ()
        assert result.covers_universe()
        assert isinstance(result, Covering)


class TestNeighborhoodInvariance:
    @given(coverings(max_m=6))
    def test_immured_removal_preserves_indiscernible(self, covering):
        table = NeighborhoodTable.build(covering)
        for k in immured_block_indices(covering):
            shrunk = as_covering(covering.without_block(k))
            after = NeighborhoodTable.build(shrunk)
            assert after.indiscernible == table.indiscernible

    @given(coverings(max_m=6))
    def test_reducible_removal_preserves_neighborhoods(self, covering):
        table = NeighborhoodTable.build(covering)
        for k in reducible_block_indices(covering):
            shrunk = as_covering(covering.without_block(k))
            after = NeighborhoodTable.build(shrunk)
            assert after.neighborhood == table.neighborhood

    @given(coverings(max_m=6))
    def test_partition_exclusion_forces_indiscernible_partition(self, covering):
        if is_partition(exclusion(covering)):
            assert forms_partition(NeighborhoodTable.build(covering).indiscernible)

    @given(coverings(max_m=6))
    def test_partition_reduct_forces_neighborhood_partition(self, covering):
        if is_partition(reduct(covering)):
            assert forms_partition(NeighborhoodTable.build(covering).neighborhood)


def test_report_indices_refer_to_original_order(chain_b):
    report = reduction_report(chain_b)
    assert report.immured_blocks == (0, 1, 2)
    assert report.reducible_blocks == (3,)
    assert report.exclusion.m == 1
    assert {b.mask for b in report.reduct.blocks} == {
        chain_b.blocks[0].mask,
        chain_b.blocks[1].mask,
        chain_b.blocks[2].mask,
    }
