import random
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covlat import (
    ElementSet,
    GuardExceeded,
    FlatLattice,
    InternalConsistencyError,
    NeighborhoodTable,
    PartitionMatroid,
    SetFamily,
    TransversalMatroid,
    Universe,
    UpperOperator,
    as_covering,
    check_containments,
    check_deletion_monotonicity,
    check_reduct_exclusion_containments,
    check_reduction_preservation,
    closure_operator_verdict,
    enumerate_lattice,
    full_relation_report,
)
from covlat import reduction, relations
from covlat.relations import ClaimRecord, DeletionReads, RelationReport
from covlat.generators import (
    partition_with_nested_block,
    partition_with_union_block,
    random_covering,
    random_partition,
)
from conftest import (
    cov,
    density_covering,
    fam,
    reads_and_lattice,
    relation_inputs,
    report_inputs,
    subsets,
    table_and_verdicts,
    transversal_and_lattice,
)
from strategies import coverings, families, loopy_families, partitions, reducible_coverings

INPUTS = Path(__file__).resolve().parent / "inputs"
DATA = Path(__file__).resolve().parent.parent / "data"


def by_claim(report):
    return {r.claim: r for r in report.records}


def deletion(family):
    return check_deletion_monotonicity(*reads_and_lattice(family))


PAIR = ("independents", "flats")


def deleted_masks(reads):
    """The block bitmasks the checks read: each single block if there are
    two or more, then the reduct's and the exclusion's dropped blocks."""
    m = reads.whole.family.m
    return [1 << i for i in range(m) if m > 1] + reads.masks


def fresh_records(family, lattice, masks):
    """The reference for the deletion reads: the claim pair of each block
    bitmask D in masks, decided on L's flats by a fresh matroid of the
    family less D.  A D of every block (the exclusion of repeated blocks)
    leaves no family: every element is a loop and E, L's top, the one flat,
    so both claims hold."""
    report = RelationReport()
    for deleted in masks:
        if deleted == (1 << family.m) - 1:
            relations._record_within(report, PAIR, None, None)
            continue
        smaller = TransversalMatroid(family.without(deleted))
        relations._record_on_flats(report, PAIR, smaller, lattice)
    return report.records


def derived_records(reads, lattice, masks):
    """The same claim pairs as the deletion reads record them."""
    report = RelationReport()
    relations._record_without(report, reads, lattice, [(PAIR, d, None) for d in masks])
    return report.records


class TestContainments:
    def test_mixed5_all_applicable_claims_hold(self, mixed5):
        report = check_containments(*relation_inputs(mixed5))
        claims = by_claim(report)
        for name in (
            "sh-independents-within-transversal",
            "sh-flats-within-transversal-flats",
            "indiscernible-neighborhoods-are-transversal-flats",
            "xh-vh-operators-coincide",
            "sh-independents-within-xh",
            "sh-flats-within-xh-flats",
        ):
            assert claims[name].applicable and claims[name].holds, name
        assert not claims["partition-structures-coincide"].applicable

    def test_doubled9_gating(self, doubled9):
        report = check_containments(*relation_inputs(doubled9))
        claims = by_claim(report)
        assert not claims["sh-independents-within-transversal"].applicable
        assert claims["xh-vh-operators-coincide"].holds
        assert not claims["sh-independents-within-xh"].applicable

    def test_partition_structures_coincide(self):
        partition = cov("universe: 1 2 3 4\nblock: 1 2\nblock: 3\nblock: 4")
        report = check_containments(*relation_inputs(partition))
        claims = by_claim(report)
        assert claims["partition-structures-coincide"].holds

    def test_partition_structures_differ_on_another_lattice_or_classes(self):
        # handed the lattice or the verdicts of a coarser partition, or of
        # another one with as many blocks, the claim fails
        universe = "universe: 1 2 3 4\n"
        partition = cov(universe + "block: 1 2\nblock: 3\nblock: 4")
        table, verdicts, transversal, lattice = relation_inputs(partition)
        for blocks in ("block: 1 2\nblock: 3 4", "block: 1\nblock: 2 3\nblock: 4"):
            _, other_verdicts, _, other_lattice = relation_inputs(cov(universe + blocks))
            for args, witness in (
                ((verdicts, transversal, other_lattice), "flat lattices differ"),
                ((other_verdicts, transversal, lattice), "operator classes differ from the blocks"),
            ):
                record = by_claim(check_containments(table, *args))["partition-structures-coincide"]
                assert record.holds is False and record.witness == witness

    def test_inapplicable_records_carry_preconditions(self, chain_b):
        report = check_containments(*relation_inputs(chain_b))
        for record in report.records:
            if not record.applicable:
                assert record.precondition
                assert record.holds is None

    @given(coverings(max_n=5))
    def test_no_failures_on_random_coverings(self, covering):
        assert check_containments(*relation_inputs(covering)).failures() == []


class TestWeakMapCriterion:
    """The flat criterion against a subset sweep written here, on seeded
    random structures over one universe of at most 7 elements."""

    @staticmethod
    def structures(rng):
        n = rng.randint(1, 7)
        universe = Universe(tuple(str(i + 1) for i in range(n)))
        blocks = [
            ElementSet(universe, rng.randrange(1, 1 << n)) for _ in range(rng.randint(1, 5))
        ]
        kept = [b for b in blocks if rng.random() < 0.5] or blocks[:1]
        owner = [rng.randrange(n) for _ in range(n)]
        classes = [
            ElementSet(universe, sum(1 << e for e in range(n) if owner[e] == c))
            for c in sorted(set(owner))
        ]
        # a family, one of its subfamilies and a partition matroid
        return universe, (
            TransversalMatroid(SetFamily(universe, blocks)),
            TransversalMatroid(SetFamily(universe, kept)),
            PartitionMatroid(universe, classes),
        )

    def test_agrees_with_subset_sweep(self):
        rng = random.Random(9)
        pairs = failing = 0
        # quotient failures, keyed by whether the weak map holds
        unclosed_found = {True: 0, False: 0}
        for _ in range(150):
            universe, (whole, sub, partition) = self.structures(rng)
            # both orientations, so that failing pairs occur
            orientations = ((sub, whole), (whole, sub), (partition, whole), (whole, partition))
            for smaller, larger in orientations:
                expected = any(
                    smaller.is_independent(x) and not larger.is_independent(x)
                    for x in subsets(universe)
                )
                lattice = enumerate_lattice(larger)
                witness = relations._separating_on_flats(smaller, lattice)
                assert (witness is not None) == expected
                if witness is not None:
                    failing += 1
                    assert smaller.is_independent(witness)
                    assert not larger.is_independent(witness)
                pairs += 1
                # the quotient criterion against the smaller structure's own flats
                unclosed = relations._unclosed_on_flats(smaller, lattice, witness)
                assert (unclosed is not None) == any(
                    larger.closure(flat) != flat for flat in enumerate_lattice(smaller).flats
                )
                if unclosed is not None:
                    unclosed_found[witness is None] += 1
                    assert smaller.closure(unclosed) == unclosed
                    assert larger.closure(unclosed) != unclosed
        assert 0.2 * pairs < failing < 0.8 * pairs
        assert unclosed_found[True] and unclosed_found[False]

    def test_a_set_that_separates_nothing_is_an_internal_error(self):
        # every prefix closure of {1 2} is a flat when S is L itself
        family = fam("universe: 1 2\nblock: 1 2\nblock: 1 2")
        matroid = TransversalMatroid(family)
        with pytest.raises(InternalConsistencyError):
            relations._unclosed_on_flats(
                matroid, enumerate_lattice(matroid), family.universe.full()
            )

    def test_witness_is_the_greedy_basis_of_the_first_failing_flat(self):
        # one block against two copies of it: the only flats of the one
        # block are {} and {1 2 3}, of height 1, where the two copies have
        # rank 2; the greedy basis is {1 2}, not the flat itself
        family = fam("universe: 1 2 3\nblock: 1 2 3\nblock: 1 2 3")
        smaller, larger = TransversalMatroid(family), TransversalMatroid(family.without(1 << 1))
        witness = relations._separating_on_flats(smaller, enumerate_lattice(larger))
        assert witness == family.universe.subset(["1", "2"])


class TestOperatorClaimsAgainstSweeps:
    """xh-vh-operators-coincide and the sh-within-xh pair against 2^n sweeps
    written here, on seeded coverings of at most 7 elements whose gates
    pass, as built and with a corrupted neighbourhood table."""

    @staticmethod
    def gated_coverings(need_sh):
        rng = random.Random(21)
        found = []
        while len(found) < 60:
            if len(found) % 2:
                covering, _ = partition_with_union_block(rng, max_n=7)
            else:
                covering = random_covering(rng, max_n=7, max_m=6)
            _, verdicts = table_and_verdicts(covering)
            if verdicts[UpperOperator.XH].is_closure and (
                verdicts[UpperOperator.SH].is_closure or not need_sh
            ):
                found.append(covering)
        return found

    def test_xh_vh_agrees_with_sweep(self):
        rng = random.Random(22)
        failing = 0
        for covering in self.gated_coverings(need_sh=False):
            table, verdicts, transversal, lattice = relation_inputs(covering)
            universe = covering.universe
            # a grown neighbourhood; the verdicts still say xh is a closure
            # operator, so the claim is decided on the corrupted table
            e = rng.randrange(universe.n)
            grown = table.neighborhood[e] | ElementSet(universe, rng.randrange(1 << universe.n))
            corrupted = replace(
                table, neighborhood=table.neighborhood[:e] + (grown,) + table.neighborhood[e + 1 :]
            )
            for t in (table, corrupted):
                differ = next((x for x in subsets(universe) if t.xh(x) != t.vh(x)), None)
                record = by_claim(check_containments(t, verdicts, transversal, lattice))[
                    "xh-vh-operators-coincide"
                ]
                assert record.applicable
                assert record.holds is (differ is None)
                if differ is not None:
                    failing += 1
                    assert record.witness == f"operators differ on {differ!r}"
        assert failing >= 10

    def test_sh_within_xh_agrees_with_sweep(self):
        rng = random.Random(23)
        failing = 0
        for covering in self.gated_coverings(need_sh=True):
            table = NeighborhoodTable.build(covering)
            transversal, lattice = transversal_and_lattice(covering)
            universe = covering.universe
            # merge the neighbourhood classes of two elements, b outside the
            # sh class of a where there is one: still a partition, so xh
            # stays a closure operator, with coarser classes
            a = rng.randrange(universe.n)
            outside = [e for e in range(universe.n) if not table.indiscernible[a].has_index(e)]
            b = rng.choice(outside or [a])
            merged = table.neighborhood[a] | table.neighborhood[b]
            corrupted = replace(
                table,
                neighborhood=tuple(merged if n & merged else n for n in table.neighborhood),
            )
            for t in (table, corrupted):
                verdicts = {kind: closure_operator_verdict(t, kind) for kind in UpperOperator}
                assert verdicts[UpperOperator.XH].is_closure
                sh, xh = (
                    PartitionMatroid(universe, verdicts[kind].classes)
                    for kind in (UpperOperator.SH, UpperOperator.XH)
                )
                report = check_containments(t, verdicts, transversal, lattice)
                independents = by_claim(report)["sh-independents-within-xh"]
                flats = by_claim(report)["sh-flats-within-xh-flats"]
                separated = [
                    x for x in subsets(universe) if sh.is_independent(x) and not xh.is_independent(x)
                ]
                unclosed = [x for x in subsets(universe) if sh.closure(x) == x != xh.closure(x)]
                assert independents.holds is (not separated)
                assert flats.holds is (not unclosed)
                if separated:
                    failing += 1
                    assert any(
                        independents.witness == f"{x!r} separates the families" for x in separated
                    )
                    assert any(
                        flats.witness == f"{x!r} is not closed in the larger structure"
                        for x in unclosed
                    )
        assert failing >= 10


class TestDeletionMonotonicity:
    def test_corrected_three_element_family(self, family3):
        matroid = TransversalMatroid(family3)
        shrunk = TransversalMatroid(family3.without(1 << 2))
        u = family3.universe
        expected_independents = {
            u.subset(members).mask
            for members in ([], ["1"], ["2"], ["3"], ["1", "3"], ["1", "2"], ["2", "3"])
        }
        actual = {x.mask for x in subsets(u) if shrunk.is_independent(x)}
        assert actual == expected_independents
        # the full family is free: every subset is independent
        assert all(matroid.is_independent(x) for x in subsets(u))
        report = deletion(family3)
        assert [r.claim for r in report.records][4:] == [
            "deletion-shrinks-independents[K3]",
            "deletion-shrinks-flats[K3]",
        ]
        assert all(r.holds for r in report.records)

    def test_flat_containment_golden(self, family3):
        shrunk = TransversalMatroid(family3.without(1 << 2))
        flats = enumerate_lattice(shrunk).flats
        u = family3.universe
        assert {f.mask for f in flats} == {
            u.subset(members).mask
            for members in ([], ["1"], ["2"], ["3"], ["1", "2", "3"])
        }

    def test_duplicate_block_deletion(self):
        family = fam("universe: 1 2 3\nblock: 1 2\nblock: 1 2\nblock: 3")
        report = deletion(family)
        assert len(report.records) == 6
        assert all(r.holds for r in report.records)

    def test_single_block_family_is_skipped(self):
        family = fam("universe: 1\nblock: 1")
        report = deletion(family)
        assert [(r.claim, r.applicable) for r in report.records] == [
            ("deletion-shrinks-independents", False),
            ("deletion-shrinks-flats", False),
        ]

    def test_block_classification_noted(self, nested3):
        report = deletion(nested3)
        notes = {r.claim: r.note for r in report.records}
        assert notes["deletion-shrinks-flats[K1]"] == "block K1 is immured"
        assert notes["deletion-shrinks-flats[K3]"] == "block K3 is reducible"

    def test_another_lattice_fails_as_fresh_matroids_of_the_deleted_families_do(self):
        # a family's own pass records on its own lattice what fresh matroids
        # of the families its deletions leave record.  Handed the lattice of
        # a subfamily or of another covering, where those fresh matroids
        # fail claims, the deletion, reduct and exclusion checks refuse it
        rng = random.Random(41)
        cases = failing = 0
        # failing flats claims, keyed by whether the independents claim holds
        flats_failures = {True: 0, False: 0}
        for _ in range(30):
            n = rng.randint(3, 8)
            covering = density_covering(rng, n, rng.randint(3, n + 1))
            reads, lattice = reads_and_lattice(covering)
            sub = covering.without(1 << rng.randrange(covering.m))
            other = density_covering(rng, n, rng.randint(2, n + 1))
            for family in (sub, other):
                own_reads, foreign = reads_and_lattice(family)
                own_masks = deleted_masks(own_reads)
                own = derived_records(own_reads, foreign, own_masks)
                assert own == fresh_records(family, foreign, own_masks)
                if foreign.flats == lattice.flats:
                    continue
                for check in (check_deletion_monotonicity, check_reduct_exclusion_containments):
                    with pytest.raises(InternalConsistencyError, match="deletion reads folded"):
                        check(reads, foreign)
                fresh = fresh_records(covering, foreign, deleted_masks(reads))
                cases += 1
                failing += any(record.holds is False for record in fresh)
                for independents, flats in zip(fresh[::2], fresh[1::2]):
                    if flats.holds is False:
                        flats_failures[independents.holds] += 1
        # a foreign lattice need not break every claim (38 of 42 cases do)
        assert 0.8 * cases < failing and cases > 30
        assert flats_failures[True] and flats_failures[False]

    @given(families(max_n=5, max_m=5))
    def test_holds_for_every_block(self, family):
        if family.m < 2:
            return
        report = deletion(family)
        assert len(report.records) == 2 * family.m
        assert report.failures() == []


class TestReductExclusionContainments:
    @given(coverings(max_n=5))
    def test_hold_on_random_coverings(self, covering):
        report = check_reduct_exclusion_containments(*reads_and_lattice(covering))
        assert report.failures() == []


class TestReductionPreservation:
    def test_nested3_sh_survives_immured_removal(self, nested3):
        report = check_reduction_preservation(*table_and_verdicts(nested3))
        claims = [r for r in report.records if r.claim == "sh-closure-survives-immured-removal"]
        assert claims and all(r.holds for r in claims)

    def test_nested3_reducible_removal_breaks_sh(self, nested3):
        report = check_reduction_preservation(*table_and_verdicts(nested3))
        notes = [r for r in report.records if r.claim == "sh-after-reducible-removal"]
        assert len(notes) == 1
        assert "breaks" in notes[0].note

    def test_chain_a_immured_removal_breaks_xh(self, chain_a):
        report = check_reduction_preservation(*table_and_verdicts(chain_a))
        notes = {
            r.note for r in report.records if r.claim == "xh-after-immured-removal"
        }
        assert any("breaks" in note for note in notes)

    def test_chain_b_immured_removal_breaks_vh(self, chain_b):
        report = check_reduction_preservation(*table_and_verdicts(chain_b))
        notes = [r for r in report.records if r.claim == "vh-after-immured-removal"]
        assert any(r.note and "K1" in r.note and "breaks" in r.note for r in notes)

    def test_targeted_nested_blocks_preserve_sh(self):
        rng = random.Random(11)
        for _ in range(20):
            covering, _ = partition_with_nested_block(rng, max_n=6)
            report = check_reduction_preservation(*table_and_verdicts(covering))
            claims = [
                r
                for r in report.records
                if r.claim == "sh-closure-survives-immured-removal" and r.applicable
            ]
            assert claims and all(r.holds for r in claims)

    def test_targeted_union_blocks_preserve_xh_and_vh(self):
        rng = random.Random(12)
        for _ in range(20):
            covering, _ = partition_with_union_block(rng, max_n=6)
            report = check_reduction_preservation(*table_and_verdicts(covering))
            for name in (
                "xh-closure-survives-reducible-removal",
                "vh-closure-survives-reducible-removal",
            ):
                claims = [r for r in report.records if r.claim == name and r.applicable]
                assert claims and all(r.holds for r in claims)

    @given(coverings(max_n=5))
    def test_no_failures_on_random_coverings(self, covering):
        assert check_reduction_preservation(*table_and_verdicts(covering)).failures() == []

    def test_block_both_reducible_and_immured_gets_one_verdict_per_operator(self, monkeypatch):
        # {1 2} is the union of {1} and {2} and lies inside {1 2 3}: both
        # loops remove it, and sh and vh stay closure operators throughout
        covering = cov("universe: 1 2 3\nblock: 1\nblock: 2\nblock: 1 2\nblock: 1 2 3")
        table, verdicts = table_and_verdicts(covering)
        calls = []

        def counted(*args):
            calls.append(args)
            return verdict(*args)

        verdict = relations.closure_operator_verdict
        monkeypatch.setattr(relations, "closure_operator_verdict", counted)
        report = check_reduction_preservation(table, verdicts)
        # sh without K1, K2, K3; vh without K3, then vh without K1, K2
        assert len(calls) == 6
        assert len({id(t) for t, _ in calls}) == 3
        assert [(r.claim, r.applicable, r.holds, r.note) for r in report.records] == [
            ("sh-closure-survives-immured-removal", True, True, "checked block K1"),
            ("sh-closure-survives-immured-removal", True, True, "checked block K2"),
            ("sh-closure-survives-immured-removal", True, True, "checked block K3"),
            ("xh-closure-survives-reducible-removal", False, None, None),
            ("vh-closure-survives-reducible-removal", True, True, "checked block K3"),
            ("sh-after-reducible-removal", True, None, "removing K3 keeps the closure property"),
            ("vh-after-immured-removal", True, None, "removing K1 keeps the closure property"),
            ("vh-after-immured-removal", True, None, "removing K2 keeps the closure property"),
            ("vh-after-immured-removal", True, None, "removing K3 keeps the closure property"),
        ]


class TestDeletionReads:
    """The outcomes folded while L is enumerated against fresh matroids of
    the deleted families, and the refusal of a pass that has not read L or
    a read that raises a rank."""

    # its exclusion drops K1, K3 and K5 and keeps 34 closures that are
    # neither their flat nor one of its covers
    KEEPS = (
        "universe: 1 2 3 4 5 6\n"
        "block: 1\nblock: 3 4 5 6\nblock: 6\nblock: 1 2\nblock: 3\nblock: 1 4"
    )

    @given(st.one_of(coverings(max_n=7, max_m=6), reducible_coverings()))
    def test_fused_outcomes_equal_fresh_matroids_over_the_lattice(self, covering):
        # reducible_coverings drop two or more blocks in the reduct: the
        # surgery path
        whole = TransversalMatroid(covering)
        reads = DeletionReads(whole)
        lattice = enumerate_lattice(reads)
        assert lattice.flats == enumerate_lattice(whole).flats
        masks = deleted_masks(reads)
        assert derived_records(reads, lattice, masks) == fresh_records(covering, lattice, masks)

    @staticmethod
    def assert_single_block_reads_are_never_recorded(family):
        # the enumeration pass reads no single block: each such read of a
        # flat F of rank r is F at rank r or r - 1, or a cover of F at rank
        # r, which fold would not keep; and the pairs it records without
        # them are those of fresh matroids of the deleted families
        whole = TransversalMatroid(family)
        reads = DeletionReads(whole)
        lattice = enumerate_lattice(reads)
        singles = [1 << i for i in range(family.m)]
        for flat, height in zip(lattice.flats, lattice.heights):
            rank, covers, single_reads = whole._search(flat, singles, True)
            assert rank == height
            for r, closed in single_reads:
                if closed == flat.mask:
                    assert r in (rank, rank - 1)
                else:
                    assert closed in covers and r == rank
        assert len(reads.masks) == 2
        masks = deleted_masks(reads)
        assert derived_records(reads, lattice, masks) == fresh_records(family, lattice, masks)

    @given(loopy_families())
    def test_single_block_reads_are_never_recorded_on_families(self, family):
        # blocks may repeat and leave elements in no block
        self.assert_single_block_reads_are_never_recorded(family)

    @pytest.mark.parametrize("n", range(8, 15))
    def test_single_block_reads_are_never_recorded_on_density_coverings(self, n):
        self.assert_single_block_reads_are_never_recorded(
            density_covering(random.Random(n), n, n // 2 + 1)
        )

    @given(reducible_coverings())
    def test_the_reduct_of_a_covering_with_two_unions_drops_two_blocks(self, covering):
        reads = DeletionReads(TransversalMatroid(covering))
        reduct_mask = reads.masks[0]
        assert reduct_mask & reduct_mask - 1
        lattice = enumerate_lattice(reads)
        assert reads.outcomes(lattice)[reduct_mask] is None

    def test_unclosed_closures_are_kept_until_the_lattice_is_known(self):
        # the exclusion is a quotient of M: every closure it keeps is a flat
        # of L, so nothing is unclosed however many closures were kept
        covering = cov(self.KEEPS)
        reads, lattice = reads_and_lattice(covering)
        assert reads.masks[-1] == 0b10101
        assert len(reads.kept[-1]) == 34
        assert reads.outcomes(lattice)[0b10101] is None
        masks = deleted_masks(reads)
        assert derived_records(reads, lattice, masks) == fresh_records(covering, lattice, masks)

    def test_the_first_unclosed_closure_is_chosen_in_the_lattice_order(self, mixed5):
        # a flat of M \\ D is always one of M, so fold sets that are not: the
        # answer is the kept closure of the first flat in L's order, whatever
        # order the flats were folded in
        whole, lattice = transversal_and_lattice(mixed5)
        outside = [x for x in range(1 << mixed5.universe.n) if x not in lattice._index]
        assert len(outside) == len(lattice)
        reads = DeletionReads(whole)
        for flat, closed in reversed(list(zip(lattice.flats, outside))):
            reads.fold(flat.mask, mixed5.universe.n, [(0, closed)] * 2, [])
        first = ElementSet(mixed5.universe, outside[0])
        assert reads.outcomes(lattice)[reads.masks[0]] == first

    def test_a_read_above_its_flat_rank_raises(self, mixed5):
        # M \\ D is a quotient of M: no deletion raises a flat's rank
        whole, lattice = transversal_and_lattice(mixed5)
        reads = DeletionReads(whole)
        flat = lattice.flats[1]
        with pytest.raises(InternalConsistencyError, match="has rank 2 > 1"):
            reads.fold(flat.mask, 1, [(1, flat.mask), (2, flat.mask)], [])

    def test_a_guard_trip_gives_the_skip_rows_of_no_lattice(self, monkeypatch):
        monkeypatch.setenv("COVLAT_MAX_LATTICE_SIZE", "8")
        covering = cov((INPUTS / "partition_20.cov").read_text())
        table, verdicts = table_and_verdicts(covering)
        whole = TransversalMatroid(covering)
        reads = DeletionReads(whole)
        with pytest.raises(GuardExceeded):
            enumerate_lattice(reads)
        tripped = full_relation_report(table, verdicts, reads, None)
        unread = full_relation_report(table, verdicts, DeletionReads(whole), None)
        assert tripped.records == unread.records
        guard = "flat lattice exceeds the guard of 8 flats (at least 9 exist)"
        # the deletion pairs, the reduct and exclusion pairs, and the three
        # containment claims that read L
        assert sum(r.precondition == guard for r in tripped.records) == 2 * covering.m + 4 + 3

    def test_a_pass_that_has_read_no_lattice_is_refused(self, mixed5):
        # handed L, the report and each deletion check refuse a pass that
        # never read it, or stopped at a guard, rather than pass every claim
        table, verdicts = table_and_verdicts(mixed5)
        whole, lattice = transversal_and_lattice(mixed5)
        tripped = DeletionReads(whole)
        with pytest.raises(GuardExceeded):
            enumerate_lattice(tripped, 3)
        for reads, folded in ((DeletionReads(whole), 0), (tripped, tripped.folded)):
            assert folded < len(lattice) == 16
            for check in (
                lambda reads, lattice: full_relation_report(table, verdicts, reads, lattice),
                check_deletion_monotonicity,
                check_reduct_exclusion_containments,
            ):
                with pytest.raises(
                    InternalConsistencyError, match=f"folded {folded} flats, not the 16 of L"
                ):
                    check(reads, lattice)

    def test_a_foreign_lattice_is_refused(self):
        # the lattice of mixed_pairs.cov less K1, handed in with the whole
        # covering's pass: fresh matroids of the families less K4, the
        # reduct's and the exclusion's blocks fail there, and the pass,
        # which enumerated the whole covering's lattice, refuses it
        covering = cov((DATA / "mixed_pairs.cov").read_text())
        table, verdicts = table_and_verdicts(covering)
        reads, lattice = reads_and_lattice(covering)
        foreign = enumerate_lattice(TransversalMatroid(covering.without(1)))
        fresh = fresh_records(covering, foreign, deleted_masks(reads))
        assert [r.witness for r in fresh if r.holds is False] == [
            "{1 2 3} separates the families",
            "{1 2 4 5} is not closed in the larger structure",
            "{1 2 3} separates the families",
            "{1 2} is not closed in the larger structure",
            "{1 2 3} separates the families",
            "{1 2} is not closed in the larger structure",
        ]
        assert len(foreign) != len(lattice)
        for reads in (reads, DeletionReads(reads.whole)):
            with pytest.raises(InternalConsistencyError, match="deletion reads folded"):
                full_relation_report(table, verdicts, reads, foreign)


class TestFullReport:
    def test_builds_no_lattice(self, monkeypatch):
        # every claim reads the lattice it is handed
        rng = random.Random(31)
        inputs = [report_inputs(cov((INPUTS / "density_14.cov").read_text()))]
        for n in range(4, 11):
            inputs.append(report_inputs(density_covering(rng, n, rng.randint(2, n))))
            partition = random_partition(rng, max_n=n, min_classes=2)
            inputs.append(report_inputs(as_covering(partition)))
        constructed = []
        construct = FlatLattice.__init__

        def count_constructions(lattice, *args):
            constructed.append(lattice)
            construct(lattice, *args)

        monkeypatch.setattr(FlatLattice, "__init__", count_constructions)
        for args in inputs:
            report = full_relation_report(*args)
            assert report.failures() == []
            assert by_claim(report)["deletion-shrinks-flats[K1]"].holds
        assert constructed == []

    def test_matches_each_flat_once_for_every_deleted_family(self, monkeypatch):
        # the enumeration through the deletion reads matches each flat once
        # for every block deletion, the reduct and the exclusion, so the
        # report matches nothing and builds no deleted family; fresh
        # matroids of the deleted families record the same pairs on L
        covering = cov((INPUTS / "density_14.cov").read_text())
        args = report_inputs(covering)
        reads, lattice = args[-2:]
        matched = Counter()
        match = TransversalMatroid._maximum_matching

        def counted_match(matroid, mask):
            matched[mask] += 1
            return match(matroid, mask)

        monkeypatch.setattr(TransversalMatroid, "_maximum_matching", counted_match)
        built = []
        monkeypatch.setattr(relations, "TransversalMatroid", built.append)
        report = full_relation_report(*args)
        assert report.failures() == []
        assert sum("deletion-shrinks" in r.claim for r in report.records) == 2 * covering.m
        assert sum("-within-original" in r.claim for r in report.records) == 4
        assert built == [] and matched == Counter()
        monkeypatch.undo()
        masks = deleted_masks(reads)
        assert derived_records(reads, lattice, masks) == fresh_records(covering, lattice, masks)

    def test_finds_the_reducible_and_immured_blocks_once(self, monkeypatch, nested3):
        # the deletion notes, the reduct and exclusion rows and the
        # preservation checks all read one reduction report (each check
        # finding its own made three calls of each)
        calls = Counter()
        for name in ("reducible_block_indices", "immured_block_indices"):
            found = getattr(reduction, name)

            def counted(covering, name=name, found=found):
                calls[name] += 1
                return found(covering)

            for module in (reduction, relations):
                monkeypatch.setattr(module, name, counted, raising=False)
        for covering in (cov((INPUTS / "density_14.cov").read_text()), nested3):
            calls.clear()
            report = full_relation_report(*report_inputs(covering))
            assert report.failures() == []
            assert calls == {"reducible_block_indices": 1, "immured_block_indices": 1}

    def test_mixed5_clean(self, mixed5):
        report = full_relation_report(*report_inputs(mixed5))
        assert report.failures() == []
        assert any("[K" in r.claim for r in report.records)

    def test_report_round_trips_to_dict(self, mixed5):
        report = full_relation_report(*report_inputs(mixed5))
        data = report.to_dict()
        assert len(data["claims"]) == len(report.records)
        for row, record in zip(data["claims"], report.records):
            assert row["claim"] == record.claim
            assert row["holds"] == record.holds

    def test_record_dicts_are_their_asdict(self, mixed5, doubled9):
        # the same keys in the same order, with the same values
        records = [ClaimRecord("claim", True, "precondition", False, "witness", "note")]
        for covering in (mixed5, doubled9):
            records += full_relation_report(*report_inputs(covering)).records
        for record in records:
            assert list(record.to_dict().items()) == list(asdict(record).items())

    @given(partitions(max_n=5))
    def test_partitions_are_fully_clean(self, partition):
        report = full_relation_report(*report_inputs(partition))
        assert report.failures() == []
        claims = by_claim(report)
        assert claims["partition-structures-coincide"].holds
