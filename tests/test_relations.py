import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given

from covlat import (
    ElementSet,
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
from covlat import relations
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
    relation_inputs,
    subsets,
    table_and_verdicts,
    transversal_and_lattice,
)
from strategies import coverings, families, partitions

INPUTS = Path(__file__).resolve().parent / "inputs"


def by_claim(report):
    return {r.claim: r for r in report.records}


def deletion(family):
    return check_deletion_monotonicity(*transversal_and_lattice(family))


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
        smaller, larger = TransversalMatroid(family), TransversalMatroid(family.without_block(1))
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
                    x for x in subsets(universe) if sh.is_independent(x) and xh.is_dependent(x)
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
        shrunk = TransversalMatroid(family3.without_block(2))
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
        shrunk = TransversalMatroid(family3.without_block(2))
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

    def test_another_lattice_fails_as_fresh_matroids_of_the_deleted_families_do(
        self, monkeypatch
    ):
        # handed the lattice of a subfamily or of another covering, the
        # deletion, reduct and exclusion checks report what they report on
        # fresh matroids of the families the deletions leave
        def reports(whole, lattice):
            records = check_deletion_monotonicity(whole, lattice).records
            return records + check_reduct_exclusion_containments(whole, lattice).records

        def fresh(report, whole, lattice, deletions):
            for claims, _, subfamily, note in deletions:
                smaller = TransversalMatroid(subfamily)
                relations._record_on_flats(report, claims, smaller, lattice, note)

        rng = random.Random(41)
        cases = failing = 0
        # failing flats claims, keyed by whether the independents claim holds
        flats_failures = {True: 0, False: 0}
        for _ in range(30):
            n = rng.randint(3, 8)
            covering = density_covering(rng, n, rng.randint(3, n + 1))
            whole, lattice = transversal_and_lattice(covering)
            sub = covering.without_block(rng.randrange(covering.m))
            other = density_covering(rng, n, rng.randint(2, n + 1))
            for family in (sub, other):
                foreign = transversal_and_lattice(family)[1]
                if foreign.flats == lattice.flats:
                    continue
                derived = reports(whole, foreign)
                with monkeypatch.context() as patch:
                    patch.setattr(relations, "_record_without", fresh)
                    assert derived == reports(whole, foreign)
                cases += 1
                failing += any(record.holds is False for record in derived)
                for independents, flats in zip(derived[::2], derived[1::2]):
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
        report = check_reduct_exclusion_containments(*transversal_and_lattice(covering))
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


class TestFullReport:
    def test_builds_no_lattice(self, monkeypatch):
        # every claim reads the lattice it is handed
        rng = random.Random(31)
        inputs = [relation_inputs(cov((INPUTS / "density_14.cov").read_text()))]
        for n in range(4, 11):
            inputs.append(relation_inputs(density_covering(rng, n, rng.randint(2, n))))
            partition = random_partition(rng, max_n=n, min_classes=2)
            inputs.append(relation_inputs(as_covering(partition)))
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
        # the deletion check and the reduct/exclusion check each make one
        # pass over L: one matching per flat serves every family they delete
        covering = cov((INPUTS / "density_14.cov").read_text())
        args = relation_inputs(covering)
        lattice = args[-1]
        matched: dict[str, Counter] = {}
        current = [None]
        match = TransversalMatroid._maximum_matching

        def counted_match(matroid, mask):
            if current[0] is not None:
                matched[current[0]][mask] += 1
            return match(matroid, mask)

        def counted(name, check):
            def run(*args):
                assert name not in matched
                matched[name] = Counter()
                current[0] = name
                try:
                    return check(*args)
                finally:
                    current[0] = None

            return run

        checks = ("check_deletion_monotonicity", "check_reduct_exclusion_containments")
        monkeypatch.setattr(TransversalMatroid, "_maximum_matching", counted_match)
        for name in checks:
            monkeypatch.setattr(relations, name, counted(name, getattr(relations, name)))
        built = []
        monkeypatch.setattr(relations, "TransversalMatroid", built.append)
        report = full_relation_report(*args)
        assert report.failures() == []
        assert sum("deletion-shrinks" in r.claim for r in report.records) == 2 * covering.m
        assert built == []
        once = Counter(flat.mask for flat in lattice.flats)
        assert matched == {name: once for name in checks}

    def test_mixed5_clean(self, mixed5):
        report = full_relation_report(*relation_inputs(mixed5))
        assert report.failures() == []
        assert any("[K" in r.claim for r in report.records)

    def test_report_round_trips_to_dict(self, mixed5):
        report = full_relation_report(*relation_inputs(mixed5))
        data = report.to_dict()
        assert len(data["claims"]) == len(report.records)
        for row, record in zip(data["claims"], report.records):
            assert row["claim"] == record.claim
            assert row["holds"] == record.holds

    @given(partitions(max_n=5))
    def test_partitions_are_fully_clean(self, partition):
        report = full_relation_report(*relation_inputs(partition))
        assert report.failures() == []
        claims = by_claim(report)
        assert claims["partition-structures-coincide"].holds
