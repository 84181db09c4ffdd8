"""Acceptance suite: exact golden values plus seeded oracle-equivalence
campaigns.  Each test prints one pass/fail line; run with ``pytest -s`` to
see them.  All comparisons are exact (set equality, verdict equality); the
only tolerances are the stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager

from covlat import (
    LatticeInducedMatroid,
    NeighborhoodTable,
    SubmodularSystem,
    TransversalMatroid,
    UpperOperator,
    ab_decomposition,
    as_covering,
    brute_operator_axioms,
    closure_operator_verdict,
    enumerate_lattice,
    induced_partition_matroid,
    induced_rank,
    is_modular_element,
    is_modular_pair,
    modular_pair_by_heights,
    tra_condition,
)
from covlat.generators import (
    partition_with_nested_block,
    partition_with_union_block,
    random_covering,
    random_family,
    random_partition,
)
from covlat.oracle import BruteForce
from covlat.relations import check_reduction_preservation, full_relation_report
from conftest import (
    CHAIN_A,
    CHAIN_B,
    DOUBLED9,
    MIXED5,
    NESTED3,
    cov,
    report_inputs,
    subsets,
    table_and_verdicts,
)

ALL_KINDS = (UpperOperator.SH, UpperOperator.XH, UpperOperator.VH)

MIXED5_FLATS = [
    [],
    ["1"],
    ["2"],
    ["3"],
    ["4", "5"],
    ["1", "2"],
    ["1", "3"],
    ["2", "3"],
    ["1", "4", "5"],
    ["2", "4", "5"],
    ["3", "4", "5"],
    ["1", "2", "3"],
    ["1", "2", "4", "5"],
    ["1", "3", "4", "5"],
    ["2", "3", "4", "5"],
    ["1", "2", "3", "4", "5"],
]
MIXED5_SH_FLATS = [[], ["1", "2", "3"], ["4", "5"], ["1", "2", "3", "4", "5"]]


@contextmanager
def criterion(number: int, name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"acceptance {number:02d} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_flat_lattice_goldens():
    with criterion(1, "five-element covering flat lattices", 1.0):
        covering = cov(MIXED5)
        u = covering.universe
        lattice = enumerate_lattice(TransversalMatroid(covering))
        assert {f.mask for f in lattice.flats} == {
            u.subset(f).mask for f in MIXED5_FLATS
        }
        sh_lattice = enumerate_lattice(
            induced_partition_matroid(covering, UpperOperator.SH)
        )
        assert {f.mask for f in sh_lattice.flats} == {
            u.subset(f).mask for f in MIXED5_SH_FLATS
        }


def test_criterion_02_double_cover_goldens():
    with criterion(2, "nine-element covering neighborhoods and separations", 1.0):
        covering = cov(DOUBLED9)
        u = covering.universe
        table = NeighborhoodTable.build(covering)
        expected_neighborhoods = {
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
        for label, members in expected_neighborhoods.items():
            assert table.neighborhood[u.index(label)] == u.subset(members)
        matroid = TransversalMatroid(covering)
        xh_matroid = induced_partition_matroid(covering, UpperOperator.XH)
        five = u.subset(list("acfgi"))
        assert xh_matroid.is_independent(five) and not matroid.is_independent(five)
        three = u.subset(list("acd"))
        assert matroid.is_independent(three) and not xh_matroid.is_independent(three)
        abi = u.subset(["a", "b", "i"])
        assert table.xh(abi) == abi
        assert matroid.closure(abi) == u.subset(["a", "b", "c", "d", "e", "i"])


def test_criterion_03_reducible_removal_breaks_block_union_operator():
    with criterion(3, "reducible-block removal breaks sh", 1.0):
        covering = cov(NESTED3)
        assert table_and_verdicts(covering)[1][UpperOperator.SH].is_closure
        shrunk = NeighborhoodTable.build(as_covering(covering.without(1 << 2)))
        assert not closure_operator_verdict(shrunk, UpperOperator.SH).is_closure


def test_criterion_04_immured_removal_breaks_neighborhood_operators():
    with criterion(4, "immured-block removal breaks xh and vh", 1.0):
        chain_a = cov(CHAIN_A)
        assert table_and_verdicts(chain_a)[1][UpperOperator.XH].is_closure
        shrunk_a = NeighborhoodTable.build(as_covering(chain_a.without(1 << 0)))
        assert not closure_operator_verdict(shrunk_a, UpperOperator.XH).is_closure
        chain_b = cov(CHAIN_B)
        verdict = closure_operator_verdict(NeighborhoodTable.build(chain_b), UpperOperator.VH)
        assert verdict.is_closure
        assert [c.labels() for c in verdict.classes] == [("1",), ("2", "3")]
        shrunk_b = NeighborhoodTable.build(as_covering(chain_b.without(1 << 0)))
        assert not closure_operator_verdict(shrunk_b, UpperOperator.VH).is_closure


def _seeded_instances(count: int, seed: int, max_n: int, max_m: int):
    rng = random.Random(seed)
    makers = (
        lambda: random_family(rng, max_n, max_m),
        lambda: random_covering(rng, max_n, max_m),
        lambda: random_partition(rng, max_n),
    )
    return [makers[i % 3]() for i in range(count)]


def test_criterion_05_oracle_equivalence():
    with criterion(5, "matroid oracle equivalence over 200 seeded families", 60.0):
        for family in _seeded_instances(200, seed=501, max_n=7, max_m=7):
            oracle = BruteForce(family)
            matroid = TransversalMatroid(family)
            for x in subsets(family.universe):
                assert matroid.is_independent(x) == oracle.independent(x)
                assert matroid.rank(x) == oracle.rank(x)
                assert matroid.closure(x) == oracle.closure(x)
            lattice = enumerate_lattice(matroid)
            assert tuple(f.mask for f in lattice.flats) == tuple(
                f.mask for f in oracle.flats()
            )


def test_criterion_06_closure_criterion_equivalence():
    with criterion(6, "closure criteria match exhaustive axiom checks", 60.0):
        rng = random.Random(601)
        instances = [random_covering(rng, 6, 6) for _ in range(140)]
        instances += [random_partition(rng, 6) for _ in range(30)]
        instances += [partition_with_nested_block(rng, 6)[0] for _ in range(15)]
        instances += [partition_with_union_block(rng, 6)[0] for _ in range(15)]
        seen = {kind: set() for kind in ALL_KINDS}
        for covering in instances:
            table, verdicts = table_and_verdicts(covering)
            for kind in ALL_KINDS:
                verdict = verdicts[kind].is_closure
                axioms_hold, witness = brute_operator_axioms(covering, kind)
                assert verdict == axioms_hold, f"{kind} disagrees ({witness})"
                seen[kind].add(verdict)
            assert tra_condition(table) == verdicts[UpperOperator.SH].is_closure
        for kind in ALL_KINDS:
            assert seen[kind] == {True, False}, f"{kind} only exercised one direction"


def test_criterion_07_geometricity():
    with criterion(7, "every produced flat lattice is geometric", 120.0):
        rng = random.Random(701)
        lattices = []
        for family in _seeded_instances(120, seed=701, max_n=7, max_m=7):
            lattices.append(enumerate_lattice(TransversalMatroid(family)))
        for _ in range(40):
            covering = random_covering(rng, 6, 6)
            for verdict in table_and_verdicts(covering)[1].values():
                if verdict.is_closure:
                    lattices.append(
                        enumerate_lattice(verdict.partition_matroid(covering.universe))
                    )
        for lattice in lattices:
            check = lattice.is_geometric()
            assert check.ok, check.violation


def test_criterion_08_atom_formula():
    with criterion(8, "lattice atoms equal the block-difference prediction", 60.0):
        rng = random.Random(801)
        for _ in range(120):
            covering = random_covering(rng, 7, 7)
            lattice = enumerate_lattice(TransversalMatroid(covering))
            predicted = {a.mask for a in ab_decomposition(covering).predicted_atoms()}
            assert {a.mask for a in lattice.atoms()} == predicted


def test_criterion_09_lattice_matroid_round_trip():
    with criterion(9, "lattice-to-matroid round trip", 60.0):
        rng = random.Random(901)
        instances = [random_covering(rng, 6, 6) for _ in range(60)]
        instances += [random_partition(rng, 6) for _ in range(50)]
        for covering in instances:
            matroid = TransversalMatroid(covering)
            system = SubmodularSystem.from_flat_lattice(enumerate_lattice(matroid))
            rebuilt = LatticeInducedMatroid(system)
            for x in subsets(covering.universe):
                assert rebuilt.is_independent(x) == matroid.is_independent(x)
                assert induced_rank(system, x) == matroid.rank(x)


def test_criterion_10_structure_relation_suites():
    with criterion(10, "structure relations hold on every applicable instance", 120.0):
        rng = random.Random(1001)
        coverings = [random_covering(rng, 6, 6) for _ in range(80)]
        partitions = [random_partition(rng, 6) for _ in range(50)]
        targeted = [partition_with_nested_block(rng, 6)[0] for _ in range(10)]
        targeted += [partition_with_union_block(rng, 6)[0] for _ in range(10)]
        applicable_gated = 0
        for covering in coverings + targeted:
            report = full_relation_report(*report_inputs(covering))
            assert report.failures() == [], report.failures()[0]
            applicable_gated += sum(
                1
                for r in report.records
                if r.applicable
                and r.holds is not None
                and r.claim.startswith(("sh-", "xh-", "vh-"))
            )
        assert applicable_gated > 0, "gated claims never applied"
        for partition in partitions:
            report = full_relation_report(*report_inputs(partition))
            assert report.failures() == []
            coincide = [
                r for r in report.records if r.claim == "partition-structures-coincide"
            ]
            assert coincide and coincide[0].holds
        preserved = 0
        for covering in targeted:
            report = check_reduction_preservation(*table_and_verdicts(covering))
            assert report.failures() == []
            preserved += sum(
                1 for r in report.records if r.applicable and r.holds is not None
            )
        assert preserved > 0, "preservation claims never applied"


def test_criterion_11_modularity():
    with criterion(11, "atoms are modular via rank and height identities", 120.0):
        rng = random.Random(1101)
        for _ in range(40):
            covering = random_covering(rng, 6, 6)
            matroids = [TransversalMatroid(covering)]
            for verdict in table_and_verdicts(covering)[1].values():
                if verdict.is_closure:
                    matroids.append(verdict.partition_matroid(covering.universe))
            for matroid in matroids:
                lattice = enumerate_lattice(matroid)
                atoms = lattice.atoms()
                for i, x in enumerate(lattice.flats):
                    for y in lattice.flats[i:]:
                        assert is_modular_pair(
                            lattice, matroid, x, y
                        ) == modular_pair_by_heights(lattice, x, y)
                for i, a in enumerate(atoms):
                    for b in atoms[i:]:
                        assert is_modular_pair(lattice, matroid, a, b)
                    assert is_modular_element(lattice, matroid, a)
