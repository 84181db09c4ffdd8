import random

import pytest
from hypothesis import given

from covlat import (
    BruteForce,
    FlatLattice,
    InternalConsistencyError,
    NotAFlatError,
    PartitionMatroid,
    TransversalMatroid,
    Universe,
    UpperOperator,
    ab_decomposition,
    enumerate_lattice,
    induced_partition_matroid,
    is_modular_element,
    is_modular_pair,
    modular_pair_by_definition,
    modular_pair_by_heights,
)
from conftest import DOUBLED9, cov, density_covering
from strategies import coverings, families

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


@pytest.fixture
def mixed5_lattice(mixed5):
    return enumerate_lattice(TransversalMatroid(mixed5))


class TestEnumeration:
    def test_mixed5_exact_flats(self, mixed5, mixed5_lattice):
        expected = {mixed5.universe.subset(f).mask for f in MIXED5_FLATS}
        assert {f.mask for f in mixed5_lattice.flats} == expected
        assert len(mixed5_lattice) == 16

    def test_boolean_lattice_from_singleton_classes(self):
        universe = cov("universe: 1 2 3\nblock: 1\nblock: 2\nblock: 3").universe
        matroid = PartitionMatroid(universe, [universe.singleton(i) for i in range(3)])
        lattice = enumerate_lattice(matroid)
        assert len(lattice) == 8

    def test_free_matroid_on_one_element(self):
        covering = cov("universe: a\nblock: a")
        lattice = enumerate_lattice(TransversalMatroid(covering))
        assert [f.labels() for f in lattice.flats] == [(), ("a",)]

    def test_heights_equal_ranks(self, mixed5, mixed5_lattice):
        matroid = TransversalMatroid(mixed5)
        for flat, height in zip(mixed5_lattice.flats, mixed5_lattice.heights):
            assert matroid.rank(flat) == height

    def test_guard(self, mixed5):
        from covlat import GuardExceeded

        with pytest.raises(GuardExceeded, match="10"):
            enumerate_lattice(TransversalMatroid(mixed5), max_flats=10)

    @given(families(max_n=5, max_m=5))
    def test_flats_match_powerset_fixpoints(self, family):
        lattice = enumerate_lattice(TransversalMatroid(family))
        oracle = BruteForce(family)
        assert tuple(f.mask for f in lattice.flats) == tuple(
            f.mask for f in oracle.flats()
        )


def closing_every_extension(matroid) -> tuple[set[int], set[tuple[int, int]]]:
    """Flat and cover-pair masks found by closing F + e for every e outside
    every flat F, with no element skipped."""
    universe = matroid.universe
    bottom = matroid.closure(universe.empty())
    flats, edges, pending = {bottom.mask}, set(), [bottom]
    while pending:
        flat = pending.pop()
        for e in range(universe.n):
            if not flat.has_index(e):
                cover = matroid.closure(flat.with_index(e))
                edges.add((flat.mask, cover.mask))
                if cover.mask not in flats:
                    flats.add(cover.mask)
                    pending.append(cover)
    return flats, edges


def _partition_matroid():
    universe = Universe(tuple("abcdefg"))
    classes = [universe.subset(list(part)) for part in ("abc", "d", "ef", "g")]
    return PartitionMatroid(universe, classes)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TransversalMatroid(cov(DOUBLED9)),
        lambda: TransversalMatroid(density_covering(random.Random(0), 10, 6)),
        _partition_matroid,
    ],
    ids=["doubled9", "density10", "partition7"],
)
def test_enumeration_closes_once_per_hasse_edge(build):
    # the covers of a flat F partition E - F, so an element a found cover
    # absorbs is never closed again: one closure per edge plus the bottom
    matroid = build()
    calls = 0
    closure = matroid.closure

    def counted(x):
        nonlocal calls
        calls += 1
        return closure(x)

    matroid.closure = counted
    lattice = enumerate_lattice(matroid)
    assert calls == len(lattice.hasse_edges) + 1
    flats, edges = closing_every_extension(build())
    assert {f.mask for f in lattice.flats} == flats
    assert {(lattice.flats[l].mask, lattice.flats[u].mask) for l, u in lattice.hasse_edges} == edges


class TestOrderStructure:
    def test_join_and_meet(self, mixed5, mixed5_lattice):
        u = mixed5.universe
        one, two = u.subset(["1"]), u.subset(["2"])
        assert mixed5_lattice.join(one, two) == u.subset(["1", "2"])
        assert mixed5_lattice.meet(one, one) == one
        assert mixed5_lattice.meet(u.subset(["1", "2"]), u.subset(["1", "3"])) == one

    def test_not_a_flat_rejected(self, mixed5, mixed5_lattice):
        four = mixed5.universe.subset(["4"])
        with pytest.raises(NotAFlatError):
            mixed5_lattice.join(four, four)
        with pytest.raises(NotAFlatError):
            mixed5_lattice.covers(four, mixed5.universe.full())

    def test_partition_matroid_joins_are_unions(self, mixed5):
        matroid = induced_partition_matroid(mixed5, UpperOperator.XH)
        lattice = enumerate_lattice(matroid)
        for x in lattice.flats:
            for y in lattice.flats:
                assert lattice.join(x, y) == x | y

    def test_atoms(self, mixed5, mixed5_lattice):
        u = mixed5.universe
        expected = {u.subset(["1"]).mask, u.subset(["2"]).mask, u.subset(["3"]).mask, u.subset(["4", "5"]).mask}
        assert {a.mask for a in mixed5_lattice.atoms()} == expected

    def test_partition_atoms_are_the_blocks(self):
        covering = cov("universe: 1 2 3 4\nblock: 1 2\nblock: 3\nblock: 4")
        lattice = enumerate_lattice(TransversalMatroid(covering))
        assert {a.mask for a in lattice.atoms()} == {b.mask for b in covering.blocks}

    def test_free_matroid_atoms(self):
        covering = cov("universe: a b\nblock: a\nblock: b")
        lattice = enumerate_lattice(TransversalMatroid(covering))
        assert [a.labels() for a in lattice.atoms()] == [("a",), ("b",)]

    def test_covers(self, mixed5, mixed5_lattice):
        u = mixed5.universe
        matroid = TransversalMatroid(mixed5)
        # 4 and 5 share a private part, so the closures of {4} and {4,5} coincide
        assert matroid.closure(u.subset(["4"])) == matroid.closure(u.subset(["4", "5"]))
        pair_flat = u.subset(["4", "5"])
        assert not mixed5_lattice.covers(pair_flat, pair_flat)
        assert mixed5_lattice.covers(u.subset(["1"]), u.subset(["1", "2"]))

    @given(coverings(max_n=5))
    def test_pair_closure_covers_iff_no_shared_private_part(self, covering):
        matroid = TransversalMatroid(covering)
        lattice = enumerate_lattice(matroid)
        parts = ab_decomposition(covering).a_parts
        universe = covering.universe
        for a in range(universe.n):
            for b in range(universe.n):
                if a == b:
                    continue
                shared = any(p.has_index(a) and p.has_index(b) for p in parts)
                single = matroid.closure(universe.singleton(a))
                pair = matroid.closure(
                    universe.set_from_mask((1 << a) | (1 << b))
                )
                assert lattice.covers(single, pair) == (not shared)

    @given(families(max_n=5, max_m=5))
    def test_join_is_the_closure_of_the_union(self, family):
        matroid = TransversalMatroid(family)
        lattice = enumerate_lattice(matroid)
        for x in lattice.flats:
            for y in lattice.flats:
                assert lattice.join(x, y) == matroid.closure(x | y)

    @given(coverings(max_n=5))
    def test_absorption_laws(self, covering):
        lattice = enumerate_lattice(TransversalMatroid(covering))
        flats = lattice.flats
        for x in flats[:6]:
            for y in flats[-6:]:
                assert lattice.meet(x, lattice.join(x, y)) == x
                assert lattice.join(x, lattice.meet(x, y)) == x


class TestGeometricity:
    def test_covering_lattices_are_geometric(self, mixed5, doubled9):
        for covering in (mixed5, doubled9):
            check = enumerate_lattice(TransversalMatroid(covering)).is_geometric()
            assert check.ok, check.violation

    def test_mixed5_all_pairs_checked(self, mixed5_lattice):
        assert mixed5_lattice.is_geometric().ok

    def test_corrupted_lattice_detected(self, mixed5_lattice):
        edges = list(mixed5_lattice.hasse_edges)
        removed = edges.pop(3)
        broken = FlatLattice(list(mixed5_lattice.flats), edges)
        check = broken.is_geometric()
        assert not check.ok
        assert check.violation
        assert removed not in set(broken.hasse_edges)

    def test_family_without_meets_is_caught(self):
        # {a b c} n {b c d} = {b c} is missing, so {b} and {c} have two
        # minimal upper bounds; the stored edges are its true covers.
        universe = Universe(("a", "b", "c", "d"))
        flats = [universe.subset(f.split()) for f in ("", "b", "c", "a b c", "b c d", "a b c d")]
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
        lattice = FlatLattice(flats, edges)
        with pytest.raises(InternalConsistencyError, match="not unique"):
            lattice.join(flats[1], flats[2])
        check = lattice.is_geometric()
        assert not check.ok
        assert "intersection-closed" in check.violation

    @given(families(max_n=5, max_m=5))
    def test_every_matroid_lattice_is_geometric(self, family):
        check = enumerate_lattice(TransversalMatroid(family)).is_geometric()
        assert check.ok, check.violation


class TestModularity:
    def test_atom_pair_is_modular(self, mixed5, mixed5_lattice):
        u = mixed5.universe
        matroid = TransversalMatroid(mixed5)
        assert is_modular_pair(mixed5_lattice, matroid, u.subset(["1"]), u.subset(["2"]))
        assert is_modular_pair(
            mixed5_lattice, matroid, u.subset(["1", "2"]), u.subset(["1", "2"])
        )

    def test_violating_pair_exists_in_doubled9(self, doubled9):
        matroid = TransversalMatroid(doubled9)
        lattice = enumerate_lattice(matroid)
        witness = None
        for i, x in enumerate(lattice.flats):
            if lattice.height_of(x) != 2:
                continue
            for y in lattice.flats[i + 1 :]:
                if lattice.height_of(y) != 2 or (x.mask & y.mask):
                    continue
                if matroid.rank(x | y) == 3:
                    witness = (x, y)
                    break
            if witness:
                break
        assert witness is not None
        x, y = witness
        assert not is_modular_pair(lattice, matroid, x, y)
        assert not modular_pair_by_heights(lattice, x, y)

    def test_modular_elements(self, mixed5, mixed5_lattice):
        matroid = TransversalMatroid(mixed5)
        u = mixed5.universe
        assert is_modular_element(mixed5_lattice, matroid, u.subset(["4", "5"]))
        assert is_modular_element(mixed5_lattice, matroid, mixed5_lattice.bottom)
        assert is_modular_element(mixed5_lattice, matroid, mixed5_lattice.top)

    @given(coverings(max_n=5))
    def test_three_modularity_routes_agree(self, covering):
        matroid = TransversalMatroid(covering)
        lattice = enumerate_lattice(matroid)
        flats = lattice.flats
        for x in flats[:5]:
            for y in flats[-5:]:
                by_rank = is_modular_pair(lattice, matroid, x, y)
                assert by_rank == modular_pair_by_heights(lattice, x, y)
                assert by_rank == modular_pair_by_definition(lattice, x, y)

    @given(coverings(max_n=5))
    def test_singleton_closures_are_atoms(self, covering):
        matroid = TransversalMatroid(covering)
        lattice = enumerate_lattice(matroid)
        atom_masks = {a.mask for a in lattice.atoms()}
        for e in range(covering.universe.n):
            assert matroid.closure(covering.universe.singleton(e)).mask in atom_masks


@given(coverings(max_n=5))
def test_atoms_match_ab_prediction(covering):
    lattice = enumerate_lattice(TransversalMatroid(covering))
    predicted = {a.mask for a in ab_decomposition(covering).predicted_atoms()}
    assert {a.mask for a in lattice.atoms()} == predicted


def test_json_and_dot_are_deterministic(mixed5_lattice):
    assert mixed5_lattice.to_json_dict() == mixed5_lattice.to_json_dict()
    dot = mixed5_lattice.to_dot()
    assert dot.startswith("digraph flats {")
    assert dot.count("->") == len(mixed5_lattice.hasse_edges)
