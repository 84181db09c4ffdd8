import gc
import random
import sys
import threading
import tracemalloc
from array import array
from itertools import permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from covlat import (
    BruteForce,
    ElementSet,
    FlatLattice,
    InternalConsistencyError,
    NeighborhoodTable,
    NotAFlatError,
    PartitionMatroid,
    SetFamily,
    TransversalMatroid,
    Universe,
    UpperOperator,
    ValidationError,
    ab_decomposition,
    closure_operator_verdict,
    enumerate_lattice,
    induced_partition_matroid,
    is_modular_element,
    is_modular_pair,
    modular_pair_by_definition,
    modular_pair_by_heights,
)
from covlat import lattice as lattice_module
from covlat.bridge import LatticeInducedMatroid, SubmodularSystem
from covlat.generators import random_family
from covlat.lattice import (
    GeometricityCheck,
    HasseEdges,
    closure_from_rank,
    covers_by_closure,
    modular_pairs,
)
from covlat.relations import DeletionReads
from conftest import DOUBLED9, MIXED5, cov, density_covering
from strategies import coverings, families, loopy_families, partitions

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


def test_partition_covers_add_one_class_each():
    # the closed form F + class against one closure from rank per cover, on
    # every flat; a set that splits a class is not closed
    matroid = _partition_matroid()
    universe = matroid.universe
    for flat in enumerate_lattice(matroid).flats:
        rank, covers = matroid.covers_of(flat)
        assert rank == matroid.rank(flat)
        assert covers == [flat.mask | c.mask for c in matroid.classes if not c.mask & flat.mask]
        assert sorted(covers) == sorted(covers_by_closure(matroid, flat)[1])
    with pytest.raises(InternalConsistencyError, match="not closed"):
        matroid.covers_of(universe.subset(["a", "d"]))


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
    # each flat, the top included, asks for its covers once, and only the
    # bottom goes through closure: neither oracle closes an extension F + e
    # to find the flats above F
    matroid = build()
    calls = {"closure": 0, "covers_of": 0}
    closure, covers_of = matroid.closure, matroid.covers_of

    def counted_closure(x):
        calls["closure"] += 1
        return closure(x)

    def counted_covers_of(flat):
        calls["covers_of"] += 1
        return covers_of(flat)

    matroid.closure = counted_closure
    matroid.covers_of = counted_covers_of
    lattice = enumerate_lattice(matroid)
    assert calls == {"closure": 1, "covers_of": len(lattice)}
    flats, edge_masks = closing_every_extension(build())
    assert {f.mask for f in lattice.flats} == flats
    assert {
        (lattice.flats[l].mask, lattice.flats[u].mask) for l, u in lattice.hasse_edges
    } == edge_masks


def covers_by_rank(matroid, x: ElementSet) -> set[int]:
    """The distinct closures of x + e over e outside x, each from rank alone."""
    universe = matroid.universe
    return {
        closure_from_rank(matroid, x.with_index(e)).mask
        for e in range(universe.n)
        if not x.has_index(e)
    }


def assert_covers_match_every_extension(matroid: TransversalMatroid) -> None:
    flats, edges = closing_every_extension(matroid)
    above: dict[int, set[int]] = {flat: set() for flat in flats}
    for lower, upper in edges:
        above[lower].add(upper)
    for flat in flats:
        _, covers = matroid.covers_of(ElementSet(matroid.universe, flat))
        assert len(covers) == len(set(covers))
        assert set(covers) == above[flat]


def _loops_and_repeats() -> SetFamily:
    # c lies in no block (a loop), and {a, b} appears twice
    universe = Universe(tuple("abcd"))
    return SetFamily(universe, [universe.subset(b.split()) for b in ("a b", "a b", "b d")])


def _one_block() -> SetFamily:
    universe = Universe(tuple("abc"))
    return SetFamily(universe, [universe.subset(["a", "c"])])


@given(loopy_families())
@example(_loops_and_repeats())
@example(_one_block())
def test_covers_match_closing_every_extension_on_families(family):
    assert_covers_match_every_extension(TransversalMatroid(family))


@pytest.mark.parametrize("n", range(8, 15))
def test_covers_match_closing_every_extension_on_density_coverings(n):
    rng = random.Random(n)
    family = density_covering(rng, n, rng.randint(3, n // 2 + 1))
    assert_covers_match_every_extension(TransversalMatroid(family))


@given(families(max_n=6))
def test_covers_match_the_rank_and_oracle_closures(family):
    matroid = TransversalMatroid(family)
    oracle = BruteForce(family)
    for flat in enumerate_lattice(matroid).flats:
        rank, covers = matroid.covers_of(flat)
        assert rank == oracle.rank(flat)
        assert len(covers) == len(set(covers))
        assert set(covers) == covers_by_rank(matroid, flat) == covers_by_rank(oracle, flat)


def test_covers_of_a_set_that_is_not_closed_raise(mixed5):
    # K4 = {4, 5} is the only block holding 4 or 5, so cl({4}) = {4, 5}
    # and no alternating path starts at 5
    universe = mixed5.universe
    with pytest.raises(InternalConsistencyError, match="not closed: element 5"):
        TransversalMatroid(mixed5).covers_of(universe.subset(["4"]))


@given(loopy_families(), st.data())
def test_covers_of_any_set_report_not_closed_iff_it_is_not_closed(family, data):
    # checked against the brute-force closure; a closed set gets its covers
    x = ElementSet(family.universe, data.draw(st.integers(0, family.universe.full_mask)))
    matroid = TransversalMatroid(family)
    oracle = BruteForce(family)
    if oracle.closure(x) != x:
        with pytest.raises(InternalConsistencyError, match="not closed"):
            matroid.covers_of(x)
    else:
        assert set(matroid.covers_of(x)[1]) == covers_by_rank(oracle, x)


@pytest.mark.parametrize("seed", range(3))
def test_covers_of_random_sets_match_closures_or_report_not_closed(seed):
    # random sets on n = 10, most of them not closed: covers_of raises iff
    # cl(X) != X, and otherwise lists the closures of X + e, from rank alone
    rng = random.Random(seed)
    family = density_covering(rng, 10, 6)
    matroid = TransversalMatroid(family)
    universe = family.universe
    not_closed = 0
    for _ in range(60):
        x = ElementSet(universe, rng.getrandbits(universe.n))
        if closure_from_rank(matroid, x) != x:
            not_closed += 1
            with pytest.raises(InternalConsistencyError, match="not closed"):
                matroid.covers_of(x)
        else:
            assert set(matroid.covers_of(x)[1]) == covers_by_rank(matroid, x)
    assert 0 < not_closed < 60


def test_one_unmatched_block_gives_the_whole_universe_as_the_only_cover():
    # a flat of rank m - 1 leaves one block unmatched, and every element
    # outside it then lies in the one cover, E; the post-dominator pass is
    # skipped, so the answer is checked against closures from rank
    universe = Universe(tuple("abcde"))
    family = SetFamily(universe, [universe.subset(b.split()) for b in ("a b c", "c d", "d e")])
    matroid = TransversalMatroid(family)
    seen = 0
    for flat in enumerate_lattice(matroid).flats:
        block_to, _ = matroid._maximum_matching(flat.mask)
        if block_to.count(-1) == 1:
            seen += 1
            assert matroid.covers_of(flat) == (len(block_to) - 1, [universe.full_mask])
            assert covers_by_rank(matroid, flat) == {universe.full_mask}
    assert seen > 1


def sizes_of(matroid) -> dict[str, int]:
    return {key: sys.getsizeof(value) for key, value in vars(matroid).items()}


@given(families(), coverings(max_n=5, max_m=4), partitions())
def test_every_oracle_reports_its_rank_with_the_covers(family, covering, partition):
    # covers_of(F) is (rank(F), covers) on every flat of all three oracles,
    # the top's covers are empty, and the covers are covers_by_closure's;
    # the transversal matroid keeps no state across any of its calls
    transversal = TransversalMatroid(family)
    state = sizes_of(transversal)
    induced = LatticeInducedMatroid(
        SubmodularSystem.from_flat_lattice(enumerate_lattice(TransversalMatroid(covering)))
    )
    by_classes = PartitionMatroid(partition.universe, partition.blocks)
    for matroid in (transversal, induced, by_classes):
        lattice = enumerate_lattice(matroid)
        for flat in lattice.flats:
            rank, covers = matroid.covers_of(flat)
            assert rank == matroid.rank(flat) == lattice.height_of(flat)
            closed_rank, closed = covers_by_closure(matroid, flat)
            assert closed_rank == rank and set(covers) == set(closed)
        assert matroid.covers_of(lattice.top)[1] == []
    for x in family.universe.subsets():
        transversal.rank(x)
        transversal.closure(x)
    assert sizes_of(transversal) == state


class LyingRank:
    """A transversal oracle whose rank is one too high on a single flat,
    both from ``rank`` and in what ``covers_of`` reports."""

    def __init__(self, matroid: TransversalMatroid, liar: ElementSet):
        self.universe = matroid.universe
        self.matroid = matroid
        self.liar = liar

    def rank(self, x):
        return self.matroid.rank(x) + (x.mask == self.liar.mask)

    def closure(self, x):
        return self.matroid.closure(x)

    def covers_of(self, flat):
        rank, covers = self.matroid.covers_of(flat)
        return rank + (flat.mask == self.liar.mask), covers


@pytest.mark.parametrize("liar", [["1", "2"], ["1", "2", "3", "4", "5"]], ids=["middle", "top"])
def test_rank_check_catches_an_oracle_that_lies_on_one_flat(mixed5, liar):
    oracle = LyingRank(TransversalMatroid(mixed5), mixed5.universe.subset(liar))
    with pytest.raises(InternalConsistencyError, match="disagrees with rank"):
        enumerate_lattice(oracle)


@pytest.mark.parametrize("seed", range(4))
def test_rank_check_reads_a_fresh_matching_of_each_flat(seed):
    # the check reads the rank that covers_of reports with each flat's
    # covers; each equals the size of a maximum matching of that flat's own
    # mask from a fresh matroid, rank is never called, and enumeration
    # matches each flat once (the bottom twice: its closure and its covers)
    rng = random.Random(seed)
    family = density_covering(rng, rng.randint(8, 14), rng.randint(4, 8))
    matroid = TransversalMatroid(family)
    read: dict[int, int] = {}
    covers_of, maximum_matching = matroid.covers_of, matroid._maximum_matching
    matchings, ranked = [], []

    def recorded_covers_of(flat):
        read[flat.mask], covers = covers_of(flat)
        return read[flat.mask], covers

    def counted_matching(mask):
        matchings.append(mask)
        return maximum_matching(mask)

    matroid.covers_of = recorded_covers_of
    matroid.rank = ranked.append
    matroid._maximum_matching = counted_matching
    lattice = enumerate_lattice(matroid)
    assert set(read) == {flat.mask for flat in lattice.flats}
    assert ranked == []
    fresh = TransversalMatroid(family)
    for flat, height in zip(lattice.flats, lattice.heights):
        block_to, _ = fresh._maximum_matching(flat.mask)
        assert read[flat.mask] == sum(element >= 0 for element in block_to) == height
    assert len(matchings) == len(lattice) + 1


def eager_build(matroid, lattice: FlatLattice) -> FlatLattice:
    """The lattice built from outside, from the covers the oracle reports of
    each flat: validated, remapped and graded by longest chains at once."""
    position = {f.mask: i for i, f in enumerate(lattice.flats)}
    edges = [(i, position[c]) for i, f in enumerate(lattice.flats) for c in matroid.covers_of(f)[1]]
    # handed in reversed, so the canonical order is found again
    last = len(lattice) - 1
    return FlatLattice(lattice.flats[::-1], [(last - l, last - u) for l, u in edges])


def every_oracle(family, covering, partition):
    """The transversal matroid, the deletion reads over one, the induced
    partition matroids of the operators that are closures, a partition
    matroid and a lattice-induced matroid."""
    yield TransversalMatroid(family)
    yield DeletionReads(TransversalMatroid(covering))
    table = NeighborhoodTable.build(covering)
    for kind in UpperOperator:
        if closure_operator_verdict(table, kind).is_closure:
            yield induced_partition_matroid(covering, kind)
    yield PartitionMatroid(partition.universe, partition.blocks)
    system = SubmodularSystem.from_flat_lattice(enumerate_lattice(TransversalMatroid(covering)))
    yield LatticeInducedMatroid(system)


@given(loopy_families(max_n=5), coverings(max_n=5, max_m=4), partitions(max_n=5))
def test_enumerated_lattices_equal_the_eager_build_of_their_covers(family, covering, partition):
    # heights read off the checked ranks and rows built on first read give
    # the flats, heights, edges and cover answers of the eager build
    for matroid in every_oracle(family, covering, partition):
        lattice = enumerate_lattice(matroid)
        eager = eager_build(matroid, lattice)
        assert lattice.flats == eager.flats
        assert lattice.heights == eager.heights
        assert lattice.hasse_edges == eager.hasse_edges
        assert [lattice.covers(x, y) for x in lattice.flats for y in lattice.flats] == [
            eager.covers(x, y) for x in eager.flats for y in eager.flats
        ]


ROW_READS = {
    "hasse_edges": lambda lattice: lattice.hasse_edges,
    "covers": lambda lattice: lattice.covers(lattice.bottom, lattice.top),
    "upper_covers": lambda lattice: lattice.upper_covers(lattice.bottom),
    "lower_covers": lambda lattice: lattice.lower_covers(lattice.top),
    "is_geometric": lambda lattice: lattice.is_geometric(),
    "to_dot": lambda lattice: lattice.to_dot(),
    "to_json_dict": lambda lattice: lattice.to_json_dict(),
}


@pytest.mark.parametrize("first", list(ROW_READS))
def test_enumerated_rows_are_built_once_on_their_first_read(doubled9, monkeypatch, first):
    built = []
    canonical_rows = lattice_module._canonical_rows

    def counted(*args):
        built.append(len(args))
        return canonical_rows(*args)

    monkeypatch.setattr(lattice_module, "_canonical_rows", counted)
    lattice = enumerate_lattice(TransversalMatroid(doubled9))
    lattice.join(lattice.bottom, lattice.top)
    lattice.meet(lattice.top, lattice.bottom)
    assert (lattice.atoms(), lattice.heights, len(lattice)) and built == []
    ROW_READS[first](lattice)
    assert built == [2]  # the handed rows and the order: no masks, no heights
    for read in ROW_READS.values():
        read(lattice)
    assert built == [2]
    # a lattice built from outside builds its rows at once, with the masks
    FlatLattice(lattice.flats, lattice.hasse_edges)
    assert built == [2, 3]


def test_threads_that_race_on_the_first_read_see_the_same_rows(doubled9):
    # the rows fill on first read with no lock: threads that race may each
    # sort them, and every one reads the rows of the eager build
    matroid = TransversalMatroid(doubled9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            lattice = enumerate_lattice(matroid)
            seen = []
            threads = [
                threading.Thread(target=lambda: seen.append(tuple(lattice.hasse_edges)))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == [tuple(eager_build(matroid, lattice).hasse_edges)] * 4
    finally:
        sys.setswitchinterval(interval)


class ExtraCover:
    """A transversal oracle that reports one more cover of one flat."""

    def __init__(self, matroid: TransversalMatroid, at: ElementSet, extra: ElementSet):
        self.universe, self.matroid, self.at, self.extra = matroid.universe, matroid, at, extra

    def closure(self, x):
        return self.matroid.closure(x)

    def covers_of(self, flat):
        rank, covers = self.matroid.covers_of(flat)
        return rank, covers + [self.extra.mask] * (flat == self.at)


@pytest.mark.parametrize(
    ("at", "extra"), [(["1"], ["2", "3"]), (["1", "2"], ["1", "2"])], ids=["incomparable", "itself"]
)
def test_enumeration_refuses_a_cover_that_does_not_contain_its_flat(mixed5, at, extra):
    universe = mixed5.universe
    oracle = ExtraCover(TransversalMatroid(mixed5), universe.subset(at), universe.subset(extra))
    with pytest.raises(ValidationError, match="strictly upward"):
        enumerate_lattice(oracle)


@pytest.mark.parametrize(
    ("at", "extra"),
    [([], ["1", "2"]), ([], ["1", "2", "3", "4", "5"]), (["4", "5"], ["1", "2", "4", "5"])],
    ids=["line-over-bottom", "top-over-bottom", "plane-over-point"],
)
def test_enumeration_refuses_a_cover_two_ranks_up(mixed5, at, extra):
    # every flat is still graded by its rank along the longest chains, so
    # only the rank step of the extra edge shows the lie
    universe = mixed5.universe
    oracle = ExtraCover(TransversalMatroid(mixed5), universe.subset(at), universe.subset(extra))
    with pytest.raises(InternalConsistencyError, match="disagrees with rank"):
        enumerate_lattice(oracle)


class CoverTable:
    """An oracle that reports a fixed rank and covers per flat mask."""

    def __init__(self, universe: Universe, table: dict[int, tuple[int, list[int]]]):
        self.universe, self.table = universe, table

    def closure(self, x):
        return ElementSet(self.universe, 0)

    def covers_of(self, flat):
        return self.table[flat.mask]


def test_enumeration_refuses_an_edge_into_a_found_flat_that_is_no_rank_step():
    # {a b} is found from the bottom as a rank-1 flat and reports rank 1;
    # only the later edge {a} -> {a b} shows that it is no rank step
    oracle = CoverTable(Universe(("a", "b")), {0: (0, [1, 3]), 1: (1, [3]), 3: (1, [])})
    with pytest.raises(InternalConsistencyError, match="height 2 of {a b} disagrees with rank 1"):
        enumerate_lattice(oracle)


class TestConstruction:
    @pytest.fixture
    def square(self):
        universe = Universe(("a", "b"))
        return [universe.subset(f.split()) for f in ("", "a", "b", "a b")]

    def test_no_flats(self):
        with pytest.raises(ValidationError, match="at least one flat"):
            FlatLattice([], [])

    def test_duplicate_flats(self, square):
        with pytest.raises(ValidationError, match="duplicate flats"):
            FlatLattice(square + [square[1]], [(0, 1)])

    @pytest.mark.parametrize(
        "edge", [(1, 1), (1, 2), (3, 1)], ids=["self", "incomparable", "downward"]
    )
    def test_edge_not_strictly_upward(self, square, edge):
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), edge]
        with pytest.raises(ValidationError, match="strictly upward"):
            FlatLattice(square, edges)

    @pytest.mark.parametrize(
        ("kept", "edges"),
        [((1, 2, 3), [(0, 2), (1, 2)]), ((0, 1, 2), [(0, 1), (0, 2)])],
        ids=["no-bottom", "no-top"],
    )
    def test_no_unique_bottom_or_top(self, square, kept, edges):
        with pytest.raises(ValidationError, match="unique bottom or top"):
            FlatLattice([square[i] for i in kept], edges)

    @pytest.mark.parametrize("edge", [(0, 5), (-1, 0)], ids=["past-the-end", "negative"])
    def test_edge_names_no_flat(self, square, edge):
        with pytest.raises(ValidationError, match="hasse edge names no flat"):
            FlatLattice(square, [(0, 1), edge])

    def test_stored_order_is_canonical(self, square):
        lattice = FlatLattice(square[::-1], [(3, 2), (3, 1), (2, 0), (1, 0)])
        assert lattice.flats == tuple(square)
        assert lattice.hasse_edges == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert lattice.heights == (0, 1, 1, 2)


def boundary_masks(n: int, rng: random.Random, count: int) -> set[int]:
    """The empty and full masks, both end elements and their complements,
    then random masks up to count (at most 2^n)."""
    full = (1 << n) - 1
    masks = {0, full, 1, 1 << (n - 1), full ^ 1, full ^ 1 << (n - 1)}
    while len(masks) < min(count, 1 << n):
        masks.add(rng.getrandbits(n))
    return masks


def universe_of(n: int) -> Universe:
    return Universe(tuple(f"e{i}" for i in range(n)))


@pytest.mark.parametrize("n", [1, 5, 17, 64])
def test_sort_key_orders_by_size_then_indices(n):
    """The canonical key, ``ElementSet.sort_key``, is one integer per set
    that sorts as the cardinality, then the ascending index sequence."""
    universe = universe_of(n)
    sets = [ElementSet(universe, mask) for mask in sorted(boundary_masks(n, random.Random(n), 400))]
    assert len({s.sort_key() for s in sets}) == len(sets)
    explicit = sorted(sets, key=lambda s: (len(s), s.indices()))
    assert sorted(sets, key=ElementSet.sort_key) == explicit
    assert sorted(reversed(sets), key=ElementSet.sort_key) == explicit


@pytest.mark.parametrize("n", [5, 17, 64])
def test_shuffled_flats_are_stored_in_canonical_order(n):
    rng = random.Random(n)
    universe = universe_of(n)
    canonical = sorted(
        (ElementSet(universe, mask) for mask in boundary_masks(n, rng, 30)),
        key=ElementSet.sort_key,
    )
    top = len(canonical) - 1
    edges = [(0, i) for i in range(1, top)] + [(i, top) for i in range(1, top)]
    shuffled = list(range(len(canonical)))
    rng.shuffle(shuffled)
    position = {old: new for new, old in enumerate(shuffled)}
    lattice = FlatLattice(
        [canonical[i] for i in shuffled], [(position[l], position[u]) for l, u in edges]
    )
    assert lattice.flats == tuple(canonical)
    assert lattice.hasse_edges == tuple(sorted(edges))
    assert lattice.heights == (0,) + (1,) * (top - 1) + (2,)


def test_enumeration_builds_no_containment_index(doubled9, monkeypatch):
    built = []
    index = lattice_module.containment_index

    def counted(n, sets):
        built.append(len(sets))
        return index(n, sets)

    monkeypatch.setattr(lattice_module, "containment_index", counted)
    lattice = enumerate_lattice(TransversalMatroid(doubled9))
    assert built == []
    lattice.join(lattice.bottom, lattice.top)
    lattice.join(lattice.atoms()[0], lattice.atoms()[1])
    assert lattice.is_geometric().ok
    assert built == [len(lattice)]


@pytest.mark.parametrize("drop", [None, 3], ids=["intact", "edge-removed"])
def test_answers_do_not_depend_on_the_first_query(mixed5_lattice, drop):
    flats = list(mixed5_lattice.flats)
    edges = list(mixed5_lattice.hasse_edges)
    if drop is not None:
        edges.pop(drop)
    queries = {
        "join": lambda lattice: [lattice.join(x, y) for x in flats for y in flats],
        "covers": lambda lattice: [lattice.covers(x, y) for x in flats for y in flats],
        "is_geometric": lambda lattice: lattice.is_geometric(),
    }
    seen = []
    for order in permutations(queries):
        lattice = FlatLattice(flats, edges)
        answers = {name: queries[name](lattice) for name in order}
        seen.append(answers)
    assert all(answers == seen[0] for answers in seen)
    assert seen[0]["is_geometric"].ok == (drop is None)


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
                    ElementSet(universe, (1 << a) | (1 << b))
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

    def test_a_chain_of_two_is_not_atomistic(self):
        # {a b} has the one lower cover {a}, so no join of atoms reaches it
        universe = Universe(("a", "b"))
        flats = [universe.subset(f.split()) for f in ("", "a", "a b")]
        check = FlatLattice(flats, [(0, 1), (1, 2)]).is_geometric()
        assert check == GeometricityCheck(False, "{a b} is not a join of atoms")

    def test_the_lower_cover_count_matches_joining_the_atoms_below_each_flat(self):
        """Transversal lattices with random middle flats dropped, and their
        Hasse edges recomputed from inclusion: where the checks before the
        atomistic step pass, the verdict equals the one from joining the
        atoms below every flat in canonical order."""

        def by_atom_joins(lattice):
            atoms = [a.mask for a in lattice.atoms()]
            for flat in lattice.flats:
                below = 0
                for mask in atoms:
                    if mask & ~flat.mask == 0:
                        below |= mask
                if lattice._smallest_flat_over(below) != flat:
                    return GeometricityCheck(False, f"{flat!r} is not a join of atoms")
            return GeometricityCheck(True)

        outcomes = {"geometric": 0, "not atomistic": 0, "earlier step": 0}
        for seed in range(1000):
            rng = random.Random(seed)
            flats = enumerate_lattice(TransversalMatroid(random_family(rng, 6, 6))).flats
            drop = rng.choice([0.1, 0.25, 0.5])
            kept = [flats[0], *(f for f in flats[1:-1] if rng.random() >= drop), flats[-1]]
            edges = [
                (i, j)
                for i, x in enumerate(kept)
                for j, y in enumerate(kept)
                if x < y and not any(x < z < y for z in kept)
            ]
            lattice = FlatLattice(kept, edges)
            check = lattice.is_geometric()
            if check.ok or check.violation.endswith(" is not a join of atoms"):
                assert check == by_atom_joins(lattice)
                outcomes["geometric" if check.ok else "not atomistic"] += 1
            else:
                outcomes["earlier step"] += 1
        assert min(outcomes.values()) >= 50, outcomes


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

    @given(
        st.one_of(
            families(max_n=6).map(TransversalMatroid),
            coverings(max_n=6).map(TransversalMatroid),
            partitions(max_n=6).map(lambda p: PartitionMatroid(p.universe, p.blocks)),
        )
    )
    def test_rows_match_the_per_pair_identities(self, matroid):
        lattice = enumerate_lattice(matroid)
        flats = lattice.flats
        by_rank, by_heights = modular_pairs(lattice, matroid)
        assert len(by_rank) == len(by_heights) == len(flats)
        for i, x in enumerate(flats):
            assert by_rank[i] >> len(flats) == by_heights[i] >> len(flats) == 0
            for j, y in enumerate(flats):
                assert by_rank[i] >> j & 1 == is_modular_pair(lattice, matroid, x, y)
                assert by_heights[i] >> j & 1 == modular_pair_by_heights(lattice, x, y)

    def test_rank_rows_rank_each_flat_and_each_union_that_is_no_flat_once(self, doubled9):
        matroid = TransversalMatroid(doubled9)
        lattice = enumerate_lattice(matroid)
        asked = []
        rank = matroid.rank
        matroid.rank = lambda x: asked.append(x.mask) or rank(x)
        rows, _ = modular_pairs(lattice, matroid)
        masks = [f.mask for f in lattice.flats]
        unions = [x | masks[j] for i, x in enumerate(masks) for j in range(i, len(masks))]
        # each distinct union that is no flat, in the order the pairs first give it
        assert asked == masks + list(dict.fromkeys(u for u in unions if u not in lattice._index))
        # doubled9's lattice has pairs that are not modular (see above)
        assert any(row != (1 << len(masks)) - 1 for row in rows)

    def test_height_rows_refuse_a_family_without_meets(self):
        # the family of TestGeometricity.test_family_without_meets_is_caught:
        # {a b c} n {b c d} = {b c} is no flat
        universe = Universe(("a", "b", "c", "d"))
        flats = [universe.subset(f.split()) for f in ("", "b", "c", "a b c", "b c d", "a b c d")]
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
        lattice = FlatLattice(flats, edges)
        missing = "^intersection of flats is not a flat$"
        with pytest.raises(InternalConsistencyError, match=missing):
            lattice.meet(flats[3], flats[4])
        with pytest.raises(InternalConsistencyError, match=missing):
            modular_pairs(lattice, TransversalMatroid(SetFamily(universe, flats[3:5])))

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


# The Hasse edges are stored as one sorted row of upper ends per flat; the
# queries below are checked against plain scans of the (lower, upper) pairs.


def _seeded(seed):
    lattice = enumerate_lattice(TransversalMatroid(density_covering(random.Random(seed), 9, 5)))
    return list(lattice.flats), list(lattice.hasse_edges)


def _mixed5_pairs():
    lattice = enumerate_lattice(TransversalMatroid(cov(MIXED5)))
    return list(lattice.flats), list(lattice.hasse_edges)


def _edge_removed():
    flats, edges = _mixed5_pairs()
    del edges[3]
    return flats, edges


def _bottom_to_top_added():
    flats, edges = _mixed5_pairs()
    return flats, edges + [(0, len(flats) - 1)]


def _without_meets():
    universe = Universe(("a", "b", "c", "d"))
    flats = [universe.subset(f.split()) for f in ("", "b", "c", "a b c", "b c d", "a b c d")]
    return flats, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]


CSR_CASES = {
    "density9-0": lambda: _seeded(0),
    "density9-1": lambda: _seeded(1),
    "density9-2": lambda: _seeded(2),
    "mixed5": _mixed5_pairs,
    "mixed5-edge-removed": _edge_removed,
    "mixed5-bottom-to-top": _bottom_to_top_added,
    "without-meets": _without_meets,
}


def assert_queries_match_edge_scans(lattice, expected):
    assert lattice.hasse_edges == expected
    assert len(lattice.hasse_edges) == len(expected)
    assert list(lattice.hasse_edges) == list(expected)
    assert [lattice.hasse_edges[k] for k in range(-len(expected), len(expected))] == list(expected) * 2
    edge_set = set(lattice.hasse_edges)
    flats = lattice.flats
    for i, x in enumerate(flats):
        assert lattice.upper_covers(x) == tuple(flats[u] for l, u in expected if l == i)
        assert lattice.lower_covers(x) == tuple(flats[l] for l, u in expected if u == i)
        for j, y in enumerate(flats):
            assert lattice.covers(x, y) == ((i, j) in edge_set)


@pytest.mark.parametrize("case", list(CSR_CASES.values()), ids=list(CSR_CASES))
def test_csr_queries_match_scans_of_the_pairs(case):
    # shuffled flats and shuffled pairs with two duplicates: the stored edges
    # are the pairs in canonical positions, deduplicated and sorted
    flats, pairs = case()
    rng = random.Random(len(pairs))
    order = list(range(len(flats)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    shuffled = [(position[l], position[u]) for l, u in pairs + pairs[:2]]
    rng.shuffle(shuffled)
    lattice = FlatLattice([flats[i] for i in order], shuffled)
    canonical = {f.mask: k for k, f in enumerate(sorted(flats, key=ElementSet.sort_key))}
    masks = [flats[i].mask for i in order]
    expected = tuple(sorted({(canonical[masks[l]], canonical[masks[u]]) for l, u in shuffled}))
    assert lattice.flats == tuple(sorted(flats, key=ElementSet.sort_key))
    assert_queries_match_edge_scans(lattice, expected)
    # the stored view hands the same rows to a rebuild
    rebuilt = FlatLattice(list(lattice.flats), lattice.hasse_edges)
    assert_queries_match_edge_scans(rebuilt, expected)
    assert rebuilt.heights == lattice.heights


@pytest.mark.parametrize("seed", range(3))
def test_enumerated_csr_queries_match_scans_of_the_pairs(seed):
    # the rows enumerate_lattice hands over, against the covers found by
    # closing every extension of every flat
    covering = density_covering(random.Random(seed), 9, 5)
    lattice = enumerate_lattice(TransversalMatroid(covering))
    _, pairs = closing_every_extension(TransversalMatroid(covering))
    canonical = {f.mask: k for k, f in enumerate(lattice.flats)}
    expected = tuple(sorted((canonical[l], canonical[u]) for l, u in pairs))
    assert_queries_match_edge_scans(lattice, expected)


class TestHasseEdgesView:
    @pytest.fixture
    def view(self):
        # rows: 0 -> 1 2, 1 -> 3, 2 -> 3, 3 -> (none)
        return HasseEdges(array("l", [0, 2, 3, 4, 4]), array("l", [1, 2, 3, 3]))

    def test_reads_as_the_tuple_of_its_pairs(self, view):
        pairs = ((0, 1), (0, 2), (1, 3), (2, 3))
        assert view == pairs
        assert view != pairs[:3]
        assert view != list(pairs)
        assert tuple(view) == pairs
        assert view[-1] == (2, 3)
        assert view.row(0) == array("l", [1, 2])
        assert not view.row(3)
        assert (1, 3) in view and (3, 1) not in view
        assert repr(view) == f"HasseEdges({pairs!r})"

    @pytest.mark.parametrize(
        "k",
        [
            slice(1, 3),
            slice(None),
            slice(None, None, 2),
            slice(-3, -1),
            slice(None, None, -1),
            slice(3, 1, -1),
            slice(-9, 9),
            slice(5, None),
            slice(2, 2),
        ],
        ids=["1:3", ":", "::2", "-3:-1", "::-1", "3:1:-1", "-9:9", "5:", "2:2"],
    )
    def test_slices_read_as_tuple_slices(self, view, k):
        pairs = ((0, 1), (0, 2), (1, 3), (2, 3))
        assert view[k] == pairs[k]
        assert type(view[k]) is tuple

    @pytest.mark.parametrize("k", [4, -5])
    def test_index_out_of_range(self, view, k):
        with pytest.raises(IndexError):
            view[k]

    def test_rows_must_match_the_flats(self, view):
        universe = Universe(("a", "b", "c"))
        flats = [universe.subset(f.split()) for f in ("", "a", "b", "a b", "a b c")]
        with pytest.raises(ValidationError, match="one row per flat"):
            FlatLattice(flats, view)


def test_lattice_keeps_no_object_per_edge():
    # bytes still allocated once the (16, 8) lattice is built, and the peak
    # while it was built, per flat plus edge: an edge costs 8 bytes in an
    # array, a flat about 170 in its ElementSet, index entry and height;
    # edge tuples, an edge list or an edge set would cost 56-64 bytes more
    # per edge.  Queries build nothing.
    covering = density_covering(random.Random(0), 16, 8)
    gc.collect()
    tracemalloc.start()
    try:
        lattice = enumerate_lattice(TransversalMatroid(covering))
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        flats = lattice.flats
        for x in flats[:40]:
            lattice.upper_covers(x)
            for y in flats:
                lattice.covers(x, y)
        gc.collect()
        after_queries = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    items = len(lattice) + len(lattice.hasse_edges)
    assert retained / items <= 48
    assert after_queries / items <= 48
    assert peak / items <= 96
