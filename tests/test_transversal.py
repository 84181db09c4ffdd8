import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from covlat import (
    BruteForce,
    Covering,
    ElementSet,
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
from covlat.lattice import closure_from_rank, covers_by_closure
from covlat.universe import bits_of
from conftest import cov, density_covering, fam, subsets
from strategies import coverings, families, family_and_two_subsets, loopy_families


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
        assert not TransversalMatroid(mixed5).closure(mixed5.universe.empty())
        loops = TransversalMatroid(family4).closure(family4.universe.empty())
        assert loops == family4.universe.subset(["1"])
        partition = cov("universe: a b\nblock: a\nblock: b")
        assert not TransversalMatroid(partition).closure(partition.universe.empty())

    @given(families())
    def test_closure_of_empty_characterizes_coverings(self, family):
        matroid = TransversalMatroid(family)
        assert (not matroid.closure(family.universe.empty())) == family.covers_universe()

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
                x = ElementSet(covering.universe, mask)
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
        return covering, SetFamily(universe, (ElementSet(universe, mask) for mask in masks))

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
            sets += [ElementSet(universe, rng.randrange(1 << n)) for _ in range(20)]
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

    @given(families(max_n=6, max_m=5), st.lists(st.integers(0, 63), max_size=4))
    # element 4 is a loop and two blocks repeat; E leaves no block unmatched
    @example(fam("universe: 1 2 3 4\nblock: 1 2\nblock: 1 2\nblock: 2 3"), [0b0011])
    # E leaves the second block {1} unmatched, and only that one
    @example(fam("universe: 1 2 3\nblock: 1\nblock: 1\nblock: 2 3"), [0b110])
    def test_one_block_read_off_the_post_dominator_tree_equals_a_fresh_matroid(
        self, family, masks
    ):
        # each single block, on every flat, the empty set, E and a few other
        # sets, against a fresh matroid of the family less that block
        matroid = TransversalMatroid(family)
        universe = family.universe
        sets = list(enumerate_lattice(matroid).flats) + [universe.empty(), universe.full()]
        sets += [ElementSet(universe, mask & universe.full_mask) for mask in masks]
        deletions = [1 << j for j in range(family.m)]
        fresh = [TransversalMatroid(family.without(d)) for d in deletions if family.m > 1]
        for x in sets:
            derived = matroid.ranks_and_closures_without(x, deletions)
            if not fresh:  # no block is left: every element is a loop
                assert derived == [(0, universe.full())]
            for (rank, closure), other in zip(derived, fresh):
                assert (rank, closure) == (other.rank(x), other.closure(x))

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


class TestParallelParts:
    """``_parallel_parts`` against post-dominator sets iterated to their
    fixpoint on Python sets, on every call ``covers_of`` and the
    single-block deletion reads make."""

    @staticmethod
    def _recorded(matroid: TransversalMatroid) -> list:
        calls, method = [], matroid._parallel_parts

        def record(block_to, free, matched):
            result = method(block_to, free, matched)
            calls.append((list(block_to), list(free), list(matched), result))
            return result

        matroid._parallel_parts = record
        return calls

    def _assert_parts_by_iteration(self, family: SetFamily, call) -> bool:
        """Check one recorded call; say whether an arc points forward, to a
        block reached later."""
        block_to, free, matched, (post, roots, reached, under, twice) = call
        blocks = set(free) | set(matched)
        arcs = {
            b: {c for c in blocks if c != b and family.blocks[c].has_index(block_to[b])}
            for b in matched
        }
        doms = {b: {b} for b in free}
        doms.update((b, set(blocks)) for b in matched)
        changed = True
        while changed:
            changed = False
            for b in matched:
                common = {b} | set.intersection(*(doms[c] for c in arcs[b]))
                if common != doms[b]:
                    doms[b], changed = common, True
        children = {b for b in doms if doms[b] == {b}}
        assert roots == sum(1 << b for b in children)
        assert reached == sum(1 << b for b in doms)
        elements: dict[int, set[int]] = {}
        for b in doms:
            (child,) = doms[b] & children
            assert post[b] & roots == 1 << child
            elements.setdefault(child, set()).update(bits_of(family.blocks[b].mask))
        assert under == {1 << c: sum(1 << e for e in members) for c, members in elements.items()}
        counts = [sum(e in members for members in elements.values()) for e in range(family.universe.n)]
        assert twice == sum(1 << e for e, k in enumerate(counts) if k > 1)
        return any(c in matched[k + 1:] for k, b in enumerate(matched) for c in arcs[b])

    def _forward_calls(self, family: SetFamily, sets) -> list[bool]:
        matroid = TransversalMatroid(family)
        calls = self._recorded(matroid)
        enumerate_lattice(matroid)
        for x in sets:
            matroid.ranks_and_closures_without(x, [1 << j for j in range(family.m)])
        return [self._assert_parts_by_iteration(family, call) for call in calls]

    def test_a_forward_arc_gets_further_passes(self):
        # F = {p, q} matches p to B1 and q to B2 and leaves U1 and U2
        # unmatched.  B1 is reached from U1, which holds p; p also lies in
        # B2, reached later from U2, so the arc B1 -> B2 points forward.  A
        # single pass would leave B1 under U1 and put t with r
        family = fam(
            "universe: p q r s t w\n"
            "block B1: p t\nblock B2: p q w\nblock U1: p r\nblock U2: q s"
        )
        matroid = TransversalMatroid(family)
        universe = family.universe
        flat = universe.subset(["p", "q"])
        assert matroid._maximum_matching(flat.mask)[0] == [0, 1, -1, -1]
        calls = self._recorded(matroid)
        rank, covers = matroid.covers_of(flat)
        assert calls[0][1:3] == ([2, 3], [0, 1])
        assert self._assert_parts_by_iteration(family, calls[0])
        assert rank == 2
        assert sorted(covers) == sorted(covers_by_closure(matroid, flat)[1])
        assert sorted(covers) == sorted(
            universe.subset(["p", "q", *extra]).mask for extra in (["r"], ["t"], ["s", "w"])
        )

    @given(loopy_families(), st.lists(st.integers(0, 63), max_size=4))
    def test_equals_the_fixpoint_on_families(self, family, masks):
        universe = family.universe
        sets = [universe.empty(), universe.full()]
        sets += [ElementSet(universe, mask & universe.full_mask) for mask in masks]
        self._forward_calls(family, sets)

    @pytest.mark.parametrize("n", (8, 10, 12))
    def test_equals_the_fixpoint_on_density_coverings(self, n):
        rng = random.Random(900 + n)
        forward = []
        for _ in range(3):
            covering = density_covering(rng, n, n // 2 + 1)
            sets = [ElementSet(covering.universe, rng.randrange(1 << n)) for _ in range(20)]
            forward += self._forward_calls(covering, sets)
        # calls with and without a forward arc both occur
        assert any(forward) and not all(forward)


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

    def test_two_matchings_per_call(self, monkeypatch):
        # classes {0 1 2} and {6 7}, a repeated block {8 9} and a loop 10: the
        # loops' matching, then one covers query on them.  One closure per
        # element not yet in a class made 8 matchings here
        family = fam(
            "universe: 0 1 2 3 4 5 6 7 8 9 10\n"
            "block: 0 1 2 3\nblock: 3 4 5\nblock: 5 6 7 8\nblock: 8 9\nblock: 9 8"
        )
        calls = []
        match = TransversalMatroid._maximum_matching

        def counted(matroid, mask):
            calls.append(mask)
            return match(matroid, mask)

        monkeypatch.setattr(TransversalMatroid, "_maximum_matching", counted)
        loops, classes = TransversalMatroid(family).parallel_classes()
        assert calls == [0, 1 << 10]
        assert loops.labels() == ("10",)
        assert [c.labels() for c in classes] == [("6", "7"), ("0", "1", "2")]

    @given(families(max_n=8, max_m=6))
    def test_parallel_classes_match_per_element_closures(self, family):
        # the reference: the loops, then the closure of each element not yet
        # in a class, less the loops
        matroid = TransversalMatroid(family)
        universe = family.universe
        loops = matroid.closure(universe.empty())
        classes, assigned = [], loops.mask
        for e in range(universe.n):
            if not assigned >> e & 1:
                cls = matroid.closure(universe.singleton(e)) - loops
                assigned |= cls.mask
                if len(cls) >= 2:
                    classes.append(cls)
        expected = (loops, tuple(sorted(classes, key=ElementSet.sort_key)))
        assert matroid.parallel_classes() == expected

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
                        pair = ElementSet(covering.universe, (1 << a) | (1 << b))
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

