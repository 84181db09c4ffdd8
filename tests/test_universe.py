import json

import pytest
from hypothesis import given

from covlat import (
    Covering,
    ElementSet,
    ParseError,
    Partition,
    SetFamily,
    Universe,
    ValidationError,
    as_covering,
    as_partition,
    is_partition,
    parse_family,
)
from conftest import FAMILY4, MIXED5, cov, fam
from strategies import coverings, families


class TestParsing:
    def test_family_golden(self, family4):
        assert family4.m == 3
        assert family4.universe.labels == ("1", "2", "3", "4")
        assert family4.blocks[0] == family4.universe.subset(["2", "3"])
        assert family4.blocks[1] == family4.universe.subset(["4"])
        assert family4.blocks[2] == family4.universe.subset(["2", "4"])
        assert family4.block_name(0) == "F1"

    def test_minimal_covering(self):
        family = parse_family("universe: a\nblock: a")
        assert family.m == 1
        assert family.blocks[0] == family.universe.full()

    def test_comments_and_blank_lines(self):
        family = parse_family("# header\n\nuniverse: x y\n# inner\nblock: x\nblock: y\n")
        assert family.m == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("universe: 1 2\nblock:", "empty block"),
            ("universe: 1 2\nblock: 3", "not in universe"),
            ("universe: 1 2\nblock: 1 1", "repeated"),
            ("universe: 1 2\nwhat: 1", "malformed"),
            ("block: 1\nuniverse: 1", "before universe"),
            ("universe: 1\nuniverse: 1\nblock: 1", "repeated universe"),
            ("universe: 1 1\nblock: 1", "duplicate element"),
            ("universe: 1 2\n", "no block lines"),
            ("# nothing\n", "no universe"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_family(text)

    def test_json_equivalent_to_text(self, family4):
        payload = json.dumps(
            {"universe": ["1", "2", "3", "4"], "blocks": [["2", "3"], ["4"], ["2", "4"]]}
        )
        assert parse_family(payload) == family4

    def test_json_errors(self):
        with pytest.raises(ParseError):
            parse_family("{not json")
        with pytest.raises(ParseError):
            parse_family(json.dumps({"universe": ["1"]}))
        # block errors carry the text format's wording after a "block N" prefix
        for blocks, message in (
            ([[]], "block 1: empty block"),
            ([["1"], ["2"]], "block 2: element '2' not in universe"),
            ([["1", "1"]], "block 1: element '1' repeated in block"),
        ):
            with pytest.raises(ParseError, match=f"^{message}$"):
                parse_family(json.dumps({"universe": ["1"], "blocks": blocks}))

    @given(families())
    def test_serialize_round_trip(self, family):
        assert parse_family(family.serialize()) == family


class TestCovering:
    def test_uncovered_elements_reported(self, family4):
        with pytest.raises(ValidationError, match="uncovered elements: 1"):
            as_covering(family4)

    def test_mixed5_is_covering(self, mixed5):
        assert mixed5.m == 4
        assert mixed5.covers_universe()

    def test_singleton_covering_is_partition(self):
        covering = cov("universe: a\nblock: a")
        assert is_partition(covering)
        assert isinstance(as_partition(covering), Partition)

    def test_duplicates_dropped_with_record(self):
        family = fam("universe: 1 2\nblock: 1 2\nblock: 2 1\nblock: 2")
        covering = as_covering(family)
        assert covering.m == 2
        assert covering.dropped_duplicates == (1,)

    def test_direct_covering_rejects_duplicates(self):
        universe = Universe(("1", "2"))
        block = universe.subset(["1", "2"])
        with pytest.raises(ValidationError, match="duplicate blocks"):
            Covering(universe, [block, block])

    @given(families())
    def test_as_covering_iff_union_is_universe(self, family):
        union = 0
        for block in family.blocks:
            union |= block.mask
        if union == family.universe.full_mask:
            assert as_covering(family).covers_universe()
        else:
            with pytest.raises(ValidationError):
                as_covering(family)


class TestPartition:
    def test_mixed5_not_partition(self, mixed5):
        assert not is_partition(mixed5)

    def test_disjoint_blocks(self):
        assert is_partition(cov("universe: 1 2 3\nblock: 1\nblock: 2\nblock: 3"))
        assert is_partition(cov("universe: a b c\nblock: a b\nblock: c"))

    @given(coverings())
    def test_partition_means_unique_block_per_element(self, covering):
        counts = [0] * covering.universe.n
        for block in covering.blocks:
            for e in block.indices():
                counts[e] += 1
        assert is_partition(covering) == all(c == 1 for c in counts)


class TestElementSet:
    def test_algebra(self):
        universe = Universe(("a", "b", "c"))
        x = universe.subset(["a", "b"])
        y = universe.subset(["b", "c"])
        assert (x & y).labels() == ("b",)
        assert (x | y) == universe.full()
        assert (x - y).labels() == ("a",)
        assert x.complement().labels() == ("c",)
        assert universe.empty() <= x <= universe.full()
        assert "a" in x and "c" not in x
        assert len(x) == 2 and list(x) == ["a", "b"]

    def test_equality_is_extensional(self):
        universe = Universe(("a", "b"))
        assert universe.subset(["a"]) == Universe(("a", "b")).subset(["a"])
        assert hash(universe.subset(["a"])) == hash(Universe(("a", "b")).subset(["a"]))

    def test_cross_universe_operations_fail(self):
        x = Universe(("a",)).full()
        y = Universe(("b",)).full()
        with pytest.raises(ValidationError):
            _ = x | y

    def test_sort_key_orders_by_size_then_indices(self):
        universe = Universe(("1", "2", "3"))
        sets = [universe.subset(s) for s in (["3"], ["1", "2"], ["1"], [])]
        ordered = sorted(sets, key=ElementSet.sort_key)
        assert [s.labels() for s in ordered] == [(), ("1",), ("3",), ("1", "2")]


class TestUniverseValidation:
    def test_label_rules(self):
        with pytest.raises(ValidationError):
            Universe(("a", "a"))
        with pytest.raises(ValidationError):
            Universe(("a b",))
        with pytest.raises(ValidationError):
            Universe(("",))
        with pytest.raises(ValidationError):
            Universe(())

    def test_size_cap(self):
        Universe(tuple(str(i) for i in range(64)))
        with pytest.raises(ValidationError, match="cap"):
            Universe(tuple(str(i) for i in range(65)))

    def test_empty_block_rejected_at_family_level(self):
        universe = Universe(("a",))
        with pytest.raises(ValidationError, match="empty"):
            SetFamily(universe, [universe.empty()])


def test_without_block(mixed5, family4):
    shrunk = mixed5.without_block(3)
    assert isinstance(shrunk, SetFamily) and not isinstance(shrunk, Covering)
    assert shrunk.m == 3
    assert family4.without_block(0).m == 2
    with pytest.raises(ValidationError):
        fam("universe: a\nblock: a").without_block(0)


def test_parse_golden_texts_agree_with_fixtures(mixed5, family4):
    assert cov(MIXED5) == mixed5
    assert fam(FAMILY4) == family4
