import json

import pytest
from hypothesis import given, strategies as st

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
    exclusion,
    is_partition,
    parse_family,
    reduct,
)
from conftest import FAMILY4, MIXED5, cov, fam
from strategies import coverings, families, named_covering_families, named_families


class TestParsing:
    def test_family_golden(self, family4):
        assert family4.m == 3
        assert family4.universe.labels == ("1", "2", "3", "4")
        assert family4.blocks[0] == family4.universe.subset(["2", "3"])
        assert family4.blocks[1] == family4.universe.subset(["4"])
        assert family4.blocks[2] == family4.universe.subset(["2", "4"])
        assert family4.names[0] == "F1"

    def test_minimal_covering(self):
        family = parse_family("universe: a\nblock: a")
        assert family.m == 1
        assert family.blocks[0] == family.universe.full()

    def test_comments_and_blank_lines(self):
        family = parse_family("# header\n\nuniverse: x y\n# inner\nblock: x\nblock: y\n")
        assert family.m == 2

    def test_inline_comments(self):
        family = parse_family(
            "universe: a b  # two elements\nblock K1: a #first\nblock: b\t# second\n"
        )
        assert family.universe.labels == ("a", "b")
        assert [b.labels() for b in family.blocks] == [("a",), ("b",)]
        assert family.names == ("K1", "K2")

    def test_hash_inside_a_label_is_part_of_it(self):
        family = parse_family("universe: a#1 b# #c\nblock: a#1 b#  # both\n")
        assert family.universe.labels == ("a#1", "b#")
        assert family.blocks[0] == family.universe.full()

    @pytest.mark.parametrize(
        "text",
        [
            "universe: a b\nblock K1: a\nblock K1: b\n",
            "universe: a b\nblock K2: a\nblock: b\n",
            "universe: a b\nblock: a\nblock K1: b\n",
        ],
    )
    def test_blocks_sharing_a_name_are_refused(self, text):
        with pytest.raises(ParseError, match="names two blocks"):
            parse_family(text)

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
            ("universe: 1 2\nblocks: 1 2", "malformed block line 'blocks: 1 2'"),
            ("universe 1 2\nblock: 1", "malformed universe line"),
            ("universe:\nblock: 1", "empty universe"),
            ("universe: 1\nblock 1", "missing ':'"),
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
        # serialized, this label would start a comment
        with pytest.raises(ParseError, match="bad element label '#1'"):
            parse_family(json.dumps({"universe": ["#1"], "blocks": [["#1"]]}))
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

    @given(named_families())
    def test_serialize_round_trip_keeps_every_name(self, family):
        parsed = parse_family(family.serialize())
        assert parsed == family
        assert parsed.names == family.names

    def test_a_family_built_in_code_refuses_two_blocks_with_one_name(self):
        # the unnamed second block would be K2 too, and the serialized text
        # would be refused by the parser
        universe = Universe(("a", "b"))
        blocks = [universe.subset(["a"]), universe.subset(["b"])]
        with pytest.raises(ValidationError, match="^block name K2 names two blocks$"):
            SetFamily(universe, blocks, ["K2", None])

    @given(named_covering_families(), st.data())
    def test_built_families_and_their_deletions_parse_back_with_their_names(self, family, data):
        deleted = data.draw(st.integers(0, (1 << family.m) - 2), label="deleted")
        covering = as_covering(family)
        for built in (family, family.without(deleted), reduct(covering), exclusion(covering)):
            parsed = parse_family(built.serialize())
            assert parsed == built
            assert parsed.names == built.names


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

    def test_dropped_duplicate_must_not_shift_a_name_onto_another(self):
        # names are fixed when the family is parsed: the unnamed third block
        # stays K3 when X, a repeat of K2, is dropped before it
        family = fam("universe: a b\nblock K2: a\nblock X: a\nblock: b")
        assert as_covering(family).names == ("K2", "K3")
        # and when a deletion moves it to the second place
        deleted = fam("universe: a b c\nblock K2: a b\nblock B: b\nblock: c").without(1 << 1)
        assert as_covering(deleted).names == ("K2", "K3")

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
        # the text format would read it as a comment
        with pytest.raises(ValidationError, match="bad element label '#a'"):
            Universe(("#a", "b"))

    def test_size_cap(self):
        Universe(tuple(str(i) for i in range(64)))
        with pytest.raises(ValidationError, match="cap"):
            Universe(tuple(str(i) for i in range(65)))

    def test_empty_block_rejected_at_family_level(self):
        universe = Universe(("a",))
        with pytest.raises(ValidationError, match="empty"):
            SetFamily(universe, [universe.empty()])


def test_without_block(mixed5, family4):
    shrunk = mixed5.without(1 << 3)
    assert isinstance(shrunk, SetFamily) and not isinstance(shrunk, Covering)
    assert shrunk.m == 3
    assert family4.without(1 << 0).m == 2
    # bit i deletes block i; the kept blocks keep their order and names
    both = family4.without(0b101)
    assert both.blocks == (family4.blocks[1],) and both.names == ("F2",)
    assert family4.without(0).names == family4.names
    with pytest.raises(ValidationError, match="a family needs at least one block"):
        fam("universe: a\nblock: a").without(1 << 0)
    for deleted, spelled in ((1 << 3, "0x8"), (-1, "-0x1")):
        with pytest.raises(ValidationError, match=f"^deleted-block mask {spelled} names no block$"):
            family4.without(deleted)


def test_parse_golden_texts_agree_with_fixtures(mixed5, family4):
    assert cov(MIXED5) == mixed5
    assert fam(FAMILY4) == family4
