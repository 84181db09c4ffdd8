"""Finite universes, bit-indexed element sets, block families, coverings.

Element labels are opaque tokens mapped to dense indices when a universe is
built; all set arithmetic afterwards runs on integer bitmasks, which caps a
universe at 64 elements (the intended desk scale).

Covering files are UTF-8 and line oriented::

    # comment
    universe: 1 2 3 4 5
    block K1: 1 2   # a trailing comment
    block: 4 5

A token that begins with ``#`` starts a comment to the end of the line
(``a#1`` is one label).  The ``universe:`` line must be the first non-comment
line and appear exactly once.  Block names are optional, used only in
reports, and distinct; an unnamed block is named ``K<position>`` by its place
in the input, and that name stays with it through deletions and reductions.
Every family refuses two blocks with one name, so what
``SetFamily.serialize`` writes, every block's name included, parses back.
A deletion is named by its block bitmask D, bit i for block i:
``SetFamily.without(D)`` is the family less those blocks.  A JSON object
with ``universe`` and ``blocks`` fields is accepted wherever the text is.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable, Iterator, Sequence

from .errors import ParseError, ValidationError

MAX_UNIVERSE = 64
_COMMENT = re.compile(r"(?:^|\s)#.*")


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Universe:
    """Ordered alphabet of distinct, whitespace-free element labels; none
    begins with ``#``, which starts a comment in the text format."""

    __slots__ = ("labels", "_index", "n", "full_mask", "_spelled")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise ValidationError("a universe needs at least one element")
        if len(labels) > MAX_UNIVERSE:
            raise ValidationError(
                f"universe size {len(labels)} exceeds the cap of {MAX_UNIVERSE}"
            )
        index: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not label or label[0] == "#" or any(ch.isspace() for ch in label):
                raise ValidationError(f"bad element label {label!r}")
            if label in index:
                raise ValidationError(f"duplicate element label {label!r}")
            index[label] = i
        self.labels = labels
        self._index = index
        self.n = len(labels)
        self.full_mask = (1 << self.n) - 1
        self._spelled = f"0{self.n}b"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"element {label!r} not in universe") from None

    def __contains__(self, label: object) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        # every structure built on one universe shares the object itself
        return other is self or isinstance(other, Universe) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Universe({' '.join(self.labels)})"

    def empty(self) -> "ElementSet":
        return ElementSet(self, 0)

    def full(self) -> "ElementSet":
        return ElementSet(self, self.full_mask)

    def singleton(self, index: int) -> "ElementSet":
        return ElementSet(self, 1 << index)

    def sort_key(self, mask: int) -> int:
        """The canonical order of subsets as one integer: the cardinality,
        then the n-bit mask read backwards (lowest index as the highest
        bit), descending.  It sorts as (size, ascending index sequence)."""
        backwards = int(format(mask, self._spelled)[::-1], 2)
        return mask.bit_count() << self.n | self.full_mask ^ backwards

    def subset(self, labels: Iterable[str]) -> "ElementSet":
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return ElementSet(self, mask)

    def subsets(self) -> Iterator["ElementSet"]:
        """All 2^n subsets, in mask order."""
        for mask in range(1 << self.n):
            yield ElementSet(self, mask)


class ElementSet:
    """Immutable subset of a universe backed by an integer bitmask.

    Equality is extensional: two sets over equal universes with the same
    members are equal.  Iteration yields labels in universe order.
    """

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if mask < 0 or mask > universe.full_mask:
            raise ValidationError(f"mask {mask:#x} outside universe of size {universe.n}")
        self.universe = universe
        self.mask = mask

    def indices(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[i] for i in bits_of(self.mask))

    def has_index(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def with_index(self, index: int) -> "ElementSet":
        return ElementSet(self.universe, self.mask | 1 << index)

    def without_index(self, index: int) -> "ElementSet":
        return ElementSet(self.universe, self.mask & ~(1 << index))

    def complement(self) -> "ElementSet":
        return ElementSet(self.universe, self.universe.full_mask & ~self.mask)

    def sort_key(self) -> int:
        return self.universe.sort_key(self.mask)

    def _check(self, other: "ElementSet") -> None:
        if self.universe != other.universe:
            raise ValidationError("element sets live on different universes")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.universe, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.universe, self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.universe, self.mask & ~other.mask)

    def __le__(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __lt__(self, other: "ElementSet") -> bool:
        return self <= other and self.mask != other.mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels())

    def __contains__(self, label: object) -> bool:
        return label in self.universe and self.has_index(self.universe.index(label))  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.universe == other.universe
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.mask))

    def __repr__(self) -> str:
        return "{" + " ".join(self.labels()) + "}"


class SetFamily:
    """Indexed family of nonempty blocks over one universe.

    Block order and multiplicity are significant: the family is indexed, and
    transversal independence is defined against that indexing.  Every block
    has a display name, fixed when the family is built: the one given, or
    ``K<i+1>`` for an unnamed block at index i; no two blocks share one.
    Equality compares ordered block contents and ignores the names.
    """

    __slots__ = ("universe", "blocks", "names")

    def __init__(
        self,
        universe: Universe,
        blocks: Iterable[ElementSet],
        names: Sequence[str | None] | None = None,
    ):
        blocks = tuple(blocks)
        if not blocks:
            raise ValidationError("a family needs at least one block")
        for i, block in enumerate(blocks):
            if block.universe != universe:
                raise ValidationError(f"block {i + 1} lives on a different universe")
            if not block:
                raise ValidationError(f"block {i + 1} is empty")
        if names is None:
            names = (None,) * len(blocks)
        elif len(names) != len(blocks):
            raise ValidationError("one name per block required")
        names = tuple(name or f"K{i + 1}" for i, name in enumerate(names))
        if len(set(names)) < len(names):
            shared = next(name for name in names if names.count(name) > 1)
            raise ValidationError(f"block name {shared} names two blocks")
        self.universe = universe
        self.blocks = blocks
        self.names = names

    @property
    def m(self) -> int:
        return len(self.blocks)

    def union(self) -> ElementSet:
        mask = 0
        for block in self.blocks:
            mask |= block.mask
        return ElementSet(self.universe, mask)

    def covers_universe(self) -> bool:
        return self.union().mask == self.universe.full_mask

    def check_deleted(self, deleted: int) -> None:
        """Refuse a deleted-block bitmask with a bit past the last block."""
        if not 0 <= deleted < 1 << len(self.blocks):
            raise ValidationError(f"deleted-block mask {deleted:#x} names no block")

    def without(self, deleted: int) -> "SetFamily":
        """The plain family less the blocks in the bitmask ``deleted``; the
        kept blocks keep their order and names."""
        self.check_deleted(deleted)
        kept = [i for i in range(self.m) if not deleted >> i & 1]
        return SetFamily(
            self.universe, [self.blocks[i] for i in kept], [self.names[i] for i in kept]
        )

    def serialize(self) -> str:
        lines = ["universe: " + " ".join(self.universe.labels)]
        for name, block in zip(self.names, self.blocks):
            lines.append(f"block {name}: " + " ".join(block.labels()))
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.universe == other.universe
            and tuple(b.mask for b in self.blocks) == tuple(b.mask for b in other.blocks)
        )

    def __hash__(self) -> int:
        return hash((self.universe, tuple(b.mask for b in self.blocks)))

    def __repr__(self) -> str:
        inner = ", ".join(repr(b) for b in self.blocks)
        return f"{type(self).__name__}[{inner}]"


class Covering(SetFamily):
    """Family whose blocks union to the universe, with no duplicate blocks."""

    __slots__ = ("dropped_duplicates",)

    def __init__(
        self,
        universe: Universe,
        blocks: Iterable[ElementSet],
        names: Sequence[str | None] | None = None,
        dropped_duplicates: tuple[int, ...] = (),
    ):
        super().__init__(universe, blocks, names)
        seen: dict[int, int] = {}
        for i, block in enumerate(self.blocks):
            if block.mask in seen:
                raise ValidationError(
                    f"duplicate blocks {self.names[seen[block.mask]]} and {self.names[i]}"
                )
            seen[block.mask] = i
        missing = self.union().complement()
        if missing:
            raise ValidationError("uncovered elements: " + " ".join(missing.labels()))
        self.dropped_duplicates = dropped_duplicates


class Partition(Covering):
    """Covering with pairwise disjoint blocks."""

    __slots__ = ()

    def __init__(
        self,
        universe: Universe,
        blocks: Iterable[ElementSet],
        names: Sequence[str | None] | None = None,
        dropped_duplicates: tuple[int, ...] = (),
    ):
        super().__init__(universe, blocks, names, dropped_duplicates)
        if sum(len(b) for b in self.blocks) != universe.n:
            raise ValidationError("blocks overlap; not a partition")


def as_covering(family: SetFamily) -> Covering:
    """Promote a family to a covering, deduplicating repeated blocks.

    Raises ``ValidationError`` naming the uncovered elements if the blocks do
    not union to the universe.  Duplicate blocks are dropped (first occurrence
    wins) and recorded on ``Covering.dropped_duplicates``; the kept blocks keep
    their names.
    """
    if isinstance(family, Covering):
        return family
    kept_blocks: list[ElementSet] = []
    kept_names: list[str] = []
    dropped: list[int] = []
    seen: set[int] = set()
    for i, block in enumerate(family.blocks):
        if block.mask in seen:
            dropped.append(i)
            continue
        seen.add(block.mask)
        kept_blocks.append(block)
        kept_names.append(family.names[i])
    return Covering(family.universe, kept_blocks, kept_names, tuple(dropped))


def is_partition(covering: Covering) -> bool:
    """True iff every element belongs to exactly one block."""
    return sum(len(b) for b in covering.blocks) == covering.universe.n


def as_partition(family: SetFamily) -> Partition:
    covering = as_covering(family)
    return Partition(
        covering.universe, covering.blocks, covering.names, covering.dropped_duplicates
    )


def _parse_json_family(text: str) -> tuple[Universe, list[ElementSet], None]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict) or "universe" not in data or "blocks" not in data:
        raise ParseError("JSON input needs 'universe' and 'blocks' fields")
    labels = data["universe"]
    blocks = data["blocks"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError("'universe' must be an array of strings")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ParseError("'blocks' must be an array of arrays of strings")
    universe = Universe(labels)
    built = [_build_block(universe, b, f"block {i + 1}") for i, b in enumerate(blocks)]
    return universe, built, None


def _build_block(universe: Universe, tokens: Sequence[str], where: str) -> ElementSet:
    if not tokens:
        raise ParseError(f"{where}: empty block")
    mask = 0
    for token in tokens:
        if token not in universe:
            raise ParseError(f"{where}: element {token!r} not in universe")
        bit = 1 << universe.index(token)
        if mask & bit:
            raise ParseError(f"{where}: element {token!r} repeated in block")
        mask |= bit
    return ElementSet(universe, mask)


def _parse_text_family(text: str) -> tuple[Universe, list[ElementSet], list[str | None]]:
    universe: Universe | None = None
    raw_blocks: list[tuple[int, str | None, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        if line.startswith("universe"):
            rest = line[len("universe") :].lstrip()
            if not rest.startswith(":"):
                raise ParseError(f"line {lineno}: malformed universe line")
            if universe is not None:
                raise ParseError(f"line {lineno}: repeated universe line")
            tokens = rest[1:].split()
            if not tokens:
                raise ParseError(f"line {lineno}: empty universe")
            try:
                universe = Universe(tokens)
            except ValidationError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        elif line.startswith("block"):
            rest = line[len("block") :]
            if rest and not (rest[0] == ":" or rest[0].isspace()):
                raise ParseError(f"line {lineno}: malformed block line {line!r}")
            head, sep, members = rest.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: malformed block line (missing ':')")
            if universe is None:
                raise ParseError(f"line {lineno}: block before universe line")
            name = head.strip() or None
            raw_blocks.append((lineno, name, members.split()))
        else:
            raise ParseError(f"line {lineno}: malformed line {line!r}")
    if universe is None:
        raise ParseError("no universe line")
    if not raw_blocks:
        raise ParseError("no block lines")
    blocks = [_build_block(universe, tokens, f"line {lineno}") for lineno, _, tokens in raw_blocks]
    return universe, blocks, [name for _, name, _ in raw_blocks]


def parse_family(text: str) -> SetFamily:
    """Parse the text or JSON covering format into a family.

    The universe element order is the order of first occurrence on the
    ``universe:`` line; block order follows the input.  Every refusal is a
    ``ParseError``, two blocks with one name included.
    """
    parse = _parse_json_family if text.lstrip().startswith("{") else _parse_text_family
    try:
        return SetFamily(*parse(text))
    except ValidationError as exc:
        raise ParseError(str(exc)) from None
