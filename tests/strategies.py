"""Hypothesis strategies for families, coverings, partitions and subsets."""

from hypothesis import strategies as st

from covlat import Covering, ElementSet, Partition, SetFamily, Universe, as_covering, as_partition


def universes(max_n: int = 6) -> st.SearchStrategy[Universe]:
    return st.integers(1, max_n).map(
        lambda n: Universe(tuple(str(i + 1) for i in range(n)))
    )


@st.composite
def families(draw, max_n: int = 6, max_m: int = 5) -> SetFamily:
    universe = draw(universes(max_n))
    m = draw(st.integers(1, max_m))
    masks = draw(
        st.lists(st.integers(1, universe.full_mask), min_size=m, max_size=m)
    )
    return SetFamily(universe, [ElementSet(universe, mask) for mask in masks])


def _covered(draw, family: SetFamily) -> SetFamily:
    """The family with each uncovered element added to a random block."""
    universe = family.universe
    masks = [block.mask for block in family.blocks]
    for e in range(universe.n):
        if not any(mask >> e & 1 for mask in masks):
            masks[draw(st.integers(0, len(masks) - 1))] |= 1 << e
    return SetFamily(universe, [ElementSet(universe, mask) for mask in masks])


def _union(masks) -> int:
    union = 0
    for mask in masks:
        union |= mask
    return union


def _named(draw, family: SetFamily) -> SetFamily:
    """The family with some blocks given names, some of them of the K<i>
    form that an unnamed block elsewhere would get.  As every family
    requires, no two blocks end up with one name: a block whose name, given
    or the default K<i+1>, an earlier block already has is renamed R<i>."""
    pool = [None, "X", "Y"] + [f"K{i}" for i in range(1, family.m + 2)]
    names = draw(st.lists(st.sampled_from(pool), min_size=family.m, max_size=family.m))
    seen = set()
    for i, name in enumerate(names):
        name = name or f"K{i + 1}"
        if name in seen:
            names[i] = f"R{i}"
        seen.add(name)
    return SetFamily(family.universe, family.blocks, names)


@st.composite
def coverings(draw, max_n: int = 6, max_m: int = 5) -> Covering:
    return as_covering(_covered(draw, draw(families(max_n, max_m))))


@st.composite
def named_families(draw, max_n: int = 6, max_m: int = 5) -> SetFamily:
    return _named(draw, draw(families(max_n, max_m)))


@st.composite
def named_covering_families(draw, max_n: int = 6, max_m: int = 5) -> SetFamily:
    """Named families whose blocks union to the universe; blocks may repeat,
    so promoting one to a covering may drop some."""
    return _named(draw, _covered(draw, draw(families(max_n, max_m))))


@st.composite
def named_families_with_unions(draw, max_n: int = 6, max_m: int = 5) -> SetFamily:
    """Named families that cover the universe: distinct blocks of one or two
    elements, a singleton for each element they miss, then two to four
    blocks, each the union of two or more earlier blocks, all in a random
    order.  Several reducible blocks, some built from others, are common."""
    n = draw(st.integers(3, max_n))
    universe = Universe(tuple(str(i + 1) for i in range(n)))
    small = st.sets(st.integers(0, n - 1), min_size=1, max_size=2).map(
        lambda members: sum(1 << e for e in members)
    )
    masks = draw(st.lists(small, min_size=2, max_size=max_m, unique=True))
    masks += [1 << e for e in range(n) if not _union(masks) >> e & 1]
    for _ in range(draw(st.integers(2, 4))):
        picked = draw(
            st.lists(
                st.sampled_from(range(len(masks))), min_size=2, max_size=len(masks), unique=True
            )
        )
        masks.append(_union(masks[i] for i in picked))
    masks = draw(st.permutations(masks))
    return _named(draw, SetFamily(universe, [ElementSet(universe, mask) for mask in masks]))


@st.composite
def partitions(draw, max_n: int = 6) -> Partition:
    universe = draw(universes(max_n))
    owner = draw(
        st.lists(st.integers(0, universe.n - 1), min_size=universe.n, max_size=universe.n)
    )
    groups: dict[int, int] = {}
    for e, g in enumerate(owner):
        groups[g] = groups.get(g, 0) | 1 << e
    blocks = [ElementSet(universe, mask) for mask in groups.values()]
    return as_partition(SetFamily(universe, blocks))


@st.composite
def covering_and_subset(draw, max_n: int = 6, max_m: int = 5):
    covering = draw(coverings(max_n, max_m))
    mask = draw(st.integers(0, covering.universe.full_mask))
    return covering, ElementSet(covering.universe, mask)


@st.composite
def covering_and_two_subsets(draw, max_n: int = 6, max_m: int = 5):
    covering = draw(coverings(max_n, max_m))
    x = draw(st.integers(0, covering.universe.full_mask))
    y = draw(st.integers(0, covering.universe.full_mask))
    return (
        covering,
        ElementSet(covering.universe, x),
        ElementSet(covering.universe, y),
    )


@st.composite
def family_and_two_subsets(draw, max_n: int = 6, max_m: int = 5):
    family = draw(families(max_n, max_m))
    x = draw(st.integers(0, family.universe.full_mask))
    y = draw(st.integers(0, family.universe.full_mask))
    return (
        family,
        ElementSet(family.universe, x),
        ElementSet(family.universe, y),
    )
