import random
from itertools import combinations_with_replacement, count
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covlat import bridge, verify
from covlat.approximation import NeighborhoodTable, UpperOperator, partition_upper
from covlat.bridge import (
    LatticeInducedMatroid,
    SubmodularSystem,
    independence_from_lattice,
    independent_iff_flat_bound,
    induced_rank,
)
from covlat.generators import (
    partition_with_nested_block,
    partition_with_union_block,
    random_covering,
    random_family,
    random_partition,
)
from covlat.errors import CovlatError, GuardExceeded, ValidationError
from covlat.lattice import (
    closure_from_rank,
    enumerate_lattice,
    is_modular_element,
    is_modular_pair,
    modular_pair_by_heights,
    modular_pairs,
)
from covlat.oracle import BruteForce
from covlat.relations import check_reduction_preservation
from covlat.transversal import TransversalMatroid
from covlat.universe import (
    Covering,
    ElementSet,
    as_covering,
    as_partition,
    is_partition,
    parse_family,
)
from covlat.verify import CheckResult, verify_covering, verify_family, verify_random
from conftest import table_and_verdicts
from strategies import families


def test_checks_run_counts_every_suite_once():
    # verify_random draws instance i as a family, covering, partition, then a
    # partition with a nested (i % 8 == 3) or union block; replay its draws.
    rng = random.Random(1)
    instances = [
        random_family(rng, 5, 4),
        random_covering(rng, 5, 4),
        random_partition(rng, 5),
        partition_with_nested_block(rng, 5)[0],
        random_family(rng, 5, 4),
        random_covering(rng, 5, 4),
        random_partition(rng, 5),
        partition_with_union_block(rng, 5)[0],
    ]
    for covering in (instances[3], instances[7]):
        report = check_reduction_preservation(*table_and_verdicts(covering))
        assert any(r.holds is not None for r in report.records)
    expected = sum(
        len(verify_family(x)) if i % 4 == 0 else len(verify_covering(x))
        for i, x in enumerate(instances)
    )
    assert verify_random(8, 1, max_n=5, max_m=4).checks_run == expected


@pytest.mark.parametrize("max_n", [65, 70])
def test_campaign_refuses_max_n_over_the_universe_cap_before_any_draw(max_n, monkeypatch):
    # a drawn instance over the cap would be refused by Universe mid-campaign
    # or skipped by the oracle budget, as the RNG happened to fall
    def never(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    for name in (
        "random_family",
        "random_covering",
        "random_partition",
        "partition_with_nested_block",
        "partition_with_union_block",
    ):
        monkeypatch.setattr(verify, name, never)
    with pytest.raises(ValidationError) as refused:
        verify_random(100, 1, max_n=max_n)
    assert str(refused.value) == f"campaign max_n={max_n} exceeds the universe cap of 64"


def counted_builds(monkeypatch) -> dict[str, list]:
    """Record the arguments of every lattice, verdict, table, transversal
    matroid and modularity-table build that ``verify`` makes."""
    calls: dict[str, list] = {
        name: [] for name in ("lattices", "verdicts", "tables", "families", "modularity")
    }

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(verify, "enumerate_lattice", counted("lattices", verify.enumerate_lattice))
    monkeypatch.setattr(
        verify, "closure_operator_verdict", counted("verdicts", verify.closure_operator_verdict)
    )
    monkeypatch.setattr(verify, "modular_pairs", counted("modularity", verify.modular_pairs))
    build = NeighborhoodTable.build.__func__
    monkeypatch.setattr(NeighborhoodTable, "build", classmethod(counted("tables", build)))
    init = TransversalMatroid.__init__
    monkeypatch.setattr(TransversalMatroid, "__init__", counted("families", init))
    return calls


def test_verify_covering_builds_each_structure_once(monkeypatch):
    calls = counted_builds(monkeypatch)
    partition = as_covering(parse_family("universe: 1 2 3 4\nblock: 1 2\nblock: 3\nblock: 4\n"))
    assert all(r.passed for r in verify.verify_covering(partition))
    # the transversal matroid, then one partition matroid that sh, xh and vh
    # share: their classes are all {1 2} {3} {4}
    built = calls["lattices"]
    assert len(built) == 2
    assert len({id(matroid) for (matroid,) in built}) == 2
    # one modularity pass per lattice
    assert len(calls["modularity"]) == 2
    assert len(calls["verdicts"]) == 3
    # no block is reducible or immured, so no shrunk covering gets a table
    assert len(calls["tables"]) == 1
    # the covering's matroid is built once: the relations read every
    # deletion, the reduct and the exclusion from it
    assert sum(1 for _, family in calls["families"] if family is partition) == 1


def test_verify_covering_builds_one_structure_per_distinct_partition(monkeypatch):
    calls = counted_builds(monkeypatch)
    covering = as_covering(parse_family("universe: 1 2 3\nblock: 2\nblock: 1 2 3\nblock: 1 3\n"))
    _, verdicts = table_and_verdicts(covering)
    classes = {kind.value: [repr(c) for c in v.classes] for kind, v in verdicts.items()}
    assert classes == {"sh": ["{1 2 3}"], "xh": ["{2}", "{1 3}"], "vh": ["{2}", "{1 3}"]}
    rows = verify.verify_covering(covering)
    # the transversal matroid, the sh matroid, and one matroid xh and vh share
    assert len(calls["lattices"]) == len({id(m) for (m,) in calls["lattices"]}) == 3
    assert len(calls["modularity"]) == 3
    # every kind keeps its own induced-matroid and modularity rows
    for kind in ("sh", "xh", "vh"):
        names = [r.name for r in rows if r.name.startswith(kind)]
        assert names == [
            f"{kind} criterion matches exhaustive axiom check",
            f"{kind} matroid matches the definitional independence",
            f"{kind} pair-closure cover criterion",
            f"{kind}: rank and height modularity agree",
            f"{kind}: atom pairs are modular pairs",
            f"{kind}: atoms are modular elements",
        ]


class OffByOne:
    """A matroid whose rank is off by one (+1 or -1) on chosen masks, with
    its closure derived from that rank; covers, partition classes and every
    other attribute are the wrapped matroid's."""

    def __init__(self, matroid, lies: dict[int, int]):
        self.matroid = matroid
        self.lies = lies

    def __getattr__(self, name):
        return getattr(self.matroid, name)

    def rank(self, x):
        return self.matroid.rank(x) + self.lies.get(x.mask, 0)

    def closure(self, x):
        return closure_from_rank(self, x)


def per_pair_modularity(matroid, lattice, induced):
    """``verify_modularity`` by the per-pair functions, as a reference:
    ``is_modular_pair`` and ``modular_pair_by_heights`` on every pair (i, j >= i),
    ``is_modular_pair`` on atom pairs and ``is_modular_element`` on atoms."""
    results = []
    targets = [("transversal", matroid, lattice)]
    targets += [(kind.value, m, lat) for kind, (m, lat) in induced.items()]
    for label, m, lat in targets:
        atoms = lat.atoms()
        cross_bad = next(
            (
                (x, y)
                for i, x in enumerate(lat.flats)
                for y in lat.flats[i:]
                if is_modular_pair(lat, m, x, y) != modular_pair_by_heights(lat, x, y)
            ),
            None,
        )
        results.append(
            CheckResult(
                f"{label}: rank and height modularity agree",
                cross_bad is None,
                "" if cross_bad is None else f"disagree on {cross_bad}",
            )
        )
        pair_bad = next(
            (
                (a, b)
                for i, a in enumerate(atoms)
                for b in atoms[i:]
                if not is_modular_pair(lat, m, a, b)
            ),
            None,
        )
        results.append(
            CheckResult(
                f"{label}: atom pairs are modular pairs",
                pair_bad is None,
                "" if pair_bad is None else f"fails on {pair_bad}",
            )
        )
        elem_bad = next((a for a in atoms if not is_modular_element(lat, m, a)), None)
        results.append(
            CheckResult(
                f"{label}: atoms are modular elements",
                elem_bad is None,
                "" if elem_bad is None else f"fails on {elem_bad!r}",
            )
        )
    return results


def per_pair_closure_criterion(universe, induced):
    """The pair-closure rows of ``verify_induced_matroids``, as a reference:
    two closures for every ordered pair (a, b), a != b, and every pair read."""
    results = []
    for kind, (matroid, lattice) in induced.items():
        violations = []
        for a in range(universe.n):
            for b in range(universe.n):
                if a == b:
                    continue
                x, y = universe.singleton(a), universe.singleton(b)
                same_class = any(cls.has_index(a) and cls.has_index(b) for cls in matroid.classes)
                if lattice.covers(matroid.closure(x), matroid.closure(x | y)) == same_class:
                    violations.append((a, b))
        results.append(
            CheckResult(
                f"{kind.value} pair-closure cover criterion",
                not violations,
                "" if not violations else f"fails on {violations[0]}",
            )
        )
    return results


def outcome(suite):
    """A suite's rows, or the type and text of the error it raised."""
    try:
        return suite()
    except CovlatError as exc:
        return type(exc).__name__, str(exc)


def lying(rng: random.Random, matroid, wrapper=OffByOne):
    """The matroid's lattice and the matroid wrapped to lie with even odds,
    off by one on one or two masks drawn from its flats, unions of two
    flats and pairs of elements.  The lattice is the honest matroid's."""
    n = matroid.universe.n
    lattice = enumerate_lattice(matroid)
    masks = [f.mask for f in lattice.flats]
    candidates = [rng.choice(masks) | rng.choice(masks) for _ in range(3)]
    candidates += [1 << rng.randrange(n) | 1 << rng.randrange(n) for _ in range(3)]
    candidates.append(rng.choice(masks))
    lies = {mask: rng.choice((-1, 1)) for mask in rng.sample(candidates, rng.randint(1, 2))}
    return wrapper(matroid, lies if rng.random() < 0.5 else {}), lattice


def lying_instance(rng: random.Random):
    """A covering's table, its transversal matroid and lattice and its
    partition matroids and lattices, each matroid ``lying``."""
    draw = rng.randrange(3)
    if draw == 0:
        covering = random_covering(rng, 6, 6)
    elif draw == 1:
        covering = as_covering(random_partition(rng, 6))
    else:
        covering = partition_with_union_block(rng, 6)[0]
    table, verdicts = table_and_verdicts(covering)
    induced = {
        kind: lying(rng, verdict.partition_matroid(covering.universe))
        for kind, verdict in verdicts.items()
        if verdict.is_closure
    }
    return table, *lying(rng, TransversalMatroid(covering)), induced


def test_lying_rank_oracles_fail_the_rows_the_per_pair_scans_fail():
    rng = random.Random(16)
    seen: dict[tuple[str, bool], int] = {}
    raised = 0
    for _ in range(150):
        table, matroid, lattice, induced = lying_instance(rng)
        rows = verify.verify_modularity(matroid, lattice, induced)
        assert rows == per_pair_modularity(matroid, lattice, induced)
        closure_rows = outcome(
            lambda: [
                r
                for r in verify.verify_induced_matroids(table, induced)
                if "pair-closure" in r.name
            ]
        )
        universe = table.covering.universe
        assert closure_rows == outcome(lambda: per_pair_closure_criterion(universe, induced))
        if isinstance(closure_rows, tuple):
            raised += 1
        else:
            rows += closure_rows
        for r in rows:
            check = "pair-closure" if "pair-closure" in r.name else r.name.split(": ")[1]
            seen[check, r.passed] = seen.get((check, r.passed), 0) + 1
    # each of the four checks both passes and fails, witnesses compared above
    assert len(seen) == 8 and min(seen.values()) >= 10, seen
    assert raised >= 10


class LyingRanks(OffByOne):
    """OffByOne whose independence also follows its lying rank."""

    def is_independent(self, x):
        return self.rank(x) == len(x)


def per_kind_induced_matroids(table, induced):
    """``verify_induced_matroids`` with nothing shared between kinds, as a
    reference: each kind applies its operator to x - e for every e in every
    subset x, and runs its own pair-closure scan."""
    covering = table.covering
    results = []
    universe = covering.universe
    for kind, (matroid, lattice) in induced.items():
        results.append(
            verify._agree_on_subsets(
                f"{kind.value} matroid matches the definitional independence",
                universe,
                lambda x: all(
                    not table.apply(kind, x.without_index(e)).has_index(e) for e in x.indices()
                ),
                matroid.is_independent,
            )
        )
        closed = {
            1 << a | 1 << b: matroid.closure(ElementSet(universe, 1 << a | 1 << b))
            for a, b in combinations_with_replacement(range(universe.n), 2)
        }
        bad = [
            (a, b)
            for a in range(universe.n)
            for b in range(universe.n)
            if a != b
            and lattice.covers(closed[1 << a], closed[1 << a | 1 << b])
            == any(cls.has_index(a) and cls.has_index(b) for cls in matroid.classes)
        ]
        results.append(
            verify._first_witness(f"{kind.value} pair-closure cover criterion", "fails on {}", bad)
        )
    if is_partition(covering):
        partition = as_partition(covering)
        matroid, _ = induced[UpperOperator.SH]
        results.append(
            verify._agree_on_subsets(
                "partition matroid closure equals the upper approximation",
                universe,
                matroid.closure,
                lambda x: partition_upper(partition, x),
            )
        )
    return results


def per_kind_modularity(matroid, lattice, induced):
    """``verify_modularity`` with both modularity tables built for every
    target, shared or not, as a reference."""
    results = []
    targets = [("transversal", matroid, lattice)]
    targets += [(kind.value, m, lat) for kind, (m, lat) in induced.items()]
    for label, m, lat in targets:
        flats, (by_rank, by_heights) = lat.flats, modular_pairs(lat, m)
        differ = map(int.__xor__, by_rank, by_heights)
        atoms = [k for k, height in enumerate(lat.heights) if height == 1]
        atom_bits, everything = sum(1 << k for k in atoms), (1 << len(flats)) - 1
        crossed = verify._lowest_pairs(flats, count(), differ)
        unpaired = verify._lowest_pairs(flats, atoms, (atom_bits & ~by_rank[k] for k in atoms))
        nonmodular = (flats[k] for k in atoms if by_rank[k] != everything)
        for name, detail, bad in (
            ("rank and height modularity agree", "disagree on {}", crossed),
            ("atom pairs are modular pairs", "fails on {}", unpaired),
            ("atoms are modular elements", "fails on {!r}", nonmodular),
        ):
            results.append(verify._first_witness(f"{label}: {name}", detail, bad))
    return results


def shared_instance(rng: random.Random):
    """A covering, partition, or partition with a union or nested block,
    n <= 6; its table; its transversal matroid and lattice ``lying``; and
    its induced structures as ``verify_covering`` shares them, one
    ``lying`` ``LyingRanks`` pair per distinct class partition, held by
    every kind that has those classes."""
    draw = rng.randrange(4)
    if draw == 0:
        covering = random_covering(rng, 6, 6)
    elif draw == 1:
        covering = as_covering(random_partition(rng, 6))
    else:
        build = partition_with_union_block if draw == 2 else partition_with_nested_block
        covering = build(rng, 6)[0]
    table, verdicts = table_and_verdicts(covering)
    shared, induced = {}, {}
    for kind, verdict in verdicts.items():
        if verdict.is_closure:
            if verdict.classes not in shared:
                matroid = verdict.partition_matroid(covering.universe)
                shared[verdict.classes] = lying(rng, matroid, LyingRanks)
            induced[kind] = shared[verdict.classes]
    return table, *lying(rng, TransversalMatroid(covering)), induced


def test_shared_partition_structures_give_the_per_kind_rows():
    rng = random.Random(19)
    seen: dict[tuple[str, bool], int] = {}
    raised = shared = distinct = 0
    for _ in range(600):
        table, matroid, lattice, induced = shared_instance(rng)
        pairs = {id(pair) for pair in induced.values()}
        shared += len(pairs) < len(induced)
        distinct += len(pairs) > 1
        rows = outcome(lambda: verify.verify_modularity(matroid, lattice, induced))
        assert rows == outcome(lambda: per_kind_modularity(matroid, lattice, induced))
        induced_rows = outcome(lambda: verify.verify_induced_matroids(table, induced))
        assert induced_rows == outcome(lambda: per_kind_induced_matroids(table, induced))
        if isinstance(induced_rows, tuple):
            raised += 1
        else:
            rows += induced_rows
        for r in rows:
            if r.name.startswith(("sh", "xh", "vh")):
                seen[r.name, r.passed] = seen.get((r.name, r.passed), 0) + 1
    # each of the five per-kind rows of each kind passes and fails, witnesses
    # compared above; kinds share a structure, or hold two, in many instances
    assert len(seen) == 30 and min(seen.values()) >= 10, seen
    assert raised >= 10 and shared >= 100 and distinct >= 50, (raised, shared, distinct)


def test_induced_matroids_refuse_over_the_guard_before_any_image(monkeypatch):
    path = Path(__file__).resolve().parent / "inputs" / "partition_20.cov"
    covering = as_covering(parse_family(path.read_text()))
    table, verdicts = table_and_verdicts(covering)
    induced = {}
    for kind, verdict in verdicts.items():
        matroid = verdict.partition_matroid(covering.universe)
        induced[kind] = matroid, enumerate_lattice(matroid)
    applied = []
    apply = NeighborhoodTable.apply

    def counted(self, kind, x):
        applied.append(kind)
        return apply(self, kind, x)

    monkeypatch.setattr(NeighborhoodTable, "apply", counted)
    with pytest.raises(GuardExceeded) as refused:
        verify.verify_induced_matroids(table, induced)
    assert str(refused.value) == (
        "sh matroid matches the definitional independence: "
        "universe size 20 exceeds enumeration guard 14"
    )
    assert applied == []


def per_subset_round_trip(family, matroid, lattice):
    """``verify_round_trip`` asking every subset for the lattice-bound
    independence, ``induced_rank`` and the flat bound, as a reference."""
    universe = family.universe

    def agree(name, mine, theirs):
        bad = next((x for x in universe.subsets() if mine(x) != theirs(x)), None)
        return CheckResult(name, bad is None, "" if bad is None else f"differs on {bad!r}")

    results = []
    if family.covers_universe():
        system = SubmodularSystem.from_flat_lattice(lattice)
        rebuilt = LatticeInducedMatroid(system)
        name = "matroid from lattice has the original independent sets"
        if isinstance(family, Covering) and is_partition(family):
            name += " (partition)"
        results.append(agree(name, rebuilt.is_independent, matroid.is_independent))
        results.append(
            agree(
                "induced rank equals the original rank",
                lambda x: induced_rank(system, x),
                matroid.rank,
            )
        )
    results.append(
        agree(
            "flat bound criterion matches independence",
            lambda x: independent_iff_flat_bound(matroid, x, lattice.flats),
            matroid.is_independent,
        )
    )
    return results


def round_trip_instance(rng: random.Random):
    """A family, covering or partition with n <= 6, its transversal matroid
    lying by one on one to three masks (flats, unions of two flats, pairs
    of elements, any subset) with even odds, and its lattice with, at odds
    of one in four each, one height moved by one or one flat dropped."""
    draw = rng.randrange(3)
    if draw == 0:
        family = random_family(rng, 6, 5)
    elif draw == 1:
        family = random_covering(rng, 6, 5)
    else:
        family = random_partition(rng, 6)
    n = family.universe.n
    honest = TransversalMatroid(family)
    lattice = enumerate_lattice(honest)
    flats, heights = list(lattice.flats), list(lattice.heights)
    masks = [f.mask for f in flats]
    candidates = [rng.choice(masks) | rng.choice(masks) for _ in range(2)]
    candidates += [1 << rng.randrange(n) | 1 << rng.randrange(n), rng.randrange(1 << n)]
    candidates += [rng.choice(masks)] * 2
    lies = {mask: rng.choice((-1, 1)) for mask in rng.sample(candidates, rng.randint(1, 3))}
    matroid = LyingRanks(honest, lies if rng.random() < 0.5 else {})
    change = rng.randrange(4)
    k = rng.randrange(len(flats))
    if change == 0:
        heights[k] = max(0, heights[k] + rng.choice((-1, 1)))
    elif change == 1 and len(flats) > 1:
        del flats[k], heights[k]
    shown = SimpleNamespace(universe=family.universe, flats=tuple(flats), heights=tuple(heights))
    return family, matroid, shown


def test_round_trip_tables_give_the_per_subset_rows():
    rng = random.Random(18)
    seen: dict[tuple[str, bool], int] = {}
    raised = 0
    for _ in range(1200):
        family, matroid, lattice = round_trip_instance(rng)
        rows = outcome(lambda: verify.verify_round_trip(family, matroid, lattice))
        assert rows == outcome(lambda: per_subset_round_trip(family, matroid, lattice))
        if isinstance(rows, tuple):
            raised += 1
            continue
        for r in rows:
            row = r.name.split(" ")[0]
            seen[row, r.passed] = seen.get((row, r.passed), 0) + 1
    # the three rows each pass and fail, witnesses compared above
    assert len(seen) == 6 and min(seen.values()) >= 10, seen
    assert raised >= 10


class ClosedFormRanks:
    """A rank oracle reading a system's closed form, min over members Y of
    f(Y) + |x - Y|, with independence derived from it."""

    def __init__(self, system):
        self.system = system

    def rank(self, x):
        return min(self.system.f(y) + len(x - y) for y in self.system.sets)

    def is_independent(self, x):
        return self.rank(x) == len(x)


def test_round_trip_raises_where_the_greedy_rank_first_disagrees(monkeypatch):
    # weights corrupted after validation can make the lattice-bound predicate
    # no matroid, so its greedy rank and the closed form part; against ranks
    # that follow the closed form, the rank row's sweep meets no other
    # difference first and raises induced_rank's error at its first such mask
    rng = random.Random(5)
    build = SubmodularSystem.from_flat_lattice
    raised = 0
    for _ in range(200):
        family = random_covering(rng, 6, 5) if rng.random() < 0.5 else random_partition(rng, 6)
        lattice = enumerate_lattice(TransversalMatroid(family))
        system = build(lattice)
        for member in rng.sample(system.sets[1:], min(2, len(system.sets) - 1)):
            system._values[member.mask] = rng.randrange(system.f(member) + 2)
        monkeypatch.setattr(SubmodularSystem, "from_flat_lattice", classmethod(lambda c, _: system))
        matroid = ClosedFormRanks(system)
        rows = outcome(lambda: verify.verify_round_trip(family, matroid, lattice))
        assert rows == outcome(lambda: per_subset_round_trip(family, matroid, lattice))
        if isinstance(rows, tuple):
            errors = (outcome(lambda: induced_rank(system, x)) for x in family.universe.subsets())
            assert rows == next(error for error in errors if isinstance(error, tuple))
            raised += 1
    assert raised >= 10


def check_min_plus_identities(universe, members: dict[int, int]):
    """On every subset X of the universe, g(X) from ``_min_plus_ranks`` over
    these (member mask, weight) pairs is the closed form, g(X) >= |X| is the
    lattice-bound independence and the flat bound, and the greedy table
    keeps as many elements as ``LatticeInducedMatroid.rank``."""
    n = universe.n
    sets = [ElementSet(universe, mask) for mask in members]
    system = SimpleNamespace(universe=universe, sets=sets, f=lambda s: members[s.mask])
    weights = SimpleNamespace(rank=system.f)
    ranks = verify._min_plus_ranks(n, members.items())
    greedy = verify._greedy_sets(n, ranks)
    rebuilt = LatticeInducedMatroid(system)
    for x in universe.subsets():
        assert ranks[x.mask] == min(v + (x.mask & ~y).bit_count() for y, v in members.items())
        independent = ranks[x.mask] >= len(x)
        assert independent == independence_from_lattice(system, x)
        assert independent == independent_iff_flat_bound(weights, x, sets)
        assert greedy[x.mask].bit_count() == rebuilt.rank(x)
    return ranks


@given(families(max_n=6), st.data())
def test_min_plus_tables_read_the_per_set_functions(family, data):
    # families cover the universe or leave loops; on flats weighted by rank
    # the table is the rank of any matroid, and on a covering's system it is
    # induced_rank, which also checks it against the greedy rank
    universe = family.universe
    matroid = TransversalMatroid(family)
    lattice = enumerate_lattice(matroid)
    ranks = check_min_plus_identities(universe, {y.mask: matroid.rank(y) for y in lattice.flats})
    assert all(ranks[x.mask] == matroid.rank(x) for x in universe.subsets())
    if family.covers_universe():
        system = SubmodularSystem.from_flat_lattice(lattice)
        assert all(ranks[x.mask] == induced_rank(system, x) for x in universe.subsets())
    weight = st.integers(0, universe.n + 1)
    members = data.draw(st.dictionaries(st.integers(0, universe.full_mask), weight, max_size=8))
    members.setdefault(universe.full_mask, data.draw(weight))
    check_min_plus_identities(universe, members)


def test_round_trip_refuses_over_the_guard_before_building(monkeypatch):
    path = Path(__file__).resolve().parent / "inputs" / "density_15.cov"
    family = parse_family(path.read_text())
    matroid = TransversalMatroid(family)
    lattice = enumerate_lattice(matroid)

    def never(*args, **kwargs):
        raise AssertionError("built before the guard refused")

    monkeypatch.setattr(SubmodularSystem, "__init__", never)
    with pytest.raises(GuardExceeded) as refused:
        verify.verify_round_trip(family, matroid, lattice)
    assert str(refused.value) == (
        "matroid from lattice has the original independent sets: "
        "universe size 15 exceeds enumeration guard 14"
    )


def test_round_trip_asks_induced_rank_once_per_covering_and_nothing_per_subset(
    mixed5, monkeypatch
):
    calls: dict[str, int] = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(verify, "induced_rank", counted("induced_rank", verify.induced_rank))
    for name in ("independence_from_lattice", "independent_iff_flat_bound"):
        monkeypatch.setattr(bridge, name, counted(name, getattr(bridge, name)))
    monkeypatch.setattr(LatticeInducedMatroid, "rank", counted("rank", LatticeInducedMatroid.rank))
    loops = parse_family("universe: 1 2 3\nblock: 1 2\n")
    for family, expected in (
        # one induced_rank of the universe: one greedy rank, one test per element
        (mixed5, {"induced_rank": 1, "rank": 1, "independence_from_lattice": 5}),
        (loops, {}),
    ):
        calls.clear()
        matroid = TransversalMatroid(family)
        rows = verify.verify_round_trip(family, matroid, enumerate_lattice(matroid))
        assert all(r.passed for r in rows) and calls == expected


def test_sweep_suites_rank_each_subset_once():
    # the oracle-equivalence and round-trip suites each read one rank per
    # subset of a 6-element covering, and no row asks the matroid again
    family = parse_family(
        "universe: 1 2 3 4 5 6\nblock: 1 2 3\nblock: 3 4\nblock: 4 5 6\nblock: 1 6\nblock: 2 5\n"
    )
    matroid = TransversalMatroid(family)
    lattice = enumerate_lattice(matroid)
    rank, asked = matroid.rank, []

    def counted_rank(x):
        asked.append(x.mask)
        return rank(x)

    matroid.rank = counted_rank
    for suite in (
        lambda: verify.verify_oracle_equivalence(family, BruteForce(family), matroid, lattice),
        lambda: verify.verify_round_trip(family, matroid, lattice),
    ):
        asked.clear()
        rows = suite()
        assert rows and all(r.passed for r in rows)
        assert sorted(asked) == list(range(1 << 6))
