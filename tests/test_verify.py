import random

from covlat import verify
from covlat.approximation import NeighborhoodTable
from covlat.generators import (
    partition_with_nested_block,
    partition_with_union_block,
    random_covering,
    random_family,
    random_partition,
)
from covlat.errors import CovlatError
from covlat.lattice import (
    closure_from_rank,
    enumerate_lattice,
    is_modular_element,
    is_modular_pair,
    modular_pair_by_heights,
)
from covlat.relations import check_reduction_preservation
from covlat.transversal import TransversalMatroid
from covlat.universe import as_covering, parse_family
from covlat.verify import CheckResult, verify_covering, verify_family, verify_random
from conftest import table_and_verdicts


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


def test_verify_covering_builds_each_structure_once(monkeypatch):
    built = []
    verdicts = []
    tables = []
    families = []

    def counted(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(verify, "enumerate_lattice", counted(built, verify.enumerate_lattice))
    monkeypatch.setattr(
        verify, "closure_operator_verdict", counted(verdicts, verify.closure_operator_verdict)
    )
    build = NeighborhoodTable.build.__func__
    monkeypatch.setattr(NeighborhoodTable, "build", classmethod(counted(tables, build)))
    init = TransversalMatroid.__init__
    monkeypatch.setattr(TransversalMatroid, "__init__", counted(families, init))
    partition = as_covering(parse_family("universe: 1 2 3 4\nblock: 1 2\nblock: 3\nblock: 4\n"))
    assert all(r.passed for r in verify.verify_covering(partition))
    # the transversal matroid, then the sh, xh and vh partition matroids
    assert len(built) == 4
    assert len({id(matroid) for (matroid,) in built}) == 4
    assert len(verdicts) == 3
    # no block is reducible or immured, so no shrunk covering gets a table
    assert len(tables) == 1
    # relations reuse the covering's matroid; their own builds are of other
    # families (one block deleted, the reduct, the exclusion)
    assert sum(1 for _, family in families if family is partition) == 1


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


def lying_instance(rng: random.Random):
    """A covering's table, its transversal matroid and lattice and its
    partition matroids and lattices; each matroid lies with even odds, off
    by one on one or two masks drawn from its flats, unions of two flats and
    pairs of elements.  The lattices are the honest matroids'."""
    draw = rng.randrange(3)
    if draw == 0:
        covering = random_covering(rng, 6, 6)
    elif draw == 1:
        covering = as_covering(random_partition(rng, 6))
    else:
        covering = partition_with_union_block(rng, 6)[0]
    n = covering.universe.n
    table, verdicts = table_and_verdicts(covering)

    def lying(matroid):
        lattice = enumerate_lattice(matroid)
        masks = [f.mask for f in lattice.flats]
        candidates = [rng.choice(masks) | rng.choice(masks) for _ in range(3)]
        candidates += [1 << rng.randrange(n) | 1 << rng.randrange(n) for _ in range(3)]
        candidates.append(rng.choice(masks))
        lies = {mask: rng.choice((-1, 1)) for mask in rng.sample(candidates, rng.randint(1, 2))}
        return OffByOne(matroid, lies if rng.random() < 0.5 else {}), lattice

    induced = {
        kind: lying(verdict.partition_matroid(covering.universe))
        for kind, verdict in verdicts.items()
        if verdict.is_closure
    }
    return table, *lying(TransversalMatroid(covering)), induced


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
