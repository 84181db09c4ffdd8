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
from covlat.relations import check_reduction_preservation
from covlat.transversal import TransversalMatroid
from covlat.universe import as_covering, parse_family
from covlat.verify import verify_covering, verify_family, verify_random
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
