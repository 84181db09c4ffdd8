import random

import pytest
from hypothesis import HealthCheck, settings

from covlat import (
    Covering,
    ElementSet,
    NeighborhoodTable,
    SetFamily,
    TransversalMatroid,
    Universe,
    UpperOperator,
    as_covering,
    closure_operator_verdict,
    enumerate_lattice,
    parse_family,
)

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


MIXED5 = """\
universe: 1 2 3 4 5
block K1: 1 2
block K2: 1 3
block K3: 2 3
block K4: 4 5
"""

DOUBLED9 = """\
universe: a b c d e f g h i
block K1: a b i
block K2: a b c d e f
block K3: f g h
block K4: c d e g h i
"""

NESTED3 = """\
universe: 1 2 3
block K1: 1 2
block K2: 1 3
block K3: 1 2 3
"""

CHAIN_A = """\
universe: 1 2 3
block K1: 1
block K2: 1 2
block K3: 2 3
block K4: 3
"""

CHAIN_B = """\
universe: 1 2 3
block K1: 1
block K2: 1 2
block K3: 2 3
block K5: 1 2 3
"""

FAMILY4 = """\
universe: 1 2 3 4
block F1: 2 3
block F2: 4
block F3: 2 4
"""

FAMILY3 = """\
universe: 1 2 3
block K1: 1 2
block K2: 1 3
block K3: 3
"""


def cov(text: str) -> Covering:
    return as_covering(parse_family(text))


def fam(text: str) -> SetFamily:
    return parse_family(text)


def table_and_verdicts(covering: Covering):
    """The covering's neighbourhood table and its verdict per operator."""
    table = NeighborhoodTable.build(covering)
    return table, {kind: closure_operator_verdict(table, kind) for kind in UpperOperator}


def relation_inputs(covering: Covering):
    """What the containment checks and the full relation report take."""
    return (*table_and_verdicts(covering), *transversal_and_lattice(covering))


def transversal_and_lattice(family: SetFamily):
    """What the deletion and reduct/exclusion checks take, besides a block."""
    matroid = TransversalMatroid(family)
    return matroid, enumerate_lattice(matroid)


def density_covering(rng: random.Random, n: int, m: int) -> Covering:
    """m distinct nonempty blocks, each element in each block with
    probability 0.3; an element left uncovered joins a random block.  It
    draws until it has m distinct blocks, so m must be at most 2^n - 1."""
    assert 1 <= m < 1 << n
    masks: list[int] = []
    while len(masks) < m:
        mask = sum(1 << e for e in range(n) if rng.random() < 0.3)
        if mask and mask not in masks:
            masks.append(mask)
    for e in range(n):
        if not any(mask >> e & 1 for mask in masks):
            masks[rng.randrange(m)] |= 1 << e
    universe = Universe(tuple(str(i + 1) for i in range(n)))
    return as_covering(SetFamily(universe, [ElementSet(universe, mask) for mask in masks]))


def subsets(universe: Universe):
    for mask in range(1 << universe.n):
        yield ElementSet(universe, mask)


@pytest.fixture
def mixed5() -> Covering:
    return cov(MIXED5)


@pytest.fixture
def doubled9() -> Covering:
    return cov(DOUBLED9)


@pytest.fixture
def nested3() -> Covering:
    return cov(NESTED3)


@pytest.fixture
def chain_a() -> Covering:
    return cov(CHAIN_A)


@pytest.fixture
def chain_b() -> Covering:
    return cov(CHAIN_B)


@pytest.fixture
def family4() -> SetFamily:
    return fam(FAMILY4)


@pytest.fixture
def family3() -> SetFamily:
    return fam(FAMILY3)
