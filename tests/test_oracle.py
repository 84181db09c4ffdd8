import random

import pytest
from hypothesis import given

from covlat import (
    BruteForce,
    GuardExceeded,
    TransversalMatroid,
    UpperOperator,
    brute_independent,
    brute_operator_axioms,
)
from covlat import oracle
from covlat.oracle import ORACLE_MAX_N
from conftest import cov, fam, subsets
from strategies import families, partitions


class TestBruteIndependent:
    def test_full_transversal(self, family4):
        assert brute_independent(family4, family4.universe.subset(["2", "3", "4"]))

    def test_empty_set(self, family4):
        assert brute_independent(family4, family4.universe.empty())

    def test_single_block_pair(self):
        family = fam("universe: 1 2\nblock: 1 2")
        assert not brute_independent(family, family.universe.full())

    @given(families(max_n=5, max_m=5))
    def test_table_matches_single_shot_search(self, family):
        table = BruteForce(family)
        for x in subsets(family.universe):
            assert table.independent(x) == brute_independent(family, x)


class TestBruteFlats:
    def test_mixed5_has_sixteen(self, mixed5):
        assert len(BruteForce(mixed5).flats()) == 16

    def test_free_family_gives_powerset(self, family3):
        assert len(BruteForce(family3).flats()) == 8

    def test_singleton(self):
        assert len(BruteForce(cov("universe: a\nblock: a")).flats()) == 2


class TestBruteOperatorAxioms:
    def test_nested3_sh_passes(self, nested3):
        holds, witness = brute_operator_axioms(nested3, UpperOperator.SH)
        assert holds and witness is None

    def test_reduced_nested3_fails_with_idempotence_witness(self):
        shrunk = cov("universe: 1 2 3\nblock: 1 2\nblock: 1 3")
        holds, witness = brute_operator_axioms(shrunk, UpperOperator.SH)
        assert not holds
        assert witness is not None
        assert witness.law == "idempotence"
        assert witness.subset == shrunk.universe.subset(["2"])

    @given(partitions(max_n=5))
    def test_partitions_pass_every_operator(self, partition):
        for kind in UpperOperator:
            holds, _ = brute_operator_axioms(partition, kind)
            assert holds

    def test_monotonicity_witness_is_the_submask_walks(self, monkeypatch):
        # sh, xh and vh are monotone on every covering, so random extensive
        # tables stand in for the operator; the reference walks every
        # submask S of every U, U ascending and S descending
        def submask_walk(table):
            for upper in range(len(table)):
                sub = upper
                while True:
                    if table[sub] & ~table[upper]:
                        return sub
                    if sub == 0:
                        break
                    sub = (sub - 1) & upper
            return None

        rng = random.Random(27)
        violations = 0
        for _ in range(3000):
            n = rng.randint(1, 4)
            table = [rng.randrange(1 << n) | mask for mask in range(1 << n)]
            labels = " ".join(map(str, range(n)))
            covering = cov(f"universe: {labels}\nblock: {labels}")
            monkeypatch.setattr(oracle, "_operator_table", lambda covering, kind: table)
            _, witness = brute_operator_axioms(covering, UpperOperator.SH)
            expected = submask_walk(table)
            if expected is None:
                assert witness is None or witness.law != "monotonicity"
            else:
                violations += 1
                assert witness.law == "monotonicity"
                assert witness.subset.mask == expected
        assert violations > 1000


class TestBudget:
    def test_large_universe_refused(self):
        labels = " ".join(str(i) for i in range(1, 9))
        family = fam(f"universe: {labels}\nblock: {labels}")
        with pytest.raises(GuardExceeded):
            brute_independent(family, family.universe.empty())
        with pytest.raises(GuardExceeded):
            BruteForce(family)

    def test_seven_elements_are_inside_the_budget(self):
        assert ORACLE_MAX_N == 7
        labels = " ".join(str(i) for i in range(1, 8))
        family = cov(f"universe: {labels}\nblock: {labels}")
        assert BruteForce(family).rank(family.universe.full()) == 1
        assert brute_operator_axioms(family, UpperOperator.SH) == (True, None)

    @pytest.mark.parametrize(
        "call",
        [
            BruteForce,
            lambda c: brute_independent(c, c.universe.empty()),
            lambda c: brute_operator_axioms(c, UpperOperator.SH),
        ],
        ids=["BruteForce", "brute_independent", "brute_operator_axioms"],
    )
    def test_refusal_names_the_universe_size_and_the_budget(self, call):
        labels = " ".join(str(i) for i in range(1, 10))
        covering = cov(f"universe: {labels}\nblock: {labels}")
        with pytest.raises(GuardExceeded) as refused:
            call(covering)
        assert str(refused.value) == "universe size 9 exceeds the oracle budget of 7 elements"


@given(families(max_n=5, max_m=5))
def test_oracle_agrees_with_matroid_everywhere(family):
    oracle = BruteForce(family)
    matroid = TransversalMatroid(family)
    for x in subsets(family.universe):
        assert oracle.independent(x) == matroid.is_independent(x)
        assert oracle.rank(x) == matroid.rank(x)
        assert oracle.closure(x) == matroid.closure(x)
