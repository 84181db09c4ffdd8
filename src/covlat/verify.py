"""Verification suites: implementation against oracle, structural claims
against enumeration.

Every suite returns ``CheckResult`` rows; a row is a named pass/fail with a
human-readable detail on failure.  The random campaign is seed-deterministic
and serializes any failing covering into the result so it can be replayed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .approximation import (
    UpperOperator,
    closure_operator_verdict,
    equ_condition,
    forms_partition,
    induced_partition_matroid,
    neighborhood_table,
    partition_upper,
    tra_condition,
)
from .bridge import (
    LatticeInducedMatroid,
    SubmodularSystem,
    independent_iff_flat_bound,
    induced_rank,
)
from .errors import GuardExceeded
from .generators import (
    partition_with_nested_block,
    partition_with_union_block,
    random_covering,
    random_family,
    random_partition,
)
from .lattice import enumerate_lattice, is_modular_element, is_modular_pair, modular_pair_by_heights
from .oracle import DEFAULT_BUDGET, BruteForce, OracleBudget, brute_operator_axioms
from .relations import ENUM_GUARD_N, full_relation_report
from .transversal import TransversalMatroid, ab_decomposition
from .universe import Covering, Partition, SetFamily, Universe, as_partition, is_partition

ALL_OPERATORS = (UpperOperator.SH, UpperOperator.XH, UpperOperator.VH)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f": {self.detail}" if self.detail and not self.passed else ""
        return f"{status} {self.name}{suffix}"


def _agree_on_subsets(name: str, universe: Universe, mine, theirs) -> CheckResult:
    """Pass iff ``mine`` and ``theirs`` agree on every subset; a failure
    names the first subset, in mask order, where they differ.  Universes over
    the enumeration guard are refused before the 2^n sweep."""
    if universe.n > ENUM_GUARD_N:
        raise GuardExceeded(
            f"{name}: universe size {universe.n} exceeds enumeration guard {ENUM_GUARD_N}"
        )
    bad = next((x for x in universe.subsets() if mine(x) != theirs(x)), None)
    return CheckResult(name, bad is None, "" if bad is None else f"differs on {bad!r}")


def verify_oracle_equivalence(
    family: SetFamily, budget: OracleBudget = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Independence, rank, closure and flats against the brute-force oracle."""
    oracle = BruteForce(family, budget)
    matroid = TransversalMatroid(family)
    results = [
        _agree_on_subsets(name, family.universe, mine, theirs)
        for name, mine, theirs in (
            ("independence agrees with oracle", matroid.is_independent, oracle.independent),
            ("rank agrees with oracle", matroid.rank, oracle.rank),
            ("closure agrees with oracle", matroid.closure, oracle.closure),
        )
    ]
    lattice_flats = tuple(f.mask for f in enumerate_lattice(matroid).flats)
    oracle_flats = tuple(f.mask for f in oracle.flats())
    results.append(
        CheckResult(
            "flat enumeration agrees with oracle",
            lattice_flats == oracle_flats,
            "flat sets differ" if lattice_flats != oracle_flats else "",
        )
    )
    return results


def verify_lattice_structure(family: SetFamily) -> list[CheckResult]:
    """Geometricity of the flat lattice, plus the atom formula on coverings."""
    matroid = TransversalMatroid(family)
    lattice = enumerate_lattice(matroid)
    check = lattice.is_geometric()
    results = [CheckResult("flat lattice is geometric", check.ok, check.violation or "")]
    if isinstance(family, Covering):
        predicted = {a.mask for a in ab_decomposition(family).predicted_atoms()}
        actual = {a.mask for a in lattice.atoms()}
        results.append(
            CheckResult(
                "atoms match the block-difference prediction",
                predicted == actual,
                "" if predicted == actual else "atom sets differ",
            )
        )
        universe = family.universe
        atom_masks = {a.mask for a in lattice.atoms()}
        bad = next(
            (
                e
                for e in range(universe.n)
                if matroid.closure(universe.singleton(e)).mask not in atom_masks
            ),
            None,
        )
        results.append(
            CheckResult(
                "singleton closures are atoms",
                bad is None,
                "" if bad is None else f"closure of {universe.labels[bad]} is not an atom",
            )
        )
    return results


def verify_operator_criteria(
    covering: Covering, budget: OracleBudget = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Partition criteria against exhaustive closure-axiom checks."""
    results = []
    for kind in ALL_OPERATORS:
        verdict = closure_operator_verdict(covering, kind)
        axioms_hold, witness = brute_operator_axioms(covering, kind, budget)
        ok = verdict.is_closure == axioms_hold
        results.append(
            CheckResult(
                f"{kind.value} criterion matches exhaustive axiom check",
                ok,
                "" if ok else f"criterion={verdict.is_closure} axioms={axioms_hold} ({witness})",
            )
        )
    table = neighborhood_table(covering)
    tra = tra_condition(covering)
    sh_closure = closure_operator_verdict(covering, UpperOperator.SH).is_closure
    results.append(
        CheckResult(
            "co-blocking transitivity matches the sh criterion",
            tra == sh_closure,
            "" if tra == sh_closure else f"tra={tra} sh={sh_closure}",
        )
    )
    if equ_condition(covering):
        ok = forms_partition(table.neighborhood)
        results.append(
            CheckResult(
                "equal block counts force a neighborhood partition",
                ok,
                "" if ok else "neighborhoods do not form a partition",
            )
        )
    return results


def verify_induced_matroids(
    covering: Covering, budget: OracleBudget = DEFAULT_BUDGET
) -> list[CheckResult]:
    """Induced partition matroids against their definitional independence."""
    results = []
    table = neighborhood_table(covering)
    universe = covering.universe
    for kind in ALL_OPERATORS:
        if not closure_operator_verdict(covering, kind).is_closure:
            continue
        matroid = induced_partition_matroid(covering, kind)
        results.append(
            _agree_on_subsets(
                f"{kind.value} matroid matches the definitional independence",
                universe,
                lambda x: all(
                    not table.apply(kind, x.without_index(e)).has_index(e) for e in x.indices()
                ),
                matroid.is_independent,
            )
        )
        lattice = enumerate_lattice(matroid)
        violations = []
        for a in range(universe.n):
            for b in range(universe.n):
                if a == b:
                    continue
                x, y = universe.singleton(a), universe.singleton(b)
                same_class = any(
                    cls.has_index(a) and cls.has_index(b) for cls in matroid.classes
                )
                covers = lattice.covers(
                    matroid.closure(x), matroid.closure(x | y)
                )
                if covers == same_class:
                    violations.append((a, b))
        results.append(
            CheckResult(
                f"{kind.value} pair-closure cover criterion",
                not violations,
                "" if not violations else f"fails on {violations[0]}",
            )
        )
    if is_partition(covering):
        partition = as_partition(covering)
        matroid = induced_partition_matroid(covering, UpperOperator.SH)
        results.append(
            _agree_on_subsets(
                "partition matroid closure equals the upper approximation",
                universe,
                matroid.closure,
                lambda x: partition_upper(partition, x),
            )
        )
    return results


def verify_modularity(covering: Covering) -> list[CheckResult]:
    """Atoms are modular elements and atom pairs are modular pairs, with the
    rank identity cross-checked against the height identity."""
    results = []
    targets: list[tuple[str, object]] = [("transversal", TransversalMatroid(covering))]
    for kind in ALL_OPERATORS:
        if closure_operator_verdict(covering, kind).is_closure:
            targets.append((kind.value, induced_partition_matroid(covering, kind)))
    for label, matroid in targets:
        lattice = enumerate_lattice(matroid)  # type: ignore[arg-type]
        atoms = lattice.atoms()
        cross_bad = None
        for i, x in enumerate(lattice.flats):
            for y in lattice.flats[i:]:
                by_rank = is_modular_pair(lattice, matroid, x, y)  # type: ignore[arg-type]
                by_height = modular_pair_by_heights(lattice, x, y)
                if by_rank != by_height:
                    cross_bad = (x, y)
                    break
            if cross_bad:
                break
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
                if not is_modular_pair(lattice, matroid, a, b)  # type: ignore[arg-type]
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
        elem_bad = next(
            (a for a in atoms if not is_modular_element(lattice, matroid, a)),  # type: ignore[arg-type]
            None,
        )
        results.append(
            CheckResult(
                f"{label}: atoms are modular elements",
                elem_bad is None,
                "" if elem_bad is None else f"fails on {elem_bad!r}",
            )
        )
    return results


def verify_round_trip(family: SetFamily) -> list[CheckResult]:
    """Rebuild the matroid from its flat lattice and compare everything.

    The lattice-to-matroid construction needs the empty set among the flats,
    so it only applies when the family covers the universe; the flat-bound
    independence criterion holds for every matroid and is always checked.
    """
    universe = family.universe
    matroid = TransversalMatroid(family)
    lattice = enumerate_lattice(matroid)
    results = []
    if family.covers_universe():
        system = SubmodularSystem.from_flat_lattice(lattice)
        rebuilt = LatticeInducedMatroid(system)
        name = "matroid from lattice has the original independent sets"
        if isinstance(family, Partition) or (
            isinstance(family, Covering) and is_partition(family)
        ):
            name += " (partition)"
        results.append(
            _agree_on_subsets(name, universe, rebuilt.is_independent, matroid.is_independent)
        )
        results.append(
            _agree_on_subsets(
                "induced rank equals the original rank",
                universe,
                lambda x: induced_rank(system, x),
                matroid.rank,
            )
        )
    results.append(
        _agree_on_subsets(
            "flat bound criterion matches independence",
            universe,
            lambda x: independent_iff_flat_bound(matroid, x, lattice.flats),
            matroid.is_independent,
        )
    )
    return results


def verify_relations(covering: Covering) -> list[CheckResult]:
    report = full_relation_report(covering)
    return [
        CheckResult(f"relation: {r.claim}", bool(r.holds), r.witness or "")
        for r in report.records
        if r.applicable and r.holds is not None
    ]


def verify_family(family: SetFamily, budget: OracleBudget = DEFAULT_BUDGET) -> list[CheckResult]:
    results = verify_oracle_equivalence(family, budget)
    results += verify_lattice_structure(family)
    results += verify_round_trip(family)
    return results


def verify_covering(covering: Covering, budget: OracleBudget = DEFAULT_BUDGET) -> list[CheckResult]:
    results = verify_family(covering, budget)
    results += verify_operator_criteria(covering, budget)
    results += verify_induced_matroids(covering, budget)
    results += verify_modularity(covering)
    results += verify_relations(covering)
    return results


@dataclass
class CampaignResult:
    checks_run: int
    failures: list[CheckResult]
    skipped: int

    @property
    def passed(self) -> bool:
        """No check failed, and at least one check ran."""
        return self.checks_run > 0 and not self.failures


def verify_random(
    count: int,
    seed: int,
    max_n: int = 6,
    max_m: int = 6,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> CampaignResult:
    """Seeded random campaign over families, coverings and partitions.

    Any failing check is reported with the serialized instance so the run
    can be replayed.  An instance that trips a guard (typically the oracle
    budget) is skipped and counted in ``CampaignResult.skipped``.
    """
    rng = random.Random(seed)
    checks_run = 0
    skipped = 0
    failures: list[CheckResult] = []

    def run(instance: SetFamily, results: list[CheckResult]) -> None:
        nonlocal checks_run
        checks_run += len(results)
        for result in results:
            if not result.passed:
                failures.append(
                    CheckResult(
                        result.name,
                        False,
                        f"{result.detail} on\n{instance.serialize()}",
                    )
                )

    for i in range(count):
        kind = i % 4
        try:
            if kind == 0:
                family = random_family(rng, max_n, max_m)
                run(family, verify_family(family, budget))
            elif kind == 1:
                covering = random_covering(rng, max_n, max_m)
                run(covering, verify_covering(covering, budget))
            elif kind == 2:
                partition = random_partition(rng, max_n)
                run(partition, verify_covering(partition, budget))
            else:
                covering, _ = (
                    partition_with_nested_block(rng, max_n)
                    if i % 8 == 3
                    else partition_with_union_block(rng, max_n)
                )
                run(covering, verify_covering(covering, budget))
        except GuardExceeded:
            skipped += 1
    return CampaignResult(checks_run, failures, skipped)
