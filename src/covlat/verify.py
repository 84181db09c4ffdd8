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
    NeighborhoodTable,
    PartitionMatroid,
    UpperOperator,
    Verdicts,
    closure_operator_verdict,
    equ_condition,
    forms_partition,
    partition_upper,
    tra_condition,
)
from .bridge import (
    LatticeInducedMatroid,
    SubmodularSystem,
    independent_iff_flat_bound,
    induced_rank,
)
from .errors import GuardExceeded, ValidationError
from .generators import (
    partition_with_nested_block,
    partition_with_union_block,
    random_covering,
    random_family,
    random_partition,
)
from .lattice import (
    FlatLattice,
    MatroidOracle,
    enumerate_lattice,
    is_modular_element,
    is_modular_pair,
    modular_pair_by_heights,
)
from .oracle import BruteForce, brute_operator_axioms
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


def _refuse_over_sweep_guard(name: str, universe: Universe) -> None:
    """Universes over the enumeration guard are refused before any 2^n sweep."""
    if universe.n > ENUM_GUARD_N:
        raise GuardExceeded(
            f"{name}: universe size {universe.n} exceeds enumeration guard {ENUM_GUARD_N}"
        )


def _agree_on_subsets(name: str, universe: Universe, mine, theirs) -> CheckResult:
    """Pass iff ``mine`` and ``theirs`` agree on every subset; a failure
    names the first subset, in mask order, where they differ."""
    _refuse_over_sweep_guard(name, universe)
    bad = next((x for x in universe.subsets() if mine(x) != theirs(x)), None)
    return CheckResult(name, bad is None, "" if bad is None else f"differs on {bad!r}")


def verify_oracle_equivalence(
    family: SetFamily, oracle: BruteForce, matroid: TransversalMatroid, lattice: FlatLattice
) -> list[CheckResult]:
    """Independence, rank, closure and flats against the brute-force oracle."""
    results = [
        _agree_on_subsets(name, family.universe, mine, theirs)
        for name, mine, theirs in (
            ("independence agrees with oracle", matroid.is_independent, oracle.independent),
            ("rank agrees with oracle", matroid.rank, oracle.rank),
            ("closure agrees with oracle", matroid.closure, oracle.closure),
        )
    ]
    lattice_flats = tuple(f.mask for f in lattice.flats)
    oracle_flats = tuple(f.mask for f in oracle.flats())
    results.append(
        CheckResult(
            "flat enumeration agrees with oracle",
            lattice_flats == oracle_flats,
            "flat sets differ" if lattice_flats != oracle_flats else "",
        )
    )
    return results


def verify_lattice_structure(
    family: SetFamily, matroid: TransversalMatroid, lattice: FlatLattice
) -> list[CheckResult]:
    """Geometricity of the flat lattice, plus the atom formula on coverings."""
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
        bad = next(
            (
                e
                for e in range(universe.n)
                if matroid.closure(universe.singleton(e)).mask not in actual
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


def verify_operator_criteria(table: NeighborhoodTable, verdicts: Verdicts) -> list[CheckResult]:
    """Partition criteria against exhaustive closure-axiom checks."""
    covering = table.covering
    results = []
    for kind, verdict in verdicts.items():
        axioms_hold, witness = brute_operator_axioms(covering, kind)
        ok = verdict.is_closure == axioms_hold
        results.append(
            CheckResult(
                f"{kind.value} criterion matches exhaustive axiom check",
                ok,
                "" if ok else f"criterion={verdict.is_closure} axioms={axioms_hold} ({witness})",
            )
        )
    tra = tra_condition(table)
    sh_closure = verdicts[UpperOperator.SH].is_closure
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
    table: NeighborhoodTable,
    induced: dict[UpperOperator, tuple[PartitionMatroid, FlatLattice]],
) -> list[CheckResult]:
    """Induced partition matroids against their definitional independence."""
    covering = table.covering
    results = []
    universe = covering.universe
    for kind, (matroid, lattice) in induced.items():
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
        matroid, _ = induced[UpperOperator.SH]
        results.append(
            _agree_on_subsets(
                "partition matroid closure equals the upper approximation",
                universe,
                matroid.closure,
                lambda x: partition_upper(partition, x),
            )
        )
    return results


def verify_modularity(
    matroid: TransversalMatroid,
    lattice: FlatLattice,
    induced: dict[UpperOperator, tuple[PartitionMatroid, FlatLattice]],
) -> list[CheckResult]:
    """Atoms are modular elements and atom pairs are modular pairs, with the
    rank identity cross-checked against the height identity."""
    results = []
    targets: list[tuple[str, MatroidOracle, FlatLattice]] = [("transversal", matroid, lattice)]
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
        elem_bad = next(
            (a for a in atoms if not is_modular_element(lat, m, a)),
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


def verify_round_trip(
    family: SetFamily, matroid: TransversalMatroid, lattice: FlatLattice
) -> list[CheckResult]:
    """Rebuild the matroid from its flat lattice and compare everything.

    The lattice-to-matroid construction needs the empty set among the flats,
    so it only applies when the family covers the universe; the flat-bound
    independence criterion holds for every matroid and is always checked.
    """
    universe = family.universe
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


def verify_relations(
    table: NeighborhoodTable, verdicts: Verdicts, matroid: TransversalMatroid, lattice: FlatLattice
) -> list[CheckResult]:
    report = full_relation_report(table, verdicts, matroid, lattice)
    return [
        CheckResult(f"relation: {r.claim}", bool(r.holds), r.witness or "")
        for r in report.records
        if r.applicable and r.holds is not None
    ]


def _transversal_suites(
    family: SetFamily,
) -> tuple[list[CheckResult], TransversalMatroid, FlatLattice]:
    """The suites every family gets, with the matroid and lattice they share.
    The oracle comes first, so its budget refuses before any enumeration."""
    oracle = BruteForce(family)
    matroid = TransversalMatroid(family)
    lattice = enumerate_lattice(matroid)
    results = verify_oracle_equivalence(family, oracle, matroid, lattice)
    results += verify_lattice_structure(family, matroid, lattice)
    results += verify_round_trip(family, matroid, lattice)
    return results, matroid, lattice


def verify_family(family: SetFamily) -> list[CheckResult]:
    return _transversal_suites(family)[0]


def verify_covering(covering: Covering) -> list[CheckResult]:
    """Every suite, on one matroid, lattice, table and verdict per operator,
    and one partition matroid and lattice per closure operator."""
    results, matroid, lattice = _transversal_suites(covering)
    table = NeighborhoodTable.build(covering)
    verdicts = {kind: closure_operator_verdict(table, kind) for kind in ALL_OPERATORS}
    matroids = {
        kind: verdict.partition_matroid(covering.universe)
        for kind, verdict in verdicts.items()
        if verdict.is_closure
    }
    induced = {kind: (m, enumerate_lattice(m)) for kind, m in matroids.items()}
    results += verify_operator_criteria(table, verdicts)
    results += verify_induced_matroids(table, induced)
    results += verify_modularity(matroid, lattice, induced)
    results += verify_relations(table, verdicts, matroid, lattice)
    return results


def verify_family_round_trip(family: SetFamily) -> list[CheckResult]:
    """The round trip alone, as ``covlat verify --round-trip`` runs it.  Its
    sweeps need the enumeration guard, so it refuses before building."""
    _refuse_over_sweep_guard("round trip", family.universe)
    matroid = TransversalMatroid(family)
    return verify_round_trip(family, matroid, enumerate_lattice(matroid))


@dataclass
class CampaignResult:
    checks_run: int
    failures: list[CheckResult]
    skipped: int

    @property
    def passed(self) -> bool:
        """No check failed, and at least one check ran."""
        return self.checks_run > 0 and not self.failures


def verify_random(count: int, seed: int, max_n: int = 6, max_m: int = 6) -> CampaignResult:
    """Seeded random campaign over families, coverings and partitions.

    Any failing check is reported with the serialized instance so the run
    can be replayed.  An instance that trips a guard (typically the oracle
    budget) is skipped and counted in ``CampaignResult.skipped``.
    """
    if count < 1 or max_n < 1 or max_m < 1:
        raise ValidationError(
            f"campaign bounds must be at least 1: count={count}, max_n={max_n}, max_m={max_m}"
        )
    rng = random.Random(seed)
    checks_run = 0
    skipped = 0
    failures: list[CheckResult] = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            instance, suites = random_family(rng, max_n, max_m), verify_family
        elif kind == 1:
            instance, suites = random_covering(rng, max_n, max_m), verify_covering
        elif kind == 2:
            instance, suites = random_partition(rng, max_n), verify_covering
        else:
            build = partition_with_nested_block if i % 8 == 3 else partition_with_union_block
            instance, suites = build(rng, max_n)[0], verify_covering
        try:
            results = suites(instance)
        except GuardExceeded:
            skipped += 1
            continue
        checks_run += len(results)
        failures += [
            CheckResult(r.name, False, f"{r.detail} on\n{instance.serialize()}")
            for r in results
            if not r.passed
        ]
    return CampaignResult(checks_run, failures, skipped)
