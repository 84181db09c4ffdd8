"""Verification suites: implementation against oracle, structural claims
against enumeration.

Every suite returns ``CheckResult`` rows; a row is a named pass/fail with a
human-readable detail on failure.  The random campaign is seed-deterministic
and serializes any failing covering into the result so it can be replayed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement, count

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
from .bridge import SubmodularSystem, induced_rank
from .errors import GuardExceeded, InternalConsistencyError, ValidationError
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
    closure_from_rank,
    enumerate_lattice,
    modular_pairs,
)
from .oracle import BruteForce, brute_operator_axioms
from .relations import DeletionReads, full_relation_report
from .transversal import TransversalMatroid, ab_decomposition
from .universe import (
    MAX_UNIVERSE,
    Covering,
    ElementSet,
    SetFamily,
    Universe,
    as_partition,
    is_partition,
)

ALL_OPERATORS = (UpperOperator.SH, UpperOperator.XH, UpperOperator.VH)
SWEEP_GUARD_N = 14
FLAT_BOUND_ROW = "flat bound criterion matches independence"


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
    if universe.n > SWEEP_GUARD_N:
        raise GuardExceeded(
            f"{name}: universe size {universe.n} exceeds enumeration guard {SWEEP_GUARD_N}"
        )


def _checked(name: str, ok: bool, detail: str) -> CheckResult:
    """A row that keeps its detail only when it fails."""
    return CheckResult(name, ok, "" if ok else detail)


def _first_witness(name: str, detail: str, witnesses) -> CheckResult:
    """Pass iff ``witnesses`` yields nothing; a failure formats the first."""
    bad = next(iter(witnesses), None)
    return _checked(name, bad is None, detail.format(bad))


def _agree_on_subsets(name: str, universe: Universe, mine, theirs) -> CheckResult:
    """Pass iff ``mine`` and ``theirs`` agree on every subset; a failure
    names the first subset, in mask order, where they differ."""
    _refuse_over_sweep_guard(name, universe)
    bad = (x for x in universe.subsets() if mine(x) != theirs(x))
    return _first_witness(name, "differs on {!r}", bad)


def _subset_ranks(matroid: MatroidOracle, universe: Universe):
    """The rank and the independence test that a suite's subset sweeps read,
    from one ``rank`` call per subset: x is independent iff r(x) = |x|."""
    ranks = [matroid.rank(x) for x in universe.subsets()]
    return (lambda x: ranks[x.mask]), (lambda x: ranks[x.mask] == len(x))


def verify_oracle_equivalence(
    family: SetFamily, oracle: BruteForce, matroid: TransversalMatroid, lattice: FlatLattice
) -> list[CheckResult]:
    """Independence, rank, closure and flats against the brute-force oracle."""
    universe = family.universe
    _refuse_over_sweep_guard("independence agrees with oracle", universe)
    rank, independent = _subset_ranks(matroid, universe)
    results = [
        _agree_on_subsets(name, universe, mine, theirs)
        for name, mine, theirs in (
            ("independence agrees with oracle", independent, oracle.independent),
            ("rank agrees with oracle", rank, oracle.rank),
            ("closure agrees with oracle", matroid.closure, oracle.closure),
        )
    ]
    lattice_flats = tuple(f.mask for f in lattice.flats)
    oracle_flats = tuple(f.mask for f in oracle.flats())
    same = lattice_flats == oracle_flats
    results.append(_checked("flat enumeration agrees with oracle", same, "flat sets differ"))
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
        same = predicted == actual
        results.append(
            _checked("atoms match the block-difference prediction", same, "atom sets differ")
        )
        universe = family.universe
        closures = (matroid.closure(universe.singleton(e)).mask for e in range(universe.n))
        bad = (label for label, mask in zip(universe.labels, closures) if mask not in actual)
        results.append(
            _first_witness("singleton closures are atoms", "closure of {} is not an atom", bad)
        )
    return results


def verify_operator_criteria(table: NeighborhoodTable, verdicts: Verdicts) -> list[CheckResult]:
    """Partition criteria against exhaustive closure-axiom checks."""
    covering = table.covering
    results = []
    for kind, verdict in verdicts.items():
        axioms_hold, witness = brute_operator_axioms(covering, kind)
        results.append(
            _checked(
                f"{kind.value} criterion matches exhaustive axiom check",
                verdict.is_closure == axioms_hold,
                f"criterion={verdict.is_closure} axioms={axioms_hold} ({witness})",
            )
        )
    tra = tra_condition(table)
    sh_closure = verdicts[UpperOperator.SH].is_closure
    results.append(
        _checked(
            "co-blocking transitivity matches the sh criterion",
            tra == sh_closure,
            f"tra={tra} sh={sh_closure}",
        )
    )
    if equ_condition(covering):
        results.append(
            _checked(
                "equal block counts force a neighborhood partition",
                forms_partition(table.neighborhood),
                "neighborhoods do not form a partition",
            )
        )
    return results


def verify_induced_matroids(
    table: NeighborhoodTable,
    induced: dict[UpperOperator, tuple[PartitionMatroid, FlatLattice]],
) -> list[CheckResult]:
    """Induced partition matroids against their definitional independence.

    Each kind's sweep reads one table of its operator's images, one per
    subset: x is independent iff no e in x lies in the image of x - e.
    Kinds that share a (matroid, lattice) pair share one pair-closure scan;
    every kind still gets its own rows."""
    covering = table.covering
    results = []
    universe = covering.universe
    scans: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for kind, (matroid, lattice) in induced.items():
        name = f"{kind.value} matroid matches the definitional independence"
        _refuse_over_sweep_guard(name, universe)
        images = [table.apply(kind, x).mask for x in universe.subsets()]
        results.append(
            _agree_on_subsets(
                name,
                universe,
                lambda x: not any(images[x.mask ^ 1 << e] >> e & 1 for e in x.indices()),
                matroid.is_independent,
            )
        )
        key = id(matroid), id(lattice)
        if key not in scans:
            # each singleton (a == b) and each unordered pair is closed once
            closed = {
                1 << a | 1 << b: closure_from_rank(matroid, ElementSet(universe, 1 << a | 1 << b))
                for a, b in combinations_with_replacement(range(universe.n), 2)
            }
            # every pair is read: a closure that is not a flat raises wherever it is
            scans[key] = [
                (a, b)
                for a in range(universe.n)
                for b in range(universe.n)
                if a != b
                and lattice.covers(closed[1 << a], closed[1 << a | 1 << b])
                == any(cls.has_index(a) and cls.has_index(b) for cls in matroid.classes)
            ]
        results.append(
            _first_witness(f"{kind.value} pair-closure cover criterion", "fails on {}", scans[key])
        )
    if is_partition(covering):
        partition = as_partition(covering)
        matroid, _ = induced[UpperOperator.SH]
        results.append(
            _agree_on_subsets(
                "partition matroid closure equals the upper approximation",
                universe,
                lambda x: closure_from_rank(matroid, x),
                lambda x: partition_upper(partition, x),
            )
        )
    return results


def _lowest_pairs(flats, positions, masks):
    """The flats at each position with a nonzero mask and at its lowest bit."""
    for i, mask in zip(positions, masks):
        if mask:
            yield flats[i], flats[(mask & -mask).bit_length() - 1]


def verify_modularity(
    matroid: TransversalMatroid,
    lattice: FlatLattice,
    induced: dict[UpperOperator, tuple[PartitionMatroid, FlatLattice]],
) -> list[CheckResult]:
    """Atoms are modular elements and atom pairs are modular pairs, with the
    rank identity cross-checked against the height identity, all read from
    the two tables one ``modular_pairs`` pass builds per lattice.  The rows
    are symmetric, so the first row with a bit set in a tested mask has none
    below its own position: that bit is the first pair (i, j >= i).  Targets
    that share a (matroid, lattice) pair are decided once, with one pass,
    and each gets its own labelled rows."""
    results = []
    targets: list[tuple[str, MatroidOracle, FlatLattice]] = [("transversal", matroid, lattice)]
    targets += [(kind.value, m, lat) for kind, (m, lat) in induced.items()]
    decided: dict[tuple[int, int], list[CheckResult]] = {}
    for label, m, lat in targets:
        key = id(m), id(lat)
        if key not in decided:
            flats, (by_rank, by_heights) = lat.flats, modular_pairs(lat, m)
            differ = map(int.__xor__, by_rank, by_heights)
            atoms = [k for k, height in enumerate(lat.heights) if height == 1]
            atom_bits, everything = sum(1 << k for k in atoms), (1 << len(flats)) - 1
            crossed = _lowest_pairs(flats, count(), differ)
            unpaired = _lowest_pairs(flats, atoms, (atom_bits & ~by_rank[k] for k in atoms))
            nonmodular = (flats[k] for k in atoms if by_rank[k] != everything)
            decided[key] = [
                _first_witness(name, detail, bad)
                for name, detail, bad in (
                    ("rank and height modularity agree", "disagree on {}", crossed),
                    ("atom pairs are modular pairs", "fails on {}", unpaired),
                    ("atoms are modular elements", "fails on {!r}", nonmodular),
                )
            ]
        results += [CheckResult(f"{label}: {r.name}", r.passed, r.detail) for r in decided[key]]
    return results


def _min_plus_ranks(n: int, bounds) -> list[int]:
    """g(X) = min over (Y, v) in ``bounds`` of v + |X - Y|, for every mask X
    of n elements, in two passes of one sweep per element.

    The first makes u(X), the least v over the members Y containing X.  The
    second lowers each X holding e to at most the entry of X - e plus one
    in its sweep over e, so after the sweeps over a set K of elements, X
    reads the least u(X') + |X - X'| over the subsets X' of X with X - X'
    in K.  After all n sweeps that is g(X).  Each u(X') + |X - X'| is some
    v + |X - X'| with Y containing X', so it is at least v + |X - Y| >= g(X);
    and the Y that attains g(X) gives X' = X n Y, with u(X') <= v and
    |X - X'| = |X - Y|.  The sentinel, the largest v plus n + 1, exceeds
    every v + |X - Y|, so it stays only where there are no bounds: then
    every g(X) is over |X|.
    """
    size = 1 << n
    bounds = list(bounds)
    table = [max((v for _, v in bounds), default=0) + n + 1] * size
    for y, v in bounds:
        table[y] = min(table[y], v)
    steps = [1 << e for e in range(n)]
    halves = [(s, s + h, s + 2 * h) for h in steps for s in range(0, size, 2 * h)]
    for lo, mid, hi in halves:
        table[lo:mid] = map(min, table[lo:mid], table[mid:hi])
    for lo, mid, hi in halves:
        table[mid:hi] = map(min, table[mid:hi], [v + 1 for v in table[lo:mid]])
    return table


def _greedy_sets(n: int, ranks: list[int]) -> list[int]:
    """For every mask X, the set that the ascending greedy of
    ``LatticeInducedMatroid.rank`` keeps from X, with S independent iff
    ranks[S] >= |S|.  The greedy meets the highest element h of X last:
    it keeps G, the set it keeps from X - h, and adds h iff G + h is
    independent."""
    kept = [0]
    for e in range(n):
        h = 1 << e
        kept += [k | h if ranks[k | h] > k.bit_count() else k for k in kept]
    return kept


def verify_round_trip(
    family: SetFamily, matroid: TransversalMatroid, lattice: FlatLattice
) -> list[CheckResult]:
    """Rebuild the matroid from its flat lattice and compare everything.

    The lattice-to-matroid construction needs the empty set among the flats,
    so it only applies when the family covers the universe; the flat-bound
    independence criterion holds for every matroid and is always checked.
    Each row reads its lattice side from one ``_min_plus_ranks`` table: X is
    independent iff g(X) >= |X|, as f(T) >= |X n T| iff f(T) + |X - T| >= |X|.
    ``induced_rank``'s greedy cross-check is one ``_greedy_sets`` lookup per
    mask; ``induced_rank`` itself, with its per-call check, is asked once.
    """
    universe = family.universe
    covers = family.covers_universe()
    name = "matroid from lattice has the original independent sets"
    if isinstance(family, Covering) and is_partition(family):
        name += " (partition)"
    _refuse_over_sweep_guard(name if covers else FLAT_BOUND_ROW, universe)
    rank, independent = _subset_ranks(matroid, universe)
    results = []
    if covers:
        system = SubmodularSystem.from_flat_lattice(lattice)
        ranks = _min_plus_ranks(universe.n, ((s.mask, system.f(s)) for s in system.sets))
        greedy = _greedy_sets(universe.n, ranks)

        def checked_rank(x: ElementSet) -> int:
            best, kept = ranks[x.mask], greedy[x.mask].bit_count()
            if best != kept:
                raise InternalConsistencyError(
                    f"induced rank {best} of {x!r} disagrees with the matroid rank {kept}"
                )
            return best

        results.append(
            _agree_on_subsets(name, universe, lambda x: ranks[x.mask] >= len(x), independent)
        )
        results.append(
            _agree_on_subsets("induced rank equals the original rank", universe, checked_rank, rank)
        )
        if results[-1].passed:
            reference = induced_rank(system, universe.full())
            if reference != ranks[-1]:
                raise InternalConsistencyError(
                    f"induced rank {reference} of the universe disagrees with its table {ranks[-1]}"
                )
    flat_ranks = _min_plus_ranks(universe.n, ((y.mask, rank(y)) for y in lattice.flats))
    results.append(
        _agree_on_subsets(
            FLAT_BOUND_ROW, universe, lambda x: flat_ranks[x.mask] >= len(x), independent
        )
    )
    return results


def verify_relations(
    table: NeighborhoodTable, verdicts: Verdicts, reads: DeletionReads, lattice: FlatLattice
) -> list[CheckResult]:
    report = full_relation_report(table, verdicts, reads, lattice)
    return [
        CheckResult(f"relation: {r.claim}", bool(r.holds), r.witness or "")
        for r in report.records
        if r.applicable and r.holds is not None
    ]


def _transversal_suites(family: SetFamily) -> tuple[list[CheckResult], DeletionReads, FlatLattice]:
    """The suites every family gets, with the lattice they share and the
    ``DeletionReads`` of the matroid it was enumerated through.  The oracle
    comes first, so its budget refuses before any enumeration."""
    oracle = BruteForce(family)
    matroid = TransversalMatroid(family)
    reads = DeletionReads(matroid)
    lattice = enumerate_lattice(reads)
    results = verify_oracle_equivalence(family, oracle, matroid, lattice)
    results += verify_lattice_structure(family, matroid, lattice)
    results += verify_round_trip(family, matroid, lattice)
    return results, reads, lattice


def verify_family(family: SetFamily) -> list[CheckResult]:
    return _transversal_suites(family)[0]


def verify_covering(covering: Covering) -> list[CheckResult]:
    """Every suite, on one matroid, lattice, table and verdict per operator,
    and one partition matroid and lattice per distinct class partition:
    closure operators with equal classes share them, and so share their
    pair-closure scan and modularity tables.  Each still gets its own rows."""
    results, reads, lattice = _transversal_suites(covering)
    table = NeighborhoodTable.build(covering)
    verdicts = {kind: closure_operator_verdict(table, kind) for kind in ALL_OPERATORS}
    shared: dict[tuple[ElementSet, ...], tuple[PartitionMatroid, FlatLattice]] = {}
    induced = {}
    for kind, verdict in verdicts.items():
        if verdict.is_closure:
            if verdict.classes not in shared:
                m = verdict.partition_matroid(covering.universe)
                shared[verdict.classes] = m, enumerate_lattice(m)
            induced[kind] = shared[verdict.classes]
    results += verify_operator_criteria(table, verdicts)
    results += verify_induced_matroids(table, induced)
    results += verify_modularity(reads.whole, lattice, induced)
    results += verify_relations(table, verdicts, reads, lattice)
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
    budget) is skipped and counted in ``CampaignResult.skipped``.  Bounds
    below 1 or a ``max_n`` over the universe cap are refused before any draw.
    """
    if count < 1 or max_n < 1 or max_m < 1:
        raise ValidationError(
            f"campaign bounds must be at least 1: count={count}, max_n={max_n}, max_m={max_m}"
        )
    if max_n > MAX_UNIVERSE:
        raise ValidationError(f"campaign max_n={max_n} exceeds the universe cap of {MAX_UNIVERSE}")
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
